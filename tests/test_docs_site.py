"""Documentation-site integrity, checkable without the docs toolchain.

CI builds the mkdocs site with ``--strict``; these tests catch the same
classes of breakage locally (where mkdocs may not be installed): autodoc
directives that point at renamed or deleted objects, nav entries for
missing pages, and an API reference that silently drops a public sampler.
The README quickstart is also executed, so the first code a new user
copies cannot rot.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
AUTODOC_RE = re.compile(r"^::: (?P<target>[\w.]+)\s*$", re.MULTILINE)


def _autodoc_targets() -> dict[str, str]:
    """All ``::: dotted.path`` directives across the API pages."""
    targets = {}
    for page in sorted((DOCS / "api").glob("*.md")):
        for match in AUTODOC_RE.finditer(page.read_text()):
            targets[match.group("target")] = page.name
    return targets


def _resolve(dotted: str):
    """Import the object a mkdocstrings directive points at."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attribute in parts[split:]:
            obj = getattr(obj, attribute)
        return obj
    raise ImportError(f"cannot resolve autodoc target {dotted!r}")


def test_docs_tree_is_complete():
    for page in [
        "index.md", "batching.md", "paper_mapping.md",
        "api/core.md", "api/samplers.md", "api/oracle.md", "api/pipeline.md",
    ]:
        assert (DOCS / page).is_file(), f"docs page {page} is missing"
    assert (REPO_ROOT / "mkdocs.yml").is_file()
    assert (REPO_ROOT / "README.md").is_file()


def test_autodoc_targets_resolve():
    targets = _autodoc_targets()
    assert targets, "no autodoc directives found under docs/api/"
    for dotted, page in targets.items():
        obj = _resolve(dotted)
        assert obj is not None, f"{page}: {dotted} resolved to None"
        doc = getattr(obj, "__doc__", None)
        assert doc and doc.strip(), f"{page}: {dotted} has no docstring"


def test_every_public_sampler_is_documented():
    import repro.samplers as samplers

    targets = _autodoc_targets()
    documented = {t.rsplit(".", 1)[-1] for t in targets}
    for name in samplers.__all__:
        assert name in documented, f"sampler {name} missing from API reference"
    assert "OASISSampler" in documented


def test_every_public_oracle_is_documented():
    import repro.oracle as oracle

    documented = {t.rsplit(".", 1)[-1] for t in _autodoc_targets()}
    for name in oracle.__all__:
        assert name in documented, f"oracle {name} missing from API reference"


def test_service_protocol_is_documented():
    # The one module both serving tiers share; its docstring carries
    # the route table, so the API page renders the whole module.
    assert _autodoc_targets().get("repro.service.protocol") == "service.md"


def test_baseline_samplers_have_parameter_docstrings():
    """The docstring pass: every baseline documents its parameters."""
    from repro.samplers import (
        ImportanceSampler,
        OSSSampler,
        PassiveSampler,
        StratifiedSampler,
    )

    for cls in [ImportanceSampler, OSSSampler, PassiveSampler, StratifiedSampler]:
        doc = cls.__doc__
        assert "Parameters" in doc, f"{cls.__name__} lacks a Parameters section"
        for parameter in ["predictions", "oracle", "alpha", "random_state"]:
            assert parameter in doc, (
                f"{cls.__name__} does not document {parameter!r}"
            )


def test_nav_entries_exist():
    """Every relative page referenced from mkdocs.yml nav must exist."""
    nav_pages = re.findall(r":\s*([\w/]+\.md)\s*$",
                           (REPO_ROOT / "mkdocs.yml").read_text(),
                           re.MULTILINE)
    assert nav_pages, "mkdocs.yml nav is empty"
    for page in nav_pages:
        assert (DOCS / page).is_file(), f"nav references missing page {page}"


def test_readme_quickstart_runs():
    """The first fenced python block in README.md must execute."""
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks, "README.md has no python quickstart block"
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)  # noqa: S102
    sampler = namespace["sampler"]
    assert sampler.labels_consumed >= 400
    assert 0.0 <= sampler.estimate <= 1.0
