"""Documentation conventions and the documentation surface itself.

Two layers of enforcement:

* conventions — every public ``repro.*`` module, class, function and
  method carries a docstring;
* the documentation surface — ``README.md`` exists, its Python code
  blocks actually execute, and every relative link in the README and
  ``docs/`` resolves to a real file.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if "__main__" not in name
]


def public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", None) == module.__name__:
                yield name, obj


def test_every_module_has_a_docstring():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing.append(name)
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_has_a_docstring():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        for member_name, obj in public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append(f"{name}.{member_name}")
    assert not missing, f"public items without docstrings: {missing}"


def test_public_methods_documented():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        for member_name, obj in public_members(module):
            if not inspect.isclass(obj):
                continue
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_") or not inspect.isfunction(meth):
                    continue
                if not (meth.__doc__ or "").strip():
                    missing.append(f"{name}.{member_name}.{meth_name}")
    assert not missing, f"public methods without docstrings: {missing}"


# ----------------------------------------------------------- the docs surface
def _python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def _markdown_links(text: str) -> list[str]:
    return re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", text)


def test_readme_exists_with_required_sections():
    readme = (REPO / "README.md").read_text()
    for needle in (
        "## Install",
        "## Quickstart",
        "## Command line",
        "## Layer map",
        "bench_control_loop",
        "docs/architecture.md",
        "docs/performance.md",
        "docs/experiments.md",
    ):
        assert needle in readme, f"README.md is missing {needle!r}"


def test_readme_python_blocks_execute(capsys, monkeypatch):
    """Every ```python block in the README runs as written."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    blocks = _python_blocks((REPO / "README.md").read_text())
    assert blocks, "README.md has no python examples"
    for i, block in enumerate(blocks):
        namespace: dict = {"__name__": f"readme_block_{i}"}
        try:
            exec(compile(block, f"README.md[python#{i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            raise AssertionError(
                f"README python block {i} failed: {exc}\n{block}"
            ) from exc


def test_markdown_links_resolve():
    """Relative links in README.md and docs/ point at real files."""
    broken = []
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        for target in _markdown_links(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = (doc.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                broken.append(f"{doc.relative_to(REPO)} -> {target}")
    assert not broken, f"broken documentation links: {broken}"
