"""The packages above the world import one way: engine -> scenarios ->
experiments (docs/ARCHITECTURE.md).  Every import statement counts,
function-local ones included, so a lower layer cannot reach up by hiding
the import inside a function."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: package -> the packages it must never import.
ABOVE = {
    "repro.engine": ("repro.scenarios", "repro.experiments"),
    "repro.scenarios": ("repro.experiments",),
}


def imported_modules(source: str, module: str):
    """(line, name) for every module an import in ``source`` (the text of
    dotted ``module``) names; ``from a import b`` yields ``a`` and ``a.b``,
    since ``b`` may be a module."""
    package = module.split(".")[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = ".".join(package[: len(package) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


@pytest.mark.parametrize("package", sorted(ABOVE))
def test_package_imports_only_downward(package):
    files = sorted((SRC / package.replace(".", "/")).rglob("*.py"))
    assert files, f"no sources under {package}"
    upward = []
    for path in files:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for line, name in imported_modules(path.read_text(), module):
            if any(_within(name, above) for above in ABOVE[package]):
                upward.append(f"{path.relative_to(SRC)}:{line} imports {name}")
    assert upward == [], "\n".join(upward)


def test_function_local_and_relative_imports_are_seen():
    source = (
        "def f():\n"
        "    from ..experiments import report\n"
        "    import repro.experiments.run\n"
        "    from . import timeline\n"
    )
    names = {name for _line, name in imported_modules(source, "repro.scenarios.probe")}
    assert {
        "repro.experiments",
        "repro.experiments.report",
        "repro.experiments.run",
        "repro.scenarios.timeline",
    } <= names
