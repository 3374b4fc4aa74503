"""Reach guard: every module under ``src/repro`` serves a paper artefact.

An AST walk starts at ``benchmarks/``, ``perfbench/``, ``examples/``,
``repro.cli`` and ``repro.__main__`` and follows every import of every
module it reaches, lazy ones included.  A name imported from a package
resolves through the package's re-exports to the module that defines
it, so a re-export alone reaches nothing.  A string constant that names
a module counts as an ``importlib.import_module`` target.  A module that
only tests reach should be deleted, not kept for them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
# Reached only by its tests until the paper-fidelity grid reports with it.
EXPECTED_UNREACHED = {"repro.experiments.stats"}

MODULES = {
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): p
    for p in (SRC / "repro").rglob("*.py")
}


def _defining(package: str, name: str) -> str:
    """The module that ``from package import name`` really uses."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if MODULES[package].name != "__init__.py":
        return package
    for node in ast.walk(ast.parse(MODULES[package].read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining(node.module, alias.name)
    return package


def _targets(path: Path) -> set[str]:
    """The ``repro`` modules one file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            found |= {_defining(node.module, a.name) for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found & MODULES.keys()


def unreached_modules() -> set[str]:
    roots = [p for d in ("benchmarks", "perfbench", "examples")
             for p in (ROOT / d).rglob("*.py")]
    roots += [MODULES[name] for name in ENTRY_MODULES]
    reached = set(ENTRY_MODULES)
    todo = [target for path in roots for target in _targets(path)]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            if MODULES[name].name != "__init__.py":
                todo.extend(_targets(MODULES[name]))
    return {name for name, path in MODULES.items()
            if name not in reached and path.name != "__init__.py"}


def test_only_the_expected_modules_are_unreached():
    assert unreached_modules() == EXPECTED_UNREACHED
