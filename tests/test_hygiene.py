"""Source hygiene: the runtime imports only the standard library, never
touches floating point (README: "runtime has no dependencies", "no
floating point anywhere"), divides only a ``Fraction`` (coefficients may be
ints, and int / int is a float), reads no environment variable (the CLI
flags are the one source of every setting), carries no name that nothing
uses, loads on ``import brieskorn.cli`` every module the bench tracer
wraps, and keeps ``src/`` under a recorded line ceiling."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "brieskorn").glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_call(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def _offences(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            roots = []
        for root in roots:
            if root not in sys.stdlib_module_names:
                found.append((node.lineno, f"imports {root}"))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        if _is_call(node, "float"):
            found.append((node.lineno, "float(...) call"))
        # os.environ, os.getenv and their imported names
        if {getattr(node, field, None) for field in ("attr", "id", "name")} & ENVIRONMENT:
            found.append((node.lineno, "reads the environment"))
        # ``x /= y`` has no Fraction(...) on its left
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if not _is_call(getattr(node, "left", None), "Fraction"):
                found.append((node.lineno, "true division of a non-Fraction"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only_and_no_floats(path):
    assert _offences(_tree(path)) == []


def test_checker_flags_each_offence():
    bad = ast.parse(
        "import numpy\nfrom sympy.core import S\nx = 0.5\ny = float(2)\n"
        "z = a / b\nz /= 2\nw = Fraction(1) / b\nv = a // b\n"
        "u = os.environ['A']\nfrom os import getenv\n"
    )
    assert _offences(bad) == [
        "line 1: imports numpy",
        "line 2: imports sympy",
        "line 3: float literal 0.5",
        "line 4: float(...) call",
        "line 5: true division of a non-Fraction",
        "line 6: true division of a non-Fraction",
        "line 9: reads the environment",
        "line 10: reads the environment",
    ]


def _names(node: ast.AST, skip: ast.AST) -> set[str]:
    """Every name the tree mentions (variables, attributes, imported
    names), outside the subtree ``skip``."""
    found: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.alias):
            found.add(current.name)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _exported(init: ast.Module) -> set[str]:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _definitions(tree: ast.Module):
    """(label, node) for each module-level function and class, and for each
    method of a module-level class that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{node.name}.{method.name}", method


def _unreferenced(modules: dict[str, ast.Module], config: str) -> list[str]:
    """The module-level functions and classes, and the methods, that no
    other code of the package names outside ``__init__.py``, that
    ``__all__`` does not export and that the project ``config`` does not
    name (an entry point): API that no CLI path, library caller or export
    needs."""
    exported = _exported(modules["__init__.py"])
    found = []
    for module, tree in modules.items():
        for label, node in _definitions(tree):
            name = node.name
            if name in exported or re.search(rf"\b{name}\b", config):
                continue
            if any(
                name in _names(other, skip=node)
                for other_module, other in modules.items()
                if other_module != "__init__.py"
            ):
                continue
            found.append(f"{module}: {label}")
    return found


def test_every_package_name_is_used_or_exported():
    modules = {path.name: _tree(path) for path in SOURCES}
    config = (ROOT / "pyproject.toml").read_text()
    assert _unreferenced(modules, config) == []


def test_unreferenced_names_are_flagged():
    modules = {
        "__init__.py": ast.parse("from .a import kept, unused\n__all__ = ['kept']\n"),
        "a.py": ast.parse(
            "def kept(): pass\n"
            "def unused(): return unused()\n"
            "def helper(): pass\n"
            "class Used:\n"
            "    def __init__(self): self.called()\n"
            "    def called(self): pass\n"
            "    def recursive(self): return self.recursive()\n"
            "def entrypoint(): pass\n"
        ),
        "b.py": ast.parse("from .a import helper\nx = helper.Used\n"),
    }
    config = 'brieskorn = "brieskorn.cli:entrypoint"'
    assert _unreferenced(modules, config) == ["a.py: unused", "a.py: Used.recursive"]


# run in a fresh interpreter: the owners that ``import brieskorn.cli`` leaves
# unresolved, by the lookup of ``bench/tracer.py``
TRACER_OWNERS = """
import importlib.util, sys
import brieskorn.cli
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
owners = {path for sites in tracer.SPAN_SITES.values() for path, _ in sites}
owners |= {path for path, _ in tracer.COUNT_SITES.values()}
for path in sorted(owners):
    try:
        tracer._owner(path)
    except (KeyError, AttributeError):
        print(path)
"""


def unresolved_tracer_owners(src: Path) -> list[str]:
    """The owners of the sites of ``bench/tracer.py`` (a module, or a
    ``module:Class``) that do not resolve after ``import brieskorn.cli``
    from ``src`` in a fresh interpreter; the tracer reads ``sys.modules``
    and imports nothing itself."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACER_OWNERS, str(ROOT / "bench" / "tracer.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.split()


def test_importing_the_cli_loads_every_module_the_bench_tracer_wraps():
    # a refactor that drops forms.DiffForm or imports a module lazily fails
    # here, not in a traced bench run
    assert unresolved_tracer_owners(ROOT / "src") == []


# ROADMAP aim 2 tracks the line count of src/: a change that adds lines
# raises this ceiling in the open, with the gain or guarantee that pays for
# them
SRC_LINE_CEILING = 3443


def test_src_stays_under_its_line_ceiling():
    lines = sum(path.read_text().count("\n") for path in SOURCES)
    assert lines <= SRC_LINE_CEILING
