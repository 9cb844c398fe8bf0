"""Source hygiene: the runtime imports only the standard library and never
touches floating point (README: "runtime has no dependencies", "no
floating point anywhere")."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "brieskorn").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


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
                found.append(f"line {node.lineno}: imports {root}")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: float(...) call")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only_and_no_floats(path):
    assert _offences(_tree(path)) == []


def test_checker_flags_each_offence():
    bad = ast.parse("import numpy\nfrom sympy.core import S\nx = 0.5\ny = float(2)\n")
    assert _offences(bad) == [
        "line 1: imports numpy",
        "line 2: imports sympy",
        "line 3: float literal 0.5",
        "line 4: float(...) call",
    ]
