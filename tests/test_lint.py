"""Rules on the package source that no behavioural test pins."""

from __future__ import annotations

import ast
from pathlib import Path

import utt

SOURCES = sorted(Path(utt.__file__).parent.glob("*.py"))


def test_src_holds_no_assert():
    """An invariant raises an error of its own: `python -O` strips every assert."""
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_utmat_and_conj_build_unchecked_windows():
    """UTWindow._of_residues trusts its caller for W(W+1)/2 canonical residues; the
    modules that call it are listed here, so a new caller is a reviewed decision."""
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        if any(isinstance(node, ast.Attribute) and node.attr == "_of_residues" for node in ast.walk(tree)):
            callers.add(path.stem)
    assert callers == {"utmat", "conj"}


def test_only_suite_build_makes_check_results():
    """Suites yield claims and Suite.build makes every record from them: one CheckResult call."""
    calls = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "CheckResult":
                    calls.append(scope)
            inner = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert calls == ["verify.Suite.build"]
