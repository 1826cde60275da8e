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
