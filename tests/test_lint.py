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
