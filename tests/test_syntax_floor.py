"""The library parses as Python 3.10, the floor pyproject.toml declares.

`ast.parse(..., feature_version=(3, 10))` rejects grammar newer than 3.10,
such as `except*`, even when the suite runs on a newer interpreter.  It
checks grammar only: a regular expression that needs a newer `re` (a
possessive quantifier such as `a*+`, or an atomic group `(?>...)`, both
3.11) is a string to the parser, and so is a call into a newer standard
library module.  Those still need review against the floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted((ROOT / "src" / "dnamagic").rglob("*.py"))


def test_floor_matches_requires_python():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
