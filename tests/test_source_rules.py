"""The library parses at its Python floor, and states each of its one-site rules once.

Every library file parses as Python 3.10, the floor pyproject.toml declares.
`ast.parse(..., feature_version=(3, 10))` rejects grammar newer than 3.10,
such as `except*`, even when the suite runs on a newer interpreter.  It
checks grammar only: a regular expression that needs a newer `re` (a
possessive quantifier such as `a*+`, or an atomic group `(?>...)`, both
3.11) is a string to the parser, and so is a call into a newer standard
library module.  Those still need review against the floor.

Each rule in SITES is stated at one site, the (file, qualified scope) it names:
- `PointerGrid` alone decides which cells fit.  A pointer cell is an int in
  0..65535; any other stage that meets a cell that may not fit hands it to a
  `PointerGrid`, which names the first bad cell with its index.
- `ReferenceKey` alone decides which keys cover, a position for each of the
  256 values, so a key that misses a word cannot be built, and no stage that
  takes a key checks it again.
- `reference._window` alone reads the key window, the first 65,540 bases, and
  refuses a shorter key; the fingerprint and the position->pixel table both
  read the window from it.
- `cipher._check_dimensions` alone refuses an image side, which `encrypt`,
  `decrypt`, `deserialize` and the analysis counts share.
- The host byte order is read only in `substitution._little`.  Cells and
  stream draws are little-endian by definition; `_little` swaps a buffer on a
  big-endian host, so a test can drive every byte-order branch by simulating
  the other order.
- A word is named from its value only by the `dna` layer, which defines the
  words, and by the key's one word-list helper, `reference._words_with`: the
  words a key misses, which `ReferenceKey` refuses and `keyinfo` reports,
  and the words it holds once, which `build_key` warns of.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted((ROOT / "src" / "dnamagic").rglob("*.py"))

# (what the node does, the name it does it with): every site in the library that does it
SITES = {
    ("raise", "PointerOutOfRange"): [("substitution.py", "PointerGrid.__post_init__")],
    ("raise", "QuadCoverageError"): [("reference.py", "ReferenceKey.__post_init__")],
    ("raise", "SequenceTooShort"): [("reference.py", "_window")],
    ("raise", "DimensionError"): [("cipher.py", "_check_dimensions")],
    ("read", "byteorder"): [("substitution.py", "_little")],
    ("read", "BYTE_TO_QUAD"): [("dna.py", ""), ("dna.py", ""), ("dna.py", "synthesize"),
                               ("reference.py", ""), ("reference.py", "_words_with")],
}


@functools.cache
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def spelled(node: ast.AST | None) -> str | None:
    """The name a node spells: `E`, `m.E` and an import of E give E, as does `raise E(...)`."""
    if isinstance(node, ast.Raise):
        return spelled(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def sites(action: str, name: str) -> list[tuple[str, str]]:
    """(file, qualified scope) of every raise of name, or every other node that spells it."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...], path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) == (action == "raise") and spelled(child) == name:
                found.append((path.name, ".".join(scope)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope, path)

    for path in SOURCES:
        visit(parsed(path), (), path)
    return found


def test_floor_matches_requires_python():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_at_the_floor(path):
    parsed(path)


@pytest.mark.parametrize("rule", SITES, ids=[name for _, name in SITES])
def test_rule_is_stated_at_one_site(rule):
    assert sites(*rule) == SITES[rule]
