"""`PointerGrid` alone decides which cells fit, and `ReferenceKey` alone which keys cover.

The rule for a pointer cell, an int in 0..65535, is stated once: every
`raise PointerOutOfRange` in the library sits in `PointerGrid.__post_init__`,
and there is exactly one.  Any other stage that meets a cell that may not fit
hands it to a `PointerGrid`, which names the first bad cell with its index.
So is the rule for a key, a position for each of the 256 values: the one
`raise QuadCoverageError` sits in `ReferenceKey.__post_init__`, so a key that
misses a word cannot be built, and no stage that takes a key checks it again.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dnamagic").glob("*.py"))


def raised_name(exc: ast.expr | None) -> str | None:
    """The name a raise statement raises: `E`, `E(...)`, `m.E` or `m.E(...)`."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def raise_sites(name: str) -> list[tuple[str, str]]:
    """(file, qualified scope) of every statement that raises `name`."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...], path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and raised_name(child.exc) == name:
                sites.append((path.name, ".".join(scope)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), (), path)
    return sites


def test_pointer_out_of_range_is_raised_only_where_a_grid_is_built():
    assert raise_sites("PointerOutOfRange") == [("substitution.py", "PointerGrid.__post_init__")]


def test_quad_coverage_error_is_raised_only_where_a_key_is_built():
    assert raise_sites("QuadCoverageError") == [("reference.py", "ReferenceKey.__post_init__")]
