"""The host byte order is read in one place.

Cells and stream draws are little-endian by definition; the library reads
`sys.byteorder` only inside `substitution._little`, the helper that swaps a
buffer on a big-endian host, so a test can drive every byte-order branch by
simulating the other order.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dnamagic").glob("*.py"))


def byteorder_reads() -> list[tuple[str, str]]:
    """(file, qualified scope) of every `byteorder` name or attribute in the library."""
    sites = []

    def visit(node: ast.AST, scope: tuple[str, ...], path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "byteorder"
                    or isinstance(child, ast.Name) and child.id == "byteorder"
                    or isinstance(child, ast.alias) and child.name == "byteorder"):
                sites.append((path.name, ".".join(scope)))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if named else scope, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), (), path)
    return sites


def test_the_host_byte_order_is_read_only_inside_little():
    assert byteorder_reads() == [("substitution.py", "_little")]
