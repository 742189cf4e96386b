"""Doubly-even magic squares and the cell permutations they induce."""

from dataclasses import dataclass
from typing import Sequence

from .errors import LengthMismatch, NotDoublyEven, OrderTooLarge

# largest order generate_doubly_even builds; its square holds order^2 Python ints
MAX_ORDER = 1024


def magic_constant(n: int) -> int:
    """Common line sum of an order-n magic square: n(n^2+1)/2."""
    return n * (n * n + 1) // 2


@dataclass(frozen=True)
class MagicSquare:
    order: int
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Permutation:
    """Bijection on [0, size) with its precomputed inverse."""

    size: int
    forward: tuple[int, ...]
    backward: tuple[int, ...]


def generate_doubly_even(n: int) -> MagicSquare:
    """Construct an order-n magic square for n a positive multiple of 4.

    The square is scramble_square applied to 1..n^2 laid out row-major: every
    cell on the diagonal pattern of its 4x4 block holds the complement
    n^2+1-v of its row-major value v.  So the square is, by construction,
    the permutation the cipher applies.
    """
    if n < 4 or n % 4 != 0:
        raise NotDoublyEven(n)
    if n > MAX_ORDER:
        raise OrderTooLarge(n, MAX_ORDER)
    values = scramble_square(range(1, n * n + 1), n)
    return MagicSquare(n, tuple(tuple(values[row:row + n]) for row in range(0, n * n, n)))


def to_permutation(square: MagicSquare) -> Permutation:
    """Cell value v sends row-major source index to destination v-1."""
    n = square.order
    forward = [0] * (n * n)
    for i, row in enumerate(square.cells):
        for j, v in enumerate(row):
            forward[i * n + j] = v - 1
    backward = [0] * len(forward)
    for src, dst in enumerate(forward):
        backward[dst] = src
    return Permutation(n * n, tuple(forward), tuple(backward))


def scramble(grid: Sequence, perm: Permutation) -> list:
    """Rearrange cells so that output[forward[k]] = input[k]."""
    if len(grid) != perm.size:
        raise LengthMismatch(perm.size, len(grid))
    out = [None] * perm.size
    for k, dst in enumerate(perm.forward):
        out[dst] = grid[k]
    return out


def unscramble(grid: Sequence, perm: Permutation) -> list:
    """Exact inverse of scramble: output[k] = input[forward[k]]."""
    if len(grid) != perm.size:
        raise LengthMismatch(perm.size, len(grid))
    return [grid[dst] for dst in perm.forward]


def scramble_square(grid: Sequence, n: int) -> list:
    """The magic-square permutation of an order-n grid, in closed form.

    Cell k = i*n + j moves to n^2-1-k exactly when i % 4 and j % 4 are both
    or neither in {0, 3}; every other cell stays put.  That set is symmetric
    under k -> n^2-1-k, so the map is its own inverse and this one call both
    scrambles and unscrambles.  Applied to 1..n^2 it gives the cells of
    generate_doubly_even(n), whose value v in cell k sends k to v-1.
    """
    if n < 4 or n % 4 != 0:
        raise NotDoublyEven(n)
    if len(grid) != n * n:
        raise LengthMismatch(n * n, len(grid))
    out = list(grid)
    reversed_grid = out[::-1]
    for i in range(n):
        row = i * n
        for c in ((0, 3) if i % 4 in (0, 3) else (1, 2)):
            out[row + c:row + n:4] = reversed_grid[row + c:row + n:4]
    return out
