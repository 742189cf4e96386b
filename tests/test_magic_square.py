"""Magic square construction and grid scrambling."""

import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_doubly_even
from dnamagic.errors import LengthMismatch, NotDoublyEven, OrderTooLarge
from dnamagic.magic_square import (
    MAX_ORDER,
    MagicSquare,
    generate_doubly_even,
    magic_constant,
    scramble,
    scramble_square,
    to_permutation,
    unscramble,
)
from dnamagic.substitution import Cells


def oracle_scramble_square(grid, n: int):
    """scramble_square as first written, kept verbatim: it reads each mirrored
    cell from a reversed copy of the grid."""
    if n < 4 or n % 4 != 0:
        raise NotDoublyEven(n)
    if len(grid) != n * n:
        raise LengthMismatch(n * n, len(grid))
    out = grid[:] if isinstance(grid, array) else list(grid)
    reversed_grid = out[::-1]
    for i in range(n):
        row = i * n
        for c in ((0, 3) if i % 4 in (0, 3) else (1, 2)):
            out[row + c:row + n:4] = reversed_grid[row + c:row + n:4]
    return out


EXPECTED_ORDER_4 = ((16, 2, 3, 13), (5, 11, 10, 8), (9, 7, 6, 12), (4, 14, 15, 1))


def assert_is_magic(square: MagicSquare):
    n = square.order
    sigma = magic_constant(n)
    values = [v for row in square.cells for v in row]
    assert sorted(values) == list(range(1, n * n + 1))
    for row in square.cells:
        assert sum(row) == sigma
    for j in range(n):
        assert sum(square.cells[i][j] for i in range(n)) == sigma
    assert sum(square.cells[i][i] for i in range(n)) == sigma
    assert sum(square.cells[i][n - 1 - i] for i in range(n)) == sigma


def test_magic_constant_known_values():
    assert magic_constant(4) == 34  # sum 1..16 is 136, split over 4 rows
    assert magic_constant(8) == 260
    assert magic_constant(1) == 1


def test_order_4_exact_grid():
    assert generate_doubly_even(4).cells == EXPECTED_ORDER_4


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20, 32])
def test_all_lines_sum_to_magic_constant(n):
    assert_is_magic(generate_doubly_even(n))


@pytest.mark.parametrize("n", [*range(4, 257, 4), 512, MAX_ORDER])
def test_matches_frozen_constructor(n):
    assert generate_doubly_even(n) == oracle_doubly_even(n)


@pytest.mark.parametrize("n", [5, 6, 2, 1, 0, -4, MAX_ORDER + 2])
def test_rejects_orders_not_multiple_of_four(n):
    with pytest.raises(NotDoublyEven):
        generate_doubly_even(n)
    with pytest.raises(NotDoublyEven):
        scramble_square([], n)


def test_rejects_orders_above_limit():
    tracemalloc.start()
    try:
        for n in (MAX_ORDER + 4, 40000):
            with pytest.raises(OrderTooLarge):
                generate_doubly_even(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # an order-1028 square alone would take tens of MB


def test_permutation_from_order_4():
    perm = to_permutation(generate_doubly_even(4))
    assert perm.forward[0] == 15  # cell value 16 sends source 0 to destination 15
    assert sorted(perm.forward) == list(range(16))
    for k in range(16):
        assert perm.backward[perm.forward[k]] == k
        assert perm.forward[perm.backward[k]] == k


@pytest.mark.parametrize("n", [4, 8, 12, 20, 64, 132])
def test_permutation_is_bijective(n):
    perm = to_permutation(generate_doubly_even(n))
    assert sorted(perm.forward) == list(range(n * n))
    assert [perm.backward[d] for d in perm.forward] == list(range(n * n))
    assert perm.forward == perm.backward


@pytest.mark.parametrize("n", range(4, 257, 4))
def test_closed_form_matches_reference_permutation(n):
    perm = to_permutation(oracle_doubly_even(n))
    grid = list(range(n * n))
    assert scramble_square(grid, n) == scramble(grid, perm) == unscramble(grid, perm)


def test_scramble_order_4_derived_positions():
    perm = to_permutation(generate_doubly_even(4))
    out = scramble(list(range(16)), perm)
    assert out[15] == 0  # input 0 lands where cell value 16 points
    back = unscramble(out, perm)
    assert back == list(range(16))
    assert back[0] == 0  # position 15 returns to position 0


def test_identity_permutation_is_noop():
    from dnamagic.magic_square import Permutation
    ident = Permutation(4, (0, 1, 2, 3), (0, 1, 2, 3))
    assert scramble([9, 8, 7, 6], ident) == [9, 8, 7, 6]
    assert unscramble([9, 8, 7, 6], ident) == [9, 8, 7, 6]


@pytest.mark.parametrize("n", [4, 8, 16])
def test_scramble_unscramble_round_trip(n):
    rng = random.Random(9)
    perm = to_permutation(generate_doubly_even(n))
    for _ in range(100):
        grid = [rng.randrange(65536) for _ in range(n * n)]
        assert unscramble(scramble(grid, perm), perm) == grid


def test_scramble_preserves_multiset():
    rng = random.Random(10)
    perm = to_permutation(generate_doubly_even(8))
    grid = [rng.randrange(100) for _ in range(64)]
    assert sorted(scramble(grid, perm)) == sorted(grid)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(range(4, 65, 4)), seed=st.integers(0, 2**32))
def test_scramble_square_keeps_a_uint16_array_an_array(n, seed):
    rng = random.Random(seed)
    grid = [rng.randrange(65536) for _ in range(n * n)]
    out = scramble_square(array("H", grid), n)
    assert isinstance(out, array) and out.typecode == "H"
    assert out == array("H", scramble_square(list(grid), n))
    assert scramble_square(out, n) == array("H", grid)
    assert all(type(scramble_square(cells, n)) is list
               for cells in (grid, tuple(grid), range(n * n)))
    for cells in (array("H", grid), grid, tuple(grid), range(n * n), Cells(array("H", grid))):
        assert scramble_square(cells, n) == oracle_scramble_square(cells, n)


def test_length_mismatch_rejected():
    perm = to_permutation(generate_doubly_even(4))
    with pytest.raises(LengthMismatch):
        scramble([1, 2, 3], perm)
    with pytest.raises(LengthMismatch):
        unscramble(list(range(17)), perm)
    with pytest.raises(LengthMismatch):
        scramble_square([1, 2, 3], 4)
    with pytest.raises(LengthMismatch):
        scramble_square(list(range(17)), 4)
