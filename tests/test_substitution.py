"""Random stream determinism and one-to-many position substitution."""

import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image
from dnamagic import reference
from dnamagic.cipher import CipherImage, decrypt, encrypt
from dnamagic.dna import BYTE_TO_QUAD
from dnamagic.errors import PointerOutOfRange, SequenceTooShort
from dnamagic.imageio import PlainImage
from dnamagic.reference import (
    MIN_KEY_LENGTH,
    KmerIndex,
    NucleotideSequence,
    ReferenceKey,
    WINDOW_STARTS,
    pixel_table,
)
from dnamagic.substitution import (
    Cells,
    PointerGrid,
    RandomStream,
    reverse_substitute,
    substitute,
)


# ---- RandomStream ----

def test_stream_frozen_vectors():
    # cross-checked against an independent C build of the same recurrence
    s = RandomStream(1234567)
    assert [s.next64() for _ in range(3)] == [
        12033586665282998430, 440259258031914656, 2463578999421099143]
    s = RandomStream(0)
    assert s.next64() == 0x09AAB36CFDA2D1B3
    assert s.next64() == 0x5B00C67197590451


def test_equal_seeds_equal_sequences():
    a, b = RandomStream(99), RandomStream(99)
    assert [a.randbelow(1000) for _ in range(50)] == [b.randbelow(1000) for _ in range(50)]


def test_default_seed_comes_from_entropy():
    assert RandomStream().seed != RandomStream().seed  # 2^-64 collision odds


def test_seed_range_enforced():
    with pytest.raises(ValueError):
        RandomStream(1 << 64)
    with pytest.raises(ValueError):
        RandomStream(-1)
    RandomStream((1 << 64) - 1)


def test_randbelow_range_and_errors():
    s = RandomStream(5)
    assert all(0 <= s.randbelow(7) < 7 for _ in range(1000))
    assert RandomStream(5).randbelow(1) == 0
    with pytest.raises(ValueError):
        s.randbelow(0)


def test_randbelow_is_close_to_uniform():
    # 10000 draws over 7 options: each within 5 standard errors of 1/7
    s = RandomStream(2718281828)
    counts = [0] * 7
    draws = 10000
    for _ in range(draws):
        counts[s.randbelow(7)] += 1
    p = 1 / 7
    tolerance = 5 * math.sqrt(p * (1 - p) / draws)
    for c in counts:
        assert abs(c / draws - p) <= tolerance


def test_one_draw_per_call_keeps_streams_in_lockstep():
    # same seed, different ranges: raw consumption stays aligned
    a, b = RandomStream(321), RandomStream(321)
    for _ in range(100):
        a.randbelow(17)
        b.randbelow(65536)
    assert a.next64() == b.next64()


# ---- substitute / reverse_substitute ----

def _stub_key(occurrences_override=None, bases=None) -> ReferenceKey:
    occ = [(0,)] * 256
    if occurrences_override:
        for value, positions in occurrences_override.items():
            occ[value] = tuple(positions)
    return ReferenceKey(
        sequence=NucleotideSequence(bases or "A" * (WINDOW_STARTS + 4)),
        index=KmerIndex(tuple(occ), min_multiplicity=0),
        fingerprint=0,
    )


def test_every_pointer_decodes_to_its_source_quad(random_key):
    rng = random.Random(11)
    img = random_image(rng, 16)
    grid = substitute(img, random_key, RandomStream(77))
    bases = random_key.sequence.bases
    for v, p in zip(img.pixels, grid.pointers):
        assert bases[p:p + 4] == BYTE_TO_QUAD[v]


def test_singleton_occurrence_forces_the_pointer():
    key = _stub_key({0: (7,)})  # quad CCCC only at position 7
    img = PlainImage(1, 1, bytes([0]))
    for seed in range(30):
        assert substitute(img, key, RandomStream(seed)).pointers == (7,)


def test_identical_inputs_identical_grids(random_key):
    rng = random.Random(12)
    img = random_image(rng, 8)
    a = substitute(img, random_key, RandomStream(1234))
    b = substitute(img, random_key, RandomStream(1234))
    assert a == b


def test_distinct_seeds_change_most_cells(random_key):
    rng = random.Random(13)
    img = random_image(rng, 64)
    for trial in range(10):
        a = substitute(img, random_key, RandomStream(rng.getrandbits(64)))
        b = substitute(img, random_key, RandomStream(rng.getrandbits(64)))
        differing = sum(1 for x, y in zip(a.pointers, b.pointers) if x != y)
        assert differing / len(a.pointers) >= 0.90


def test_draws_are_uniform_over_occurrences(random_key):
    # 10000 single-pixel substitutions: each occurrence of the quad is chosen
    # with frequency 1/m within 5 standard errors
    value = 137
    options = random_key.index.occurrences[value]
    m = len(options)
    img = PlainImage(1, 1, bytes([value]))
    counts = {p: 0 for p in options}
    stream = RandomStream(987654321)
    draws = 10000
    for _ in range(draws):
        grid = substitute(img, random_key, stream)
        counts[grid.pointers[0]] += 1
    p = 1 / m
    tolerance = 5 * math.sqrt(p * (1 - p) / draws)
    for c in counts.values():
        assert abs(c / draws - p) <= tolerance


def test_round_trip_any_seed(random_key):
    rng = random.Random(14)
    for _ in range(50):
        img = random_image(rng, 8)
        grid = substitute(img, random_key, RandomStream(rng.getrandbits(64)))
        assert reverse_substitute(grid, random_key) == img


def test_pointer_zero_reads_the_leading_quad():
    key = _stub_key(bases="GATC" + "A" * WINDOW_STARTS)
    grid = PointerGrid(1, 1, (0,))
    img = reverse_substitute(grid, key)
    assert img == PlainImage(1, 1, bytes([228]))
    assert BYTE_TO_QUAD[img.pixels[0]] == "GATC"


def test_pointer_out_of_range_rejected(random_key):
    with pytest.raises(PointerOutOfRange) as exc:
        reverse_substitute(PointerGrid(2, 1, (3, 65536)), random_key)
    assert exc.value.index == 1
    assert exc.value.value == 65536


@pytest.mark.parametrize("length", [8, MIN_KEY_LENGTH - 1])
def test_short_hand_built_key_is_rejected_at_decode(length):
    # reading back needs bases up to position 65539; a shorter hand-built
    # key must fail loudly rather than decode some pixels wrong
    key = _stub_key(bases="GATC" * (length // 4) + "G" * (length % 4))
    with pytest.raises(SequenceTooShort) as exc:
        reverse_substitute(PointerGrid(2, 1, (0, 4)), key)
    assert exc.value.actual_length == length
    assert exc.value.required == MIN_KEY_LENGTH


def test_a_key_builds_its_decode_table_once(random_key, monkeypatch):
    calls = []

    def counted(bases):
        calls.append(len(bases))
        return pixel_table(bases)

    monkeypatch.setattr(reference, "pixel_table", counted)
    key = ReferenceKey(random_key.sequence, random_key.index, random_key.fingerprint)
    img = random_image(random.Random(19), 8)
    cipher = encrypt(img, key, RandomStream(19))
    assert decrypt(cipher, key) == img
    assert decrypt(cipher, key) == img
    assert calls == [len(key.sequence)]


def test_short_hand_built_key_fails_on_every_decode():
    # a failed build is not kept, so the next read fails the same way
    key = _stub_key(bases="GATC" * 4)
    for _ in range(2):
        with pytest.raises(SequenceTooShort):
            reverse_substitute(PointerGrid(2, 1, (0, 4)), key)


def test_pointer_grid_validates_shape():
    with pytest.raises(ValueError):
        PointerGrid(2, 2, (1, 2, 3))


def test_one_and_two_cell_grids_read_back_every_pixel():
    key = _stub_key(bases=BYTE_TO_QUAD[17] + BYTE_TO_QUAD[228] + "A" * WINDOW_STARTS)
    assert reverse_substitute(PointerGrid(1, 1, (4,)), key) == PlainImage(1, 1, bytes([228]))
    assert reverse_substitute(PointerGrid(2, 1, (4, 0)), key) == PlainImage(2, 1, bytes([228, 17]))
    # an int array of another typecode is stored as the same uint16 cells
    other_typecode = PointerGrid(2, 1, array("I", (4, 0)))
    assert reverse_substitute(other_typecode, key) == PlainImage(2, 1, bytes([228, 17]))


def test_empty_grid_fails_as_an_empty_image(random_key):
    with pytest.raises(ValueError, match="^dimensions must be positive, got 0x0$"):
        reverse_substitute(PointerGrid(0, 0, ()), random_key)


# ---- cells as one uint16 buffer ----

def test_tuple_and_buffer_built_grids_are_the_same_value():
    cells = (0, 1, 65535, 7)
    a = PointerGrid(2, 2, cells)
    b = PointerGrid(2, 2, array("H", cells))
    assert isinstance(a.pointers, Cells) and isinstance(b.pointers, Cells)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.pointers == cells and cells == a.pointers and a.pointers != list(cells)
    assert hash(a.pointers) == hash(cells) and repr(a.pointers) == repr(cells)
    assert a.pointers[1:3] == (1, 65535) and a.pointers[-1] == 7 and list(a.pointers) == [*cells]


def test_cells_are_not_equal_to_a_list_of_their_values():
    assert (PointerGrid(2, 1, (1, 2)).pointers == [1, 2]) is False


@pytest.mark.parametrize("typecode", "bBhHiIlLqQ")
def test_int_arrays_whose_cells_fit_are_cells_whatever_their_typecode(typecode):
    cells = (0, 1, 127, 7)
    a = PointerGrid(2, 2, cells)
    b = PointerGrid(2, 2, array(typecode, cells))
    assert isinstance(b.pointers, Cells)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("cells,index", [
    (array("I", [1, 70000]), 1),
    (array("h", [0, -1]), 1),
    (array("d", [0.0, 1.0]), 0),
])
def test_arrays_a_uint16_cannot_hold_are_rejected(cells, index, random_key):
    with pytest.raises(PointerOutOfRange) as exc:
        reverse_substitute(PointerGrid(2, 1, cells), random_key)
    assert (exc.value.index, exc.value.value) == (index, cells[index])


def test_grid_keeps_its_own_copy_of_a_buffer():
    source = array("H", (1, 2, 3, 4))
    grid = PointerGrid(2, 2, source)
    source[0] = 9
    assert grid.pointers == (1, 2, 3, 4)


def test_bytes_cells_are_their_values_not_raw_uint16_pairs():
    assert PointerGrid(2, 1, b"\x01\x02").pointers == (1, 2)


@pytest.mark.parametrize("cells", [(3, 65536), (-1, 0), (0, 70000), (0, 2.0), (0, "a")])
def test_cells_a_uint16_cannot_hold_are_rejected(cells, random_key):
    index = 0 if cells[0] == -1 else 1  # the first cell a uint16 cannot hold
    with pytest.raises(PointerOutOfRange) as exc:
        reverse_substitute(PointerGrid(2, 1, cells), random_key)
    assert (exc.value.index, exc.value.value) == (index, cells[index])
    # a cipher grid is rejected where it is built, so the index is the one
    # before unscrambling
    with pytest.raises(PointerOutOfRange) as exc:
        decrypt(CipherImage(4, 4, cells + (0,) * 14), random_key)
    assert (exc.value.index, exc.value.value) == (index, cells[index])


class Five:
    """Has an index, 5, but is not an int, so it is not a cell."""

    def __index__(self):
        return 5


@pytest.mark.parametrize("cells", [(3, Five()), [3, Five()]])
def test_an_object_with_index_is_not_a_cell(cells):
    for grid_type in (PointerGrid, CipherImage):
        with pytest.raises(PointerOutOfRange) as exc:
            grid_type(2, 1, cells)
        assert (exc.value.index, exc.value.value) == (1, cells[1])


@st.composite
def cell_sequences(draw):
    """Cells as a tuple of mixed values, as bytes, or as an int array of any typecode."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["tuple", "bytes", "array"]))
    if kind == "bytes":
        return draw(st.binary(min_size=n, max_size=n))
    if kind == "array":
        typecode = draw(st.sampled_from("bBhHiIlLqQ"))
        size = 1 << array(typecode).itemsize * 8
        low = -size // 2 if typecode.islower() else 0
        high = low + size - 1
        values = st.integers(0, min(high, 65535)) | st.integers(low, high)
        return array(typecode, draw(st.lists(values, min_size=n, max_size=n)))
    values = st.one_of(st.integers(0, 65535), st.integers(-(1 << 70), 1 << 70),
                       st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))
    return tuple(draw(st.lists(values, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(cells=cell_sequences())
def test_a_grid_holds_its_cells_or_names_the_first_that_does_not_fit(cells):
    bad = [(index, p) for index, p in enumerate(cells)
           if not (isinstance(p, int) and 0 <= p <= 65535)]
    for grid_type, width, height in ((PointerGrid, len(cells), 1), (CipherImage, 1, len(cells))):
        if bad:
            with pytest.raises(PointerOutOfRange) as exc:
                grid_type(width, height, cells)
            assert (exc.value.index, exc.value.value) == bad[0]
        else:
            grid = grid_type(width, height, cells)
            assert isinstance(grid.pointers, Cells) and grid.pointers == tuple(cells)
