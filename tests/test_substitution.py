"""Random stream determinism and one-to-many position substitution."""

import math
import random

import pytest

from conftest import random_image
from dnamagic.dna import BYTE_TO_QUAD
from dnamagic.errors import PointerOutOfRange, QuadNotCovered
from dnamagic.imageio import PlainImage
from dnamagic.reference import KmerIndex, NucleotideSequence, ReferenceKey, WINDOW_STARTS
from dnamagic.substitution import (
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


def test_missing_quad_raises_defensively():
    key = _stub_key({0: ()})
    img = PlainImage(1, 1, bytes([0]))
    with pytest.raises(QuadNotCovered) as exc:
        substitute(img, key, RandomStream(1))
    assert exc.value.quad == "CCCC"


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


def test_pointer_grid_validates_shape():
    with pytest.raises(ValueError):
        PointerGrid(2, 2, (1, 2, 3))
