"""Histogram, correlation, attack harness, and differential metrics."""

import os
import random
import statistics

import pytest

from conftest import random_image
from dnamagic.analysis import (
    DIRECTIONS,
    adjacent_correlation,
    chi_square_uniform,
    chosen_plaintext_attack,
    differential_paired_seed,
    differential_sensitivity,
    evaluate_attack,
    high_bytes,
    histogram,
    pearson,
)
from dnamagic.cipher import encrypt
from dnamagic.errors import LengthMismatch, ZeroVariance
from dnamagic.imageio import PlainImage
from dnamagic.reference import KmerIndex, NucleotideSequence, ReferenceKey
from dnamagic.substitution import RandomStream


def gradient_image(n: int = 64) -> PlainImage:
    return PlainImage(n, n, bytes((c % 256) for _ in range(n) for c in range(n)))


# ---- histogram ----

def test_histogram_counts_values():
    hist = histogram(bytes(16))
    assert hist.bins[0] == 16
    assert sum(hist.bins) == hist.total == 16
    assert all(b == 0 for b in hist.bins[1:])


def test_histogram_total_matches_sample_count():
    rng = random.Random(21)
    values = [rng.randrange(256) for _ in range(999)]
    hist = histogram(values)
    assert hist.total == 999
    assert sum(hist.bins) == 999


def test_histogram_rejects_wide_values():
    with pytest.raises(ValueError):
        histogram([256])


def test_high_bytes_binning_rule():
    assert high_bytes([0x1234, 0x00FF, 0xFF00]) == [0x12, 0x00, 0xFF]


def test_chi_square_zero_for_flat_histogram():
    assert chi_square_uniform(histogram(list(range(256)))) == 0.0


def test_chi_square_concentrated_histogram():
    hist = histogram([7] * 256)
    # one bin holds everything: (256-1)^2/1 + 255*(0-1)^2/1
    assert chi_square_uniform(hist) == pytest.approx(255 ** 2 + 255)


# ---- pearson ----

def test_pearson_known_values():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_matches_stdlib_oracle():
    rng = random.Random(22)
    for _ in range(50):
        x = [rng.randrange(256) for _ in range(100)]
        y = [rng.randrange(256) for _ in range(100)]
        try:
            expected = statistics.correlation(x, y)
        except statistics.StatisticsError:
            continue
        r = pearson(x, y)
        assert r == pytest.approx(expected, abs=1e-9)
        assert abs(r) <= 1 + 1e-12


def test_pearson_symmetric():
    rng = random.Random(23)
    x = [rng.random() for _ in range(64)]
    y = [rng.random() for _ in range(64)]
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)


def test_pearson_invariant_under_positive_affine_maps():
    rng = random.Random(24)
    x = [rng.random() for _ in range(64)]
    y = [rng.random() for _ in range(64)]
    r = pearson(x, y)
    assert pearson(x, [2.5 * v - 7.0 for v in y]) == pytest.approx(r, abs=1e-9)
    assert pearson([0.3 * v + 11.0 for v in x], y) == pytest.approx(r, abs=1e-9)


def test_pearson_error_cases():
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ZeroVariance):
        pearson([5, 5, 5], [1, 2, 3])
    with pytest.raises(ZeroVariance):
        pearson([1, 2, 3], [5, 5, 5])


# ---- adjacent correlation ----

def test_gradient_is_perfectly_correlated_horizontally():
    img = gradient_image()
    report = adjacent_correlation(img.pixels, 64, 64, "horizontal", 4096, RandomStream(1))
    assert report.direction == "horizontal"
    assert report.sample_count == 4096
    assert report.r >= 0.99


def test_cipher_of_gradient_decorrelates(random_key):
    img = gradient_image()
    for seed in range(5):
        cip = encrypt(img, random_key, RandomStream(500 + seed))
        for direction in DIRECTIONS:
            report = adjacent_correlation(cip.pointers, 64, 64, direction,
                                          4096, RandomStream(seed))
            assert abs(report.r) <= 0.1


def test_constant_image_has_no_defined_correlation():
    with pytest.raises(ZeroVariance):
        adjacent_correlation(bytes(64), 8, 8, "horizontal", 64, RandomStream(2))


def test_adjacent_correlation_argument_errors():
    with pytest.raises(ValueError):
        adjacent_correlation(bytes(64), 8, 8, "antidiagonal", 16, RandomStream(3))
    with pytest.raises(ValueError):
        adjacent_correlation(bytes(64), 8, 8, "horizontal", 1, RandomStream(3))
    with pytest.raises(ValueError):
        adjacent_correlation(bytes(8), 8, 1, "vertical", 16, RandomStream(3))


@pytest.mark.parametrize("call,message", [
    (lambda: chi_square_uniform(histogram(b"")), "empty histogram"),
    (lambda: evaluate_attack(b"", b""), "nothing to evaluate"),
    (lambda: adjacent_correlation(bytes(64), 8, 8, "horizontal", 1, RandomStream(3)),
     "need at least two sampled pairs"),
])
def test_degenerate_inputs_raise_their_own_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_adjacent_correlation_without_rng_draws_from_a_fresh_stream(monkeypatch):
    img = random_image(random.Random(26), 16)
    monkeypatch.setattr(os, "urandom", lambda n: (7).to_bytes(n, "little"))  # the seed 7
    assert (adjacent_correlation(img.pixels, 16, 16, "vertical", 256)
            == adjacent_correlation(img.pixels, 16, 16, "vertical", 256, RandomStream(7)))


@pytest.mark.parametrize("count", [3, 100])
def test_adjacent_correlation_needs_one_cell_per_grid_position(count):
    cells = list(range(1, count + 1))
    with pytest.raises(LengthMismatch, match=f"^length mismatch: expected 16, got {count}$"):
        adjacent_correlation(cells, 4, 4, "horizontal", 64, RandomStream(4))


def test_sampling_is_seed_deterministic():
    rng = random.Random(25)
    img = random_image(rng, 16)
    a = adjacent_correlation(img.pixels, 16, 16, "diagonal", 256, RandomStream(9))
    b = adjacent_correlation(img.pixels, 16, 16, "diagonal", 256, RandomStream(9))
    assert a == b


# ---- attack harness ----

def test_replaying_the_known_pair_recovers_the_known_plain():
    rng = random.Random(26)
    plain = rng.randbytes(64)
    cipher_cells = [rng.randrange(65536) for _ in range(64)]
    candidate = chosen_plaintext_attack(plain, cipher_cells, cipher_cells)
    assert candidate == plain


def test_zero_plain_exposes_the_cipher_payload():
    cells = [0x0102, 0xABCD]
    candidate = chosen_plaintext_attack(bytes(2), cells, [0, 0])
    assert list(candidate) == [c & 0xFF for c in cells]


def test_attack_succeeds_against_xor_stream_stub():
    rng = random.Random(27)
    keystream = [rng.randrange(65536) for _ in range(256)]
    known_plain = rng.randbytes(256)
    target_plain = rng.randbytes(256)
    known_cipher = [p ^ k for p, k in zip(known_plain, keystream)]
    target_cipher = [p ^ k for p, k in zip(target_plain, keystream)]
    candidate = chosen_plaintext_attack(known_plain, known_cipher, target_cipher)
    report = evaluate_attack(candidate, target_plain)
    assert report.verdict == "success"
    assert report.match_fraction == 1.0


def test_attack_fails_against_this_cipher(random_key):
    rng = random.Random(28)
    fractions = []
    for _ in range(10):
        known = random_image(rng, 64)
        target = random_image(rng, 64)
        kc = encrypt(known, random_key, RandomStream(rng.getrandbits(64)))
        tc = encrypt(target, random_key, RandomStream(rng.getrandbits(64)))
        candidate = chosen_plaintext_attack(known.pixels, kc.pointers, tc.pointers)
        fractions.append(evaluate_attack(candidate, target.pixels).match_fraction)
    assert sum(fractions) / len(fractions) <= 0.05


def test_attack_length_mismatch():
    with pytest.raises(LengthMismatch):
        chosen_plaintext_attack(bytes(4), [0] * 4, [0] * 5)
    with pytest.raises(LengthMismatch):
        chosen_plaintext_attack(bytes(4), [0] * 3, [0] * 4)


def test_evaluate_attack_fractions():
    ones = bytes([1] * 16)
    assert evaluate_attack(ones, ones).verdict == "success"
    assert evaluate_attack(ones, bytes([2] * 16)).match_fraction == 0.0
    nearly = bytes([1] * 15 + [9])
    report = evaluate_attack(nearly, ones)
    assert report.match_fraction == pytest.approx(0.9375)
    assert report.verdict == "failure"
    with pytest.raises(LengthMismatch):
        evaluate_attack(bytes(3), bytes(4))


# ---- differential ----

def test_differential_requires_trials(random_key):
    with pytest.raises(ValueError):
        differential_sensitivity(gradient_image(8), random_key, 0, RandomStream(1))


def test_fresh_randomness_changes_nearly_all_cells(random_key):
    rng = random.Random(29)
    img = random_image(rng, 16)
    rate = differential_sensitivity(img, random_key, 4, RandomStream(31337))
    assert rate >= 0.95


def test_sensitivity_draws_index_then_original_seed_then_bumped_seed():
    # two key positions per value, so a cell keeps its pointer with odds 1/2
    # and the changed-cell count depends on which seed encrypts which image
    occurrences = tuple((2 * v, 2 * v + 1) for v in range(256))
    key = ReferenceKey(NucleotideSequence("A" * 8), KmerIndex(occurrences, 2), 0)
    img = random_image(random.Random(32), 8)
    rng = RandomStream(2024)
    expected = 0.0
    for _ in range(3):
        idx = rng.randbelow(64)
        bumped = bytearray(img.pixels)
        bumped[idx] = (bumped[idx] + 1) % 256
        c1 = encrypt(img, key, RandomStream(rng.next64()))
        c2 = encrypt(PlainImage(8, 8, bytes(bumped)), key, RandomStream(rng.next64()))
        expected += sum(1 for a, b in zip(c1.pointers, c2.pointers) if a != b) / 64
    assert differential_sensitivity(img, key, 3, RandomStream(2024)) == expected / 3


# a hand-built key whose every value has the one position 5 twice
REPEATED_POSITIONS = ReferenceKey(NucleotideSequence("A" * 8), KmerIndex(((5, 5),) * 256, 0), 0)


def test_sensitivity_rejects_an_image_value_with_repeated_positions():
    # the draw count would read 0.34375 here, where encrypting both images changes no cell
    rng = RandomStream(1)
    with pytest.raises(ValueError, match="^value 0 has a repeated key position$"):
        differential_sensitivity(PlainImage(4, 4, bytes(range(16))), REPEATED_POSITIONS, 2, rng)
    assert rng.next64() == RandomStream(1).next64()  # raised before any draw


@pytest.mark.parametrize("pixel_index", [-17, -1, 16, 17])
def test_paired_seed_rejects_a_pixel_index_outside_the_image(pixel_index):
    with pytest.raises(ValueError, match=f"^pixel index {pixel_index} is outside 0..15$"):
        differential_paired_seed(PlainImage(4, 4, bytes(range(16))), REPEATED_POSITIONS, 1,
                                 pixel_index)


def test_paired_seed_changes_exactly_one_cell(random_key):
    rng = random.Random(30)
    img = random_image(rng, 16)
    for trial in range(5):
        pixel = rng.randrange(256)
        assert differential_paired_seed(img, random_key, 1000 + trial, pixel) == 1
