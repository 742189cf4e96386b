"""Statistical test bench for the cipher: value histograms, adjacent-cell
correlation, an XOR-replay attack harness, and differential sensitivity.
"""

import math
from dataclasses import dataclass
from typing import Sequence

from .cipher import encrypt
from .errors import LengthMismatch, ZeroVariance
from .imageio import PlainImage
from .reference import ReferenceKey
from .substitution import RandomStream

DIRECTIONS = ("horizontal", "vertical", "diagonal")
DEFAULT_SAMPLE_PAIRS = 4096

_OFFSETS = {"horizontal": (0, 1), "vertical": (1, 0), "diagonal": (1, 1)}


@dataclass(frozen=True)
class Histogram:
    bins: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class CorrelationReport:
    direction: str
    sample_count: int
    r: float


@dataclass(frozen=True)
class AttackReport:
    recovered: bytes
    match_fraction: float
    verdict: str  # "success" only when every position matched


def histogram(values: Sequence[int]) -> Histogram:
    """Count occurrences of each 8-bit value."""
    bins = [0] * 256
    for v in values:
        if not 0 <= v <= 255:
            raise ValueError(f"sample {v} is not an 8-bit value")
        bins[v] += 1
    return Histogram(tuple(bins), len(values))


def high_bytes(pointers: Sequence[int]) -> list[int]:
    """Binning rule for 16-bit cipher cells: each contributes its high byte."""
    return [p >> 8 for p in pointers]


def chi_square_uniform(hist: Histogram) -> float:
    """Chi-square statistic of a histogram against the uniform 256-bin law."""
    if hist.total == 0:
        raise ValueError("empty histogram")
    expected = hist.total / 256
    return sum((count - expected) ** 2 for count in hist.bins) / expected


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Correlation coefficient of two equal-length series.

    Computed as (n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2));
    integer inputs are summed exactly.
    """
    if len(x) != len(y):
        raise LengthMismatch(len(x), len(y))
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    sx = sum(x)
    sy = sum(y)
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    sxy = sum(a * b for a, b in zip(x, y))
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    if dx <= 0:
        raise ZeroVariance("x")
    if dy <= 0:
        raise ZeroVariance("y")
    return (n * sxy - sx * sy) / (math.sqrt(dx) * math.sqrt(dy))


def adjacent_correlation(cells: Sequence[int], width: int, height: int, direction: str,
                         sample_n: int = DEFAULT_SAMPLE_PAIRS,
                         rng: RandomStream | None = None) -> CorrelationReport:
    """Correlation of sample_n neighbour pairs drawn uniformly with replacement.

    direction is one of "horizontal", "vertical", "diagonal"; only anchors
    whose neighbour exists are sampled (one draw per pair).
    """
    if direction not in _OFFSETS:
        raise ValueError(f"unknown direction {direction!r}")
    if sample_n < 2:
        raise ValueError("need at least two sampled pairs")
    dr, dc = _OFFSETS[direction]
    rows = height - dr
    cols = width - dc
    if rows < 1 or cols < 1:
        raise ValueError(f"no adjacent {direction} pair in a {width}x{height} grid")
    if rng is None:
        rng = RandomStream()
    xs = []
    ys = []
    for _ in range(sample_n):
        r, c = divmod(rng.randbelow(rows * cols), cols)
        xs.append(cells[r * width + c])
        ys.append(cells[(r + dr) * width + (c + dc)])
    return CorrelationReport(direction, sample_n, pearson(xs, ys))


def chosen_plaintext_attack(known_plain: Sequence[int], known_cipher: Sequence[int],
                            target_cipher: Sequence[int]) -> bytes:
    """XOR-replay recovery attempt against a known plain/cipher pair.

    Plain bytes are zero-extended to align with 16-bit cipher cells.  The
    keystream guess plain^known_cipher is replayed onto the target and the
    result truncated to the low byte per cell.
    """
    if len(known_cipher) != len(known_plain):
        raise LengthMismatch(len(known_plain), len(known_cipher))
    if len(target_cipher) != len(known_plain):
        raise LengthMismatch(len(known_plain), len(target_cipher))
    return bytes((p ^ kc ^ tc) & 0xFF
                 for p, kc, tc in zip(known_plain, known_cipher, target_cipher))


def evaluate_attack(candidate: Sequence[int], truth: Sequence[int]) -> AttackReport:
    """Score a recovered stream against the true plaintext."""
    if len(candidate) != len(truth):
        raise LengthMismatch(len(truth), len(candidate))
    if not truth:
        raise ValueError("nothing to evaluate")
    matches = sum(1 for a, b in zip(candidate, truth) if a == b)
    fraction = matches / len(truth)
    return AttackReport(bytes(candidate), fraction, "success" if fraction == 1.0 else "failure")


def _cells_changed_by_bump(image: PlainImage, key: ReferenceKey, index: int,
                           original_rng: RandomStream, bumped_rng: RandomStream) -> int:
    """Cells changed by bumping pixel `index` by 1 (mod 256) and re-encrypting."""
    bumped = bytearray(image.pixels)
    bumped[index] = (bumped[index] + 1) % 256
    c1 = encrypt(image, key, original_rng)
    c2 = encrypt(PlainImage(image.width, image.height, bytes(bumped)), key, bumped_rng)
    return sum(1 for a, b in zip(c1.pointers, c2.pointers) if a != b)


def differential_sensitivity(image: PlainImage, key: ReferenceKey, trials: int,
                             rng: RandomStream) -> float:
    """Mean fraction of cipher cells changed by bumping one random pixel by 1
    (mod 256), re-encrypting original and modified images with independent
    fresh randomness each trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = image.width * image.height
    total = 0.0
    for _ in range(trials):
        total += _cells_changed_by_bump(image, key, rng.randbelow(n), RandomStream(rng.next64()),
                                        RandomStream(rng.next64())) / n
    return total / trials


def differential_paired_seed(image: PlainImage, key: ReferenceKey, seed: int,
                             pixel_index: int) -> int:
    """Cells changed by a one-pixel bump when both encryptions share a seed.

    With lockstep draws only the bumped pixel's cell can change, which
    exposes the scheme's true per-pixel diffusion.
    """
    return _cells_changed_by_bump(image, key, pixel_index, RandomStream(seed), RandomStream(seed))
