"""Statistical test bench for the cipher: value histograms, adjacent-cell
correlation, an XOR-replay attack harness, and differential sensitivity.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mod, ne

from .cipher import _check_dimensions
# unused here, but perfbench/tracing.py looks these names up on this module
from .cipher import encrypt  # noqa: F401
from .errors import LengthMismatch, ZeroVariance
from .imageio import PlainImage
from .reference import ReferenceKey
from .substitution import _BLOCK, RandomStream

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
    whose neighbour exists are sampled (one draw per pair).  cells must hold
    exactly width * height values, row-major.
    """
    if len(cells) != width * height:
        raise LengthMismatch(width * height, len(cells))
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
    for z in rng.outputs(sample_n):
        r, c = divmod(z % (rows * cols), cols)
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


def _bumped_cell_changes(occurrences, value: int, z1: int, z2: int) -> bool:
    """Whether draws z1 for value and z2 for value + 1 (mod 256) pick different pointers."""
    options, bumped = occurrences[value], occurrences[(value + 1) % 256]
    return options[z1 % len(options)] != bumped[z2 % len(bumped)]


def differential_sensitivity(image: PlainImage, key: ReferenceKey, trials: int,
                             rng: RandomStream) -> float:
    """Mean fraction of cipher cells changed by bumping one random pixel by 1
    (mod 256), re-encrypting original and modified images with independent
    fresh randomness each trial.

    Each trial draws a pixel index, then the seeds of the original's and the bumped image's
    streams; one walk over the blocks, each block's moduli serving every trial, counts the
    changed cells from the streams' draws without encrypting: the scramble permutes both grids
    alike, and substitute's draw z picks occurrences[v][z % m(v)], m(v) = len(occurrences[v]),
    at least 1 as a ReferenceKey covers every value.  As one value's positions are distinct, any
    cell but the bumped one changes exactly when its two draws differ modulo m(pixel).
    Raises ValueError, before any draw, for an image value whose key positions repeat.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_dimensions(image.width, image.height)  # the error encrypt would raise
    occurrences = key.index.occurrences
    counts = [len(options) for options in occurrences]
    pixels = image.pixels
    for value in sorted(set(pixels)):
        if len(set(occurrences[value])) < counts[value]:
            raise ValueError(f"value {value} has a repeated key position")
    n = len(pixels)
    drawn = [(rng.randbelow(n), RandomStream(rng.next64()), RandomStream(rng.next64()))
             for _ in range(trials)]
    changed = [0] * trials
    for start in range(0, n, _BLOCK):  # drawn a block at a time, as substitute draws
        moduli = [counts[value] for value in pixels[start:start + _BLOCK]]
        for trial, (index, *streams) in enumerate(drawn):
            original, bumped = (stream.outputs(len(moduli)) for stream in streams)
            changed[trial] += sum(map(ne, map(mod, original, moduli), map(mod, bumped, moduli)))
            if start <= index < start + _BLOCK:  # the bumped cell, counted by its pointers
                z1, z2, m = original[index - start], bumped[index - start], moduli[index - start]
                changed[trial] += (_bumped_cell_changes(occurrences, pixels[index], z1, z2)
                                   - (z1 % m != z2 % m))
    return sum(count / n for count in changed) / trials


def differential_paired_seed(image: PlainImage, key: ReferenceKey, seed: int,
                             pixel_index: int) -> int:
    """Cells changed by a one-pixel bump when both encryptions share a seed.

    Only the bumped cell can change, as every other draws the same output for the same
    word; output pixel_index of the stream decides it.  pixel_index must lie in 0..n-1.
    """
    if not 0 <= pixel_index < len(image.pixels):
        raise ValueError(f"pixel index {pixel_index} is outside 0..{len(image.pixels) - 1}")
    stream = RandomStream(seed)
    _check_dimensions(image.width, image.height)  # the error encrypt would raise
    stream._skip(pixel_index)
    z = stream.next64()
    return int(_bumped_cell_changes(key.index.occurrences, image.pixels[pixel_index], z, z))
