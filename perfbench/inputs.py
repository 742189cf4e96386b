"""Deterministic benchmark inputs: a genome-like FASTA key and photo-like images.

Every byte comes from SHAKE-256 keyed by the workload seed and a label, so the
same seed gives the same inputs on any machine and Python version.
"""

import hashlib

KEY_RECORDS = 4
KEY_BASES = 2_500_000  # bases across all records, before N runs are added
LINE_WIDTH = 60

# A/T-rich like most genomes: 76 of 256 byte values each map to A and T, 52 to C and G
_BASE_OF_BYTE = bytes(b"ATCG"[0 if b < 76 else 1 if b < 152 else 2 if b < 204 else 3]
                      for b in range(256))
# noise byte -> offset in [-16, 16]
_NOISE = tuple(b % 33 - 16 for b in range(256))
# clamp table for gradient + noise values in [-128, 383]
_CLAMP = bytes(min(255, max(0, v - 128)) for v in range(512))


def stream(label: str, seed: int, n: int) -> bytes:
    """n pseudo-random bytes for (label, seed)."""
    return hashlib.shake_256(f"{label}:{seed}".encode()).digest(n)


def u64(label: str, seed: int) -> int:
    return int.from_bytes(stream(label, seed, 8), "little")


def below(label: str, seed: int, n: int) -> int:
    """Integer in [0, n) from 64 random bits (bias below 2**-50 for small n)."""
    return u64(label, seed) % n


def shuffled(label: str, seed: int, items) -> list:
    """items in a seeded random order."""
    return sorted(items, key=lambda item: u64(f"{label}-{item}", seed))


def genome_fasta(seed: int, total_bases: int = KEY_BASES) -> bytes:
    """Multi-record FASTA with 60-column lines, soft-masked runs and N gaps.

    Parsed with mode="sanitize" the N gaps drop out and the rest is a biased
    random A/C/G/T sequence, which covers all 256 quads in its first window.
    """
    records = []
    weights = [2 + below(f"key-weight-{r}", seed, 4) for r in range(KEY_RECORDS)]
    for r, weight in enumerate(weights):
        length = total_bases * weight // sum(weights)
        seq = bytearray(stream(f"key-bases-{r}", seed, length).translate(_BASE_OF_BYTE))
        _soft_mask_and_gap(seq, seed, r)
        lines = [bytes(seq[i:i + LINE_WIDTH]) for i in range(0, len(seq), LINE_WIDTH)]
        header = f">chr{r + 1} synthetic genome-like record, seed {seed}, {length} bases"
        records.append(header.encode() + b"\n" + b"\n".join(lines) + b"\n")
    return b"".join(records)


def _soft_mask_and_gap(seq: bytearray, seed: int, record: int) -> None:
    """Lower-case repeat-like runs every ~8 kb and insert N runs every ~200 kb."""
    n = len(seq)
    pos = 0
    k = 0
    while True:
        pos += 2000 + below(f"mask-gap-{record}-{k}", seed, 12000)
        if pos >= n:
            break
        end = min(n, pos + 100 + below(f"mask-len-{record}-{k}", seed, 3000))
        seq[pos:end] = seq[pos:end].lower()
        pos = end
        k += 1
    # gaps are inserted, so the base count of the record stays as drawn
    gaps = 1 + n // 200_000
    cuts = sorted(below(f"gap-at-{record}-{g}", seed, n) for g in range(gaps))
    for g, cut in reversed(list(enumerate(cuts))):
        seq[cut:cut] = b"N" * (50 + below(f"gap-len-{record}-{g}", seed, 5000))


def photo_image(seed: int, label: str, side: int) -> bytes:
    """side x side pixels: a smooth linear gradient plus bounded noise."""
    ax = below(f"{label}-ax", seed, 193) - 96  # horizontal ramp across the image
    ay = below(f"{label}-ay", seed, 193) - 96  # vertical ramp
    centre = 96 + below(f"{label}-c", seed, 65)
    noise = stream(f"{label}-noise", seed, side * side)
    offset = 128 + centre - (ax + ay) // 2
    ramp_x = [offset + ax * j // side for j in range(side)]
    rows = []
    for i in range(side):
        dy = ay * i // side
        row = noise[i * side:(i + 1) * side]
        rows.append(bytes(_CLAMP[rx + dy + _NOISE[b]] for rx, b in zip(ramp_x, row)))
    return b"".join(rows)


def pgm(side: int, pixels: bytes) -> bytes:
    """Canonical binary PGM bytes, the form the CLI's writer emits."""
    return f"P5\n{side} {side}\n255\n".encode() + pixels
