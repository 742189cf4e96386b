"""Bit-exact canary: DMC1 bytes for fixed (key, image, seed) cases must keep
the SHA-256 digests recorded from the original pure-Python implementation.

Every benchmark run checks them first, so a faster pipeline that changes a
single output byte fails the run instead of reporting a speed-up.
"""

import hashlib

from dnamagic import cipher, reference
from dnamagic.imageio import PlainImage
from dnamagic.substitution import RandomStream

_KEY_BASES = 70_000

# (side, RandomStream seed, include_fingerprint) -> sha256 of the DMC1 bytes
EXPECTED = {
    (4, 11, False):
        "f945c717b136fd3ed07cab02f4c77ded1e8c81094930ad337740e9c2d95f05e1",
    (4, 12, True):
        "123681b78319320d9db6564053b9954f37e73cefe578b8ac94462b99e246ae08",
    (64, 21, False):
        "d970ff22843a32db3e89f5b7b6de87b529046d6f8cc409b45c6fc29e276c0f41",
    (64, 22, True):
        "8c2c272b7e0266ec49f8ee5531f90c50cb09cb103423a700dbae0c66b543ec7b",
    (256, 31, False):
        "38bd8760fd08394c83e93c1298883c6add49195d96cef620d279eab756685026",
    (256, 32, True):
        "6c0c5f3b933d7449e00a38924f835df721e90912e76d92cad8f77e3ac46a8460",
}


def _bytes(label: str, n: int) -> bytes:
    return hashlib.shake_256(f"dnamagic-canary:{label}".encode()).digest(n)


def canary_key() -> reference.ReferenceKey:
    bases = _bytes("key", _KEY_BASES).translate(bytes(b"ACGT"[b & 3] for b in range(256)))
    lines = b"\n".join(bases[i:i + 60] for i in range(0, len(bases), 60))
    return reference.build_key(reference.parse_fasta(b">canary key\n" + lines + b"\n"))


def digests() -> dict:
    key = canary_key()
    out = {}
    for side, seed, fingerprint in EXPECTED:
        image = PlainImage(side, side, _bytes(f"image-{side}", side * side))
        blob = cipher.serialize(cipher.encrypt(image, key, RandomStream(seed),
                                               include_fingerprint=fingerprint))
        out[side, seed, fingerprint] = hashlib.sha256(blob).hexdigest()
    return out


def mismatches() -> list:
    """Cases whose digest differs from the recorded one; empty when bit-exact."""
    return [case for case, digest in digests().items() if digest != EXPECTED[case]]
