"""Image cipher toolkit: pixels become DNA 4-mers, each 4-mer is replaced by
one of its occurrence positions in a shared reference sequence, and the
pointer grid is scrambled with a doubly-even magic-square permutation.
Includes a statistical analysis suite and a command-line front end.
"""

from .analysis import (
    AttackReport,
    CorrelationReport,
    Histogram,
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
from .cipher import CipherImage, decrypt, deserialize, encrypt, serialize
from .dna import DnaImage, decode_quad, encode_pixel, resynthesize, synthesize
from .errors import DnamagicError
from .imageio import PlainImage, read_pgm, write_pgm
from .magic_square import (
    MagicSquare,
    Permutation,
    generate_doubly_even,
    magic_constant,
    scramble,
    scramble_square,
    to_permutation,
    unscramble,
)
from .reference import (
    KmerIndex,
    NucleotideSequence,
    ReferenceKey,
    build_key,
    key_fingerprint,
    parse_fasta,
)
from .substitution import PointerGrid, RandomStream, reverse_substitute, substitute

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "CipherImage",
    "CorrelationReport",
    "DnaImage",
    "DnamagicError",
    "Histogram",
    "KmerIndex",
    "MagicSquare",
    "NucleotideSequence",
    "Permutation",
    "PlainImage",
    "PointerGrid",
    "RandomStream",
    "ReferenceKey",
    "adjacent_correlation",
    "build_key",
    "chi_square_uniform",
    "chosen_plaintext_attack",
    "decode_quad",
    "decrypt",
    "deserialize",
    "differential_paired_seed",
    "differential_sensitivity",
    "encode_pixel",
    "encrypt",
    "evaluate_attack",
    "generate_doubly_even",
    "high_bytes",
    "histogram",
    "key_fingerprint",
    "magic_constant",
    "parse_fasta",
    "pearson",
    "read_pgm",
    "resynthesize",
    "reverse_substitute",
    "scramble",
    "scramble_square",
    "serialize",
    "substitute",
    "synthesize",
    "to_permutation",
    "unscramble",
    "write_pgm",
]
