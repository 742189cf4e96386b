"""Command-line front end: encrypt, decrypt, analyze, attack, magic, keyinfo.

Exit codes: 0 success, 1 usage error, 2 data or contract error, running out of
memory, or a warning the interpreter turns into an error (printed to stderr as
"ErrorName: detail").
"""

import argparse
import csv
import math
import sys
from contextlib import nullcontext
from pathlib import Path

from . import analysis, cipher, imageio, magic_square, reference
from .dna import BYTE_TO_QUAD
from .errors import DnamagicError, ZeroVariance, list_quads
from .substitution import RandomStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# analyze keeps sample_n pairs per direction in memory and draws two streams of
# one output per cell for each trial, so both are bounded to keep every run
# finite and small
MAX_SAMPLE_N = 1 << 20
MAX_TRIALS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2; usage problems must exit 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed_value(text: str) -> int:
    try:
        value = int(text, 0)  # decimal or 0x-hex
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal or 0x-hex integer: {text!r}")
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _int_in(low: int, high: int):
    """argparse type for a decimal integer in [low, high]."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be between {low} and {high}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnamagic",
                     description="Image cipher based on DNA 4-mer position substitution "
                                 "and magic-square scrambling.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_mode(p):
        p.add_argument("--mode", choices=("strict", "sanitize"), default="strict",
                       help="how to treat non-ACGT symbols in the key file (default: strict)")

    p = sub.add_parser("encrypt", help="encrypt a PGM image")
    p.set_defaults(handler=_cmd_encrypt)
    p.add_argument("--in", dest="input", type=Path, required=True, help="plaintext PGM file")
    p.add_argument("--key", type=Path, required=True, help="key FASTA file")
    p.add_argument("--out", required=True, help="output DMC1 container")
    p.add_argument("--seed", type=_seed_value, default=None,
                   help="64-bit seed, decimal or 0x-hex; omitted: OS entropy, echoed to stderr")
    p.add_argument("--fingerprint", action="store_true",
                   help="embed the key fingerprint so a wrong key is detected at decrypt time")
    add_mode(p)

    p = sub.add_parser("decrypt", help="decrypt a DMC1 container")
    p.set_defaults(handler=_cmd_decrypt)
    p.add_argument("--in", dest="input", type=Path, required=True, help="ciphertext DMC1 file")
    p.add_argument("--key", type=Path, required=True, help="key FASTA file")
    p.add_argument("--out", required=True, help="output PGM file")
    add_mode(p)

    p = sub.add_parser("analyze",
                       help="histogram and correlation report for a plain/cipher pair")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--plain", type=Path, required=True, help="plaintext PGM file")
    p.add_argument("--cipher", type=Path, required=True, help="ciphertext DMC1 file")
    p.add_argument("--csv", default=None, help="also write metric,direction,value rows here")
    p.add_argument("--sample-n", type=_int_in(2, MAX_SAMPLE_N),
                   default=analysis.DEFAULT_SAMPLE_PAIRS,
                   help=f"adjacent pairs sampled per direction, 2 to {MAX_SAMPLE_N} "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=_seed_value, default=None,
                   help="sampling seed; omitted: OS entropy, echoed to stderr")
    p.add_argument("--key", type=Path, default=None,
                   help="key FASTA file; enables the differential sensitivity metrics")
    p.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=10,
                   help=f"differential trials when --key is given, 1 to {MAX_TRIALS} "
                        "(default: %(default)s)")
    add_mode(p)

    p = sub.add_parser("attack",
                       help="run the XOR-replay attack and score it against the truth")
    p.set_defaults(handler=_cmd_attack)
    p.add_argument("--known-plain", type=Path, required=True, help="known plaintext PGM")
    p.add_argument("--known-cipher", type=Path, required=True, help="its ciphertext DMC1")
    p.add_argument("--target", type=Path, required=True, help="ciphertext DMC1 to attack")
    p.add_argument("--truth", type=Path, required=True, help="true plaintext PGM of the target")

    p = sub.add_parser("magic", help="print a doubly-even magic square")
    p.set_defaults(handler=_cmd_magic)
    p.add_argument("--order", type=int, required=True, help="side length, a multiple of 4")

    p = sub.add_parser("keyinfo", help="report key file statistics")
    p.set_defaults(handler=_cmd_keyinfo)
    p.add_argument("--key", type=Path, required=True, help="key FASTA file")
    add_mode(p)

    return parser


def _input_bytes(args) -> int:
    """Total size of the files the command reads: the options build_parser types as Path."""
    return sum(value.stat().st_size for value in vars(args).values()
               if isinstance(value, Path) and value.is_file())


def _load_pgm(path: Path) -> imageio.PlainImage:
    return imageio.read_pgm(path.read_bytes())


def _load_cipher(path: Path) -> cipher.CipherImage:
    return cipher.deserialize(path.read_bytes())


def _load_key(path: Path, mode: str) -> reference.ReferenceKey:
    return reference.build_key(reference.parse_fasta(path.read_bytes(), mode=mode))


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = RandomStream().seed
        print(f"seed: {seed}", file=sys.stderr)  # echoed so any run can be reproduced
    return seed


def _cmd_encrypt(args) -> int:
    image = _load_pgm(args.input)
    key = _load_key(args.key, args.mode)
    rng = RandomStream(_resolve_seed(args.seed))
    result = cipher.encrypt(image, key, rng, include_fingerprint=args.fingerprint)
    Path(args.out).write_bytes(cipher.serialize(result))
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    blob = _load_cipher(args.input)
    key = _load_key(args.key, args.mode)
    image = cipher.decrypt(blob, key)
    Path(args.out).write_bytes(imageio.write_pgm(image))
    return EXIT_OK


def _correlation(cells, width: int, height: int, direction: str, sample_n: int,
                 seed: int) -> float:
    """Sampled adjacent correlation, nan when a sampled series is constant."""
    # a fresh stream per call means plain and cipher sample identical positions
    try:
        return analysis.adjacent_correlation(cells, width, height, direction, sample_n,
                                             RandomStream(seed)).r
    except ZeroVariance:
        return math.nan


def _cmd_analyze(args) -> int:
    plain = _load_pgm(args.plain)
    blob = _load_cipher(args.cipher)
    key = None if args.key is None else _load_key(args.key, args.mode)
    # every input is read and the report opened before any metric is computed
    with (open(args.csv, "w", newline="") if args.csv is not None else nullcontext()) as report:
        seed = _resolve_seed(args.seed)
        rows = [(metric, direction,
                 _correlation(cells, grid.width, grid.height, direction, args.sample_n, seed))
                for metric, grid, cells in (("plain_correlation", plain, plain.pixels),
                                            ("cipher_correlation", blob, blob.pointers))
                for direction in analysis.DIRECTIONS]
        rows.append(("plain_histogram_chi2", "",
                     analysis.chi_square_uniform(analysis.histogram(plain.pixels))))
        rows.append(("cipher_histogram_chi2", "", analysis.chi_square_uniform(
            analysis.histogram(analysis.high_bytes(blob.pointers)))))

        if key is not None:
            rate = analysis.differential_sensitivity(plain, key, args.trials, RandomStream(seed))
            rows.append(("differential_change_rate", "", rate))
            pixel = RandomStream(seed).randbelow(plain.width * plain.height)
            changed = analysis.differential_paired_seed(plain, key, seed, pixel)
            rows.append(("paired_seed_changed_cells", "", float(changed)))

        for metric, direction, value in rows:
            label = f"{metric}[{direction}]" if direction else metric
            print(f"{label}: {value:.6f}")
        if report is not None:
            writer = csv.writer(report)
            writer.writerow(["metric", "direction", "value"])
            writer.writerows(rows)
    return EXIT_OK


def _cmd_attack(args) -> int:
    known_plain = _load_pgm(args.known_plain)
    known_cipher = _load_cipher(args.known_cipher)
    target = _load_cipher(args.target)
    truth = _load_pgm(args.truth)
    candidate = analysis.chosen_plaintext_attack(known_plain.pixels, known_cipher.pointers,
                                                 target.pointers)
    report = analysis.evaluate_attack(candidate, truth.pixels)
    print(f"match fraction: {report.match_fraction:.4f}")
    print(f"verdict: {report.verdict}")
    return EXIT_OK


def _cmd_magic(args) -> int:
    square = magic_square.generate_doubly_even(args.order)
    width = len(str(args.order * args.order))
    for row in square.cells:
        print(" ".join(f"{v:>{width}}" for v in row))
    print(f"magic constant: {magic_square.magic_constant(args.order)}")
    return EXIT_OK


def _cmd_keyinfo(args) -> int:
    seq = reference.parse_fasta(args.key.read_bytes(), mode=args.mode)
    print(f"source: {seq.source_name or '(unnamed)'}")
    print(f"length: {len(seq.bases)}")
    index = reference.scan_index(seq)
    missing = [BYTE_TO_QUAD[v] for v, lst in enumerate(index.occurrences) if not lst]
    print(f"coverage: {256 - len(missing)}/256 quads")
    print(f"min multiplicity: {index.min_multiplicity}")
    print(f"fingerprint: 0x{reference.key_fingerprint(seq):016x}")
    if missing:
        print(f"missing quads: {list_quads(missing)}")
        return EXIT_DATA
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (1)
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    # a Warning arrives here only when the interpreter turns it into an error
    except (DnamagicError, ValueError, OSError, Warning) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:  # the command's large objects are freed by the time it lands here
        print(f"MemoryError: {args.command} ran out of memory on "
              f"{_input_bytes(args)} bytes of input", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
