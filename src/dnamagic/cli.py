"""Command-line front end: encrypt, decrypt, analyze, attack, magic, keyinfo.

Exit codes: 0 success, 1 usage error, 2 data or contract error, running out of
memory, or a warning the interpreter turns into an error (printed to stderr as
"ErrorName: detail").  A warning that does not stop the command is printed as
"WarningName: detail" too.  A command whose stdout is closed early, as by
`| head -1`, stops quietly with 0.
"""

import argparse
import csv
import math
import os
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

from . import analysis, cipher, imageio, magic_square, reference
from .errors import DnamagicError, ZeroVariance, list_quads
from .substitution import RandomStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# both keep analyze finite and bound its memory: adjacent_correlation holds sample_n draws and
# two sample lists, the differential count two streams and a count per trial, about 0.4 KB
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
    p.add_argument("--in", dest="input", type=_read, required=True, help="plaintext PGM file")
    p.add_argument("--key", type=_read, required=True, help="key FASTA file")
    p.add_argument("--out", type=_write, required=True, help="output DMC1 container")
    p.add_argument("--seed", type=_seed_value, default=None,
                   help="64-bit seed, decimal or 0x-hex; omitted: OS entropy, echoed to stderr")
    p.add_argument("--fingerprint", action="store_true",
                   help="embed the key fingerprint so a wrong key is detected at decrypt time")
    add_mode(p)

    p = sub.add_parser("decrypt", help="decrypt a DMC1 container")
    p.set_defaults(handler=_cmd_decrypt)
    p.add_argument("--in", dest="input", type=_read, required=True, help="ciphertext DMC1 file")
    p.add_argument("--key", type=_read, required=True, help="key FASTA file")
    p.add_argument("--out", type=_write, required=True, help="output PGM file")
    add_mode(p)

    p = sub.add_parser("analyze",
                       help="histogram and correlation report for a plain/cipher pair")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--plain", type=_read, required=True, help="plaintext PGM file")
    p.add_argument("--cipher", type=_read, required=True, help="ciphertext DMC1 file")
    p.add_argument("--csv", type=_write, help="also write metric,direction,value rows here")
    p.add_argument("--sample-n", type=_int_in(2, MAX_SAMPLE_N),
                   default=analysis.DEFAULT_SAMPLE_PAIRS,
                   help=f"adjacent pairs sampled per direction, 2 to {MAX_SAMPLE_N} "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=_seed_value, default=None,
                   help="sampling seed; omitted: OS entropy, echoed to stderr")
    p.add_argument("--key", type=_read, default=None,
                   help="key FASTA file; enables the differential sensitivity metrics")
    p.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=10,
                   help=f"differential trials when --key is given, 1 to {MAX_TRIALS} "
                        "(default: %(default)s)")
    add_mode(p)

    p = sub.add_parser("attack",
                       help="run the XOR-replay attack and score it against the truth")
    p.set_defaults(handler=_cmd_attack)
    p.add_argument("--known-plain", type=_read, required=True, help="known plaintext PGM")
    p.add_argument("--known-cipher", type=_read, required=True, help="its ciphertext DMC1")
    p.add_argument("--target", type=_read, required=True, help="ciphertext DMC1 to attack")
    p.add_argument("--truth", type=_read, required=True, help="true plaintext PGM of the target")

    p = sub.add_parser("magic", help="print a doubly-even magic square")
    p.set_defaults(handler=_cmd_magic)
    p.add_argument("--order", type=int, required=True, help="side length, a multiple of 4")

    p = sub.add_parser("keyinfo", help="report key file statistics")
    p.set_defaults(handler=_cmd_keyinfo)
    p.add_argument("--key", type=_read, required=True, help="key FASTA file")
    add_mode(p)

    return parser


def _input_bytes(args) -> int:
    """Total size of the files the command reads: the options build_parser reads as Path."""
    return sum(value.stat().st_size for value in vars(args).values()
               if isinstance(value, Path) and value.is_file())


def _load_pgm(path: Path) -> imageio.PlainImage:
    return imageio.read_pgm(path.read_bytes())


def _load_cipher(path: Path) -> cipher.CipherImage:
    return cipher.deserialize(path.read_bytes())


def _read_key(path: Path, mode: str) -> reference.NucleotideSequence:
    """parse_fasta of the file, read a chunk at a time so its bytes are never held whole."""
    with path.open("rb") as file:
        return reference._parse_chunks(iter(lambda: file.read(reference._CHUNK), b""), mode)


def _load_key(path: Path, mode: str) -> reference.ReferenceKey:
    return reference.build_key(_read_key(path, mode))


def _file_name(kind: type):
    """argparse type for a file name as kind; "" is refused, since Path("") is Path(".")."""
    def parse(text: str):
        if not text:
            raise argparse.ArgumentTypeError("empty file name")
        return kind(text)
    return parse


_read, _write = _file_name(Path), _file_name(str)  # build_parser's file types


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = RandomStream().seed
        print(f"seed: {seed}", file=sys.stderr)  # echoed so any run can be reproduced
    return seed


class _StdoutClosed(Exception):
    """The reader of stdout stopped early, as `dnamagic magic --order 1024 | head -1` does."""


def _say(line: str) -> None:
    """Print one line of a report; the commands write stdout only through here."""
    try:
        print(line)
    except BrokenPipeError:  # stdout's, so not a failed write to an --out or --csv file
        raise _StdoutClosed from None


def _stdout_closed() -> int:
    """End quietly: a closed stdout is not a fault of the input, and shells expect
    `... | head -1` to stop without a message.  stdout then points at os.devnull,
    so what is still buffered for it goes nowhere at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return EXIT_OK


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
            analysis.histogram(blob.pointers.tobytes()[1::2]))))  # each cell's high byte

        if key is not None:
            rate = analysis.differential_sensitivity(plain, key, args.trials, RandomStream(seed))
            rows.append(("differential_change_rate", "", rate))
            pixel = RandomStream(seed).randbelow(plain.width * plain.height)
            changed = analysis.differential_paired_seed(plain, key, seed, pixel)
            rows.append(("paired_seed_changed_cells", "", float(changed)))

        for metric, direction, value in rows:
            label = f"{metric}[{direction}]" if direction else metric
            _say(f"{label}: {value:.6f}")
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
    _say(f"match fraction: {report.match_fraction:.4f}")
    _say(f"verdict: {report.verdict}")
    return EXIT_OK


def _cmd_magic(args) -> int:
    square = magic_square.generate_doubly_even(args.order)
    width = len(str(args.order * args.order))
    for row in square.cells:
        _say(" ".join(f"{v:>{width}}" for v in row))
    _say(f"magic constant: {magic_square.magic_constant(args.order)}")
    return EXIT_OK


def _cmd_keyinfo(args) -> int:
    seq = _read_key(args.key, args.mode)
    _say(f"source: {seq.source_name or '(unnamed)'}")
    _say(f"length: {len(seq.bases)}")
    index = reference.scan_index(seq)
    missing = reference._words_with(index, 0)  # the list ReferenceKey refuses a key for
    _say(f"coverage: {256 - len(missing)}/256 quads")
    _say(f"min multiplicity: {index.min_multiplicity}")
    _say(f"fingerprint: 0x{reference.key_fingerprint(seq):016x}")
    if missing:
        _say(f"missing quads: {list_quads(missing)}")
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
    except _StdoutClosed:
        return _stdout_closed()
    # a Warning arrives here only when the interpreter turns it into an error
    except (DnamagicError, ValueError, OSError, Warning) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:  # the command's large objects are freed by the time it lands here
        print(f"MemoryError: {args.command} ran out of memory on "
              f"{_input_bytes(args)} bytes of input", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    # a warning that does not stop the command prints as one line, like an error
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()  # a closed stdout fails here rather than at interpreter shutdown
    except BrokenPipeError:
        code = _stdout_closed()
    sys.exit(code)


if __name__ == "__main__":
    main()
