"""Command-line behaviour: flags, exit codes, file round trips."""

import hashlib
import math
import os
import random
import select
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from conftest import random_bases, random_image
from dnamagic import reference
from dnamagic.cipher import CipherImage, decrypt, deserialize, serialize
from dnamagic.cli import run
from dnamagic.errors import QuadCoverageError, list_quads
from dnamagic.imageio import PlainImage, read_pgm, write_pgm
from dnamagic.reference import (MIN_KEY_LENGTH, NucleotideSequence, SingleOccurrenceWarning,
                                build_key, parse_fasta, scan_index)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, random_key):
    """Key FASTA plus a 16x16 sample image on disk."""
    root = tmp_path_factory.mktemp("cli")
    key_path = root / "key.fasta"
    key_path.write_text(">test key\n" + random_key.sequence.bases + "\n")
    rng = random.Random(31)
    image_path = root / "sample.pgm"
    image_path.write_bytes(write_pgm(random_image(rng, 16)))
    return root


def test_magic_prints_square_and_constant(capsys):
    assert run(["magic", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "16  2  3 13" in out
    assert "magic constant: 34" in out


# SHA-256 of the whole stdout of `magic --order N`: cell values, row cutting
# and column widths, recorded from the nested-loop constructor
MAGIC_STDOUT_SHA256 = {
    8: "a10041dd8d5829c3e1d373b40142fbdd9a35c14003c2613fd9a8ead7d1fc49e7",
    12: "b5abbcbd2f638ea6ea4fdaf062c7dd9bb5a900a6a47116eb221c91232c87a305",
    1024: "73d512be79af26df25bed12701a0e66d68dca28f4ac09b99dd563e90ac391f2c",
}


@pytest.mark.parametrize("order", sorted(MAGIC_STDOUT_SHA256))
def test_magic_output_is_pinned(capsys, order):
    assert run(["magic", "--order", str(order)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == MAGIC_STDOUT_SHA256[order]


def test_magic_rejects_odd_order(capsys):
    assert run(["magic", "--order", "5"]) == 2
    assert "NotDoublyEven" in capsys.readouterr().err


def test_magic_rejects_huge_order_before_building(capsys):
    assert run(["magic", "--order", "40000"]) == 2
    captured = capsys.readouterr()
    assert "OrderTooLarge" in captured.err
    assert captured.out == ""


def test_encrypt_decrypt_round_trip_byte_exact(workdir):
    cipher_path = workdir / "sample.dmc"
    plain_path = workdir / "sample.out.pgm"
    args = ["--in", str(workdir / "sample.pgm"), "--key", str(workdir / "key.fasta")]
    assert run(["encrypt", *args, "--out", str(cipher_path), "--seed", "42"]) == 0
    assert run(["decrypt", "--in", str(cipher_path), "--key", str(workdir / "key.fasta"),
                "--out", str(plain_path)]) == 0
    assert plain_path.read_bytes() == (workdir / "sample.pgm").read_bytes()


def test_encrypt_is_deterministic_for_a_seed(workdir):
    a = workdir / "a.dmc"
    b = workdir / "b.dmc"
    base = ["encrypt", "--in", str(workdir / "sample.pgm"),
            "--key", str(workdir / "key.fasta"), "--seed", "0xDEADBEEF"]
    assert run([*base, "--out", str(a)]) == 0
    assert run([*base, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_omitted_seed_is_echoed_to_stderr(workdir, capsys):
    out = workdir / "echo.dmc"
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"),
                "--key", str(workdir / "key.fasta"), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "seed: " in err
    # replaying the echoed seed reproduces the file
    seed = err.split("seed: ")[1].split()[0]
    replay = workdir / "replay.dmc"
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"),
                "--key", str(workdir / "key.fasta"), "--out", str(replay),
                "--seed", seed]) == 0
    assert replay.read_bytes() == out.read_bytes()


def test_encrypt_rejects_bad_dimensions(workdir, tmp_path, capsys):
    from dnamagic.imageio import PlainImage
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(write_pgm(PlainImage(5, 5, bytes(25))))
    code = run(["encrypt", "--in", str(bad), "--key", str(workdir / "key.fasta"),
                "--out", str(tmp_path / "x.dmc")])
    assert code == 2
    assert "DimensionError" in capsys.readouterr().err


def test_header_whose_pixel_count_str_cannot_write_fails_cleanly(workdir, tmp_path, capsys):
    # each side fits str(), their product does not
    huge = tmp_path / "huge.pgm"
    huge.write_bytes(b"P5 " + b"1" * 3000 + b" " + b"1" * 3000 + b" 255 ")
    code = run(["encrypt", "--in", str(huge), "--key", str(workdir / "key.fasta"),
                "--out", str(tmp_path / "x.dmc")])
    assert code == 2
    assert capsys.readouterr().err == (
        "TruncatedPayload: payload truncated: expected <19926-bit integer>, got 0\n")


def test_fingerprint_flag_detects_wrong_key(workdir, tmp_path, capsys):
    rng = random.Random(32)
    other_key = tmp_path / "other.fasta"
    other_key.write_text(">other\n" + "".join(rng.choices("ACGT", k=65540)) + "\n")
    cipher_path = tmp_path / "fp.dmc"
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"),
                "--key", str(workdir / "key.fasta"), "--out", str(cipher_path),
                "--seed", "1", "--fingerprint"]) == 0
    assert deserialize(cipher_path.read_bytes()).flags == 1
    code = run(["decrypt", "--in", str(cipher_path), "--key", str(other_key),
                "--out", str(tmp_path / "y.pgm")])
    assert code == 2
    assert "WrongKey" in capsys.readouterr().err


def test_analyze_report_and_csv(workdir, tmp_path, capsys):
    cipher_path = workdir / "analyze.dmc"
    run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(workdir / "key.fasta"),
         "--out", str(cipher_path), "--seed", "5"])
    capsys.readouterr()
    csv_path = tmp_path / "report.csv"
    assert run(["analyze", "--plain", str(workdir / "sample.pgm"),
                "--cipher", str(cipher_path), "--csv", str(csv_path),
                "--sample-n", "512", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    for label in ("plain_correlation[horizontal]", "cipher_correlation[diagonal]",
                  "plain_histogram_chi2", "cipher_histogram_chi2"):
        assert label in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "metric,direction,value"
    assert len(lines) == 9  # header + 6 correlations + 2 histogram rows
    for line in lines[1:]:
        float(line.rsplit(",", 1)[1])


def test_analyze_with_key_adds_differential_metrics(workdir, capsys):
    cipher_path = workdir / "analyze2.dmc"
    run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(workdir / "key.fasta"),
         "--out", str(cipher_path), "--seed", "6"])
    capsys.readouterr()
    assert run(["analyze", "--plain", str(workdir / "sample.pgm"),
                "--cipher", str(cipher_path), "--seed", "8", "--sample-n", "256",
                "--key", str(workdir / "key.fasta"), "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "differential_change_rate" in out
    assert "paired_seed_changed_cells: 1.000000" in out


def test_analyze_with_key_output_is_pinned(workdir, tmp_path, capsys):
    # recorded before the correlation anchors were drawn as one block of
    # stream outputs; the block draws must give the same anchors
    plain_path = tmp_path / "plain64.pgm"
    plain_path.write_bytes(write_pgm(random_image(random.Random(64), 64)))
    cipher_path = tmp_path / "plain64.dmc"
    key = str(workdir / "key.fasta")
    assert run(["encrypt", "--in", str(plain_path), "--key", key,
                "--out", str(cipher_path), "--seed", "3"]) == 0
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(cipher_path),
                "--key", key, "--trials", "10", "--seed", "9"]) == 0
    assert capsys.readouterr().out == (
        "plain_correlation[horizontal]: -0.025346\n"
        "plain_correlation[vertical]: -0.020103\n"
        "plain_correlation[diagonal]: -0.011611\n"
        "cipher_correlation[horizontal]: -0.022642\n"
        "cipher_correlation[vertical]: -0.019245\n"
        "cipher_correlation[diagonal]: -0.029169\n"
        "plain_histogram_chi2: 215.250000\n"
        "cipher_histogram_chi2: 241.125000\n"
        "differential_change_rate: 0.996045\n"
        "paired_seed_changed_cells: 1.000000\n"
    )


def test_analyze_reports_undefined_correlation_of_constant_image_as_nan(workdir, tmp_path,
                                                                        capsys):
    plain_path = tmp_path / "zero64.pgm"
    plain_path.write_bytes(write_pgm(PlainImage(64, 64, bytes(64 * 64))))
    cipher_path = tmp_path / "zero64.dmc"
    csv_path = tmp_path / "zero64.csv"
    key = str(workdir / "key.fasta")
    assert run(["encrypt", "--in", str(plain_path), "--key", key,
                "--out", str(cipher_path), "--seed", "1"]) == 0
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(cipher_path),
                "--key", key, "--trials", "2", "--seed", "1", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["plain_correlation[horizontal]: nan", "plain_correlation[vertical]: nan",
                       "plain_correlation[diagonal]: nan"]
    labels = [line.split(":")[0] for line in out[3:]]
    assert labels == ["cipher_correlation[horizontal]", "cipher_correlation[vertical]",
                      "cipher_correlation[diagonal]", "plain_histogram_chi2",
                      "cipher_histogram_chi2", "differential_change_rate",
                      "paired_seed_changed_cells"]
    assert all(math.isfinite(float(line.split(": ")[1])) for line in out[3:])
    rows = csv_path.read_text().strip().splitlines()
    assert rows[1:4] == ["plain_correlation,horizontal,nan", "plain_correlation,vertical,nan",
                         "plain_correlation,diagonal,nan"]
    assert len(rows) == 11


def test_analyze_checks_csv_before_computing(workdir, tmp_path, capsys):
    cipher_path = tmp_path / "csvdir.dmc"
    key = str(workdir / "key.fasta")
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", key,
                "--out", str(cipher_path), "--seed", "1"]) == 0
    capsys.readouterr()
    assert run(["analyze", "--plain", str(workdir / "sample.pgm"), "--cipher", str(cipher_path),
                "--key", key, "--seed", "1", "--csv", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IsADirectoryError: ")


def test_analyze_failing_after_opening_csv_leaves_it_empty(tmp_path, capsys):
    # a one-pixel-wide image has no horizontal pair, which fails after --csv is opened
    plain_path = tmp_path / "column.pgm"
    plain_path.write_bytes(write_pgm(PlainImage(1, 4, bytes(4))))
    cipher_path = tmp_path / "column.dmc"
    cipher_path.write_bytes(serialize(CipherImage(4, 4, tuple(range(16)))))
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("stale\n")
    assert run(["analyze", "--plain", str(plain_path), "--cipher", str(cipher_path),
                "--seed", "1", "--csv", str(csv_path)]) == 2
    assert "no adjacent horizontal pair" in capsys.readouterr().err
    assert csv_path.read_text() == ""


@pytest.mark.parametrize("flag,value", [("--sample-n", "1"), ("--sample-n", "1048577"),
                                        ("--trials", "0"), ("--trials", "1001")])
def test_analyze_bounds_sample_n_and_trials(workdir, flag, value, capsys):
    # rejected by the parser, before any file is read or memory allocated
    assert run(["analyze", "--plain", str(workdir / "sample.pgm"), "--cipher", "missing.dmc",
                "--key", str(workdir / "key.fasta"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dnamagic analyze")
    assert f"argument {flag}: must be between" in err


def test_attack_reports_failure_against_real_ciphertexts(workdir, tmp_path, capsys):
    rng = random.Random(33)
    target_pgm = tmp_path / "target.pgm"
    target_pgm.write_bytes(write_pgm(random_image(rng, 16)))
    known_dmc = tmp_path / "known.dmc"
    target_dmc = tmp_path / "target.dmc"
    run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(workdir / "key.fasta"),
         "--out", str(known_dmc), "--seed", "9"])
    run(["encrypt", "--in", str(target_pgm), "--key", str(workdir / "key.fasta"),
         "--out", str(target_dmc), "--seed", "10"])
    capsys.readouterr()
    assert run(["attack", "--known-plain", str(workdir / "sample.pgm"),
                "--known-cipher", str(known_dmc), "--target", str(target_dmc),
                "--truth", str(target_pgm)]) == 0
    out = capsys.readouterr().out
    assert "verdict: failure" in out
    assert "match fraction: 0.0" in out


def test_keyinfo_reports_key_statistics(workdir, random_key, capsys):
    assert run(["keyinfo", "--key", str(workdir / "key.fasta")]) == 0
    out = capsys.readouterr().out
    assert "length: 65540" in out
    assert "coverage: 256/256 quads" in out
    assert f"min multiplicity: {random_key.index.min_multiplicity}" in out
    assert f"fingerprint: 0x{random_key.fingerprint:016x}" in out


@pytest.mark.parametrize("header,source", [(">test key\n", "test key"), ("", "(unnamed)")])
def test_keyinfo_names_the_key_source(random_key, tmp_path, capsys, header, source):
    path = tmp_path / "key.fasta"
    path.write_text(header + random_key.sequence.bases + "\n")
    assert run(["keyinfo", "--key", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"source: {source}\nlength: 65540\n")


def test_keyinfo_flags_incomplete_coverage(tmp_path, capsys):
    bad_key = tmp_path / "cycling.fasta"
    bad_key.write_text(">cycling\n" + ("ACGT" * 16385)[:65540] + "\n")
    assert run(["keyinfo", "--key", str(bad_key)]) == 2
    out = capsys.readouterr().out
    assert "coverage: 4/256 quads" in out
    assert "missing quads: CCCC, CCCT, CCCA, CCCG, CCTC, CCTT, CCTA, CCTG (+244 more)\n" in out
    # the report names the same words as the refusal of the same file
    with pytest.raises(QuadCoverageError) as exc:
        build_key(parse_fasta(bad_key.read_bytes()))
    assert f"missing quads: {list_quads(exc.value.missing)}\n" in out


def test_a_key_one_base_short_of_the_window_exits_2(workdir, random_key, tmp_path, capsys):
    short = tmp_path / "short.fasta"
    short.write_text(">short\n" + random_key.sequence.bases[:MIN_KEY_LENGTH - 1] + "\n")
    refusal = "SequenceTooShort: key sequence has 65539 bases, need at least 65540\n"
    assert run(["keyinfo", "--key", str(short)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "source: short\nlength: 65539\n"
    assert captured.err == refusal
    out = tmp_path / "short.dmc"
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(short),
                "--out", str(out), "--seed", "1"]) == 2
    assert capsys.readouterr() == ("", refusal)
    assert not out.exists()


def test_strict_mode_rejects_dirty_key(workdir, tmp_path, capsys):
    dirty = tmp_path / "dirty.fasta"
    dirty.write_text(">dirty\nACGTN" + "ACGT" * 16384 + "\n")
    code = run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(dirty),
                "--out", str(tmp_path / "z.dmc"), "--seed", "1"])
    assert code == 2
    assert "InvalidSymbol" in capsys.readouterr().err


def test_sanitize_mode_accepts_dirty_key(workdir, tmp_path):
    rng = random.Random(34)
    clean = "".join(rng.choices("ACGT", k=65540))
    dirty = tmp_path / "dirty2.fasta"
    dirty.write_text(">dirty\nNNN" + clean + "\n")
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(dirty),
                "--out", str(tmp_path / "w.dmc"), "--seed", "1", "--mode", "sanitize"]) == 0


def test_missing_file_is_a_data_error(workdir, tmp_path, capsys):
    code = run(["encrypt", "--in", str(tmp_path / "nope.pgm"),
                "--key", str(workdir / "key.fasta"), "--out", str(tmp_path / "o.dmc")])
    assert code == 2
    assert "FileNotFoundError" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert run([]) == 1
    assert run(["encrypt"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["encrypt", "--in", "x", "--key", "y", "--out", "z", "--seed", "abc"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["encrypt", "--in", "x", "--key", "y", "--out", "z", "--seed", str(1 << 64)],
     "argument --seed: seed must fit in 64 bits\n"),
    (["analyze", "--plain", "x", "--cipher", "y", "--trials", "x"],
     "argument --trials: not an integer: 'x'\n"),
    # an empty file name would be Path("."), the current directory
    (["keyinfo", "--key", ""], "argument --key: empty file name\n"),
    (["encrypt", "--in", "x", "--key", "y", "--out", ""], "argument --out: empty file name\n"),
    (["analyze", "--plain", "x", "--cipher", "y", "--csv", ""],
     "argument --csv: empty file name\n"),
])
def test_option_values_out_of_their_type_are_usage_errors(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "analyze", "attack", "magic", "keyinfo"])
def test_help_exits_zero(command, capsys):
    assert run([command, "--help"]) == 0
    assert "--" in capsys.readouterr().out


def test_hex_seed_accepted(workdir, tmp_path):
    out_dec = tmp_path / "dec.dmc"
    out_hex = tmp_path / "hex.dmc"
    base = ["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(workdir / "key.fasta")]
    assert run([*base, "--out", str(out_dec), "--seed", "255"]) == 0
    assert run([*base, "--out", str(out_hex), "--seed", "0xFF"]) == 0
    assert out_dec.read_bytes() == out_hex.read_bytes()


def test_decrypted_file_parses_back(workdir):
    # decrypt output is canonical P5 and reparses to the original raster
    img = read_pgm((workdir / "sample.pgm").read_bytes())
    cipher_path = workdir / "reparse.dmc"
    plain_path = workdir / "reparse.pgm"
    run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(workdir / "key.fasta"),
         "--out", str(cipher_path), "--seed", "11"])
    run(["decrypt", "--in", str(cipher_path), "--key", str(workdir / "key.fasta"),
         "--out", str(plain_path)])
    assert read_pgm(plain_path.read_bytes()) == img


@pytest.fixture(scope="module")
def lonely_key(tmp_path_factory):
    """A covering key in which GGGG starts exactly one window position, on disk."""
    bases = random_bases(random.Random(5151), MIN_KEY_LENGTH).replace("GGGG", "GGGA")
    bases = bases[:999] + "AGGGGA" + bases[1005:]  # the A guards stop the run at four
    occurrences = scan_index(NucleotideSequence(bases)).occurrences
    assert occurrences[0xFF] == (1000,) and all(occurrences)
    path = tmp_path_factory.mktemp("lonely") / "key.fasta"
    path.write_text(">lonely GGGG\n" + bases + "\n")
    return path


def _child_env() -> dict:
    """The environment of a CLI child: this source tree, default warning filters."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _encrypt_in_subprocess(workdir, key_path, out, *python_flags) -> subprocess.CompletedProcess:
    """`dnamagic encrypt` in a fresh interpreter, under the default warning filters
    unless python_flags change them."""
    return subprocess.run([sys.executable, *python_flags, "-m", "dnamagic.cli", "encrypt",
                           "--in", str(workdir / "sample.pgm"), "--key", str(key_path),
                           "--out", str(out), "--seed", "1"],
                          capture_output=True, text=True, env=_child_env(), timeout=120)


def test_key_warning_turned_into_an_error_exits_2(workdir, lonely_key, tmp_path, capsys):
    # this suite turns every warning into an error, as `python -W error` does
    assert run(["encrypt", "--in", str(workdir / "sample.pgm"), "--key", str(lonely_key),
                "--out", str(tmp_path / "o.dmc"), "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "SingleOccurrenceWarning: quads occurring only once in the key window: GGGG;")
    assert not (tmp_path / "o.dmc").exists()


def test_key_warning_is_printed_and_encrypt_succeeds(workdir, lonely_key, tmp_path):
    out = tmp_path / "o.dmc"
    result = _encrypt_in_subprocess(workdir, lonely_key, out)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ("SingleOccurrenceWarning: quads occurring only once in the key "
                             "window: GGGG; their substitution is deterministic\n")
    with pytest.warns(SingleOccurrenceWarning):
        key = build_key(parse_fasta(lonely_key.read_bytes()))
    image = read_pgm((workdir / "sample.pgm").read_bytes())
    assert decrypt(deserialize(out.read_bytes()), key) == image


def test_key_warning_under_w_error_exits_2_without_a_traceback(workdir, lonely_key, tmp_path):
    result = _encrypt_in_subprocess(workdir, lonely_key, tmp_path / "o.dmc", "-W", "error")
    assert result.returncode == 2
    assert result.stderr.startswith("SingleOccurrenceWarning: ")
    assert "Traceback" not in result.stderr


def _run_into_a_closed_pipe(*python_args) -> subprocess.CompletedProcess:
    """A Python child whose stdout is a pipe that its reader closed before reading anything;
    its stdout is buffered unless python_args say -u."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, *python_args],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    finally:
        os.close(write)


# a buffered stdout meets the closed pipe when it is flushed at the end, an
# unbuffered one (-u) at the first line, and a long output in the middle
@pytest.mark.parametrize("python_flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [("keyinfo",), ("magic", "--order", "1024")], ids=" ".join)
def test_a_closed_stdout_ends_the_command_quietly(workdir, command, python_flags):
    argv = [*command, "--key", str(workdir / "key.fasta")] if command == ("keyinfo",) else command
    result = _run_into_a_closed_pipe(*python_flags, "-m", "dnamagic.cli", *argv)
    assert (result.returncode, result.stderr) == (0, "")


# run itself, not main's flush, stops at the line that meets the closed pipe: it points
# stdout at os.devnull, closes the descriptor it opened for that, and returns 0
CLOSED_PIPE_RUN = """
import json, os, sys
from dnamagic.cli import run
free = os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor
os.close(free)
code = run(["magic", "--order", "64"])  # about 20 kB, past the 8 KiB stdout buffer
after = os.open(os.devnull, os.O_RDONLY)
on_devnull = os.path.samestat(os.fstat(1), os.stat(os.devnull))
sys.stderr.write(json.dumps([code, after == free, on_devnull]))
"""


def test_run_hands_a_closed_stdout_to_devnull_and_returns_0():
    result = _run_into_a_closed_pipe("-c", CLOSED_PIPE_RUN)
    assert (result.returncode, result.stderr) == (0, "[0, true, true]")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_closed_out_file_is_still_a_data_error(workdir, tmp_path):
    image = tmp_path / "big.pgm"  # its container outgrows a pipe's 64 KiB buffer
    image.write_bytes(write_pgm(random_image(random.Random(8), 256)))
    out = tmp_path / "out.dmc"
    os.mkfifo(out)
    reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)  # lets the child open it
    child = subprocess.Popen([sys.executable, "-m", "dnamagic.cli", "encrypt", "--in", str(image),
                              "--key", str(workdir / "key.fasta"), "--out", str(out),
                              "--seed", "1"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=_child_env())
    try:
        assert select.select([reader], [], [], 120)[0]  # the child has begun to write
    finally:
        os.close(reader)
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 2
    assert stderr.startswith("BrokenPipeError: ") and stderr.count("\n") == 1
    assert stdout == ""


def _at_chunk_edge(text: bytearray, piece: bytes, k: int, rng: random.Random) -> int:
    """Pad text with bases so that piece[k] starts a 7-byte chunk, append piece,
    and return the offset of piece[k]."""
    text += random_bases(rng, -(len(text) + k) % 7).encode()
    text += piece
    return len(text) - len(piece) + k


@pytest.fixture(scope="module")
def edge_key(tmp_path_factory):
    """A covering key whose header, CRLF line end, record split and invalid
    symbol each straddle or start a 7-byte chunk."""
    rng = random.Random(7)
    text = bytearray(b">edge key\r\n")  # the header straddles offset 7
    for _ in range(600):
        text += random_bases(rng, 60).encode() + b"\r\n"
    edges = [_at_chunk_edge(text, b"AC\r\nGT", 3, rng),  # LF starts a chunk, CR ends one
             _at_chunk_edge(text, b"\n>second record\r\n", 1, rng),  # '>' starts a chunk
             _at_chunk_edge(text, b"N", 0, rng)]  # strict names its offset, sanitize drops it
    for _ in range(600):
        text += random_bases(rng, 60).encode() + b"\r\n"
    assert [text[e:e + 1] for e in edges] == [b"\n", b">", b"N"]
    assert all(e % 7 == 0 for e in edges) and text.count(b"N") == 1
    path = tmp_path_factory.mktemp("edge") / "key.fasta"
    path.write_bytes(text)
    return path


@pytest.mark.parametrize("mode", ["strict", "sanitize"])
@pytest.mark.parametrize("command", ["keyinfo", "encrypt"])
def test_key_chunk_size_changes_no_output(workdir, edge_key, tmp_path, monkeypatch, capsys,
                                          mode, command):
    out = tmp_path / "o.dmc"
    argv = [command, "--key", str(edge_key), "--mode", mode]
    if command == "encrypt":
        argv += ["--in", str(workdir / "sample.pgm"), "--out", str(out), "--seed", "3"]
    runs = []
    for chunk in (1 << 20, 7):
        monkeypatch.setattr(reference, "_CHUNK", chunk)
        code = run(argv)
        runs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    code, captured, written = runs[0]
    if mode == "strict":
        offset = edge_key.read_bytes().index(b"N")
        assert (code, captured.err) == (
            2, f"InvalidSymbol: invalid symbol 'N' at input offset {offset}\n")
    elif command == "keyinfo":
        assert (code, captured.err) == (0, "")
        assert captured.out.startswith("source: edge key\nlength: 72017\n")
    else:
        assert (code, captured.err, captured.out) == (0, "", "")
        assert written is not None


# ---- running out of memory ----

# An address-space cap on the child alone, midway between the two needs: the
# interpreter runs --help in about 20 MB; encrypt and decrypt of a 2048x2048
# image need about 44-50 MB.
AS_CAP = 32 << 20
SIDE = 2048


@pytest.fixture(scope="module")
def big_files(tmp_path_factory):
    """A 2048x2048 image and a container of that size, on disk."""
    root = tmp_path_factory.mktemp("big")
    (root / "big.pgm").write_bytes(write_pgm(PlainImage(SIDE, SIDE, bytes(SIDE * SIDE))))
    pointers = array("H", bytes(2 * SIDE * SIDE))
    (root / "big.dmc").write_bytes(serialize(CipherImage(SIDE, SIDE, pointers)))
    return root


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("command", ["--help", "encrypt", "decrypt"])
def test_running_out_of_memory_exits_2_with_one_line(workdir, big_files, tmp_path, command):
    out = tmp_path / "out"
    key = str(workdir / "key.fasta")
    argv = {"--help": ["--help"],
            "encrypt": ["encrypt", "--in", str(big_files / "big.pgm"), "--key", key,
                        "--out", str(out), "--seed", "1"],
            "decrypt": ["decrypt", "--in", str(big_files / "big.dmc"), "--key", key,
                        "--out", str(out)]}[command]
    import resource  # POSIX only

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, AS_CAP))

    result = subprocess.run([sys.executable, "-m", "dnamagic.cli", *argv], preexec_fn=cap,
                            capture_output=True, text=True, env=_child_env(), timeout=120)
    if command == "--help":  # the cap leaves room for the interpreter itself
        assert result.returncode == 0, result.stderr
        return
    size = Path(argv[2]).stat().st_size + Path(key).stat().st_size
    assert result.returncode == 2
    assert result.stderr == f"MemoryError: {command} ran out of memory on {size} bytes of input\n"
    assert result.stdout == "" and not out.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# each command, the first loader it calls and its options; an int names an input
# file of that many bytes, each size a distinct power of two
OUT_OF_MEMORY_CASES = {
    "encrypt": ("imageio.read_pgm", ["--in", 1, "--key", 2, "--out", "o.dmc", "--seed", "1"]),
    "decrypt": ("cipher.deserialize", ["--in", 4, "--key", 8, "--out", "o.pgm"]),
    "analyze": ("imageio.read_pgm", ["--plain", 16, "--cipher", 32, "--key", 64,
                                     "--csv", "o.csv", "--seed", "1"]),
    "attack": ("imageio.read_pgm", ["--known-plain", 128, "--known-cipher", 256,
                                    "--target", 512, "--truth", 1024]),
    "magic": ("magic_square.generate_doubly_even", ["--order", "8"]),
    "keyinfo": ("cli._read_key", ["--key", 2048]),
}


@pytest.mark.parametrize("command", sorted(OUT_OF_MEMORY_CASES))
def test_out_of_memory_line_counts_exactly_the_files_the_command_reads(
        tmp_path, monkeypatch, capsys, command):
    loader, options = OUT_OF_MEMORY_CASES[command]
    monkeypatch.setattr(f"dnamagic.{loader}", _out_of_memory)
    argv, size = [command], 0
    for flag, value in zip(options[::2], options[1::2]):
        if isinstance(value, int):
            path = tmp_path / flag.lstrip("-")
            path.write_bytes(bytes(value))
            value, size = path, size + value
        elif flag in ("--out", "--csv"):  # already holds bytes, so counting it would show
            value = tmp_path / value
            value.write_bytes(bytes(4096))
        argv += [flag, str(value)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"MemoryError: {command} ran out of memory on {size} bytes of input\n"
