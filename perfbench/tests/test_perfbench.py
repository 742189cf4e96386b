"""Tests of the benchmark itself: inputs, span arithmetic and wrapper hygiene.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import inputs  # noqa: E402
import pytest  # noqa: E402
import tracing  # noqa: E402
from dnamagic import reference  # noqa: E402
from dnamagic.errors import InvalidSymbol  # noqa: E402


def test_inputs_are_deterministic_per_seed():
    assert inputs.genome_fasta(7, 100_000) == inputs.genome_fasta(7, 100_000)
    assert inputs.genome_fasta(7, 100_000) != inputs.genome_fasta(8, 100_000)
    assert inputs.photo_image(7, "x", 64) == inputs.photo_image(7, "x", 64)
    assert inputs.photo_image(7, "x", 64) != inputs.photo_image(8, "x", 64)
    assert inputs.u64("op", 7) == inputs.u64("op", 7) != inputs.u64("op", 8)


def test_genome_key_is_genome_like_and_fully_covered_under_sanitize():
    fasta = inputs.genome_fasta(3)
    lines = fasta.split(b"\n")
    assert sum(line.startswith(b">") for line in lines) == inputs.KEY_RECORDS
    assert max(len(line) for line in lines if not line.startswith(b">")) == inputs.LINE_WIDTH
    assert b"N" * 50 in fasta and any(c in fasta for c in b"acgt")
    with pytest.raises(InvalidSymbol):
        reference.parse_fasta(fasta)  # strict mode rejects the N runs
    seq = reference.parse_fasta(fasta, mode="sanitize")
    assert inputs.KEY_BASES - inputs.KEY_RECORDS < len(seq) <= inputs.KEY_BASES
    index = reference.scan_index(seq)
    assert all(index.occurrences), "every one of the 256 quads occurs in the key window"
    reference.build_key(seq)


def test_photo_image_is_a_noisy_gradient():
    side = 64
    pixels = inputs.photo_image(5, "g", side)
    assert len(pixels) == side * side
    # horizontal neighbours differ by at most the noise range plus one ramp step
    steps = [abs(pixels[i] - pixels[i + 1]) for i in range(side - 1)]
    assert max(steps) <= 34 and len(set(pixels)) > 32


def _span(name, start, end, parent=None, op=0, counts=None):
    return tracing.Span(name, start, end, parent, op, counts)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("cli.run", 0, 100),
        _span("reference.parse_fasta", 10, 30, parent=0),
        _span("cipher.encrypt", 40, 70, parent=0),
        _span("substitution.substitute", 45, 50, parent=2),
        _span("dna.synthesize", 50, 60, parent=2),
        _span("cli.run", 200, 210),  # no children
    ]
    assert tracing.self_times(spans) == [50, 20, 15, 5, 10, 10]


def test_summarize_reports_per_operation_layers_counts_and_gaps():
    spans = [
        _span("cipher.encrypt", 0, 10_000_000, op=1),
        _span("substitution.substitute", 1_000_000, 7_000_000, parent=0, op=1,
              counts={"cells": 16}),
        _span("magic_square.generate_doubly_even", 7_000_000, 8_000_000, parent=0, op=1),
        _span("cipher.decrypt", 12_000_000, 14_000_000, op=2),
    ]
    metrics = tracing.summarize(spans, ops=2, op_wall_ns=16_000_000)
    assert metrics["cipher.encrypt_self_ms"] == pytest.approx(1.5)  # (10 - 6 - 1) / 2
    assert metrics["substitution.substitute_ms"] == pytest.approx(3.0)
    assert metrics["substitution.cells"] == 8
    assert metrics["magic_square.cold_builds"] == 0.5
    assert metrics["magic_square.cache_hit_ratio"] == 0.5  # 1 build per 2 encrypt+decrypt
    assert metrics["unattributed_ms"] == pytest.approx(2.0)  # (16 - 10 - 2) / 2
    assert metrics["analysis.histogram_ms"] == 0


def test_traced_run_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", tmp_path)
    before = tracing.targets()
    bench = harness.Bench("mixed_sizes", 1, tmp_path)
    metrics = bench.traced_run(0.2)
    assert bench.restored and bench.failed == 0
    assert all(getattr(module, attr) is fn for module, attr, fn in before)
    assert metrics["substitution.cells"] > 0 and metrics["reference.parse_fasta_ms"] > 0
    assert (tmp_path / "spans-mixed_sizes-1.json").is_file()
