"""Span tracing from outside the library.

The tracer replaces public functions with timing wrappers under the names
their callers look them up by (for example ``dnamagic.cipher.substitute`` is
what ``encrypt`` calls), records one span per call in memory, and puts every
original function object back when the ``traced`` block ends.  The library is
not modified; untraced runs execute it exactly as users do.
"""

import contextlib
import functools
import importlib
import time
from typing import NamedTuple

# module -> attributes its callers look up at call time
TARGETS = {
    "dnamagic.cipher": ("encrypt", "decrypt", "serialize", "deserialize",
                        "synthesize", "resynthesize", "substitute", "reverse_substitute",
                        "generate_doubly_even", "to_permutation", "scramble", "unscramble"),
    "dnamagic.analysis": ("encrypt", "adjacent_correlation", "histogram", "chi_square_uniform",
                          "differential_sensitivity", "differential_paired_seed"),
    "dnamagic.reference": ("parse_fasta", "build_key", "scan_index", "key_fingerprint"),
    "dnamagic.imageio": ("read_pgm", "write_pgm"),
    "dnamagic.cli": ("run",),
}


def _cells(args, result):
    return {"cells": args[0].width * args[0].height}


# span name -> counts recorded with the span, from (arguments, result)
COUNTERS = {
    "substitution.substitute": _cells,
    "substitution.reverse_substitute": _cells,
    "cipher.serialize": lambda args, result: {"container_bytes": len(result)},
    "reference.parse_fasta": lambda args, result: {"fasta_bytes": len(args[0]),
                                                   "bases": len(result.bases)},
}


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span in the same list
    op: int | str  # operation id, or "setup"
    counts: dict | None = None


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)
        counter = COUNTERS.get(name)
        if counter is not None:
            self.spans[index] = self.spans[index]._replace(counts=counter(args, result))
        return result


def span_name(fn) -> str:
    """Layer-qualified name from where the function is defined."""
    return f"{fn.__module__.removeprefix('dnamagic.')}.{fn.__name__}"


def targets() -> list:
    """(module, attribute, current object) for every traced attribute."""
    out = []
    for module_name, attrs in TARGETS.items():
        module = importlib.import_module(module_name)
        out.extend((module, attr, getattr(module, attr)) for attr in attrs)
    return out


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every target; restore the originals on exit."""
    originals = targets()
    try:
        for module, attr, fn in originals:
            setattr(module, attr, _wrapper(tracer, span_name(fn), fn))
        yield originals
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def restored(originals) -> bool:
    """True when every traced attribute is its original function object again."""
    return all(getattr(module, attr) is fn for module, attr, fn in originals)


def self_times(spans) -> list:
    """Per span, its duration minus the time its child spans cover.  Spans
    come from one thread, so the children of a span never overlap."""
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out


# per-layer metric -> span name whose self time it reports, in ms per operation
SELF_MS = {
    "substitution.substitute_ms": "substitution.substitute",
    "substitution.reverse_substitute_ms": "substitution.reverse_substitute",
    "dna.synthesize_ms": "dna.synthesize",
    "dna.resynthesize_ms": "dna.resynthesize",
    "magic_square.generate_doubly_even_ms": "magic_square.generate_doubly_even",
    "magic_square.to_permutation_ms": "magic_square.to_permutation",
    "magic_square.scramble_ms": "magic_square.scramble",
    "magic_square.unscramble_ms": "magic_square.unscramble",
    "reference.parse_fasta_ms": "reference.parse_fasta",
    "reference.scan_index_ms": "reference.scan_index",
    "reference.key_fingerprint_ms": "reference.key_fingerprint",
    "reference.build_key_self_ms": "reference.build_key",
    "cipher.encrypt_self_ms": "cipher.encrypt",
    "cipher.decrypt_self_ms": "cipher.decrypt",
    "cipher.serialize_ms": "cipher.serialize",
    "cipher.deserialize_ms": "cipher.deserialize",
    "analysis.adjacent_correlation_ms": "analysis.adjacent_correlation",
    "analysis.histogram_ms": "analysis.histogram",
    "analysis.chi_square_uniform_ms": "analysis.chi_square_uniform",
    "analysis.differential_sensitivity_self_ms": "analysis.differential_sensitivity",
    "analysis.differential_paired_seed_self_ms": "analysis.differential_paired_seed",
    "imageio.read_pgm_ms": "imageio.read_pgm",
    "imageio.write_pgm_ms": "imageio.write_pgm",
    "cli.run_self_ms": "cli.run",
}

# per-layer metric -> span counter it sums, per operation
COUNT_METRICS = {
    "substitution.cells": "cells",
    "cipher.container_bytes": "container_bytes",
    "reference.fasta_bytes": "fasta_bytes",
    "reference.bases": "bases",
}


def summarize(spans, ops: int, op_wall_ns: int) -> dict:
    """Per-layer metrics for spans recorded over `ops` operations whose
    measured wall time adds up to op_wall_ns."""
    self_ns = dict.fromkeys(SELF_MS.values(), 0)
    calls = dict.fromkeys(SELF_MS.values(), 0)
    counts = dict.fromkeys(COUNT_METRICS.values(), 0)
    analysis_encrypts = 0
    covered_ns = 0
    for span, own in zip(spans, self_times(spans)):
        self_ns[span.name] += own
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            counts[key] += value
        if span.parent is None:
            covered_ns += span.end - span.start
        elif span.name == "cipher.encrypt" and spans[span.parent].name.startswith("analysis."):
            analysis_encrypts += 1
    metrics = {metric: self_ns[name] / 1e6 / ops for metric, name in SELF_MS.items()}
    metrics.update((metric, counts[key] / ops) for metric, key in COUNT_METRICS.items())
    cold = calls["magic_square.generate_doubly_even"]
    lookups = calls["cipher.encrypt"] + calls["cipher.decrypt"]
    metrics["magic_square.cold_builds"] = cold / ops
    metrics["magic_square.cache_hit_ratio"] = 1 - cold / lookups if lookups else 0.0
    metrics["analysis.encrypt_calls"] = analysis_encrypts / ops
    metrics["unattributed_ms"] = (op_wall_ns - covered_ns) / 1e6 / ops
    return metrics
