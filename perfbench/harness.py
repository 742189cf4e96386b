"""Workload loops, output checks and metric arithmetic for run.py.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  A library operation is one round trip,
encrypt+serialize then deserialize+decrypt.  A CLI operation is one
``dnamagic`` subprocess; a CLI cycle runs keyinfo, encrypt --fingerprint,
decrypt and analyze --key --trials 10 on a 256x256 PGM.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import canary
import inputs
import tracing
from dnamagic import cipher, reference
from dnamagic.imageio import PlainImage
from dnamagic.substitution import RandomStream

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "out"

# Share of the window spent on library round trips.  The library workloads
# interleave them with LIBRARY_CLI_CYCLES CLI cycles, because every end-to-end
# metric is measured on every workload; cli_genome runs CLI cycles for the
# whole window.
LIBRARY_SHARE = {"bulk_512": 0.45, "mixed_sizes": 0.45, "cli_genome": 0.0}
LIBRARY_CLI_CYCLES = 2
MIN_CLI_CYCLES = 2
TWINS_PER_COMMAND = 2  # in-process round trips of the cycle's image on cli_genome
STARTUP_REPEATS = 5
BULK_SIDE = 512
BULK_POOL = 4
CLI_SIDE = 256
# sides 16, 20, ..., 256: more orders than the 16-entry permutation cache holds
MIXED_SIDES = tuple(range(16, 257, 4))
CLI_TIMEOUT_S = 120
CLI_COMMANDS = ("keyinfo", "encrypt", "decrypt", "analyze")
PAIRED_SEED_LINE = "paired_seed_changed_cells: 1.000000"


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Bench:
    """One workload run: inputs built from the seed, the loop and its checks."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.library = LIBRARY_SHARE[workload] > 0
        self.attempted = 0
        self.failed = 0
        self.restored = True
        self.samples = {}
        self.next_op = 0
        bad = canary.mismatches()
        self.canary_ok = not bad
        if bad:
            print(f"canary digests differ for (side, seed, fingerprint) {bad}", file=sys.stderr)
        self.setup_s = []
        self._setup()
        if workload == "bulk_512":
            # fill the permutation cache: this workload measures warm operation
            self._attempt("warm-up round trip", self._library_op, 0)

    # ---- inputs -------------------------------------------------------------

    def _setup(self):
        """Build the inputs from the seed and ingest the key in-process; its
        wall time is one set-up sample."""
        self.fasta = self.key = None  # a repeated set-up must not hold two keys at once
        self.pool = []
        start = time.perf_counter()
        self.fasta = inputs.genome_fasta(self.seed)
        self.key_path = self.dir / "key.fasta"
        self.key_path.write_bytes(self.fasta)
        self.key = self._ingest()
        if self.workload == "bulk_512":
            self.pool = [PlainImage(BULK_SIDE, BULK_SIDE,
                                    inputs.photo_image(self.seed, f"bulk-{i}", BULK_SIDE))
                         for i in range(BULK_POOL)]
        self.setup_s.append(time.perf_counter() - start)

    def _ingest(self):
        return reference.build_key(reference.parse_fasta(self.fasta, mode="sanitize"))

    def _library_input(self, k: int):
        if self.pool:
            image = self.pool[k % len(self.pool)]
        else:
            # each block of 61 operations visits every side once, in a seeded
            # order, so every run sees the same mix of sizes
            block, i = divmod(k - 1, len(MIXED_SIDES))
            side = inputs.shuffled(f"sides-{block}", self.seed, MIXED_SIDES)[i]
            image = PlainImage(side, side, inputs.photo_image(self.seed, f"mixed-{k}", side))
        return image, inputs.u64(f"op-rng-{k}", self.seed), k % 2 == 1

    # ---- operations ---------------------------------------------------------

    def _attempt(self, what, fn, *args):
        """Run one operation, counting it, and its failure if it fails."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # any failure of the program under test fails the operation
            self.failed += 1
            print(f"{what} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def _round_trip(self, image, rng_seed, fingerprint):
        """(cells, encrypt+serialize seconds, deserialize+decrypt seconds)."""
        start = time.perf_counter()
        blob = cipher.serialize(cipher.encrypt(image, self.key, RandomStream(rng_seed),
                                               include_fingerprint=fingerprint))
        middle = time.perf_counter()
        back = cipher.decrypt(cipher.deserialize(blob), self.key)
        end = time.perf_counter()
        cells = image.width * image.height
        if len(blob) != (22 if fingerprint else 14) + 2 * cells:
            raise CheckFailed(f"{len(blob)}-byte container for {cells} cells")
        if back != image:
            raise CheckFailed(f"round trip changed a {image.width}x{image.height} image")
        return cells, middle - start, end - middle

    def _library_op(self, k: int):
        return self._round_trip(*self._library_input(k))

    def _library_batch(self, seconds: float, trips: list) -> None:
        """Run the next round trips for `seconds`, at least one; op 0 is the
        bulk_512 warm-up, so numbering starts at 1."""
        deadline = time.perf_counter() + seconds
        while True:
            self.next_op += 1
            result = self._attempt(f"round trip {self.next_op}", self._library_op, self.next_op)
            if result is not None:
                trips.append(result)
            if time.perf_counter() >= deadline:
                return

    # ---- CLI cycles ---------------------------------------------------------

    def _cli_cycle(self, c: int, before=None, trace: bool = False) -> list:
        """Run CLI cycle c; returns (command, wall seconds, spans) per
        successful invocation.  Calls before(image) ahead of each command."""
        image = PlainImage(CLI_SIDE, CLI_SIDE, inputs.photo_image(self.seed, f"cli-{c}", CLI_SIDE))
        pgm = inputs.pgm(CLI_SIDE, image.pixels)
        plain, dmc, restored = (self.dir / n for n in ("plain.pgm", "c.dmc", "r.pgm"))
        plain.write_bytes(pgm)
        enc_seed = inputs.u64(f"cli-encrypt-{c}", self.seed)
        expected = cipher.serialize(cipher.encrypt(image, self.key, RandomStream(enc_seed),
                                                   include_fingerprint=True))

        key = ["--key", str(self.key_path), "--mode", "sanitize"]
        argvs = {
            "keyinfo": ["keyinfo", *key],
            "encrypt": ["encrypt", "--in", str(plain), "--out", str(dmc),
                        "--seed", str(enc_seed), "--fingerprint", *key],
            "decrypt": ["decrypt", "--in", str(dmc), "--out", str(restored), *key],
            "analyze": ["analyze", "--plain", str(plain), "--cipher", str(dmc), "--trials", "10",
                        "--seed", str(inputs.u64(f"cli-analyze-{c}", self.seed)), *key],
        }
        checks = {
            "keyinfo": self._check_keyinfo,
            "encrypt": lambda out: self._check_equal(dmc, expected, "CLI ciphertext"),
            "decrypt": lambda out: self._check_equal(restored, pgm, "CLI decrypt output"),
            "analyze": lambda out: self._check_line(out, PAIRED_SEED_LINE),
        }
        done = []
        for i, command in enumerate(CLI_COMMANDS):
            if before is not None:
                before(image)
            op = 4 * c + i if trace else None
            result = self._attempt(f"cli {command}", self._cli_op, argvs[command],
                                   checks[command], op)
            if result is not None:
                done.append((command, *result))
        return done

    def _check_keyinfo(self, out: str):
        for line in ("coverage: 256/256 quads", f"length: {len(self.key.sequence)}",
                     f"fingerprint: 0x{self.key.fingerprint:016x}"):
            self._check_line(out, line)

    @staticmethod
    def _check_line(out: str, line: str):
        if line not in out.splitlines():
            raise CheckFailed(f"expected {line!r} in output {out!r}")

    @staticmethod
    def _check_equal(path: Path, expected: bytes, what: str):
        if path.read_bytes() != expected:
            raise CheckFailed(f"{what} differs from the expected bytes")

    def _cli_op(self, argv, check, traced_op=None):
        """One CLI subprocess; returns (wall seconds, spans or None)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spans_path = self.dir / "spans.json"
        if traced_op is None:
            cmd = [sys.executable, "-m", "dnamagic.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_driver.py"), str(spans_path),
                   str(traced_op), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.dir, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        check(proc.stdout)
        if traced_op is None:
            return wall, None
        return wall, [tracing.Span(*s) for s in json.loads(spans_path.read_text())]

    # ---- end-to-end run -----------------------------------------------------

    def timed_run(self, seconds: float) -> dict:
        """Library round trips interleaved with CLI commands across the window,
        so that every metric samples all of it.  Set-up runs again after each
        CLI cycle, so that its median too spans the window."""
        start = time.perf_counter()
        trips = []
        cycles = []
        if self.library:
            slot = seconds * LIBRARY_SHARE[self.workload] / (4 * LIBRARY_CLI_CYCLES)

            def before(image):
                self._library_batch(slot, trips)
        else:
            def before(image):
                self._twins(image, trips)
        last = 0.0  # duration of the previous cycle; cli_genome starts one only if it fits
        while (len(cycles) < LIBRARY_CLI_CYCLES if self.library
               else len(cycles) < MIN_CLI_CYCLES
               or time.perf_counter() + last < start + seconds):
            began = time.perf_counter()
            done = self._cli_cycle(len(cycles), before)
            cycles.append(sum(wall for _, wall, _ in done) if len(done) == 4 else None)
            self._setup()
            last = time.perf_counter() - began
        # the library runs in this process on library workloads, in children on cli_genome
        who = resource.RUSAGE_SELF if self.library else resource.RUSAGE_CHILDREN
        complete = [c for c in cycles if c is not None]
        self.samples = {"round_trips": len(trips), "cli_cycles": len(complete),
                        "setups": len(self.setup_s)}
        return {
            "encrypt_ms_p90": 1000 * _p90([t[1] for t in trips]),
            "decrypt_ms_p90": 1000 * _p90([t[2] for t in trips]),
            "mcells_per_s": sum(t[0] for t in trips) / sum(t[1] + t[2] for t in trips) / 1e6,
            "cli_cycle_s": statistics.fmean(complete),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_s),
        }

    def _twins(self, image, trips: list) -> None:
        """Round trips of a CLI cycle's image in this process (cli_genome)."""
        for _ in range(TWINS_PER_COMMAND):
            self.next_op += 1
            args = (image, inputs.u64(f"twin-{self.next_op}", self.seed), self.next_op % 2 == 1)
            result = self._attempt(f"round trip {self.next_op}", self._round_trip, *args)
            if result is not None:
                trips.append(result)

    # ---- traced run ---------------------------------------------------------

    def traced_run(self, seconds: float) -> dict:
        """Run the workload's main loop untraced for half the window, then
        replay the same operations traced; returns the per-layer metrics.

        Library workloads trace round trips in this process, plus one key
        ingestion for the reference.* layers, which they only run in set-up.
        cli_genome traces each CLI subprocess through cli_driver.py.
        """
        startup = self._startup_s()
        command_walls = {command: [] for command in CLI_COMMANDS}
        if self.library:
            plain = []
            self._library_batch(seconds / 2, plain)
            ingest_tracer = tracing.Tracer()
            with tracing.traced(ingest_tracer) as originals:
                self._attempt("traced key ingestion", self._ingest)
            self.restored = tracing.restored(originals)
            tracer = tracing.Tracer()
            with tracing.traced(tracer) as originals:
                traced = []
                for k in range(1, self.next_op + 1):
                    tracer.op = k
                    result = self._attempt(f"round trip {k}", self._library_op, k)
                    if result is not None:
                        traced.append(result)
            self.restored = self.restored and tracing.restored(originals)
            plain_ns = sum(t[1] + t[2] for t in plain) * 1e9
            traced_ns = sum(t[1] + t[2] for t in traced) * 1e9
            spans = tracer.spans
            metrics = tracing.summarize(spans, len(traced), traced_ns)
            ingest = tracing.summarize(ingest_tracer.spans, 1, 0)
            metrics.update((m, v) for m, v in ingest.items() if m.startswith("reference."))
        else:
            deadline = time.perf_counter() + seconds / 2
            plain = []
            cycles = 0
            while cycles < 1 or time.perf_counter() < deadline:
                plain.extend(self._cli_cycle(cycles))
                cycles += 1
            plain_ns = sum(wall for _, wall, _ in plain) * 1e9
            for command, wall, _ in plain:
                command_walls[command].append(wall)
            traced = []
            for c in range(cycles):
                traced.extend(self._cli_cycle(c, trace=True))
            traced_ns = sum(wall for _, wall, _ in traced) * 1e9
            spans = []
            for _, _, child in traced:
                offset = len(spans)
                spans.extend(s if s.parent is None else s._replace(parent=s.parent + offset)
                             for s in child)
            metrics = tracing.summarize(spans, len(traced), traced_ns)
        (WORK / f"spans-{self.workload}-{self.seed}.json").write_text(json.dumps(spans))
        self.samples = {"operations": len(traced)}
        metrics["trace_overhead_ms"] = (traced_ns - plain_ns) / 1e6 / len(traced)
        metrics["cli.startup_s"] = startup
        for command, walls in command_walls.items():
            metrics[f"cli.{command}_s"] = statistics.fmean(walls) if walls else 0.0
        return metrics

    def _startup_s(self) -> float:
        """Median wall time of an untraced `import dnamagic.cli` in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        walls = []
        for _ in range(STARTUP_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import dnamagic.cli"], cwd=self.dir, env=env,
                           check=True, timeout=CLI_TIMEOUT_S)
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)
