"""dnamagic benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds every input from --seed, checks the bit-exact canary, measures one
workload for about S seconds and prints one JSON result as the last line of
standard output.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 reports its per-layer metrics from a traced replay.  Workloads,
metric definitions and the layer-to-metric map are in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bulk_512", "mixed_sizes", "cli_genome")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dnamagic" / "__init__.py").is_file():
        print(f"no dnamagic sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # a terminated run still removes its files and stops its CLI child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import harness  # imports dnamagic, so only after the check above

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = declared["per_layer" if args.trace else "end_to_end"]
    run_dir = harness.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        bench = harness.Bench(args.workload, args.seed, run_dir)
        metrics = bench.traced_run(args.seconds) if args.trace else bench.timed_run(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    missing = {spec["name"] for spec in specs} - metrics.keys()
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    correct = bench.canary_ok and bench.restored and bench.failed == 0
    print(f"samples: {json.dumps(bench.samples)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
