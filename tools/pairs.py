"""Interleaved-pair benchmark runs of a parent commit against a change.

For each workload and each of --pairs seeds from --first-seed, the benchmark
command of BENCHMARK.json runs once on the parent and once on the change:

    python3 perfbench/run.py --workload W --seed N --seconds <run_seconds> --trace 0

Odd seeds run the parent first, even seeds the change.  Before every run the
parent is unpacked fresh from `git archive` of --parent (a ref of the change's
repository) and the change is copied fresh from --change without `__pycache__`,
so neither side starts with compiled bytecode or another run's files.

    python tools/pairs.py --pr N --first-seed 41                # HEAD against the work tree
    python tools/pairs.py --pr N --workloads cli_genome --pairs 20

BENCH_<pr>.json, written in the change's directory, holds every run's exit
code, `correct`, `failed` and `attempted`, each workload's failed share of
operations per side, and, per workload and end-to-end metric: every pair's two
values, both medians, the parent's quartiles, the pairs each side won (ties
count for neither, the direction from `better`), the bound and a verdict.  The
verdict is "unresolved" when the parent's interquartile range, relative to its
median, exceeds the bound and not every change run beats every parent run;
otherwise "worse than bound" when the change's median is worse than the
parent's by more than the bound, relative to the parent's median, and "within
bound" when not.  Quartiles are `statistics.quantiles(..., method="inclusive")`.
The tool reads `perfbench/` and BENCHMARK.json and edits neither.  Exit
status: 0 when every run exited 0 and was correct and no verdict is "worse
than bound", 1 otherwise.  Standard library only.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# not in the parent's archive: the repository, and what builds, tests and runs leave behind
UNTRACKED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                   ".benchmarks")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its exit code, `correct`, `failed`, `attempted` and metric
    values; when its last line of output is not a result, the three are None and no metric
    is given."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    return {"exit_code": proc.returncode, "correct": result.get("correct"),
            "failed": result.get("failed"), "attempted": result.get("attempted"),
            "metrics": {name: metric["value"]
                        for name, metric in result.get("metrics", {}).items()}}


def summary(pairs: list[list[float]], spec: dict) -> dict:
    """Medians, the parent's quartiles, win counts and verdict of one metric's pairs."""
    parent, change = ([pair[side] for pair in pairs] for side in (0, 1))
    sign = 1 if spec["better"] == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    worse_by = sign * (parent_median - change_median) / parent_median
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / parent_median > spec["bound"] and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "worse than bound" if worse_by > spec["bound"] else "within bound"
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "pairs": pairs, "parent_median": parent_median, "change_median": change_median,
            "parent_quartiles": [q1, q3],
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "parent_wins": sum(sign * (p - c) > 0 for p, c in pairs),
            "verdict": verdict}


def compare(change: Path, parent_ref: str, workloads: list[str], first_seed: int,
            pairs: int) -> dict:
    """The report of `pairs` interleaved pairs per workload (see the module docstring)."""
    declared = json.loads((change / "BENCHMARK.json").read_text())
    archive = subprocess.run(["git", "-C", str(change), "archive", "--format=tar", parent_ref],
                             stdout=subprocess.PIPE, check=True).stdout
    commit = subprocess.run(["git", "-C", str(change), "rev-parse", parent_ref],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    seeds = list(range(first_seed, first_seed + pairs))
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads:
            for seed in seeds:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    tree = Path(scratch) / side
                    shutil.rmtree(tree, ignore_errors=True)
                    if side == "parent":
                        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                            tar.extractall(tree, filter="data")
                    else:
                        shutil.copytree(change, tree, ignore=UNTRACKED)
                    run = run_once(tree, declared["command"], workload, seed,
                                   declared["run_seconds"])
                    runs.append({"workload": workload, "seed": seed, "side": side, **run})
                    print(f"{workload} seed {seed} {side}: exit {run['exit_code']}, "
                          f"correct {run['correct']}, failed {run['failed']}",
                          file=sys.stderr, flush=True)
    report = {"parent": f"{parent_ref} ({commit})", "command": declared["command"],
              "run_seconds": declared["run_seconds"], "seeds": seeds, "runs": runs,
              "workloads": {}}
    for workload in workloads:
        by_side = {side: {run["seed"]: run for run in runs
                          if run["workload"] == workload and run["side"] == side}
                   for side in SIDES}
        failed_share = {}
        for side, side_runs in by_side.items():
            attempted = sum(run["attempted"] or 0 for run in side_runs.values())
            failed = sum(run["failed"] or 0 for run in side_runs.values())
            failed_share[side] = failed / attempted if attempted else None
        metrics = {}
        for spec in declared["end_to_end"]:
            values = [[by_side[side][seed]["metrics"].get(spec["name"]) for side in SIDES]
                      for seed in seeds]
            measured = [pair for pair in values if None not in pair]
            metrics[spec["name"]] = (summary(measured, spec) if len(measured) >= 2 else
                                     {"pairs": values, "verdict": "unresolved"})
        report["workloads"][workload] = {"failed_share": failed_share, "metrics": metrics}
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, type=int, help="names the file BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git ref of the parent (default HEAD)")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="directory of the change (default: this work tree)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    change = args.change.resolve()
    workloads = args.workloads or [workload["name"] for workload in json.loads(
        (change / "BENCHMARK.json").read_text())["workloads"]]
    report = compare(change, args.parent, workloads, args.first_seed, args.pairs)
    (change / f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=2) + "\n")
    runs_ok = all(run["exit_code"] == 0 and run["correct"] for run in report["runs"])
    worse = any(metric["verdict"] == "worse than bound"
                for workload in report["workloads"].values()
                for metric in workload["metrics"].values())
    return 0 if runs_ok and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
