"""tools/pairs.py on two fixture trees whose perfbench/run.py prints fixed results."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"

BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 0.5,
    "workloads": [{"name": "small"}, {"name": "large"}],
    "end_to_end": [
        {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.24},
        {"name": "rate", "unit": "x", "better": "higher", "bound": 0.24},
        {"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.24},
    ],
}

# SIDE and VALUES differ between the two trees; every run logs its side, its arguments and
# whether it found a file that an earlier run, or a compile, left in its tree
RUN = '''import argparse, json, os
from pathlib import Path

SIDE = {side!r}
VALUES = {values}
parser = argparse.ArgumentParser()
for option in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(option)
args = parser.parse_args()
left = Path("ran").exists() or Path("perfbench/__pycache__").exists()
Path("ran").write_text("")
with open(os.environ["PAIRS_LOG"], "a") as log:
    print(SIDE, args.workload, args.seed, args.seconds, args.trace, left, file=log)
seed = int(args.seed)
print("a line before the result")
print(json.dumps({{"correct": True, "attempted": 10, "failed": VALUES["failed"],
                  "metrics": {{name: {{"value": VALUES[name](seed), "unit": "u"}}
                              for name in ("ms", "rate", "noisy")}}}}))
'''

PARENT = ('{"failed": 0, "ms": lambda s: 10.0, "rate": lambda s: 100.0, '
          '"noisy": lambda s: 2.0 ** s}')
# ms: better in three pairs, a tie at seed 3; rate: 30 % worse; noisy: the parent's spread
CHANGE = ('{"failed": 1, "ms": lambda s: 10.0 if s == 3 else 9.0, "rate": lambda s: 70.0, '
          '"noisy": lambda s: 5.0}')


def git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


@pytest.fixture
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="the parent is read with git archive")
def test_pairs_alternate_and_report_each_metric(tmp_path, pairs, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "perfbench" / "run.py").write_text(RUN.format(side="parent", values=PARENT))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    # the work tree is the change, and holds bytecode that its copies must leave out
    (repo / "perfbench" / "run.py").write_text(RUN.format(side="change", values=CHANGE))
    (repo / "perfbench" / "__pycache__").mkdir()
    (repo / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"")
    log = tmp_path / "log"
    monkeypatch.setenv("PAIRS_LOG", str(log))

    assert pairs.main(["--pr", "7", "--change", str(repo), "--pairs", "4"]) == 1

    # odd seeds run the parent first; every run starts in a fresh tree
    sides = [("parent", "change") if seed % 2 else ("change", "parent") for seed in range(1, 5)]
    assert log.read_text().splitlines() == [
        f"{side} {workload} {seed} 0.5 0 False" for workload in ("small", "large")
        for seed, order in zip(range(1, 5), sides) for side in order]
    report = json.loads((repo / "BENCH_7.json").read_text())
    assert set(report) == {"parent", "command", "run_seconds", "seeds", "runs", "workloads"}
    assert report["seeds"] == [1, 2, 3, 4]
    assert report["runs"][0] == {"workload": "small", "seed": 1, "side": "parent",
                                 "exit_code": 0, "correct": True, "failed": 0, "attempted": 10,
                                 "metrics": {"ms": 10.0, "rate": 100.0, "noisy": 2.0}}
    for workload in ("small", "large"):
        result = report["workloads"][workload]
        assert result["failed_share"] == {"parent": 0.0, "change": 0.1}
        ms, rate, noisy = (result["metrics"][name] for name in ("ms", "rate", "noisy"))
        assert ms["pairs"] == [[10.0, 9.0], [10.0, 9.0], [10.0, 10.0], [10.0, 9.0]]
        assert (ms["parent_median"], ms["change_median"]) == (10.0, 9.0)
        assert ms["parent_quartiles"] == [10.0, 10.0]
        assert (ms["change_wins"], ms["parent_wins"]) == (3, 0)  # the tie counts for neither
        assert (ms["bound"], ms["verdict"]) == (0.24, "within bound")
        assert (rate["change_wins"], rate["parent_wins"]) == (0, 4)
        assert rate["verdict"] == "worse than bound"
        # parent 2, 4, 8, 16: quartiles 3.5 and 10, a spread of 108 % of the 6.0 median
        assert noisy["parent_quartiles"] == [3.5, 10.0]
        assert (noisy["change_wins"], noisy["parent_wins"]) == (2, 2)
        assert noisy["verdict"] == "unresolved"
