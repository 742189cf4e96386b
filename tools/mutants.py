"""Statement-deletion mutation sampler.

Each statement inside a function body of the chosen modules (bare string
statements such as docstrings, and `pass` itself, excepted) is replaced by
`pass`, one at a time, in a temporary copy of the tree, and the tests are run
there against that copy's `src` (TEST_COMMAND; this tool's own test is left
out, as it would start the sampler again inside every mutant's run).  A mutant
whose run fails is killed; one whose run passes survived, so no test notices
that statement.  A run that outlasts TIMEOUT_FACTOR times the unmutated run,
which is timed first, is stopped with its whole process group and reported as
a timeout: deleting a step can keep a loop from ending.  Statements in
KNOWN_EQUIVALENTS are skipped.

    python tools/mutants.py                         # every module of src/dnamagic
    python tools/mutants.py src/dnamagic/dna.py --report dna.json

The JSON report (to --report, or stdout) has the timeout in seconds,
per-module counts and the file, line and statement of every survivor and
timeout.  Exit status: 0 when no mutant survived, 1 when one did, 2 when the
unmutated tree fails its tests.  Standard library only.
"""

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_COMMAND = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--ignore=tests/test_mutants_tool.py", "tests"]
TIMEOUT_FACTOR = 3  # a mutant's run may take this many times the unmutated run

# (module, enclosing function, first line of the statement): reason it survives
KNOWN_EQUIVALENTS = {
    ("src/dnamagic/analysis.py", "high_bytes", "if isinstance(pointers, Cells):"):
        "speed-only fast path: the generic branch gives the same high bytes",
    ("src/dnamagic/analysis.py", "high_bytes", "return list(pointers.tobytes()[1::2])"):
        "speed-only fast path: the generic branch gives the same high bytes",
    ("src/dnamagic/analysis.py", "adjacent_correlation", "if isinstance(cells, Cells):"):
        "speed-only fast path: indexing the Cells reads the same values",
    ("src/dnamagic/analysis.py", "adjacent_correlation", "cells = cells.buffer"):
        "speed-only fast path: indexing the Cells reads the same values",
    ("src/dnamagic/substitution.py", "RandomStream.outputs",
     "even, odd, ones = even & even_low, odd & odd_low, ones & even_low"):
        "pre-mask of a partial block: the later masks give the same draws, it only keeps "
        "short draws such as next64 cheap",
}


def statements(tree: ast.Module):
    """(enclosing function's qualified name, statement) for each statement in a function body.

    Bare strings and `pass` are left out: replacing them with `pass` changes nothing.
    """
    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inert = isinstance(child, ast.Pass) or (
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                and isinstance(child.value.value, str))
            if isinstance(child, ast.stmt) and in_function and not inert:
                yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name,
                                 in_function or not isinstance(child, ast.ClassDef))
            else:
                yield from visit(child, scope, in_function)
    return sorted(visit(tree, "", False), key=lambda item: (item[1].lineno, item[1].col_offset))


def delete(source: bytes, node: ast.stmt) -> bytes:
    """source with node's text replaced by pass; ast offsets count UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[:node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[:node.end_lineno - 1])) + node.end_col_offset
    # an elif branch is an If nested in the else of the one before it
    replacement = b"else: pass" if source.startswith(b"elif", start) else b"pass"
    return source[:start] + replacement + source[end:]


def run_tests(tree: Path, timeout_s: float | None = None) -> str:
    """'passed', 'failed' or 'timeout' for the test suite of the copy at tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(TEST_COMMAND, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            return "passed" if proc.wait(timeout_s) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest's own children go too
            return "timeout"


def sample(root: Path, modules: list[str]) -> dict | None:
    """The report for modules (paths relative to root), or None when the unmutated tests fail."""
    report = {"command": " ".join(["python", *TEST_COMMAND[1:]]), "timeout_s": None,
              "modules": {}, "survivors": [], "timeouts": []}
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
        start = time.monotonic()
        if run_tests(tree) != "passed":
            return None
        timeout_s = report["timeout_s"] = TIMEOUT_FACTOR * (time.monotonic() - start)
        for module in modules:
            path = tree / module
            source = path.read_bytes()
            source_text = source.decode()
            counts = dict.fromkeys(("statements", "killed", "survived", "timeouts", "skipped"), 0)
            for scope, node in statements(ast.parse(source)):
                text = ast.get_source_segment(source_text, node).splitlines()[0].strip()
                counts["statements"] += 1
                if (module, scope, text) in KNOWN_EQUIVALENTS:
                    counts["skipped"] += 1
                    continue
                path.write_bytes(delete(source, node))
                outcome = run_tests(tree, timeout_s)
                path.write_bytes(source)
                print(f"{module}:{node.lineno}: {outcome}: {text}", file=sys.stderr, flush=True)
                found = {"file": module, "line": node.lineno, "statement": text}
                if outcome == "passed":
                    counts["survived"] += 1
                    report["survivors"].append(found)
                elif outcome == "timeout":
                    counts["timeouts"] += 1
                    report["timeouts"].append(found)
                else:
                    counts["killed"] += 1
            report["modules"][module] = counts
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*",
                        help="module paths relative to the repo (default: src/dnamagic/*.py)")
    parser.add_argument("--report", type=Path, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(
        path.relative_to(ROOT).as_posix() for path in (ROOT / "src/dnamagic").glob("*.py"))
    report = sample(ROOT, modules)
    if report is None:
        print("the unmutated tree fails its tests", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2) + "\n"
    if args.report is None:
        sys.stdout.write(text)
    else:
        args.report.write_text(text)
    return 1 if report["survivors"] else 0


if __name__ == "__main__":
    sys.exit(main())
