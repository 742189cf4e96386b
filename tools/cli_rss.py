"""Peak RSS and wall time of one dnamagic CLI run, measured from a small launcher.

    PYTHONPATH=src python tools/cli_rss.py analyze --plain p.pgm --cipher c.dmc --key k.fa

Every argument is passed unchanged to `python -m dnamagic.cli`, run under this
process's environment, so PYTHONPATH picks the tree to measure.  The child's
stdout and stderr go to this process's stderr.  Stdout gets one JSON line:
the child's argv, its exit code, its wall seconds, its peak RSS
(RUSAGE_CHILDREN ru_maxrss) and the launcher's own peak RSS just before the
spawn, both in MB of 2**20 bytes.

The launcher's value is a floor.  When the child execs, Linux records as its
peak the high-water mark of the address space it leaves: the launcher's, which
it shares under vfork or copies under fork.  So a child that reads at the
floor may be showing the launcher's peak, not its own.  The launcher reads
that mark as VmHWM from /proc/self/status, not as its own ru_maxrss: the latter
also holds the peak of whatever process started the launcher, as the same
rule applied when the launcher exec'd, and so can exceed the child's reading.
The launcher imports no dnamagic code and reads no input, so its floor stays
near a bare interpreter's.  Linux only.  Standard library only.
"""

import json
import resource
import subprocess
import sys
import time


def _own_peak_kb() -> int:
    """This address space's high-water mark in KiB, without any peak inherited at exec."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def measure(args: list[str]) -> dict:
    """Run `python -m dnamagic.cli args` once; its argv, exit code, wall seconds and peaks."""
    argv = [sys.executable, "-m", "dnamagic.cli", *args]
    launcher_kb = _own_peak_kb()
    sys.stderr.flush()
    start = time.monotonic()
    code = subprocess.run(argv, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno()).returncode
    wall_s = time.monotonic() - start
    return {"argv": argv, "exit": code, "wall_s": round(wall_s, 4),
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
            "launcher_mb": round(launcher_kb / 1024, 1)}


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1:])))
