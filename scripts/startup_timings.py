"""Time interpreter start-up, `import xmodkit` and short xmodkit commands,
each run in a fresh interpreter.

The commands are `python3 -c pass`, `import xmodkit`, `import
xmodkit.cli`, the `xmodkit xmods census 8 4` command line with a warm
cache (filled by one untimed run first), and census(n, m) into an empty
cache directory at the five pairs of the benchmark's census-cold workload.
Each runs REPEATS times with the caller's environment, PYTHONPATH set to
SRC; stdout is discarded.  A command reports the median wall seconds with
the min-max range and the median ru_maxrss in MiB.  One JSON object is
printed at the end, with the machine's nproc, the Python version and
whether PYTHONDONTWRITEBYTECODE is set: when it is, every process compiles
the package it imports.

A child's ru_maxrss counts the resident memory of the process it was
spawned from, so the children are not spawned from this script: each
comes from a small parent, a `python3 -S` that imports only os, sys and
time and holds less than any child it starts; it times the child and
reads its rusage.

Run from the repository root:

    python3 scripts/startup_timings.py
    python3 scripts/startup_timings.py --src ../other/src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 7
TIMEOUT_S = 300
CENSUS_PAIRS = ((4, 4), (8, 4), (9, 9), (12, 12), (20, 20))

# the small parent: spawns argv[1:], waits, prints seconds, ru_maxrss in
# KiB and the exit code
_SPAWN = """
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss,
      os.waitstatus_to_exitcode(status))
"""

_CLI = "import sys; from xmodkit.cli import main; sys.exit(main())"
_WARM = "xmodkit xmods census 8 4 (warm cache)"


def spawn(argv: list[str], env: dict) -> tuple[float, float]:
    """Seconds and peak RSS in MiB of one child run from the small parent."""
    done = subprocess.run([sys.executable, "-S", "-c", _SPAWN, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=True)
    seconds, kib, code = done.stdout.split()
    if code != "0":
        raise RuntimeError(f"{argv[2:]} exited {code}: {done.stderr[-400:]}")
    return float(seconds), int(kib) / 1024


def commands(work: Path, repeat: int) -> dict[str, list[str]]:
    python = sys.executable
    out = {
        "python -c pass": [python, "-c", "pass"],
        "import xmodkit": [python, "-c", "import xmodkit"],
        "import xmodkit.cli": [python, "-c", "import xmodkit.cli"],
        _WARM: [python, "-c", _CLI, "xmods", "census", "8", "4",
                "--cache-dir", str(work / "warm")],
    }
    for n, m in CENSUS_PAIRS:
        out[f"census({n}, {m})"] = [
            python, "-c", "import sys; from xmodkit.census import census; "
            "census(int(sys.argv[1]), int(sys.argv[2]), cache_dir=sys.argv[3])",
            str(n), str(m), str(work / f"cold-{repeat}")]
    return out


def measure(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    runs: dict[str, list[tuple[float, float]]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        spawn(commands(work, 0)[_WARM], env)  # fills the warm cache
        for repeat in range(REPEATS):
            for name, argv in commands(work, repeat).items():
                runs.setdefault(name, []).append(spawn(argv, env))
    out = {}
    for name, pairs in runs.items():
        seconds = sorted(s for s, _ in pairs)
        out[name] = {"seconds": round(statistics.median(seconds), 4),
                     "range": [round(seconds[0], 4), round(seconds[-1], 4)],
                     "maxrss_mib": round(statistics.median(r for _, r in pairs), 2)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=SRC,
                    help="directory holding the xmodkit package to time")
    args = ap.parse_args(argv)
    out = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
           "repeats": REPEATS,
           **measure(args.src.resolve())}
    rows = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
    print("{\n" + ",\n".join(rows) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
