"""Time Aut(X) and the actor on the census representatives with the
largest |Aut X|, each run in a fresh interpreter.

For every pair given on the command line a first child imports xmodkit
from SRC, runs census(n, m) with no cache directory and reads |Aut X| of
each representative by orbit-stabilizer counting, |Aut X| = |Aut G1|
|Aut G0| / (the size of its class), so no automorphism group is built.
The TOP representatives with the largest |Aut X| (the lower index first
on a tie) are written out with serialize_xmod.  Each is then parsed in a
fresh child, REPEATS times, which times xmod_automorphism_group(X) alone
and together with actor(X), and reports its peak resident memory
(ru_maxrss); the census never runs in these children, so the peak is the
query's own.
One more fresh child per representative reads the peak that tracemalloc
sees inside xmod_automorphism_group alone: the memory of the Aut(X) table.

A representative reports |Aut X|, the median seconds of Aut(X) and actor
with the min-max range, the median seconds of Aut(X) alone, the largest
ru_maxrss in MiB and the tracemalloc peak in MiB.  One JSON object keyed
"n,m" is printed when every pair is done, plus the machine's nproc and
Python version.  A child that fails reports its
error in place of the figures.

Run from the repository root:

    python3 scripts/aut_peaks.py 8,4 9,9 12,12
    python3 scripts/aut_peaks.py --src ../other/src 8,4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMEOUT_S = 600
REPEATS = 3
TOP = 3

_PICK = """
import collections, json, sys
from xmodkit.census import census
from xmodkit.groups import automorphisms
from xmodkit.xmods import serialize_xmod
n, m, top = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
result = census(n, m)
size = collections.Counter(result.class_map)
reps = result.representatives
aut = [len(automorphisms(X.g1)) * len(automorphisms(X.g0)) // size[r]
       for r, X in enumerate(reps)]
picks = sorted(range(len(reps)), key=lambda r: (-aut[r], r))[:top]
print(json.dumps([{"index": r, "aut_order": aut[r],
                   "xmod": serialize_xmod(reps[r])} for r in picks]))
"""

_RUN = """
import json, resource, sys, time, tracemalloc
from xmodkit.derivations import actor
from xmodkit.xmods import parse_xmod, xmod_automorphism_group
X = parse_xmod(sys.stdin.read())
if sys.argv[1] == "trace":
    tracemalloc.start()
    xmod_automorphism_group(X)
    peak = tracemalloc.get_traced_memory()[1]
    print(json.dumps({"tracemalloc_mib": round(peak / 2**20, 2)}))
else:
    start = time.perf_counter()
    aut, _ = xmod_automorphism_group(X)
    aut_seconds = time.perf_counter() - start
    actor(X)
    seconds = time.perf_counter() - start
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"aut_order": aut.order, "seconds": round(seconds, 3),
                      "aut_seconds": round(aut_seconds, 3),
                      "maxrss_mib": round(kib / 1024, 1)}))
"""


def run_child(src: Path, code: str, args: list[str], stdin: str = "") -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", code, *args]
    try:
        done = subprocess.run(argv, env=env, input=stdin, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timeout after {TIMEOUT_S} s"}
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit {done.returncode}"}
    return {"out": json.loads(done.stdout)}


def measure(src: Path, pick: dict) -> dict:
    runs = []
    for _ in range(REPEATS):
        run = run_child(src, _RUN, ["time"], pick["xmod"])
        if "error" in run:
            return {"aut_order": pick["aut_order"], **run}
        runs.append(run["out"])
    traced = run_child(src, _RUN, ["trace"], pick["xmod"])
    if "error" in traced:
        return {"aut_order": pick["aut_order"], **traced}
    seconds = sorted(run["seconds"] for run in runs)
    return {"aut_order": runs[0]["aut_order"],
            "seconds": round(statistics.median(seconds), 3),
            "range": [seconds[0], seconds[-1]],
            "aut_seconds": statistics.median(run["aut_seconds"] for run in runs),
            "maxrss_mib": max(run["maxrss_mib"] for run in runs),
            "tracemalloc_mib": traced["out"]["tracemalloc_mib"]}


def measure_pair(src: Path, n: int, m: int) -> dict:
    picked = run_child(src, _PICK, [str(n), str(m), str(TOP)])
    if "error" in picked:
        return picked
    return {str(pick["index"]): measure(src, pick) for pick in picked["out"]}


def parse_pair(text: str) -> tuple[int, int]:
    n, _, m = text.partition(",")
    return int(n), int(m)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("pairs", nargs="+", type=parse_pair, metavar="N,M")
    ap.add_argument("--src", type=Path, default=SRC,
                    help="directory holding the xmodkit package to time")
    args = ap.parse_args(argv)
    out = {"nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    for n, m in args.pairs:
        out[f"{n},{m}"] = measure_pair(args.src.resolve(), n, m)
    rows = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
    print("{\n" + ",\n".join(rows) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
