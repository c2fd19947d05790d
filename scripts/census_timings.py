"""Time census(n, m) for order pairs, each run in a fresh interpreter.

For every pair given on the command line a child process imports xmodkit
from SRC and runs the three stages that census(n, m) runs with no cache
directory, all_xmods, reduce_by_isomorphism and classify_families, timing
each; it does so REPEATS times, since one run does not resolve a change on
a VM whose speed drifts.  The pair reports the counts (raw, classes,
families), the median seconds of the whole call with the min-max range,
the median seconds of each stage under "stages", and the largest peak
resident memory (ru_maxrss) of its runs.  One JSON object keyed "n,m" is
printed when
every pair is done, plus the machine's nproc and Python version.  A run
that goes past TIMEOUT_S seconds is stopped and its pair reported with
"timeout"; one that exceeds MAX_MIB MiB of address space reports the
child's error.

Run from the repository root:

    python3 scripts/census_timings.py 8,8 8,16 24,24
    python3 scripts/census_timings.py --src ../other/src 16,8
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
TIMEOUT_S = 300
REPEATS = 3
MAX_MIB = 2048

_CHILD = """
import json, resource, sys, time
limit = int(sys.argv[3]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from xmodkit.census import all_xmods, classify_families, reduce_by_isomorphism
n, m = int(sys.argv[1]), int(sys.argv[2])
stages = {}
def timed(stage, *args):
    start = time.perf_counter()
    out = stage(*args)
    stages[stage.__name__] = round(time.perf_counter() - start, 3)
    return out
result = timed(classify_families,
               timed(reduce_by_isomorphism, timed(all_xmods, n, m)))
kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"counts": result.counts(),
                  "seconds": round(sum(stages.values()), 3), "stages": stages,
                  "maxrss_mib": round(kib / 1024, 1)}))
"""


def run_once(src: Path, n: int, m: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", _CHILD, str(n), str(m), str(MAX_MIB)]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"timeout": TIMEOUT_S}
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit {done.returncode}"}
    return json.loads(done.stdout)


def time_pair(src: Path, n: int, m: int) -> dict:
    runs = []
    for _ in range(REPEATS):
        run = run_once(src, n, m)
        if "counts" not in run:
            return run
        runs.append(run)
    seconds = sorted(run["seconds"] for run in runs)
    return {"counts": runs[0]["counts"],
            "seconds": round(statistics.median(seconds), 3),
            "range": [seconds[0], seconds[-1]],
            "stages": {stage: round(statistics.median(
                run["stages"][stage] for run in runs), 3)
                for stage in runs[0]["stages"]},
            "maxrss_mib": max(run["maxrss_mib"] for run in runs)}


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
        out[f"{n},{m}"] = time_pair(args.src.resolve(), n, m)
    rows = (f" {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
    print("{\n" + ",\n".join(rows) + "\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
