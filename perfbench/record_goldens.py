"""Record perfbench/goldens.json from the code in the checkout's src/.

Run once from the checkout root, on code whose outputs are trusted:

    python3 perfbench/record_goldens.py

It stores, per census pair, the counts and the digest of the cache
directory; per CLI call, the SHA-256 of stdout; per queried
representative, its answer line; and the isoclinism families that the
sampled is_isoclinic_xmod answers are checked against.  The counts must
equal the published ones in KNOWN_COUNTS.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import run

KNOWN_COUNTS = {
    (4, 4): [60, 18, 2], (8, 4): [686, 63, 8], (9, 9): [258, 18, 2],
    (12, 12): [586, 136, 29], (20, 20): [1036, 155, 37],
}


def main() -> int:
    root = Path.cwd()
    work = run.BENCH / "out" / "record"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = run.Runner(root, work, time.monotonic() + 3600)
    pairs = sorted(set(run.SETUP_PAIRS) | set(run.WORKLOADS["census-cold"]["pairs"]))
    cache = work / "cache"
    goldens = {"census": {}, "cli": {}, "queries": {}}
    for n, m in pairs:
        out, rc, *_ = runner.once(runner.argv(None, -1, "census", cache, n, m))
        counts = json.loads(out)["counts"][0]
        if rc != 0 or counts != KNOWN_COUNTS[(n, m)]:
            print(f"[{n},{m}] counts {counts} differ from {KNOWN_COUNTS[(n, m)]}")
            return 1
        goldens["census"][f"{n},{m}"] = {
            "counts": counts,
            "sha256": run.census_digest(cache / f"census-{n}-{m}"),
        }
    for call in run.WORKLOADS["xmod-queries"]["calls"]:
        out, rc, *_ = runner.once(
            runner.argv(None, -1, "cli", "--cache-dir", cache, *call))
        if rc != 0:
            return 1
        goldens["cli"][" ".join(call)] = hashlib.sha256(out).hexdigest()
    for n, m in run.WORKLOADS["xmod-queries"]["pairs"]:
        size = goldens["census"][f"{n},{m}"]["counts"][1]
        requests = [{"op": i, "rep": i, "against": []} for i in range(size)]
        answers = []
        replies, _, _ = runner.session(
            runner.argv(None, -1, "queries", cache, n, m), requests)
        for _, reply, _ in replies:
            if reply is None or "error" in reply:
                print(f"[{n},{m}] query failed: {reply}")
                return 1
            answers.append(reply["answer"])
        lines = (cache / f"census-{n}-{m}" / "families").read_text().splitlines()
        families = [[int(v) for v in line.split(":")[1].split()] for line in lines[1:]]
        goldens["queries"][f"{n},{m}"] = {"answers": answers, "families": families}
    run.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    shutil.rmtree(work)
    print(f"wrote {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
