"""Record or check the cache digests of census(n, m) for order pairs.

For every pair a child process imports xmodkit from SRC, runs
census(n, m) into a temporary cache directory and prints its counts
(raw, classes, families).  The digest of that directory is
perfbench/run.py's census_digest: SHA-256 over reps/, families and
report, without meta.  The file layout is that of
tests/data/census_digests.json: one object keyed "n,m" holding "counts"
and "sha256".

--record FILE adds the pairs to FILE (creating it) and rewrites it.
--check FILE recomputes the pairs given, or every pair in FILE when none
is, prints one line per pair and exits 1 on any mismatch.

Run from the repository root:

    python3 scripts/census_digests.py --record out.json 8,12 18,18
    python3 scripts/census_digests.py --check tests/data/census_digests_large.json
    python3 scripts/census_digests.py --src ../other/src --check out.json 8,12
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_CHILD = """
import json, sys
from xmodkit.census import census
n, m = int(sys.argv[1]), int(sys.argv[2])
print(json.dumps(census(n, m, cache_dir=sys.argv[3]).counts()))
"""


def _census_digest():
    """census_digest of perfbench/run.py, loaded without running it."""
    path = ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.census_digest


def digest_pair(src: Path, n: int, m: int) -> dict:
    """{"counts", "sha256"} of census(n, m) run on the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cache:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(n), str(m), cache],
            env=env, capture_output=True, text=True, check=True,
        )
        digest = _census_digest()(Path(cache) / f"census-{n}-{m}")
    return {"counts": json.loads(done.stdout), "sha256": digest}


def parse_pair(text: str) -> tuple[int, int]:
    n, _, m = text.partition(",")
    return int(n), int(m)


def write_digests(path: Path, digests: dict) -> None:
    rows = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items())
    path.write_text("{\n" + ",\n".join(rows) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", type=Path, metavar="FILE")
    mode.add_argument("--check", type=Path, metavar="FILE")
    ap.add_argument("pairs", nargs="*", type=parse_pair, metavar="N,M")
    ap.add_argument("--src", type=Path, default=SRC,
                    help="directory holding the xmodkit package to run")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if args.record is not None:
        if not args.pairs:
            ap.error("--record needs at least one pair")
        path = args.record
        digests = json.loads(path.read_text()) if path.exists() else {}
        for n, m in args.pairs:
            digests[f"{n},{m}"] = got = digest_pair(src, n, m)
            print(f"[{n},{m}] recorded {got['counts']} {got['sha256']}")
        write_digests(path, digests)
        return 0
    recorded = json.loads(args.check.read_text())
    keys = [f"{n},{m}" for n, m in args.pairs] or list(recorded)
    failed = 0
    for key in keys:
        want = recorded[key]
        got = digest_pair(src, *parse_pair(key))
        ok = got == want
        failed += not ok
        print(f"[{key}] {'ok' if ok else 'MISMATCH'} {got['counts']}"
              f" {got['sha256']}")
    print(f"{len(keys) - failed} of {len(keys)} pairs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
