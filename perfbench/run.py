"""xmodkit benchmark: cold census, and CLI reads and queries on warm caches.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload census-cold --seed 1 --seconds 20 --trace 0

The parent process is a closed-loop generator: it starts one child
interpreter at a time (perfbench/child.py) with PYTHONPATH set to the
checkout's src/, times every operation from here, and takes each child's
CPU time and peak RSS from os.wait4.  Every operation starts with cold
in-memory caches, as a command-line user's does.  The seed sets the order
of operations within each pass and the sample of isoclinism pairs (drawn
once per run, so every pass repeats the same operations); the program
only receives the generated inputs.

Set-up builds the census caches that xmod-queries reads (SETUP_PAIRS),
with the code under test, SETUP_REPEATS times; setup_s is the median.
Passes over the workload then repeat while another pass is expected to
end within --seconds (at least one pass).  wall_s, cpu_s and
peak_rss_mib are medians over the untraced passes; op_p50_s and op_p90_s
pool the latencies of every untraced operation.

--trace 0 reports the end-to-end metrics of the untraced passes.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the traced ones: every wrapped call is a span (child.SPANS);
"<layer>.<name>_s" is the time inside the outermost calls of that function
(what it calls included), "<layer>.self_s" is the layer's self time (span
time minus child spans).  Tracing overhead is traced minus untraced wall.

Every output is checked against goldens.json, recorded from the seed code
by record_goldens.py; a wrong count, digest or answer, or a child that
fails, is a failed operation.  The last stdout line is the JSON result;
the full record, with the machine stamp, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
GOLDENS = BENCH / "goldens.json"

SETUP_PAIRS = ((8, 4), (12, 12))
SETUP_REPEATS = 3
WORKLOADS = {
    # Full compute-and-write path, one fresh child per pair.  [18,18] and
    # [8,8] are left out: each takes 35-190 s on a 2-vCPU 2.1 GHz VM, more
    # than one run can hold.
    "census-cold": {"pairs": ((4, 4), (8, 4), (9, 9), (12, 12), (20, 20))},
    # The read side of the set-up caches, with no enumeration, reduction or
    # classification.  "pairs": every automorphism, derivation and
    # isoclinism test per representative, the backtracking kernels asked
    # for all answers, not the first.  "calls": the CLI reading the same
    # censuses through load_census and parse_xmod.
    "xmod-queries": {"pairs": SETUP_PAIRS, "sample": 3, "calls": tuple(
        ("xmods", sub, str(n), str(m))
        for n, m in SETUP_PAIRS for sub in ("census", "families"))},
}

# Refused before anything runs: inputs that exhaust memory or time.
# Aut(C2^4) has order 20160, so an order-16 level builds a 20160^2 table.
UNSAFE_LEVEL = 16
UNSAFE_QUERY_PAIRS = {
    (8, 8): "|Aut X| reaches 28224, an |Aut X|^2 table",
    (18, 18): "actor and xmod_automorphism_group ran over 10 min on a 2-vCPU VM",
}
KILL_AFTER_S = 165  # every child is killed this long after the run began

END_TO_END = (
    ("wall_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"), ("setup_s", "s"),
)

LAYERS = ("census", "xmods", "groups", "invariants", "isoclinism",
          "derivations", "catalog", "cli")

# Largest self-time layers each kind of xmod-queries child is expected to show.
EXPECTED_TOP = {"cli": {"census", "cli"}, "queries": {"derivations", "xmods"}}


class ConfigError(ValueError):
    """A workload definition the benchmark refuses to run."""


def check_config(workloads=WORKLOADS, setup_pairs=SETUP_PAIRS) -> None:
    """Raise ConfigError for unsafe or inconsistent workload inputs."""
    pairs = list(setup_pairs)
    for spec in workloads.values():
        pairs += list(spec.get("pairs", ()))
        pairs += [(int(c[2]), int(c[3])) for c in spec.get("calls", ())]
    for n, m in pairs:
        if not (1 <= n <= 24 and 1 <= m <= 24):
            raise ConfigError(f"[{n},{m}] is outside the bundled catalog")
        if UNSAFE_LEVEL in (n, m):
            raise ConfigError(
                f"[{n},{m}] has an order-16 level: Aut(C2^4) has order 20160")
    for pair in workloads.get("xmod-queries", {}).get("pairs", ()):
        if tuple(pair) in UNSAFE_QUERY_PAIRS:
            raise ConfigError(f"xmod-queries on {list(pair)}: "
                              + UNSAFE_QUERY_PAIRS[tuple(pair)])
    spec = workloads.get("xmod-queries", {})
    reads = set(map(tuple, spec.get("pairs", ())))
    reads |= {(int(c[2]), int(c[3])) for c in spec.get("calls", ())}
    if not reads <= set(map(tuple, setup_pairs)):
        raise ConfigError("xmod-queries reads a census the set-up does not build")


# --- checks against the goldens ---


def census_digest(path: Path) -> str:
    """SHA-256 over a census directory's reps/, families and report.

    meta is left out, so a cache-key change alone keeps the digest."""
    h = hashlib.sha256()
    files = sorted((path / "reps").glob("*.xmod"))
    files += [path / "families", path / "report"]
    for f in files:
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def check_census(goldens, cache_dir: Path, n: int, m: int, counts) -> str:
    """'' when counts and cache bytes match the goldens, else the reason."""
    want = goldens["census"][f"{n},{m}"]
    if list(counts) != want["counts"]:
        return f"[{n},{m}] counts {list(counts)} != {want['counts']}"
    try:
        digest = census_digest(cache_dir / f"census-{n}-{m}")
    except OSError as exc:
        return f"[{n},{m}] cache unreadable: {exc}"
    if digest != want["sha256"]:
        return f"[{n},{m}] cache digest differs"
    return ""


def check_cli(goldens, call, stdout: bytes, rc: int) -> str:
    key = " ".join(call)
    if rc != 0:
        return f"`{key}` exited {rc}"
    if hashlib.sha256(stdout).hexdigest() != goldens["cli"][key]:
        return f"`{key}` stdout differs"
    return ""


def check_query(goldens, pair, rep: int, against, reply) -> str:
    want = goldens["queries"][f"{pair[0]},{pair[1]}"]
    if "error" in reply:
        return f"{list(pair)} rep {rep}: {reply['error']}"
    if reply.get("answer") != want["answers"][rep]:
        return f"{list(pair)} rep {rep}: answer {reply.get('answer')!r}"
    family = {i: f for f, fam in enumerate(want["families"]) for i in fam}
    if reply.get("iso") != [family[rep] == family[j] for j in against]:
        return f"{list(pair)} rep {rep}: isoclinism answers differ"
    return ""


# --- statistics ---


def op_percentiles(latencies) -> tuple[float, float, float]:
    """(p50, high percentile, its rank) of pooled operation latencies.

    Both are nearest-rank percentiles.

    The high percentile is p90 when at least ten samples lie beyond it;
    with fewer samples it drops to the highest percentile that has ten
    beyond it, and never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    q = max(0.5, min(0.9, 1 - 10 / n))
    return xs[math.ceil(n / 2) - 1], xs[math.ceil(q * n) - 1], q


# --- children ---


class Runner:
    """Starts children from the checkout and keeps their records."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("XMODKIT_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.count = 0

    def argv(self, trace_file, op, *args) -> list[str]:
        argv = [sys.executable, str(CHILD), "--src", str(self.root / "src")]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        return argv + ["--op", str(op), *map(str, args)]

    def _start(self, argv, stdin):
        self.count += 1
        err = self.work / f"stderr-{self.count}.txt"
        with open(err, "wb") as fh:
            proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                    stderr=fh, env=self.env, cwd=self.root)
        killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        return proc, killer, err

    def _reap(self, proc, killer) -> tuple[int, float, float]:
        """Wait for the child: (exit code, CPU seconds, peak RSS MiB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024)

    def once(self, argv):
        """Run one child to the end: stdout, exit code, CPU, RSS, seconds."""
        start = time.perf_counter()
        proc, killer, err = self._start(argv, subprocess.DEVNULL)
        out = proc.stdout.read()
        proc.stdout.close()
        rc, cpu, rss = self._reap(proc, killer)
        elapsed = time.perf_counter() - start
        if rc != 0:
            print(f"# child exited {rc}: {err.read_text()[-400:]!r}")
        return out, rc, cpu, rss, elapsed

    def session(self, argv, requests):
        """Send requests one at a time to a query child, timing each.

        Returns [(request, reply or None, seconds)], CPU seconds, RSS MiB."""
        proc, killer, err = self._start(argv, subprocess.PIPE)
        alive = proc.stdout.readline() == b"ready\n"
        replies = []
        for req in requests:
            reply, elapsed = None, 0.0
            if alive:
                start = time.perf_counter()
                try:
                    proc.stdin.write(json.dumps(req).encode() + b"\n")
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                except BrokenPipeError:
                    line = b""
                elapsed = time.perf_counter() - start
                alive = bool(line)
                reply = json.loads(line) if line else None
            replies.append((req, reply, elapsed))
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        proc.stdout.read()
        proc.stdout.close()
        rc, cpu, rss = self._reap(proc, killer)
        if rc != 0 or not alive:
            print(f"# query child exited {rc}: {err.read_text()[-400:]!r}")
        return replies, cpu, rss


# --- workloads ---


def build_caches(runner, goldens, target: Path):
    """One set-up: build the SETUP_PAIRS caches in one child and check them."""
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    args = [x for pair in SETUP_PAIRS for x in pair]
    out, rc, _, _, elapsed = runner.once(runner.argv(None, -1, "census", target, *args))
    errors = []
    try:
        counts = json.loads(out)["counts"] if rc == 0 else None
    except (ValueError, KeyError):
        counts = None
    for k, (n, m) in enumerate(SETUP_PAIRS):
        if counts is None:
            errors.append(f"set-up [{n},{m}] failed")
            continue
        problem = check_census(goldens, target, n, m, counts[k])
        if problem:
            errors.append("set-up " + problem)
    return elapsed, errors


def plan_ops(workload: str, rng: random.Random, sizes: dict):
    """The children every pass of a run starts: ("census", pair),
    ("cli", call) or ("queries", pair, [(rep, against)]).

    sizes maps each xmod-queries pair to its number of representatives;
    the seed picks each representative's sample of earlier ones."""
    spec = WORKLOADS[workload]
    if workload == "census-cold":
        return [("census", pair) for pair in spec["pairs"]]
    return [("queries", pair,
             [(i, sorted(rng.sample(range(i), min(i, spec["sample"]))))
              for i in range(sizes[pair])])
            for pair in spec["pairs"]] + [("cli", call) for call in spec["calls"]]


def order_pass(planned, rng: random.Random):
    """One pass's children, and each query child's requests, in seeded order."""
    ops = [item[:2] + (rng.sample(item[2], len(item[2])),)
           if item[0] == "queries" else item for item in planned]
    return rng.sample(ops, len(ops))


def run_pass(runner, goldens, cache: Path, ops, traced, trace_dir, op_base):
    """Run one pass; returns its record, per-operation results and the
    span sources: (child kind, trace file, {op: latency})."""
    results, cpu, rss = [], 0.0, 0.0
    spans = []
    start = time.perf_counter()
    op = op_base

    def trace_file():
        return trace_dir / f"spans-{op}.json" if traced else None

    for item in ops:
        if item[0] == "census":
            n, m = item[1]
            target = runner.work / f"cold-{op}"
            target.mkdir(parents=True)
            tf = trace_file()
            out, rc, c, r, elapsed = runner.once(
                runner.argv(tf, op, "census", target, n, m))
            try:
                counts = json.loads(out)["counts"][0] if rc == 0 else None
            except (ValueError, KeyError, IndexError):
                counts = None
            problem = (check_census(goldens, target, n, m, counts)
                       if counts is not None else f"[{n},{m}] census failed")
            shutil.rmtree(target)
            results.append((elapsed, problem))
            cpu, rss = cpu + c, max(rss, r)
            spans.append(("census", tf, {op: elapsed}))
            op += 1
        elif item[0] == "cli":
            tf = trace_file()
            args = ["--cache-dir", str(cache), *item[1]]
            out, rc, c, r, elapsed = runner.once(runner.argv(tf, op, "cli", *args))
            results.append((elapsed, check_cli(goldens, item[1], out, rc)))
            cpu, rss = cpu + c, max(rss, r)
            spans.append(("cli", tf, {op: elapsed}))
            op += 1
        else:
            _, pair, reqs = item
            tf = trace_file()
            requests = []
            for rep, against in reqs:
                requests.append({"op": op, "rep": rep, "against": against})
                op += 1
            lat = {}
            replies, c, r = runner.session(
                runner.argv(tf, -1, "queries", cache, *pair), requests)
            for req, reply, elapsed in replies:
                problem = ("query child stopped" if reply is None else
                           check_query(goldens, pair, req["rep"], req["against"], reply))
                results.append((elapsed, problem))
                lat[req["op"]] = elapsed
            cpu, rss = cpu + c, max(rss, r)
            spans.append(("queries", tf, lat))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": rss,
            "traced": traced, "ops": len(results)}, results, spans


# --- traced-run analysis ---


def aggregate(span_sources) -> dict:
    """Per-pass totals from the span files of one traced pass."""
    calls, incl, vsum = {}, {}, {}
    layer_calls, layer_incl, self_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
    op_total, top_total = 0.0, 0.0
    absent, skipped = set(), set()
    for path, latencies in span_sources:
        op_total += sum(latencies.values())
        ops = set(latencies)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        absent.update(data["absent"])
        skipped.update(data["skipped"])
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for op, name, parent, t0, t1, value in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for idx, (op, name, parent, t0, t1, value) in enumerate(spans):
            dur = (t1 - t0) / 1e9
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            if isinstance(value, (int, float)):
                vsum[name] = vsum.get(name, 0) + value
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_ns[idx] / 1e9
            if parent < 0 and op in ops:
                top_total += dur
            same_name = same_layer = False
            p = parent
            while p >= 0:
                pname = spans[p][1]
                same_name = same_name or pname == name
                same_layer = same_layer or pname.split(".", 1)[0] == layer
                p = spans[p][2]
            if not same_name:
                incl[name] = incl.get(name, 0.0) + dur
            if not same_layer:
                layer_incl[layer] = layer_incl.get(layer, 0.0) + dur
    return {"calls": calls, "incl": incl, "vsum": vsum, "layer_calls": layer_calls,
            "layer_incl": layer_incl, "self": self_s,
            "unwrapped": max(0.0, op_total - top_total),
            "absent": sorted(absent), "skipped": sorted(skipped)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(agg) -> dict:
    """The per-layer metrics (name -> (value, unit, better))."""
    c, t, v = agg["calls"].get, agg["incl"].get, agg["vsum"].get

    def n(name):
        return c(name, 0)

    def s(name):
        return t(name, 0.0)

    def total(name):
        return v(name, 0)

    rows = {
        "census.enumerate_s": (s("census.all_xmods"), "s", "lower"),
        "census.reduce_s": (s("census.reduce_by_isomorphism"), "s", "lower"),
        "census.classify_s": (s("census.classify_families"), "s", "lower"),
        "census.raw": (total("census.all_xmods"), "count", "higher"),
        "census.classes": (total("census.reduce_by_isomorphism"), "count", "higher"),
        "census.families": (total("census.classify_families"), "count", "higher"),
        "census.reduce_share": (_ratio(s("census.reduce_by_isomorphism"),
                                       s("census.census")), "ratio", "lower"),
        "census.save_s": (s("census.save_census"), "s", "lower"),
        "census.cache_bytes": (total("census.save_census"), "B", "lower"),
        "census.load_s": (s("census.load_census"), "s", "lower"),
        "census.cache_hits": (total("census.load_census"), "count", "higher"),
        "census.cache_misses": (n("census.load_census") - total("census.load_census"),
                                "count", "lower"),
        "xmods.is_isomorphic_calls": (n("xmods.is_isomorphic_xmod"), "count", "lower"),
        "xmods.is_isomorphic_s": (s("xmods.is_isomorphic_xmod"), "s", "lower"),
        "xmods.is_isomorphic_hit_ratio": (
            _ratio(total("xmods.is_isomorphic_xmod"), n("xmods.is_isomorphic_xmod")),
            "ratio", "higher"),
        "xmods.make_xmod_calls": (n("xmods.make_xmod"), "count", "lower"),
        "xmods.make_xmod_s": (s("xmods.make_xmod"), "s", "lower"),
        "xmods.automorphism_group_s": (s("xmods.xmod_automorphism_group"), "s", "lower"),
        "xmods.aut_elements": (total("xmods.xmod_automorphism_group"), "count", "lower"),
        "xmods.parse_calls": (n("xmods.parse_xmod"), "count", "lower"),
        "xmods.parse_s": (s("xmods.parse_xmod"), "s", "lower"),
        "xmods.serialize_s": (s("xmods.serialize_xmod"), "s", "lower"),
        "groups.automorphism_group_calls": (n("groups.automorphism_group"), "count", "lower"),
        "groups.automorphism_group_s": (s("groups.automorphism_group"), "s", "lower"),
        "groups.aut_elements": (total("groups.automorphism_group"), "count", "lower"),
        "groups.all_homs_calls": (n("groups.all_homs"), "count", "lower"),
        "groups.all_homs_s": (s("groups.all_homs"), "s", "lower"),
        "groups.homs_found": (total("groups.all_homs"), "count", "lower"),
        "groups.all_isos_calls": (n("groups.all_isos"), "count", "lower"),
        "groups.all_isos_s": (s("groups.all_isos"), "s", "lower"),
        "invariants.calls": (agg["layer_calls"].get("invariants", 0), "count", "lower"),
        "invariants.s": (agg["layer_incl"].get("invariants", 0.0), "s", "lower"),
        "isoclinism.pairing_calls": (n("isoclinism.commutator_pairing"), "count", "lower"),
        "isoclinism.pairing_s": (s("isoclinism.commutator_pairing"), "s", "lower"),
        "isoclinism.tests": (n("isoclinism.is_isoclinic_xmod"), "count", "lower"),
        "isoclinism.test_s": (s("isoclinism.is_isoclinic_xmod"), "s", "lower"),
        "isoclinism.hit_ratio": (_ratio(total("isoclinism.is_isoclinic_xmod"),
                                        n("isoclinism.is_isoclinic_xmod")),
                                 "ratio", "higher"),
        "isoclinism.partition_s": (s("isoclinism.xmod_family_partition"), "s", "lower"),
        "derivations.whitehead_s": (s("derivations.whitehead_group"), "s", "lower"),
        "derivations.actor_s": (s("derivations.actor"), "s", "lower"),
        "derivations.derivations_found": (total("derivations.all_derivations"),
                                          "count", "lower"),
        "catalog.load_s": (s("catalog.load_catalog"), "s", "lower"),
        "catalog.groups_built": (n("catalog.build"), "count", "lower"),
        "catalog.build_s": (s("catalog.build"), "s", "lower"),
        "cli.import_s": (s("cli.import"), "s", "lower"),
        "cli.call_s": (s("cli.main"), "s", "lower"),
    }
    for layer in LAYERS:
        rows[f"{layer}.self_s"] = (agg["self"].get(layer, 0.0), "s", "lower")
    rows["unwrapped.self_s"] = (agg["unwrapped"], "s", "lower")
    return rows


def self_shares(med: dict, what: str):
    """A line with the largest self-time layers' shares, the layers ranked
    by self time, and the total self time."""
    selfs = {k[:-len(".self_s")]: v for k, v in med.items()
             if k.endswith(".self_s")}
    total = sum(selfs.values()) or 1.0
    ranked = sorted(selfs, key=selfs.get, reverse=True)
    shares = ", ".join(f"{k} {selfs[k] / total:.1%}" for k in ranked[:4])
    return (f"self time by layer in {what} (of {total:.3f} s; unwrapped is "
            f"interpreter start-up and unwrapped code): {shares}"), ranked, total


def expectation(workload: str, med: dict, by_kind: dict) -> str:
    """Whether the traced run agrees with what the workload predicts.

    by_kind holds the per-layer medians of each kind of child alone."""
    if workload == "census-cold":
        line, _, _ = self_shares(med, "census children")
        timed = {k: v for k, v in med.items() if k.endswith(("_s", ".s"))
                 and not k.endswith(".self_s")}
        top = max(timed, key=timed.get)
        held = top == "census.reduce_s"
        return (f"{line}\nexpected census.reduce_s to be the largest per-layer "
                f"time: {'held' if held else 'did not hold'} (largest: {top})")
    lines = []
    for kind, want in EXPECTED_TOP.items():
        kmed = by_kind[kind]
        line, ranked, total = self_shares(kmed, f"{kind} children")
        held = set(ranked[:2]) == want
        lines.append(f"{line}\nexpected the top two self-time layers to be "
                     f"{' and '.join(sorted(want))}: {'held' if held else 'did not hold'}")
        if kind == "cli":
            named = kmed["census.load_s"] + kmed["cli.import_s"]
            lines.append(f"census.load_s + cli.import_s = {named:.3f} s, "
                         f"{named / total:.1%} of the cli children's traced time")
    return "\n".join(lines)


# --- main ---


def machine_stamp() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    check_config()
    root = Path.cwd()
    if not (root / "src" / "xmodkit" / "__init__.py").is_file():
        print("perfbench: run from a checkout root with src/xmodkit", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())
    sizes = {pair: len(goldens["queries"][f"{pair[0]},{pair[1]}"]["answers"])
             for pair in WORKLOADS["xmod-queries"]["pairs"]}
    out_dir = BENCH / "out"
    work = out_dir / "work"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    trace_dir = out_dir / f"trace-{args.workload}"
    if args.trace:
        if trace_dir.exists():
            shutil.rmtree(trace_dir)
        trace_dir.mkdir(parents=True)
    stamp_start = machine_stamp()
    runner = Runner(root, work, started + KILL_AFTER_S)

    # Each set-up cache check counts as an operation: a wrong set-up fails
    # the run's result even on census-cold, which does not read it.
    setup_times, setup_failed = [], 0
    for k in range(1 if args.trace else SETUP_REPEATS):
        elapsed, errors = build_caches(runner, goldens, work / f"setup-{k}")
        setup_times.append(elapsed)
        setup_failed += len(errors)
        for problem in errors:
            print(f"# failed: {problem}")
    cache = work / f"setup-{len(setup_times) - 1}"

    rng = random.Random(args.seed)
    planned = plan_ops(args.workload, rng, sizes)
    passes, results, latencies, traced_spans = [], [], [], []
    begin = time.perf_counter()
    op = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        record, res, spans = run_pass(runner, goldens, cache,
                                      order_pass(planned, rng),
                                      traced, trace_dir, op)
        op += record["ops"]
        passes.append(record)
        results += res
        if traced:
            traced_spans.append(spans)
        else:
            latencies += [lat for lat, _ in res]
        for _, problem in res:
            if problem:
                print(f"# failed: {problem}")
        elapsed = time.perf_counter() - begin
        kinds = {p["traced"] for p in passes}
        if kinds == ({False, True} if args.trace else {False}) and (
                elapsed + record["wall_s"] > args.seconds
                or time.monotonic() - started + 2 * record["wall_s"] > KILL_AFTER_S):
            break
    shutil.rmtree(work)

    plain = [p for p in passes if not p["traced"]]
    attempted = len(results) + len(setup_times) * len(SETUP_PAIRS)
    failed = sum(1 for _, problem in results if problem) + setup_failed
    p50, p_high, q = op_percentiles(latencies)
    e2e = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_s": p50,
        "op_p90_s": p_high,
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        "setup_s": statistics.median(setup_times),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: nproc={stamp_start['nproc']} python={stamp_start['python']} "
          f"platform={stamp_start['platform']}")
    stamp_end = machine_stamp()
    print(f"loadavg: start={stamp_start['loadavg']} end={stamp_end['loadavg']}")
    print(f"set-up: {len(setup_times)} x {len(SETUP_PAIRS)} census caches, "
          f"seconds {[round(t, 4) for t in setup_times]}")
    print(f"passes: {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"{len(results)} operations, {attempted - len(results)} set-up cache checks")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    n = len(latencies)
    print(f"  op_p50_s and op_p90_s pool n={n} operations; "
          f"op_p90_s is p{round(q * 100)} ({n - math.ceil(q * n)} beyond it)")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4g} ratio")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": stamp_start,
              "loadavg_end": stamp_end["loadavg"], "passes": passes,
              "setup_s": setup_times, "error_rate": failed / attempted,
              "end_to_end": e2e}
    if args.trace:
        def medians(kinds):
            per_pass = [layer_metrics(aggregate(
                [(tf, lat) for kind, tf, lat in s if kind in kinds]))
                for s in traced_spans]
            return {name: statistics.median(pp[name][0] for pp in per_pass)
                    for name in per_pass[0]}

        layer_units = {name: unit for name, (_, unit, _) in layer_metrics(
            aggregate([])).items()}
        med = medians({"census", "cli", "queries"})
        metrics = {name: {"value": value, "unit": layer_units[name]}
                   for name, value in med.items()}
        by_kind = {kind: medians({kind}) for kind in EXPECTED_TOP}
        agg0 = aggregate([(tf, lat) for _, tf, lat in traced_spans[0]])
        overhead = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                    - e2e["wall_s"])
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"tracing overhead: {overhead:.4f} s per pass "
              f"(traced wall_s minus untraced wall_s {e2e['wall_s']:.4f} s)")
        if agg0["absent"]:
            print("absent (renamed or deleted): " + ", ".join(agg0["absent"]))
        if agg0["skipped"]:
            print("generators, timed through callers: " + ", ".join(agg0["skipped"]))
        print(expectation(args.workload, med, by_kind))
        record["per_layer"] = metrics
        record["tracing_overhead_s"] = overhead
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
