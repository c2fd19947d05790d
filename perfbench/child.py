"""One benchmark operation (or one query session) in a fresh interpreter.

run.py starts this script once per operation, so every operation begins
with cold in-memory caches, as a command-line user's does.  Usage:

    child.py --src DIR [--trace FILE] [--op N] census CACHE_DIR N M [N M ...]
    child.py --src DIR [--trace FILE] [--op N] cli ARG ...
    child.py --src DIR [--trace FILE] queries CACHE_DIR N M

census  runs xmodkit.census(n, m, cache_dir=CACHE_DIR) per pair and prints
        the counts as one JSON line.
cli     runs the xmodkit command line with ARGs; stdout is the CLI's own.
queries loads the representative files of one cached census, prints
        "ready", then answers one JSON request per stdin line.  Each request
        starts from a fresh catalog and freshly parsed crossed modules.

--trace FILE wraps the public functions listed in SPANS and writes one
span per wrapped call to FILE when the process ends.  Before anything is
imported, the child checks that xmodkit resolves to DIR/xmodkit, so that
a stale installed copy is never measured.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

# json, functools and inspect are imported where used, so that a cli
# child pays no more start-up than the xmodkit command does.

_now = time.perf_counter_ns

# (module, attribute, span name).  Span names are "<layer>.<function>";
# the layer is the xmodkit module.  Hot helpers called in inner loops
# (compose_perms, center, Subgroup methods) are left out: a wrapper there
# would cost more than the work it measures.  Generators are skipped and
# timed through their callers.
SPANS = (
    ("census", "census", "census.census"),
    ("census", "all_xmods", "census.all_xmods"),
    ("census", "reduce_by_isomorphism", "census.reduce_by_isomorphism"),
    ("census", "classify_families", "census.classify_families"),
    ("census", "save_census", "census.save_census"),
    ("census", "load_census", "census.load_census"),
    ("census", "group_census", "census.group_census"),
    ("xmods", "make_xmod", "xmods.make_xmod"),
    ("xmods", "is_isomorphic_xmod", "xmods.is_isomorphic_xmod"),
    ("xmods", "xmod_automorphism_group", "xmods.xmod_automorphism_group"),
    ("xmods", "quotient_xmod", "xmods.quotient_xmod"),
    ("xmods", "parse_xmod", "xmods.parse_xmod"),
    ("xmods", "serialize_xmod", "xmods.serialize_xmod"),
    ("groups", "automorphism_group", "groups.automorphism_group"),
    ("groups", "all_homs", "groups.all_homs"),
    ("groups", "all_isos", "groups.all_isos"),
    ("groups", "first_iso", "groups.first_iso"),
    ("groups", "quotient_group", "groups.quotient_group"),
    ("groups", "is_isoclinic_group", "groups.is_isoclinic_group"),
    ("invariants", "center_xmod", "invariants.center_xmod"),
    ("invariants", "displacement_subgroup", "invariants.displacement_subgroup"),
    ("invariants", "derived_subxmod", "invariants.derived_subxmod"),
    ("invariants", "relative_commutator", "invariants.relative_commutator"),
    ("invariants", "lower_central_series", "invariants.lower_central_series"),
    ("invariants", "upper_central_series", "invariants.upper_central_series"),
    ("invariants", "nilpotency_class", "invariants.nilpotency_class"),
    ("invariants", "is_stem_xmod", "invariants.is_stem_xmod"),
    ("invariants", "is_aspherical", "invariants.is_aspherical"),
    ("invariants", "is_simply_connected", "invariants.is_simply_connected"),
    ("invariants", "rank_of_xmod", "invariants.rank_of_xmod"),
    ("invariants", "middle_length_of_xmod", "invariants.middle_length_of_xmod"),
    ("isoclinism", "commutator_pairing", "isoclinism.commutator_pairing"),
    ("isoclinism", "is_isoclinic_xmod", "isoclinism.is_isoclinic_xmod"),
    ("isoclinism", "xmod_family_partition", "isoclinism.xmod_family_partition"),
    ("derivations", "all_derivations", "derivations.all_derivations"),
    ("derivations", "whitehead_group", "derivations.whitehead_group"),
    ("derivations", "actor", "derivations.actor"),
    ("catalog", "load_catalog", "catalog.load_catalog"),
    ("cli", "main", "cli.main"),
)

# Bound only in the catalog module, so these spans are exactly the
# catalog's lazy group builds.
LOCAL_SPANS = (
    ("catalog", "group_from_generators", "catalog.build"),
)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# Span value: a number taken from the call's result, summed by run.py.
VALUES = {
    "census.all_xmods": lambda r: r.raw_count,
    "census.reduce_by_isomorphism": lambda r: len(r.representatives),
    "census.classify_families": lambda r: len(r.families),
    "census.save_census": _dir_bytes,
    "census.load_census": lambda r: int(r is not None),
    "xmods.is_isomorphic_xmod": lambda r: int(r is not None),
    "xmods.xmod_automorphism_group": lambda r: len(r[1]),
    "groups.automorphism_group": lambda r: len(r[1]),
    "groups.all_homs": len,
    "isoclinism.is_isoclinic_xmod": lambda r: int(r is not None),
    "derivations.all_derivations": lambda r: len(r.elements),
}


class Tracer:
    """Spans in memory: [op, name, parent index, start ns, end ns, value]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self.skipped: list[str] = []

    def record(self, name: str, start: int, end: int) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, parent, start, end, None])

    def wrap(self, fn, name: str):
        import functools

        spans, stack, value_of = self.spans, self.stack, VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([self.op, name, stack[-1] if stack else -1, 0, 0, None])
            stack.append(idx)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx][3], spans[idx][4] = start, end
            if value_of is not None:
                spans[idx][5] = value_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every SPANS entry wherever xmodkit binds it.

        A name a later version deletes or renames is recorded as absent
        and its metrics read zero; it never stops the run.
        """
        import inspect

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "xmodkit" or k.startswith("xmodkit."))]
        for mod_name, attr, span in LOCAL_SPANS:
            mod = sys.modules.get(f"xmodkit.{mod_name}")
            if mod is None:  # not imported by this child, so never called
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(span)
                continue
            setattr(mod, attr, self.wrap(fn, span))
        for mod_name, attr, span in SPANS:
            mod = sys.modules.get(f"xmodkit.{mod_name}")
            if mod is None:
                continue
            target = getattr(mod, attr, None)
            if target is None:
                self.absent.append(span)
                continue
            if inspect.isgeneratorfunction(target):
                self.skipped.append(span)
                continue
            wrapped = self.wrap(target, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, key, wrapped)

    def dump(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent,
                       "skipped": self.skipped}, fh)


def verify_source(src: str) -> None:
    """Exit with status 3 unless xmodkit would load from the checkout."""
    spec = importlib.util.find_spec("xmodkit")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or Path(src).resolve() not in origin.parents:
        print(f"perfbench: xmodkit resolves to {origin}, not under {src}",
              file=sys.stderr)
        sys.exit(3)


def _census(args: list[str]) -> int:
    import json

    import xmodkit

    cache_dir, nums = args[0], [int(v) for v in args[1:]]
    counts = [list(xmodkit.census(n, m, cache_dir=cache_dir).counts())
              for n, m in zip(nums[0::2], nums[1::2])]
    print(json.dumps({"counts": counts}))
    return 0


def _cli(args: list[str]) -> int:
    from xmodkit import cli

    rc = cli.main(args)
    sys.stdout.flush()
    return rc


def invariants_row(X) -> str:
    """The invariants row of `xmodkit xmods invariants`, as exact orders."""
    import xmodkit
    from xmodkit.values import class_text

    r, ml = xmodkit.rank_of_xmod(X), xmodkit.middle_length_of_xmod(X)
    return " ".join([
        f"{r.level1_order},{r.level0_order}",
        f"{ml.level1_order},{ml.level0_order}",
        class_text(xmodkit.nilpotency_class(X)),
        "%d,%d" % xmodkit.center_xmod(X).order,
        "%d,%d" % xmodkit.derived_subxmod(X).order,
        ";".join("%d,%d" % s for s in xmodkit.lower_central_series(X).sizes()),
        "".join("1" if f(X) else "0" for f in (
            xmodkit.is_aspherical, xmodkit.is_simply_connected,
            xmodkit.is_stem_xmod)),
    ])


def answer(texts: list[str], rep: int, against: list[int]) -> dict:
    """Every per-object query on one representative, from cold caches."""
    import xmodkit
    import xmodkit.catalog

    xmodkit.catalog._bundled = None  # cold catalog: groups rebuilt per op
    X = xmodkit.parse_xmod(texts[rep])
    row = invariants_row(X)
    pairing = xmodkit.commutator_pairing(X)
    aut, _ = xmodkit.xmod_automorphism_group(X)
    whitehead = xmodkit.whitehead_group(X)
    act = xmodkit.actor(X)
    iso = [xmodkit.is_isoclinic_xmod(X, xmodkit.parse_xmod(texts[j])) is not None
           for j in against]
    quotient = "%d,%d" % pairing.quotient.order()
    return {
        "answer": (f"{row} q{quotient} aut{aut.order} w{whitehead.order}"
                   " actor%d,%d" % act.xmod.order()),
        "iso": iso,
    }


def _queries(args: list[str], tracer) -> int:
    import json

    reps = Path(args[0]) / f"census-{args[1]}-{args[2]}" / "reps"
    texts = [p.read_text() for p in sorted(reps.glob("*.xmod"))]
    print("ready", flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.op = req["op"]
        try:
            reply = answer(texts, req["rep"], req["against"])
        except Exception as exc:  # reported to run.py as a failed operation
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), flush=True)
    return 0


def main(argv: list[str]) -> int:
    src, trace_path, op = None, None, -1
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--src":
            src = value
        elif flag == "--trace":
            trace_path = value
        elif flag == "--op":
            op = int(value)
        else:
            raise SystemExit(f"unknown flag {flag}")
    if src is None or not argv:
        raise SystemExit(__doc__)
    verify_source(src)
    mode, args = argv[0], argv[1:]
    tracer = Tracer() if trace_path else None
    start = _now()
    import xmodkit  # noqa: F401
    if mode == "cli":
        import xmodkit.cli  # noqa: F401
    if tracer is not None:
        tracer.op = op
        tracer.record("cli.import", start, _now())
        tracer.install()
    try:
        if mode == "census":
            return _census(args)
        if mode == "cli":
            return _cli(args)
        if mode == "queries":
            return _queries(args, tracer)
        raise SystemExit(f"unknown mode {mode}")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
