"""Census pipeline: enumerate, reduce, and classify crossed modules.

The pipeline runs in three stages.  all_xmods finds every crossed module
over catalog representatives of a given order pair, reduce_by_isomorphism
keeps the first representative of each isomorphism class, and
classify_families partitions the representatives into isoclinism families
with one invariant report per family.  census composes the stages and can
persist the finished result as a directory of structured-text files;
group_census produces the analogous per-order family table for groups.

all_xmods returns the raw modules unbuilt (RawKeys), so make_xmod runs
only on the class representatives.
"""

from __future__ import annotations

import itertools
import shutil
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from xmodkit import __version__ as ENGINE_VERSION

from .catalog import GroupCatalog, load_catalog
from .groups import (
    FiniteGroup,
    _aut_index,
    _aut_orders,
    _aut_tables,
    _extensions,
    _OnDemandTable,
    _closure,
    all_homs,
    automorphism_generators,
    center,
    compose_perms,
    first_iso,
    generating_sequence,
    group_fingerprint,
    quotient_group,
)
from .invariants import (
    center_xmod,
    lower_central_series,
    middle_length_of_xmod,
    nilpotency_class,
    rank_of_xmod,
)
from .isoclinism import group_family_partition, xmod_family_partition
from .values import NOT_NILPOTENT, FrozenRecord, LogValue, PairValue, Record
from .xmods import (
    CrossedModule,
    identity_xmod,
    make_xmod,
    parse_xmod,
    serialize_xmod,
)

_META_VERSION = "census v1"
_FAMILIES_VERSION = "families v1"
_REPORT_VERSION = "report v1"

_META_NAME = "meta"
_REPS_DIR = "reps"
_FAMILIES_NAME = "families"
_REPORT_NAME = "report"


class CensusError(RuntimeError):
    """Raised when a census result fails its own consistency checks."""


class FamilyReport(FrozenRecord):
    """Shared invariants of one isoclinism family.

    Every field is recomputed for every member and compared; a family whose
    members disagree is a pipeline bug and raises CensusError.  gamma_sizes
    lists the sizes of the distinct lower-central terms from the second one
    on, without the trailing trivial term of a nilpotent series.
    """

    def __init__(
        self,
        family_index: int,
        members: tuple[int, ...],
        member_count: int,
        rank: PairValue,
        middle_length: PairValue,
        nilpotency_class: object,
        central_quotient_size: tuple[int, int],
        gamma_sizes: tuple[tuple[int, int], ...],
    ):
        self.__dict__.update(
            family_index=family_index,
            members=members,
            member_count=member_count,
            rank=rank,
            middle_length=middle_length,
            nilpotency_class=nilpotency_class,
            central_quotient_size=central_quotient_size,
            gamma_sizes=gamma_sizes,
        )


class CensusResult(Record):
    """Output of the census pipeline, filled in stage by stage.

    The reduction stage holds one built crossed module per isomorphism
    class in representatives and records class_map (raw index of
    all_xmods's RawKeys to representative index); the family stage adds
    families and reports.  A result loaded from cache has class_map None.
    """

    def __init__(
        self,
        order_pair: tuple[int, int],
        raw_count: int,
        representatives: list,
        class_map: Optional[tuple[int, ...]] = None,
        families: Optional[list[tuple[int, ...]]] = None,
        reports: Optional[list[FamilyReport]] = None,
        catalog_version: str = "",
        engine_version: str = ENGINE_VERSION,
    ):
        self.order_pair = order_pair
        self.raw_count = raw_count
        self.representatives = representatives
        self.class_map = class_map
        self.families = families
        self.reports = reports
        self.catalog_version = catalog_version
        self.engine_version = engine_version

    @property
    def stage(self) -> str:
        return "families" if self.families is not None else "representatives"

    def counts(self) -> tuple[int, int, int]:
        """(raw, isomorphism classes, families) of a finished census."""
        if self.families is None:
            raise ValueError("census pipeline has not finished")
        return (self.raw_count, len(self.representatives), len(self.families))

    def validate(self) -> "CensusResult":
        n_reps = len(self.representatives)
        if self.class_map is not None:
            if len(self.class_map) != self.raw_count:
                raise CensusError("class map does not cover the raw count")
            if sorted(set(self.class_map)) != list(range(n_reps)):
                raise CensusError("class map misses a representative")
        if self.families is not None:
            flat = sorted(i for fam in self.families for i in fam)
            if flat != list(range(n_reps)):
                raise CensusError("families do not partition representatives")
            if self.reports is None or len(self.reports) != len(self.families):
                raise CensusError("one report per family required")
            for report, fam in zip(self.reports, self.families):
                if report.member_count != len(fam):
                    raise CensusError("report member count mismatch")
        return self


# --- stage 1: raw enumeration ---


class RawKeys(FrozenRecord):
    """The raw stage of the census: every crossed module of an order
    pair, as an unbuilt key.

    keys[i] = (G1, G0, d, phi) stands for raw module i of all_xmods:
    catalog groups G1 and G0, the boundary image table d, and the action
    as a table phi of indices into automorphisms(G1).  classes[i] is its
    isomorphism class, numbered in order of first appearance.  make_xmod
    has validated none of them; build(i) constructs and validates one,
    and reduce_by_isomorphism builds only the class representatives.
    """

    def __init__(
        self,
        order_pair: tuple[int, int],
        keys: list,
        classes: list,
        catalog_version: str = "",
        engine_version: str = ENGINE_VERSION,
    ):
        self.__dict__.update(
            order_pair=order_pair,
            keys=keys,
            classes=classes,
            catalog_version=catalog_version,
            engine_version=engine_version,
        )

    @property
    def raw_count(self) -> int:
        return len(self.keys)

    def build(self, i: int) -> CrossedModule:
        G1, G0, d, phi = self.keys[i]
        tables = _aut_tables(G1)
        return make_xmod(G1, G0, d, tuple(tables[j] for j in phi))


def _action_tables(G0: FiniteGroup, G1: FiniteGroup) -> list[tuple[int, ...]]:
    """Action homomorphisms G0 -> Aut(G1) as tables of indices into
    automorphisms(G1), in the order all_homs finds them in
    automorphism_group(G1).

    The search target's entry [a][b] is the index of auts[a] o auts[b],
    computed the first time the search reads it, so no Cayley table of
    Aut(G1) is built (|Aut C2^4| = 20160).  As in all_homs, the candidates
    for a generator g are the automorphisms, in list order, whose order
    divides |g|.
    """
    tables, index = _aut_tables(G1), _aut_index(G1)
    fits = {
        d: [j for j, k in enumerate(_aut_orders(G1)) if d % k == 0]
        for d in set(G0.elem_order)
    }
    target = SimpleNamespace(identity=0, mul=_OnDemandTable(
        lambda a: _OnDemandTable(
            lambda b: index[compose_perms(tables[a], tables[b])]
        )
    ))
    return list(_extensions(G0, target, lambda g: fits[G0.elem_order[g]]))


def _stage1_scan(G1: FiniteGroup, G0: FiniteGroup, phi_images, boundaries) -> list:
    """(action, boundary) image pairs satisfying CM1 and CM2.

    phi_images are action homomorphisms G0 -> Aut(G1) given by tables of
    automorphism indices, and boundaries are image tables of homomorphisms
    G1 -> G0, tried in their order.  CM1 and CM2 hold everywhere once they
    hold on generating sequences (both sides extend multiplicatively), and
    make_xmod revalidates each survivor in full.
    """
    tables = _aut_tables(G1)
    gens1 = generating_sequence(G1)
    gens0 = generating_sequence(G0)
    conj = {a: tuple(G1.conj(a, b) for b in G1.elements) for a in gens1}
    mul0, inv0 = G0.mul, G0.inv
    hits = []
    for phi in phi_images:
        rows = tuple(tables[j] for j in phi)
        allowed = {}
        feasible = True
        for a in gens1:
            want = conj[a]
            fits = frozenset(x for x in G0.elements if rows[x] == want)
            if not fits:
                feasible = False
                break
            allowed[a] = fits
        if not feasible:
            continue
        for img in boundaries:
            if any(img[a] not in allowed[a] for a in gens1):
                continue
            bad = False
            for x in gens0:
                row = rows[x]
                for a in gens1:
                    if img[row[a]] != mul0[mul0[x][img[a]]][inv0[x]]:
                        bad = True
                        break
                if bad:
                    break
            if not bad:
                hits.append((phi, img))
    return hits


def _key_moves(G1: FiniteGroup, G0: FiniteGroup) -> list[tuple]:
    """The generators (alpha, 1) and (1, beta) of Aut(G1) x Aut(G0), each
    as a pair of maps: one on actions, given as tables of indices into
    automorphisms(G1), and one on boundary image tables,

        phi -> (y -> alpha phi(beta^-1 y) alpha^-1),    d -> beta d alpha^-1.

    Generators are picked greedily from the cached automorphism lists by
    composing image tables, so no Cayley table of Aut is built.
    """
    tables, index = _aut_tables(G1), _aut_index(G1)
    moves = []
    for f in automorphism_generators(G1):
        a, a_inv = f.image_of, f.inverse().image_of
        conj = _OnDemandTable(  # automorphism j -> alpha auts[j] alpha^-1
            lambda j, a=a, a_inv=a_inv:
                index[compose_perms(a, compose_perms(tables[j], a_inv))]
        )
        moves.append((lambda phi, conj=conj: tuple(map(conj.__getitem__, phi)),
                      lambda d, a_inv=a_inv: compose_perms(d, a_inv)))
    for f in automorphism_generators(G0):
        b, b_inv = f.image_of, f.inverse().image_of
        moves.append((lambda phi, b_inv=b_inv: compose_perms(phi, b_inv),
                      lambda d, b=b: compose_perms(b, d)))
    return moves


def _action_orbits(G1: FiniteGroup, G0: FiniteGroup, actions, moves):
    """The orbits of Aut(G1) x Aut(G0) through actions, in the order of
    their first member in actions, each as (members, edges, targets): the
    _closure under the action maps of moves (_key_moves) from the root
    members[0], its Schreier tree, and targets[j][c], the position of
    move j applied to members[c], recorded as the walk applies it.  An
    action already walked starts no orbit.
    """
    most = len(_aut_tables(G1)) * len(_aut_tables(G0))  # bounds any orbit
    unwalked = set(actions)
    for phi in actions:
        if phi in unwalked:
            position = {phi: 0}  # numbered as _closure numbers them
            targets = [[] for _ in moves]
            steps = [_recording(act, position, row)
                     for (act, _), row in zip(moves, targets)]
            members, _, edges = _closure(phi, steps, most)
            unwalked.difference_update(members)
            yield members, edges, targets


def _recording(step, position: dict, targets: list):
    """step, appending the position of each image it returns to targets."""
    def recorded(x):
        y = step(x)
        targets.append(position.setdefault(y, len(position)))
        return y
    return recorded


def _stabilizer_classes(edges, targets, at, moved) -> list[int]:
    """Per root position of an action orbit, the least position in its
    orbit under the root's stabilizer.  at[t][p] is the all_homs position
    of the boundary that the tree path g_t to member t maps root position
    p to.  A non-tree edge j from c to t gives the Schreier generator
    g_t^-1 gen_j g_c of the stabilizer (Schreier's lemma), which maps p to
    the root position at t of moved[j][at[c][p]].
    """
    where = [dict(zip(hs, itertools.count())) for hs in at]
    schreier = set()
    for j, row in enumerate(targets):
        for c, t in enumerate(row):
            if edges[t] != (c, j):
                try:
                    schreier.add(tuple(map(where[t].__getitem__,
                                           map(moved[j].__getitem__, at[c]))))
                except KeyError:
                    raise CensusError("the boundaries of an action orbit are "
                                      "not closed under its stabilizer") from None
    steps = [s.__getitem__ for s in schreier]
    label = list(range(len(at[0])))
    for p in range(len(label)):
        if label[p] == p:
            for q in _closure(p, steps, len(label))[0]:
                label[q] = p
    return label


def _pair_keys(G1: FiniteGroup, G0: FiniteGroup) -> tuple[list, list[int]]:
    """Keys (boundary image table, action) of the crossed modules on
    (G1, G0) in all_xmods order (actions in _action_tables order, the
    boundaries of each in all_homs order), and the isomorphism class of
    each key, numbered in order of first appearance.

    (alpha, beta) in Aut(G1) x Aut(G0) maps the boundaries compatible with
    phi one to one onto those compatible with (alpha, beta).phi, by
    d -> beta d alpha^-1.  So boundaries are scanned (_stage1_scan) only at
    the root of each action orbit (_action_orbits) and carried along its
    Schreier tree.  Two modules are isomorphic exactly when some
    (alpha, beta) maps one to the other, so the classes over an orbit are
    the root stabilizer's orbits on its boundaries (_stabilizer_classes).
    """
    actions = _action_tables(G0, G1)
    boundaries = [h.image_of for h in all_homs(G1, G0)]
    hom_position = {d: i for i, d in enumerate(boundaries)}
    moves = _key_moves(G1, G0)
    moved = [[hom_position.get(move(d)) for d in boundaries]  # on positions
             for _, move in moves]
    if any(None in row for row in moved):
        raise CensusError("a moved boundary is not a homomorphism G1 -> G0")
    listed = set(actions)
    found: dict = {}  # action -> (orbit, all_homs position by root position)
    labels = []  # per orbit with modules, the class of each root position
    # each orbit is scanned as the walk yields it, so its move targets
    # live only while its own classes are read
    for members, edges, targets in _action_orbits(G1, G0, actions, moves):
        if not listed.issuperset(members):
            raise CensusError(
                "an orbit of Aut(G1) x Aut(G0) leaves the action list")
        at = [[hom_position[d]
               for _, d in _stage1_scan(G1, G0, members[:1], boundaries)]]
        if not at[0]:
            continue
        for c, j in edges[1:]:
            at.append([moved[j][h] for h in at[c]])
        for phi, hs in zip(members, at):
            found[phi] = (len(labels), hs)
        labels.append(_stabilizer_classes(edges, targets, at, moved)
                      if len(at[0]) > 1 else [0])
    keys, classes, number = [], [], {}
    for phi in actions:
        if phi in found:
            o, hs = found[phi]
            for p in sorted(range(len(hs)), key=hs.__getitem__):
                keys.append((boundaries[hs[p]], phi))
                classes.append(number.setdefault((o, labels[o][p]), len(number)))
    return keys, classes


def _catalog_pairs(cat: GroupCatalog, n: int, m: int) -> list[tuple]:
    """Ordered pairs (G1, G0) of catalog groups of orders n and m."""
    ents1 = cat.entries_of_order(n)
    ents0 = cat.entries_of_order(m)
    if not ents1 or not ents0:
        raise ValueError(f"catalog does not cover order pair [{n},{m}]")
    return [
        (cat.group(e1.order, e1.index), cat.group(e0.order, e0.index))
        for e1 in ents1 for e0 in ents0
    ]


def all_xmods(
    n: int, m: int, *, catalog: Optional[GroupCatalog] = None
) -> RawKeys:
    """Every crossed module of order [n, m] over catalog representatives.

    Iterates ordered pairs of catalog groups in catalog order, action
    homomorphisms G0 -> Aut(G1), and boundary homomorphisms G1 -> G0
    jointly satisfying CM1 and CM2, found by _pair_keys with one boundary
    scan per action orbit.  The order of the output is deterministic.  The
    modules are returned unbuilt, with their isomorphism classes, as
    RawKeys; reduce_by_isomorphism builds the class representatives.
    """
    cat = catalog if catalog is not None else load_catalog()
    keys, classes, offset = [], [], 0  # offset: the earlier pairs' classes
    for G1, G0 in _catalog_pairs(cat, n, m):
        pair_keys, pair_classes = _pair_keys(G1, G0)
        keys += [(G1, G0, d, phi) for d, phi in pair_keys]
        classes += [offset + c for c in pair_classes]
        offset += max(pair_classes, default=-1) + 1
    return RawKeys(order_pair=(n, m), keys=keys, classes=classes,
                   catalog_version=cat.version)


# --- stage 2: isomorphism reduction ---


def _classes(labels: Sequence, build) -> tuple[list, tuple[int, ...]]:
    """build(i) for the first raw index i of each class label, in order,
    and the class map from raw index to representative index."""
    reps: list = []
    rep_of: dict = {}
    class_map: list[int] = []
    for i, label in enumerate(labels):
        if label not in rep_of:
            rep_of[label] = len(reps)
            reps.append(build(i))
        class_map.append(rep_of[label])
    return reps, tuple(class_map)


def reduce_by_isomorphism(raw: RawKeys) -> CensusResult:
    """First representative of each isomorphism class, plus the class map.

    raw is the RawKeys of all_xmods, whose classes the enumeration's
    orbit walk has already found (_pair_keys).  Each class keeps its
    lowest raw index, and make_xmod builds and validates only those
    representatives.
    """
    if not isinstance(raw, RawKeys):
        raise TypeError("reduce_by_isomorphism takes the RawKeys of all_xmods")
    first: dict = {}  # key -> its raw index
    for i, key in enumerate(raw.keys):
        if first.setdefault(key, i) != i:
            raise CensusError(f"raw module {i} repeats raw module {first[key]}")
    for level in (0, 1):  # orbits never join modules on distinct groups
        groups = list(dict.fromkeys(key[level] for key in first))
        for G, H in itertools.combinations(groups, 2):
            if (group_fingerprint(G) == group_fingerprint(H)
                    and first_iso(G, H) is not None):
                raise CensusError("raw modules lie on distinct isomorphic groups")
    reps, class_map = _classes(raw.classes, raw.build)
    return CensusResult(
        order_pair=raw.order_pair,
        raw_count=raw.raw_count,
        representatives=reps,
        class_map=class_map,
        catalog_version=raw.catalog_version,
        engine_version=raw.engine_version,
    ).validate()


# --- stage 3: family classification ---


def _member_row(X: CrossedModule) -> tuple:
    z = center_xmod(X)
    n1, n0 = X.order()
    z1, z0 = z.order
    return (
        rank_of_xmod(X),
        middle_length_of_xmod(X),
        nilpotency_class(X),
        (n1 // z1, n0 // z0),
        lower_central_series(X).tail_sizes(),
    )


def _family_report(index: int, members: Sequence[int], reps) -> FamilyReport:
    rows = [_member_row(reps[i]) for i in members]
    for row in rows[1:]:
        if row != rows[0]:
            raise CensusError(f"family {index} members disagree on invariants")
    rank, ml, cls, quotient, gammas = rows[0]
    return FamilyReport(
        family_index=index,
        members=tuple(members),
        member_count=len(members),
        rank=rank,
        middle_length=ml,
        nilpotency_class=cls,
        central_quotient_size=quotient,
        gamma_sizes=gammas,
    )


def classify_families(result: CensusResult) -> CensusResult:
    """Partition representatives into isoclinism families and report each."""
    if not isinstance(result, CensusResult) or result.class_map is None:
        raise ValueError("classify_families needs the representatives stage")
    reps = result.representatives
    families = [tuple(f) for f in xmod_family_partition(reps)]
    reports = [_family_report(i, fam, reps) for i, fam in enumerate(families)]
    return CensusResult(
        order_pair=result.order_pair,
        raw_count=result.raw_count,
        representatives=reps,
        class_map=result.class_map,
        families=families,
        reports=reports,
        catalog_version=result.catalog_version,
        engine_version=result.engine_version,
    ).validate()


# --- persistence ---


def _census_dir(cache_dir, n: int, m: int) -> Path:
    return Path(cache_dir) / f"census-{n}-{m}"


def _render_meta(result: CensusResult) -> str:
    n, m = result.order_pair
    return (
        f"{_META_VERSION}\n"
        f"order {n} {m}\n"
        f"raw {result.raw_count}\n"
        f"classes {len(result.representatives)}\n"
        f"families {len(result.families)}\n"
        f"catalog {result.catalog_version}\n"
        f"engine {result.engine_version}\n"
    )


def _render_families(families) -> str:
    lines = [_FAMILIES_VERSION]
    for i, fam in enumerate(families):
        lines.append(f"{i}: " + " ".join(str(v) for v in fam))
    return "\n".join(lines) + "\n"


def _render_report_records(reports) -> str:
    lines = [_REPORT_VERSION]
    for r in reports:
        cls = "-" if r.nilpotency_class is NOT_NILPOTENT else str(r.nilpotency_class)
        gammas = " ".join(f"{a},{b}" for a, b in r.gamma_sizes) or "-"
        lines.append(
            f"{r.family_index} count {r.member_count}"
            f" rank {r.rank.level1_order} {r.rank.level0_order}"
            f" ml {r.middle_length.level1_order} {r.middle_length.level0_order}"
            f" class {cls}"
            f" quotient {r.central_quotient_size[0]} {r.central_quotient_size[1]}"
            f" gammas {gammas}"
        )
    return "\n".join(lines) + "\n"


def _parse_families(text: str, expected: int) -> list[tuple[int, ...]]:
    lines = text.splitlines()
    if not lines or lines[0] != _FAMILIES_VERSION:
        raise ValueError("unsupported families record")
    families = []
    for i, line in enumerate(lines[1:]):
        label, _, rest = line.partition(":")
        if int(label) != i:
            raise ValueError("families record out of order")
        families.append(tuple(map(int, rest.split())))
    if len(families) != expected:
        raise ValueError("family count mismatch")
    return families


def _take(parts: list, keyword: str, count: int) -> list[str]:
    if parts[0] != keyword:
        raise ValueError(f"expected {keyword!r} in report record")
    del parts[0]
    taken = parts[:count]
    del parts[:count]
    return taken


def _parse_report_records(text: str, families) -> list[FamilyReport]:
    lines = text.splitlines()
    if not lines or lines[0] != _REPORT_VERSION:
        raise ValueError("unsupported report record")
    if len(lines) - 1 != len(families):
        raise ValueError("report row count mismatch")
    reports = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if int(parts.pop(0)) != i:
            raise ValueError("report record out of order")
        (count,) = _take(parts, "count", 1)
        rank = _take(parts, "rank", 2)
        ml = _take(parts, "ml", 2)
        (cls_text,) = _take(parts, "class", 1)
        quotient = _take(parts, "quotient", 2)
        if parts[0] != "gammas":
            raise ValueError("expected 'gammas' in report record")
        gamma_parts = parts[1:]
        gammas = tuple(
            tuple(map(int, item.split(","))) for item in gamma_parts
        ) if gamma_parts != ["-"] else ()
        cls = NOT_NILPOTENT if cls_text == "-" else int(cls_text)
        reports.append(
            FamilyReport(
                family_index=i,
                members=tuple(families[i]),
                member_count=int(count),
                rank=PairValue(int(rank[0]), int(rank[1])),
                middle_length=PairValue(int(ml[0]), int(ml[1])),
                nilpotency_class=cls,
                central_quotient_size=(int(quotient[0]), int(quotient[1])),
                gamma_sizes=gammas,
            )
        )
    return reports


def save_census(result: CensusResult, cache_dir) -> Path:
    """Persist a finished census as a directory, replacing any stale copy."""
    if (not isinstance(result, CensusResult) or result.families is None
            or result.reports is None):
        raise ValueError("only a finished census persists")
    n, m = result.order_pair
    final = _census_dir(cache_dir, n, m)
    tmp = final.with_name(final.name + ".tmp")
    for stale in (tmp, final):
        if stale.exists():
            shutil.rmtree(stale)
    (tmp / _REPS_DIR).mkdir(parents=True)
    for i, X in enumerate(result.representatives):
        (tmp / _REPS_DIR / f"{i:05d}.xmod").write_text(serialize_xmod(X))
    (tmp / _FAMILIES_NAME).write_text(_render_families(result.families))
    (tmp / _REPORT_NAME).write_text(_render_report_records(result.reports))
    (tmp / _META_NAME).write_text(_render_meta(result))
    tmp.rename(final)
    return final


def load_census(cache_dir, n: int, m: int) -> Optional[CensusResult]:
    """Cached census for [n, m], or None when absent, stale, or damaged.

    Version or content mismatches mean "rebuild", never an error.  The
    class map is not persisted; loaded results carry class_map None.
    """
    final = _census_dir(cache_dir, n, m)
    try:
        meta = (final / _META_NAME).read_text().splitlines()
        if not meta or meta[0] != _META_VERSION:
            return None
        fields = dict(line.split(" ", 1) for line in meta[1:] if line)
        if fields["order"] != f"{n} {m}":
            return None
        if fields["catalog"] != load_catalog().version:
            return None
        if fields["engine"] != ENGINE_VERSION:
            return None
        rep_files = sorted((final / _REPS_DIR).glob("*.xmod"))
        if len(rep_files) != int(fields["classes"]):
            return None
        reps = [parse_xmod(p.read_text()) for p in rep_files]
        families = _parse_families(
            (final / _FAMILIES_NAME).read_text(), int(fields["families"])
        )
        reports = _parse_report_records(
            (final / _REPORT_NAME).read_text(), families
        )
        return CensusResult(
            order_pair=(n, m),
            raw_count=int(fields["raw"]),
            representatives=reps,
            families=families,
            reports=reports,
            catalog_version=fields["catalog"],
            engine_version=fields["engine"],
        ).validate()
    except (OSError, ValueError, KeyError, IndexError, CensusError):
        return None


def census(
    n: int,
    m: int,
    *,
    cache_dir=None,
) -> CensusResult:
    """Full pipeline for order [n, m], with optional directory caching.

    A cache hit returns the stored result; any mismatch rebuilds and
    overwrites.
    """
    if cache_dir is not None:
        cached = load_census(cache_dir, n, m)
        if cached is not None:
            return cached
    result = classify_families(
        reduce_by_isomorphism(all_xmods(n, m))
    )
    if cache_dir is not None:
        save_census(result, cache_dir)
    return result


# --- group families per order ---


class GroupFamilyReport(FrozenRecord):
    """Shared invariants of one isoclinism family of groups."""

    def __init__(
        self,
        family_index: int,
        member_ids: tuple[str, ...],
        member_count: int,
        representative_id: str,
        rank: LogValue,
        middle_length: LogValue,
        nilpotency_class: object,
        quotient_id: str,
        gamma_ids: tuple[str, ...],
    ):
        self.__dict__.update(
            family_index=family_index,
            member_ids=member_ids,
            member_count=member_count,
            representative_id=representative_id,
            rank=rank,
            middle_length=middle_length,
            nilpotency_class=nilpotency_class,
            quotient_id=quotient_id,
            gamma_ids=gamma_ids,
        )


def _identify_text(cat: GroupCatalog, G: FiniteGroup) -> str:
    hit = cat.identify(G)
    if hit is None:
        raise ValueError(f"group of order {G.order} is not in the catalog")
    return f"{hit[0]}:{hit[1]}"


def _group_row(cat: GroupCatalog, G: FiniteGroup) -> tuple:
    """The invariants of G at level 1 of its identity module (G -> G), whose
    center, derived subgroup and lower central terms are those of G."""
    X = identity_xmod(G)
    quotient, _ = quotient_group(G, center(G))
    terms = [t.s1 for t in lower_central_series(X).terms[1:]]
    if terms and terms[-1].order == 1:
        terms = terms[:-1]
    return (
        LogValue(rank_of_xmod(X).level1_order),
        LogValue(middle_length_of_xmod(X).level1_order),
        nilpotency_class(X),
        _identify_text(cat, quotient),
        tuple(_identify_text(cat, t.as_group()) for t in terms),
    )


def group_census(
    order: int, *, catalog: Optional[GroupCatalog] = None
) -> list[GroupFamilyReport]:
    """Isoclinism families of the catalog groups of one order.

    One row per family, in first-occurrence catalog order, carrying the
    shared rank, middle length, class, central quotient id and the ids of
    the distinct lower-central terms from the second one on.
    """
    cat = catalog if catalog is not None else load_catalog()
    entries = cat.entries_of_order(order)
    if not entries:
        raise ValueError(f"catalog has no groups of order {order}")
    groups = [cat.group(e.order, e.index) for e in entries]
    ids = [f"{e.order}:{e.index}" for e in entries]
    out = []
    for fi, fam in enumerate(group_family_partition(groups)):
        rows = [_group_row(cat, groups[i]) for i in fam]
        for row in rows[1:]:
            if row != rows[0]:
                raise CensusError(f"group family {fi} invariants disagree")
        rank, ml, cls, quotient_id, gamma_ids = rows[0]
        out.append(
            GroupFamilyReport(
                family_index=fi,
                member_ids=tuple(ids[i] for i in fam),
                member_count=len(fam),
                representative_id=ids[fam[0]],
                rank=rank,
                middle_length=ml,
                nilpotency_class=cls,
                quotient_id=quotient_id,
                gamma_ids=gamma_ids,
            )
        )
    return out
