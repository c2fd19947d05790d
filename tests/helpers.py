"""Shared constructions for the test suite, and the oracles of the census,
of the generator-image search and of the package's records."""

import dataclasses
import itertools
from types import SimpleNamespace

from xmodkit import __version__ as ENGINE_VERSION
from xmodkit.catalog import CatalogEntry, load_catalog
from xmodkit.census import (
    CensusError,
    CensusResult,
    FamilyReport,
    GroupFamilyReport,
    RawKeys,
    _action_tables,
    _catalog_pairs,
    _classes,
    _key_moves,
    _stage1_scan,
)
from xmodkit.cli import FORMATS, ReportTable
from xmodkit.derivations import (
    ActorXMod,
    Derivation,
    DerivationMonoid,
    WhiteheadGroup,
)
from xmodkit.groups import (
    _aut_index,
    _aut_tables,
    _closure_map,
    abelian_group,
    all_homs,
    center,
    cyclic_group,
    derived_subgroup,
    first_iso,
    full_subgroup,
    generating_sequence,
    group_fingerprint,
    group_from_generators,
    relative_commutator_group,
    subgroup_generated,
)
from xmodkit.invariants import Prop10Report, SeriesRecord
from xmodkit.isoclinism import (
    CommutatorPairing,
    GroupIsoclinism,
    IsoclinismWitness,
    _diagrams_commute,
    commutator_pairing,
)
from xmodkit.values import NOT_NILPOTENT, LogValue, PairValue
from xmodkit.xmods import all_xmod_isos, make_xmod, module_xmod, sub_xmod


def inversion_module_c8():
    """C8 -> C2 zero boundary, the involution inverting C8."""
    c8, c2 = cyclic_group(8), cyclic_group(2)
    rows = [tuple(range(8)), tuple((-a) % 8 for a in range(8))]
    return module_xmod(c8, c2, rows)


def multiplier_module_c8(k):
    c8, c2 = cyclic_group(8), cyclic_group(2)
    rows = [tuple(range(8)), tuple((k * a) % 8 for a in range(8))]
    return module_xmod(c8, c2, rows)


def surjection_xmod_c4_c2():
    """C4 -> C2 with the mod-2 boundary and trivial action."""
    c4, c2 = cyclic_group(4), cyclic_group(2)
    rows = [tuple(range(4))] * 2
    return make_xmod(c4, c2, (0, 1, 0, 1), rows)


def xm_16_2_inversion():
    """(C8 x C2 -> C2), the involution inverting the C8 coordinate."""
    g1 = abelian_group([8, 2])  # index a*2 + b
    c2 = cyclic_group(2)
    invert = tuple(((-a) % 8) * 2 + b for a in range(8) for b in range(2))
    return module_xmod(g1, c2, [tuple(range(16)), invert])


def xm_16_2_swap():
    """(C4 x C4 -> C2), the involution swapping the coordinates."""
    g1 = abelian_group([4, 4])  # index a*4 + b
    c2 = cyclic_group(2)
    swap = tuple(b * 4 + a for a in range(4) for b in range(4))
    return module_xmod(g1, c2, [tuple(range(16)), swap])


def relabeled_s3():
    return group_from_generators([(1, 0, 2), (1, 2, 0)])


def zero_derivation(X):
    """The derivation sending every element of g0 to the identity."""
    return Derivation(X, (X.g1.identity,) * X.g0.order, check=False)


def intersection(H, K):
    """The levelwise intersection of two sub-crossed-modules."""
    if H.parent != K.parent:
        raise ValueError("subxmods of different crossed modules")
    return sub_xmod(H.parent, H.s1.member_set & K.s1.member_set,
                    H.s0.member_set & K.s0.member_set)


# --- the generator-image search by whole closures, the oracle of the kernel ---


def slow_extensions(G, H, candidates):
    """The image tables that groups._extensions(G, H, candidates) yields,
    in its order: each node closes its whole assignment with _closure_map,
    re-closing the prefix subgroup its parent had closed already, and
    reads candidates(g) afresh."""
    gens = generating_sequence(G)
    if not gens:
        yield (H.identity,)
        return
    pairs = []

    def rec(k):
        g = gens[k]
        for h in candidates(g):
            pairs.append((g, h))
            image = _closure_map(G, H, pairs)
            if image is not None:
                if k == len(gens) - 1:
                    yield tuple(image[x] for x in G.elements)
                else:
                    yield from rec(k + 1)
            pairs.pop()

    yield from rec(0)


def semidirect_target(X):
    """g1 x| g0, (a, x)(b, y) = (a ^x b, xy) at index a |g0| + x, as a
    search target of slow_extensions: identity and a full table.  The
    homomorphic sections x -> (d(x), x) are the derivations d."""
    n0 = X.g0.order
    mul0, mul1, act = X.g0.mul, X.g1.mul, X.action
    mul = tuple(
        tuple(mul1[a][act[x][b]] * n0 + mul0[x][y]
              for b in X.g1.elements for y in X.g0.elements)
        for a in X.g1.elements for x in X.g0.elements)
    return SimpleNamespace(identity=X.g1.identity * n0 + X.g0.identity,
                           mul=mul)


# --- all-pairs definitions, the oracle of the generator-based commutators ---


def all_pairs_commutator_group(G, left, right):
    """The subgroup generated by [a, b] over every a in left, b in right."""
    return subgroup_generated(
        G, {G.commutator(a, b) for a in left for b in right})


def all_pairs_displacements(X, s1, s0):
    """The subgroup of G1 generated by ^x a a^-1 over every x in s0, a in s1."""
    mul1, inv1 = X.g1.mul, X.g1.inv
    return subgroup_generated(
        X.g1, {mul1[X.action[x][a]][inv1[a]] for x in s0 for a in s1})


def all_pairs_derived_subxmod(X):
    """(all displacements -> [G0, G0]), every pair evaluated."""
    g1, g0 = X.g1.elements, X.g0.elements
    return sub_xmod(
        X,
        all_pairs_displacements(X, g1, g0).members,
        all_pairs_commutator_group(X.g0, g0, g0).members,
    )


def all_pairs_relative_commutator(X, N):
    """[N, X] from every displacement of N1 under G0 and of G1 under N0,
    and every commutator of N0 with G0."""
    g1, g0 = X.g1.elements, X.g0.elements
    level1 = all_pairs_displacements(X, N.s1.members, g0).members
    level1 += all_pairs_displacements(X, g1, N.s0.members).members
    return sub_xmod(
        X,
        subgroup_generated(X.g1, level1).members,
        all_pairs_commutator_group(X.g0, N.s0.members, g0).members,
    )


def all_pairs_derived_of(X, S):
    """D(S) for a sub-crossed-module S: every displacement of S1 under S0,
    and every commutator of S0 with itself."""
    return sub_xmod(
        X,
        all_pairs_displacements(X, S.s1.members, S.s0.members).members,
        all_pairs_commutator_group(X.g0, S.s0.members, S.s0.members).members,
    )


# --- all-pairs normality, the oracle of the checks on generators ---


def all_pairs_is_normal(S):
    """Whether every element of the parent conjugates every member of S
    into S."""
    par = S.parent
    return all(par.conj(g, h) in S.member_set
               for g in par.elements for h in S.members)


def all_pairs_is_normal_subxmod(X, S):
    """S0 normal in G0, every element of G0 maps every member of S1 into
    S1, and every member of S0 displaces every element of G1 into S1."""
    if not all_pairs_is_normal(S.s0):
        return False
    s1set = S.s1.member_set
    if any(X.action[x][a] not in s1set
           for x in X.g0.elements for a in S.s1.members):
        return False
    mul1, inv1 = X.g1.mul, X.g1.inv
    return all(mul1[X.action[x][a]][inv1[a]] in s1set
               for x in S.s0.members for a in X.g1.elements)


# --- census oracles: the raw path, module by module ---


def raw_modules(n, m, catalog=None):
    """Every raw module of all_xmods(n, m), in its order, by the full scan:
    _stage1_scan over every action of _action_tables, and make_xmod on
    each module found."""
    cat = catalog if catalog is not None else load_catalog()
    raw = []
    for G1, G0 in _catalog_pairs(cat, n, m):
        tables = _aut_tables(G1)
        boundaries = [h.image_of for h in all_homs(G1, G0)]
        for phi, d in _stage1_scan(G1, G0, _action_tables(G0, G1), boundaries):
            raw.append(make_xmod(G1, G0, d, tuple(tables[j] for j in phi)))
    return raw


def module_keys(raw):
    """The key (G1, G0, d, phi) of each built module, as in RawKeys."""
    return [
        (X.g1, X.g0, X.boundary.image_of,
         tuple(map(_aut_index(X.g1).__getitem__, X.action)))
        for X in raw
    ]


def union_find_roots(keyed):
    """Lowest index of each raw module's isomorphism class.

    keyed[i] = (G1, G0, d, phi) stands for raw module i, as in RawKeys.
    Modules on different catalog groups are never isomorphic, and modules
    on one pair (G1, G0) are isomorphic exactly when they share an orbit
    of Aut(G1) x Aut(G0) acting by

        (alpha, beta).(d, phi) = (beta d alpha^-1,
                                  y -> alpha phi(beta^-1 y) alpha^-1).

    Each key is joined with its image under every generator (alpha, 1)
    and (1, beta) in a union-find over all keys whose root is the lowest
    index.
    """
    parent = list(range(len(keyed)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_pair = {}
    for i, (G1, G0, d, phi) in enumerate(keyed):
        index = by_pair.setdefault((G1, G0), {})
        union(i, index.setdefault((d, phi), i))
    for level in (0, 1):
        groups = list(dict.fromkeys(pair[level] for pair in by_pair))
        for G, H in itertools.combinations(groups, 2):
            if (group_fingerprint(G) == group_fingerprint(H)
                    and first_iso(G, H) is not None):
                raise CensusError("raw modules lie on distinct isomorphic groups")
    for (G1, G0), index in by_pair.items():
        for act_move, bound_move in _key_moves(G1, G0):
            moved = {}  # action -> its image, formed once
            for (d, phi), i in index.items():
                if phi not in moved:
                    moved[phi] = act_move(phi)
                j = index.get((bound_move(d), moved[phi]))
                if j is None:
                    raise CensusError(
                        f"raw module {i} maps outside the raw set: the "
                        "enumeration is not closed under Aut(G1) x Aut(G0)"
                    )
                union(i, j)
    return [find(i) for i in range(len(keyed))]


def pairwise_roots(raw):
    """Lowest index of each built module's isomorphism class, comparing it
    pairwise, with first_xmod_iso, against the root of every class found
    before it."""
    heads, roots = [], []
    for i, X in enumerate(raw):
        root = next(
            (r for r in heads if first_xmod_iso(X, raw[r]) is not None), i)
        if root == i:
            heads.append(i)
        roots.append(root)
    return roots


def reduce_with(roots, raw, order_pair):
    """The representatives stage of built raw modules, given class roots."""
    reps, class_map = _classes(roots, raw.__getitem__)
    return CensusResult(order_pair=order_pair, raw_count=len(raw),
                        representatives=reps, class_map=class_map).validate()


# --- classification oracles: the searches with no fingerprint prefilter ---


def first_xmod_iso(X, Y):
    """The first isomorphism X -> Y of the full search, or None."""
    return next(all_xmod_isos(X, Y), None)


def slow_isoclinism(X, Y):
    """The first isoclinism witness, or None, trying every derived-level
    isomorphism against each central-quotient isomorphism."""
    px, py = commutator_pairing(X), commutator_pairing(Y)
    for eta in all_xmod_isos(px.quotient, py.quotient):
        for xi in all_xmod_isos(px.derived_xmod(), py.derived_xmod()):
            if _diagrams_commute(px, py, eta, xi):
                return IsoclinismWitness(eta, xi)
    return None


def slow_family_partition(reps):
    """Isoclinism families in order of first appearance, each module
    compared with every family head through slow_isoclinism."""
    families = []
    for i, x in enumerate(reps):
        fam = next((f for f in families
                    if slow_isoclinism(x, reps[f[0]]) is not None), None)
        if fam is None:
            families.append([i])
        else:
            fam.append(i)
    return families


# --- group invariants from their definitions, the oracle of the group rows ---


def group_rank(G):
    """Exact order |Z∩G'| * |G/Z|, rendered as its log2."""
    zg, dg = center(G), derived_subgroup(G)
    overlap = len(zg.member_set & dg.member_set)
    return LogValue(overlap * (G.order // zg.order))


def group_middle_length(G):
    """Exact order |G' / (Z∩G')|, rendered as its log2."""
    zg, dg = center(G), derived_subgroup(G)
    return LogValue(dg.order // len(zg.member_set & dg.member_set))


def group_lower_central_series(G):
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G]; distinct terms only."""
    terms = [full_subgroup(G)]
    while True:
        nxt = relative_commutator_group(G, terms[-1].members, G.elements)
        if nxt.members == terms[-1].members:
            return terms
        terms.append(nxt)


def group_nilpotency_class(G):
    """Nilpotency class, or the NOT_NILPOTENT marker."""
    terms = group_lower_central_series(G)
    if terms[-1].is_trivial():
        return len(terms) - 1
    return NOT_NILPOTENT


# The package's records as the dataclasses they were declared as: the
# class, whether it was frozen (frozen records compare and hash by field,
# the others by identity), and its fields in order, a (name, default) pair
# for a field with a default.
RECORD_DECLARATIONS = [
    (CatalogEntry, True, ["order", "index", "name", "cycles"]),
    (FamilyReport, True, [
        "family_index", "members", "member_count", "rank", "middle_length",
        "nilpotency_class", "central_quotient_size", "gamma_sizes",
    ]),
    (CensusResult, False, [
        "order_pair", "raw_count", "representatives", ("class_map", None),
        ("families", None), ("reports", None), ("catalog_version", ""),
        ("engine_version", ENGINE_VERSION),
    ]),
    (RawKeys, True, [
        "order_pair", "keys", "classes", ("catalog_version", ""),
        ("engine_version", ENGINE_VERSION),
    ]),
    (GroupFamilyReport, True, [
        "family_index", "member_ids", "member_count", "representative_id",
        "rank", "middle_length", "nilpotency_class", "quotient_id",
        "gamma_ids",
    ]),
    (ReportTable, True, ["title", "headers", "rows", ("format", "text")]),
    (DerivationMonoid, False, ["xmod", "elements", "op"]),
    (WhiteheadGroup, False, ["carrier", "member_derivations", "monoid"]),
    (ActorXMod, False, ["xmod", "whitehead", "derivations", "automorphisms"]),
    (SeriesRecord, True, ["kind", "terms", ("stabilized", True)]),
    (Prop10Report, True, [
        "simply_connected", "aspherical", "fix_equals_center_g1",
        "displacement_equals_derived_g1", "stabilizer_center_equals_center_g0",
    ]),
    (CommutatorPairing, False, [
        "xmod", "quotient", "projection", "derived", "c1", "c0", "cells1",
        "cells0",
    ]),
    (IsoclinismWitness, False, ["quotient_iso", "derived_iso"]),
    (GroupIsoclinism, True, [
        "quotient_iso", "derived_iso", "source_projection",
        "target_projection", "source_derived_members",
        "target_derived_members",
    ]),
    (LogValue, True, ["order"]),
    (PairValue, True, ["level1_order", "level0_order"]),
]


def _report_table_checks(self):
    if self.format not in FORMATS:
        raise ValueError(f"unknown format {self.format!r}")
    for row in self.rows:
        if len(row) != len(self.headers):
            raise ValueError("report rows must be rectangular")


def dataclass_twin(cls, frozen, fields):
    """The dataclasses.dataclass that a record of RECORD_DECLARATIONS was:
    same name, fields, defaults and equality, and for ReportTable the same
    checks in __post_init__."""
    spec = [
        (f, object) if isinstance(f, str) else (f[0], object, f[1])
        for f in fields
    ]
    namespace = {"__post_init__": _report_table_checks} if cls is ReportTable else {}
    return dataclasses.make_dataclass(
        cls.__name__, spec, namespace=namespace, frozen=frozen, eq=frozen
    )
