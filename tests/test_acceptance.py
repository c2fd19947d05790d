"""Acceptance gate: one test per stated criterion, at the stated tolerance.

Oracles come from the published census tables and worked examples:

- [PAPER] Order-8 and order-18 group family tables (criteria 1, 2).
- [PAPER] Q8/D8 isoclinism, |Aut(C32)| = 16, |Aut(C2xC2)| = 6 (criterion 3).
- [PAPER] Crossed-module censuses [4,4], [8,8], [18,18] (criteria 4, 5, 6):
  raw/class/family counts and the full per-family invariant tables,
  frozen below as (size, rank, middle length, class, quotient, gammas)
  with orders instead of their base-2 logs where the tables print logs.
- [DERIVED] Property-suite facts (criterion 7) and fast/slow oracle
  equivalence (criterion 8) are internal-consistency statements; no
  external values are needed beyond the fixtures above.

Two deviations from the published tables, both analyzed in README.md
section "Known discrepancies":

- The [8,8] table prints 20 families; this census finds 19, merging the
  two printed size-4 rows that share one invariant profile.  The test
  asserting the printed structure is expected to fail and is kept red on
  purpose; a companion test pins the observed 19-family structure.
- One row of the [18,18] table prints a central quotient of [9,18] that
  contradicts the rank and middle length printed beside it; the frozen
  oracle carries the arithmetically forced [3,18].
"""

import collections
import itertools
import time

from helpers import (
    first_xmod_iso,
    pairwise_roots,
    raw_modules,
    reduce_with,
    slow_family_partition,
    slow_isoclinism,
)
from xmodkit.catalog import catalog_group
from xmodkit.census import all_xmods, census, group_census, reduce_by_isomorphism
from xmodkit.derivations import (
    class_preserving_actor,
    class_preserving_auts,
    class_preserving_derivations,
)
from xmodkit.groups import (
    abelian_group,
    automorphism_group,
    cyclic_group,
    first_iso,
    subgroup_generated,
)
from xmodkit.invariants import (
    center_xmod,
    derived_length,
    derived_subxmod,
    is_stem_xmod,
    middle_length_of_xmod,
    nilpotency_class,
    prop10_checks,
    rank_of_xmod,
)
from xmodkit.isoclinism import (
    commutator_pairing,
    hz_subxmod_isoclinism,
    is_isoclinic_group,
    is_isoclinic_xmod,
    validate_witness,
    xmod_family_partition,
)
from xmodkit.xmods import (
    is_isomorphic_xmod,
    parse_xmod,
    product,
    quotient_xmod,
    serialize_xmod,
    sub_xmod,
)

# [PAPER] order-[8,8] family table: 20 rows of
# (size, rank, middle length, class, |XM/Z|, gamma sizes).
TABLE_8_8 = (
    (37, (1, 1), (1, 1), 1, (1, 1), ()),
    (79, (4, 2), (1, 1), 2, (2, 2), ((2, 1),)),
    (18, (8, 2), (2, 1), 3, (4, 2), ((4, 1), (2, 1))),
    (8, (8, 4), (2, 1), 3, (4, 4), ((4, 1), (2, 1))),
    (14, (1, 8), (1, 1), 2, (1, 4), ((1, 2),)),
    (42, (4, 8), (1, 1), 2, (2, 4), ((2, 2),)),
    (12, (8, 8), (2, 1), 3, (4, 4), ((4, 2), (2, 1))),
    (8, (8, 8), (2, 1), 3, (4, 4), ((4, 2), (2, 1))),
    (4, (8, 8), (2, 1), 3, (4, 4), ((4, 2), (2, 1))),
    (4, (8, 4), (2, 1), 3, (4, 4), ((4, 1), (2, 1))),
    (10, (8, 4), (1, 1), 2, (2, 4), ((4, 1),)),
    (15, (8, 4), (1, 1), 2, (4, 4), ((2, 1),)),
    (10, (8, 8), (1, 1), 2, (2, 4), ((4, 2),)),
    (2, (8, 8), (2, 2), 3, (4, 8), ((4, 2), (2, 1))),
    (15, (8, 8), (1, 1), 2, (4, 4), ((2, 2),)),
    (6, (4, 8), (1, 1), 2, (2, 4), ((2, 2),)),
    (2, (8, 8), (2, 2), 3, (4, 8), ((4, 2), (2, 1))),
    (2, (8, 8), (1, 1), 2, (4, 4), ((2, 2),)),
    (2, (8, 4), (1, 1), 2, (4, 4), ((2, 1),)),
    (4, (8, 4), (2, 1), 3, (4, 4), ((4, 1), (2, 1))),
)

# the printed rows 10 and 20 above share a profile; the census merges
# their members into one family of 8 (README, "Known discrepancies")
MERGED_ROW = (8, (8, 4), (2, 1), 3, (4, 4), ((4, 1), (2, 1)))
OBSERVED_8_8 = tuple(
    row for i, row in enumerate(TABLE_8_8) if i not in (9, 19)
) + (MERGED_ROW,)

# [PAPER] order-[18,18] family table: 46 rows; class 0 marks a family
# that is not nilpotent.  Row 23 prints quotient [9,18] next to a rank
# of [3.17,4.17] and a middle length of [1.58,3.17], which force [3,18];
# the forced value is frozen here (README, "Known discrepancies").
TABLE_18_18 = (
    (1, (18, 18), (9, 9), 0, (18, 18), ((9, 9),)),
    (2, (1, 18), (1, 9), 0, (1, 18), ((1, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (20, (1, 1), (1, 1), 1, (1, 1), ()),
    (2, (9, 6), (9, 1), 0, (9, 6), ((9, 1),)),
    (16, (9, 3), (1, 1), 2, (3, 3), ((3, 1),)),
    (2, (9, 2), (9, 1), 0, (9, 2), ((9, 1),)),
    (4, (1, 6), (1, 3), 0, (1, 6), ((1, 3),)),
    (1, (9, 18), (9, 3), 0, (9, 18), ((9, 3),)),
    (2, (9, 18), (1, 3), 0, (3, 18), ((3, 3), (1, 3))),
    (1, (9, 6), (9, 3), 0, (9, 6), ((9, 3),)),
    (1, (9, 18), (9, 3), 0, (9, 18), ((9, 3),)),
    (1, (9, 6), (9, 3), 0, (9, 6), ((9, 3),)),
    (2, (1, 18), (1, 9), 0, (1, 18), ((1, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (2, (6, 6), (3, 3), 0, (6, 6), ((3, 3),)),
    (1, (18, 18), (9, 9), 0, (18, 18), ((9, 9),)),
    (1, (3, 18), (3, 9), 0, (3, 18), ((3, 9),)),
    (1, (9, 18), (3, 9), 0, (9, 18), ((3, 9),)),
    (1, (9, 18), (3, 9), 0, (3, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (1, (3, 18), (3, 9), 0, (3, 18), ((3, 9),)),
    (1, (9, 18), (3, 9), 0, (3, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (4, (3, 2), (3, 1), 0, (3, 2), ((3, 1),)),
    (2, (9, 6), (9, 1), 0, (9, 6), ((9, 1),)),
    (2, (9, 2), (9, 1), 0, (9, 2), ((9, 1),)),
    (2, (3, 6), (3, 3), 0, (3, 6), ((3, 3),)),
    (1, (9, 18), (9, 3), 0, (9, 18), ((9, 3),)),
    (1, (9, 6), (9, 3), 0, (9, 6), ((9, 3),)),
    (2, (9, 6), (3, 3), 0, (9, 6), ((3, 3),)),
    (1, (9, 6), (3, 3), 0, (3, 6), ((9, 3),)),
    (2, (3, 6), (3, 3), 0, (3, 6), ((3, 3),)),
    (1, (9, 18), (9, 3), 0, (9, 18), ((9, 3),)),
    (1, (9, 6), (9, 3), 0, (9, 6), ((9, 3),)),
    (1, (3, 18), (3, 9), 0, (3, 18), ((3, 9),)),
    (1, (9, 18), (3, 9), 0, (9, 18), ((3, 9),)),
    (1, (9, 18), (3, 9), 0, (3, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (1, (3, 18), (3, 9), 0, (3, 18), ((3, 9),)),
    (1, (9, 18), (3, 9), 0, (3, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
    (1, (9, 18), (9, 9), 0, (9, 18), ((9, 9),)),
)


def family_profile(report):
    cls = report.nilpotency_class
    return (
        report.member_count,
        (report.rank.level1_order, report.rank.level0_order),
        (
            report.middle_length.level1_order,
            report.middle_length.level0_order,
        ),
        cls if isinstance(cls, int) else 0,
        report.central_quotient_size,
        report.gamma_sizes,
    )


def test_criterion_1_groups_of_order_8():
    start = time.perf_counter()
    reports = group_census(8)
    elapsed = time.perf_counter() - start
    assert sorted(r.member_count for r in reports) == [2, 3]
    assert sorted(r.rank.order for r in reports) == [1, 8]  # log2 in {0, 3}
    assert [r.middle_length.order for r in reports] == [1, 1]
    assert sorted(r.nilpotency_class for r in reports) == [1, 2]
    assert elapsed < 1.0


def test_criterion_2_groups_of_order_18():
    start = time.perf_counter()
    reports = group_census(18)
    elapsed = time.perf_counter() - start
    assert sum(r.member_count for r in reports) == 5
    assert len(reports) == 4
    rendered = sorted(
        (r.rank.render(), r.middle_length.render()) for r in reports
    )
    assert rendered == [
        ("0.00", "0.00"),
        ("2.58", "1.58"),
        ("4.17", "3.17"),
        ("4.17", "3.17"),
    ]
    abelian = [r for r in reports if r.member_count == 2]
    assert len(abelian) == 1 and abelian[0].nilpotency_class == 1
    assert elapsed < 5.0


def test_criterion_3_small_group_facts():
    start = time.perf_counter()
    q8 = catalog_group(8, 4)
    d8 = catalog_group(8, 3)
    assert is_isoclinic_group(q8, d8) is not None
    assert first_iso(q8, d8) is None
    c32 = cyclic_group(32)
    kl4 = abelian_group([2, 2])
    assert automorphism_group(c32)[0].order == 16
    assert automorphism_group(kl4)[0].order == 6
    assert is_isoclinic_group(c32, kl4) is not None
    assert time.perf_counter() - start < 1.0


def test_criterion_4_census_4_4(census44, census_times):
    assert census44.counts() == (60, 18, 2)
    assert sorted(len(f) for f in census44.families) == [8, 10]
    assert census_times["census44"] < 30.0


def test_criterion_5_census_8_8_counts(census88, census_times):
    raw, classes, _ = census88.counts()
    assert (raw, classes) == (9008, 294)
    assert census_times["census88"] < 600.0


def test_criterion_5_published_family_table(census88):
    observed = sorted(family_profile(r) for r in census88.reports)
    assert observed == sorted(TABLE_8_8), (
        "the census finds 19 families where the published table prints "
        "20: the two printed size-4 rows sharing the profile rank [8,4], "
        "middle length [2,1], class 3, quotient [4,4], gammas "
        "[4,1],[2,1] come out as one family of 8; "
        "test_criterion_5_merged_rows_rerun_by_the_slow_search re-runs the "
        "witnesses behind that merge with the slow search, and README.md, "
        "section 'Known discrepancies', explains it"
    )


def test_criterion_5_observed_family_structure(census88):
    observed = sorted(family_profile(r) for r in census88.reports)
    assert len(census88.families) == 19
    assert observed == sorted(OBSERVED_8_8)


def test_criterion_5_merged_rows_rerun_by_the_slow_search(census88):
    # the witnesses behind Known discrepancy 1, re-run by the search with
    # no invariant ladder: in both observed families with the profile of
    # the two printed size-4 rows, every member is isoclinic to its head
    # by a witness that re-validates, and the two heads are not isoclinic
    reps = census88.representatives
    profile = ((8, 4), (2, 1), 3, (4, 4), ((4, 1), (2, 1)))
    same = [fam for fam, report in zip(census88.families, census88.reports)
            if family_profile(report)[1:] == profile]
    assert sorted(map(len, same)) == [8, 8]
    for fam in same:
        head = reps[fam[0]]
        for i in fam[1:]:
            witness = slow_isoclinism(reps[i], head)
            assert witness is not None
            assert validate_witness(reps[i], head, witness)
    assert slow_isoclinism(reps[same[0][0]], reps[same[1][0]]) is None


def test_criterion_6_census_18_18(census1818, census_times):
    assert census1818.counts() == (2222, 97, 46)
    observed = sorted(family_profile(r) for r in census1818.reports)
    assert observed == sorted(TABLE_18_18)
    abelian = [r for r in census1818.reports if r.member_count == 20]
    assert len(abelian) == 1
    assert abelian[0].nilpotency_class == 1
    assert abelian[0].central_quotient_size == (1, 1)
    assert census_times["census1818"] < 1800.0


def _all_subgroups(G):
    # every group of order <= 8 is generated by at most 3 elements
    assert G.order <= 8
    seen = {}
    for seed in itertools.product(G.elements, repeat=3):
        sub = subgroup_generated(G, seed)
        seen[sub.members] = sub
    return list(seen.values())


def _subgroup_axioms(S):
    G = S.parent
    assert G.identity in S.member_set
    for a in S.members:
        assert G.inv[a] in S.member_set
        for b in S.members:
            assert G.mul[a][b] in S.member_set


def _stem_moves(Y):
    """Order-reducing moves that stay inside Y's isoclinism family:
    quotients by central subobjects meeting the derived sub trivially,
    and subobjects H with H * Z(Y) = Y."""
    z = center_xmod(Y)
    d = derived_subxmod(Y)
    subs1 = _all_subgroups(Y.g1)
    subs0 = _all_subgroups(Y.g0)
    moves = []
    for c1 in subs1:
        if not c1.member_set <= z.s1.member_set:
            continue
        if len(c1.member_set & d.s1.member_set) > 1:
            continue
        for c0 in subs0:
            if not c0.member_set <= z.s0.member_set:
                continue
            if len(c0.member_set & d.s0.member_set) > 1:
                continue
            if c1.order == 1 and c0.order == 1:
                continue
            try:
                C = sub_xmod(Y, c1, c0)
            except ValueError:
                continue
            moves.append((c1.order * c0.order, quotient_xmod(Y, C)[0]))
    for s1 in subs1:
        for s0 in subs0:
            if s1.is_full() and s0.is_full():
                continue
            try:
                H = sub_xmod(Y, s1, s0)
            except ValueError:
                continue
            if product(H, z).is_full():
                moves.append((s1.order * s0.order, H.as_xmod()))
    moves.sort(key=lambda move: -move[0])
    return [m for _, m in moves]


def _find_stem(X):
    queue = collections.deque([X])
    seen = set()
    while queue:
        Y = queue.popleft()
        key = serialize_xmod(Y)
        if key in seen:
            continue
        seen.add(key)
        if is_stem_xmod(Y):
            return Y
        queue.extend(_stem_moves(Y))
    return None


def test_criterion_7_property_suite(census44, census88):
    start = time.perf_counter()
    reps44 = census44.representatives
    reps88 = census88.representatives
    sampled88 = list(range(0, len(reps88), 42))
    family_of_44 = {
        i: f for f, fam in enumerate(census44.families) for i in fam
    }
    family_of_88 = {
        i: f for f, fam in enumerate(census88.families) for i in fam
    }

    # (a) equivalence relation, checked as the full relation matrix on
    # all [4,4] representatives and on sampled [8,8] representatives
    for reps, sample, family_of in (
        (reps44, range(len(reps44)), family_of_44),
        (reps88, sampled88, family_of_88),
    ):
        related = {
            (i, j): is_isoclinic_xmod(reps[i], reps[j]) is not None
            for i in sample
            for j in sample
        }
        for i in sample:
            assert related[(i, i)]
            for j in sample:
                assert related[(i, j)] == related[(j, i)]
                assert related[(i, j)] == (family_of[i] == family_of[j])
                for k in sample:
                    if related[(i, j)] and related[(j, k)]:
                        assert related[(i, k)]

    # (b) rank, middle length, nilpotency class and status, and derived
    # length are constant across each [4,4] family
    for report, fam in zip(census44.reports, census44.families):
        lengths = set()
        for i in fam:
            member = reps44[i]
            assert rank_of_xmod(member) == report.rank
            assert middle_length_of_xmod(member) == report.middle_length
            assert nilpotency_class(member) == report.nilpotency_class
            lengths.add(derived_length(member))
        assert len(lengths) == 1

    # (c) the commutator pairings are well defined over every choice of
    # coset representatives; built on fresh copies so the exhaustive
    # check runs here, not in a cache
    for X in [*reps44, *(reps88[i] for i in sampled88)]:
        commutator_pairing(parse_xmod(serialize_xmod(X)))

    # (d) consequences of simple connectivity and asphericity hold on
    # every instance where the hypotheses apply
    applicable = 0
    for X in [*reps44, *(reps88[i] for i in sampled88)]:
        report = prop10_checks(X)
        if report.simply_connected or report.aspherical:
            applicable += 1
        assert report.all_hold()
    assert applicable > 0

    # (e) the canonical witness validates for every sub-crossed-module H
    # with H * Z(X) = X
    proper_seen = 0
    for X in [*reps44, *(reps88[i] for i in sampled88)]:
        z = center_xmod(X)
        subs1 = _all_subgroups(X.g1)
        subs0 = _all_subgroups(X.g0)
        for s1 in subs1:
            for s0 in subs0:
                try:
                    H = sub_xmod(X, s1, s0)
                except ValueError:
                    continue
                if not product(H, z).is_full():
                    continue
                witness = hz_subxmod_isoclinism(X, H)
                assert validate_witness(H.as_xmod(), X, witness)
                if not H.is_full():
                    proper_seen += 1
    assert proper_seen > 0

    # (f) every family contains a stem member; its order can be smaller
    # than the census order (an abelian family's stem members are
    # trivial), so one is constructed from family members by moves that
    # stay inside the family, then verified isoclinic
    for result in (census44, census88):
        for fam in result.families:
            rep = result.representatives[fam[0]]
            stem = None
            for i in fam:
                stem = _find_stem(result.representatives[i])
                if stem is not None:
                    break
            assert stem is not None and is_stem_xmod(stem)
            assert is_isoclinic_xmod(stem, rep) is not None

    # (g) class preserving derivations and automorphisms satisfy the
    # subgroup axioms and are invariant across sampled isoclinic pairs
    pairs = [
        (reps44[fam[0]], reps44[fam[1]])
        for fam in census44.families
        if len(fam) > 1
    ]
    fam88 = next(f for f in census88.families if len(f) > 1)
    pairs.append((reps88[fam88[0]], reps88[fam88[1]]))
    for X, Y in pairs:
        dcx, dcy = (
            class_preserving_derivations(X),
            class_preserving_derivations(Y),
        )
        acx, acy = class_preserving_auts(X), class_preserving_auts(Y)
        for S in (dcx, dcy, acx, acy):
            _subgroup_axioms(S)
        assert first_iso(dcx.as_group(), dcy.as_group()) is not None
        actx, acty = class_preserving_actor(X), class_preserving_actor(Y)
        assert is_isomorphic_xmod(actx.xmod, acty.xmod) is not None

    assert time.perf_counter() - start < 300.0


def test_criterion_8_fast_and_slow_paths_agree():
    start = time.perf_counter()
    fast = reduce_by_isomorphism(all_xmods(4, 4))
    raw = raw_modules(4, 4)
    slow = reduce_with(pairwise_roots(raw), raw, (4, 4))
    assert fast.class_map == slow.class_map
    assert len(fast.representatives) == len(slow.representatives)

    reps = fast.representatives
    assert xmod_family_partition(reps) == slow_family_partition(reps)
    for X, Y in itertools.combinations(reps, 2):
        assert (is_isomorphic_xmod(X, Y) is None) == (
            first_xmod_iso(X, Y) is None
        )
        assert (is_isoclinic_xmod(X, Y) is None) == (
            slow_isoclinism(X, Y) is None
        )
    assert time.perf_counter() - start < 600.0


def test_exported_callables_take_no_path_options():
    # one default per question: the slow paths live in tests/helpers.py and
    # the caps are module constants, not keyword options
    import importlib
    import inspect
    import pkgutil

    import xmodkit

    def walked(obj):
        # exceptions without their own __init__ take the builtin (*args)
        return callable(obj) and not (
            isinstance(obj, type) and issubclass(obj, Exception)
            and "__init__" not in vars(obj))

    options = {"slow", "cap", "check_action", "check_cm", "max_order"}
    checked = set()
    for info in pkgutil.iter_modules(xmodkit.__path__):
        module = importlib.import_module(f"xmodkit.{info.name}")
        for name, obj in vars(module).items():
            if (walked(obj) and not name.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__):
                params = set(inspect.signature(obj).parameters)
                assert not params & options, (module.__name__, name)
                checked.add(name)
    exported = {name for name, obj in vars(xmodkit).items()
                if walked(obj) and not name.startswith("_")}
    assert exported <= checked
    assert {"CrossedModule", "all_derivations", "group_from_closure",
            "is_isoclinic_xmod", "xmod_family_partition"} <= checked


def test_memos_use_the_one_helper_and_no_string_keys():
    # one memo protocol: groups.memoised keeps f(obj) under f itself, so
    # no module reads or writes a _cache entry by hand, and no key is a
    # string that two modules could both claim
    import inspect
    import re
    from pathlib import Path

    import xmodkit
    from xmodkit.groups import memoised

    string_key = re.compile(
        r"""_cache\s*(\[|\.\w+\()\s*\(?\s*["']"""
        r"""|["'][^"'\n]*["']\s+(not\s+)?in\s+[\w.]*_cache\b""")
    access = re.compile(r"_cache\s*[\[.]")
    helper = inspect.getsource(memoised)
    sources = sorted(Path(xmodkit.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        text = path.read_text()
        for n, line in enumerate(text.splitlines(), 1):
            assert not string_key.search(line), (path.name, n, line)
        if path.name == "groups.py":
            assert helper in text
            text = text.replace(helper, "")
        assert not access.search(text), path.name


def test_one_table_cap_and_no_test_moves_it():
    # one resource bound: src/xmodkit assigns one *_CAP constant, and every
    # test runs at it, so no test monkeypatches a cap
    import re
    from pathlib import Path

    import xmodkit

    assigned = re.compile(r"^\s*([A-Z_]*_CAP)\s*[:=]", re.M)
    caps = [(path.name, name)
            for path in sorted(Path(xmodkit.__file__).parent.glob("*.py"))
            for name in assigned.findall(path.read_text())]
    assert caps == [("groups.py", "TABLE_CAP")]
    patched = re.compile(r"monkeypatch\.\w+\([^)]*_CAP\b")
    for path in sorted(Path(__file__).parent.glob("*.py")):
        assert not patched.search(path.read_text()), path.name
