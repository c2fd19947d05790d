"""Census pipeline tests at desk scale.

Frozen expectations:

* [1,1]: one crossed module, one class, one family. [TRIVIAL]
* [4,4]: 60 raw, 18 classes, 2 families of sizes 10 and 8; the size-10
  family is the abelian one (hand count: 3+2+2+3 abelian classes over the
  four group pairs), and the size-8 family shares the profile rank (4,2),
  middle length (1,1), class 2, quotient (2,2), gamma (2,1) derived by hand
  from the C4-inversion member. [DERIVED], counts confirmed by the
  published session values. [PAPER]
* groups of order 8: families {C8, C4xC2, C2^3} and {D8, Q8}. [PAPER]
"""

import collections
import importlib
import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from helpers import (
    first_xmod_iso,
    inversion_module_c8,
    module_keys,
    pairwise_roots,
    raw_modules,
    reduce_with,
    relabeled_s3,
    union_find_roots,
)
from xmodkit.catalog import GroupCatalog, load_catalog
from xmodkit.census import (
    CensusError,
    CensusResult,
    RawKeys,
    _action_tables,
    _pair_keys,
    _stage1_scan,
    all_xmods,
    census,
    classify_families,
    group_census,
    load_census,
    reduce_by_isomorphism,
    save_census,
)
from xmodkit import groups
from xmodkit.catalog import catalog_group
from xmodkit.groups import (
    FiniteGroup,
    _aut_index,
    all_homs,
    all_isos,
    automorphism_generators,
    automorphism_group,
    cyclic_group,
    symmetric_group,
)
from xmodkit.values import PairValue
from xmodkit.xmods import (
    all_xmod_isos,
    identity_xmod,
    serialize_xmod,
)


@pytest.fixture(scope="module")
def finished44():
    return census(4, 4)


def test_trivial_order_pair():
    assert census(1, 1).counts() == (1, 1, 1)


def test_census_16_1_counts_the_abelian_groups():
    # [m,1]: one module per group of order m, abelian exactly when G1 is
    # (CM2 makes conjugation trivial); five abelian groups of order 16,
    # among them C2^4 with |Aut| = 20160
    assert census(16, 1).counts() == (5, 5, 1)


def search_pairs():
    """Every catalog pair with |G1| <= 12 and |G0| <= 8, and each order-18
    G1 against C2, where |Aut G1| reaches 432."""
    cat = load_catalog()
    levels1 = [G for n in range(1, 13) for G in cat.groups_of_order(n)]
    levels0 = [G for n in range(1, 9) for G in cat.groups_of_order(n)]
    pairs = [(G1, G0) for G1 in levels1 for G0 in levels0]
    return pairs + [(G1, cat.group(2, 1)) for G1 in cat.groups_of_order(18)]


def test_action_search_matches_all_homs_into_the_aut_table():
    # the census's on-demand action search yields exactly all_homs into
    # the Cayley table of Aut(G1), in order
    for G1, G0 in search_pairs():
        expected = [h.image_of for h in all_homs(G0, automorphism_group(G1)[0])]
        assert _action_tables(G0, G1) == expected


def first_appearance(labels):
    number = {}
    return [number.setdefault(label, len(number)) for label in labels]


def test_transported_keys_match_the_full_scan():
    # boundaries scanned once per action orbit and carried to the other
    # members are exactly those the scan finds for every action, in order,
    # and the classes read from the walk are the key-level union-find's
    for G1, G0 in search_pairs():
        boundaries = [h.image_of for h in all_homs(G1, G0)]
        scan = _stage1_scan(G1, G0, _action_tables(G0, G1), boundaries)
        keys, classes = _pair_keys(G1, G0)
        assert keys == [(d, phi) for phi, d in scan]
        roots = union_find_roots([(G1, G0, d, phi) for d, phi in keys])
        assert classes == first_appearance(roots)


@pytest.mark.parametrize("pair", [(8, 4), (12, 12)])
def test_census_walks_each_action_orbit_once(pair, monkeypatch):
    # the classes come from the enumeration's own walk, so neither the
    # orbits nor the moves are formed a second time for the reduction
    module = importlib.import_module("xmodkit.census")
    calls = {"_action_orbits": [], "_key_moves": []}
    for name, seen in calls.items():
        def counting(G1, G0, *args, real=getattr(module, name), seen=seen):
            seen.append((G1.catalog_id, G0.catalog_id))
            return real(G1, G0, *args)
        monkeypatch.setattr(module, name, counting)
    census(*pair)
    cat = load_catalog()
    pairs = [(G1.catalog_id, G0.catalog_id)
             for G1 in cat.groups_of_order(pair[0])
             for G0 in cat.groups_of_order(pair[1])]
    for seen in calls.values():
        assert seen == pairs


def test_census_rejects_an_action_list_not_closed_under_automorphisms(
        monkeypatch):
    module = importlib.import_module("xmodkit.census")
    search = module._action_tables
    monkeypatch.setattr(module, "_action_tables",
                        lambda G0, G1: search(G0, G1)[:-1])
    with pytest.raises(CensusError, match="leaves the action list"):
        census(4, 4)


def test_census_rejects_a_boundary_outside_all_homs(monkeypatch):
    module = importlib.import_module("xmodkit.census")
    monkeypatch.setattr(module, "all_homs", lambda G, H: all_homs(G, H)[:-1])
    with pytest.raises(CensusError, match="not a homomorphism"):
        census(4, 4)


def assert_same_census(fast, n, m):
    # the oracle shares no orbit code with the census: every action
    # scanned, every module built, classes by the key-level union-find
    raw = raw_modules(n, m)
    slow = classify_families(
        reduce_with(union_find_roots(module_keys(raw)), raw, (n, m)))
    assert fast.raw_count == slow.raw_count
    assert fast.class_map == slow.class_map
    assert [serialize_xmod(X) for X in fast.representatives] == [
        serialize_xmod(X) for X in slow.representatives
    ]
    assert fast.families == slow.families


@pytest.mark.parametrize("pair", [
    (2, 2), (4, 4), (8, 4), (9, 9), (12, 12), (20, 20), (2, 16), (16, 2),
])
def test_census_matches_the_raw_path(pair):
    assert_same_census(census(*pair), *pair)


def test_census_matches_the_raw_path_8_8(census88):
    assert_same_census(census88, 8, 8)


def _perfbench_run():
    """perfbench/run.py, whose census_digest (SHA-256 over a census
    directory without meta) the recorded digests were taken with."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


census_digest = _perfbench_run().census_digest
DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "census_digests.json").read_text()
)


def test_census_directories_match_the_recorded_digests(tmp_path, census88):
    """Digests recorded before the census was rebuilt on action orbits:
    every [n, m] with n, m <= 12 that then finished in under 0.5 s, and
    [20,20] and [8,8]."""
    for key, want in DIGESTS.items():
        n, m = map(int, key.split(","))
        result = census88 if (n, m) == (8, 8) else census(n, m)
        save_census(result, tmp_path)
        assert list(result.counts()) == want["counts"], key
        assert census_digest(tmp_path / f"census-{n}-{m}") == want["sha256"], key


def test_stage_progression_and_counts_guard():
    # [2,2]: zero and identity boundary over trivial action, one abelian family
    raw = all_xmods(2, 2)
    assert isinstance(raw, RawKeys) and raw.raw_count == 2
    reduced = reduce_by_isomorphism(raw)
    assert reduced.stage == "representatives"
    with pytest.raises(ValueError):
        reduced.counts()
    finished = classify_families(reduced)
    assert finished.stage == "families"
    assert finished.counts() == (2, 2, 1)


def test_classify_requires_reduction_first():
    with pytest.raises(ValueError):
        classify_families(all_xmods(2, 2))


def test_counts_4_4(finished44):
    assert finished44.counts() == (60, 18, 2)


def test_family_profiles_4_4(finished44):
    abelian, other = finished44.reports
    assert [abelian.member_count, other.member_count] == [10, 8]
    assert abelian.nilpotency_class == 1
    assert abelian.rank == PairValue(1, 1)
    assert abelian.middle_length == PairValue(1, 1)
    assert abelian.central_quotient_size == (1, 1)
    assert abelian.gamma_sizes == ()
    assert other.nilpotency_class == 2
    assert other.rank == PairValue(4, 2)
    assert other.middle_length == PairValue(1, 1)
    assert other.central_quotient_size == (2, 2)
    assert other.gamma_sizes == ((2, 1),)


def test_member_row_builds_the_lower_central_series_once(monkeypatch):
    import xmodkit.invariants as inv
    from xmodkit.census import _member_row

    X = inversion_module_c8()  # four terms: one commutator step for each
    calls = []
    real = inv.relative_commutator

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(inv, "relative_commutator", counting)
    _member_row(X)
    assert len(calls) == len(inv.lower_central_series(X).terms) == 4


def test_census_builds_each_quotient_once(monkeypatch):
    """Representatives on the same catalog groups share the quotient by
    each normal subgroup: one (quotient, projection) per group and members,
    however many central quotients ask for it."""
    import xmodkit.xmods as xm

    built = collections.defaultdict(set)
    calls = []
    real = xm.quotient_group

    def recording(G, N):
        result = real(G, N)
        calls.append(result)  # held, so no id is reused
        built[id(G), N.members].add((id(result[0]), id(result[1])))
        return result

    monkeypatch.setattr(xm, "quotient_group", recording)
    census(12, 12)
    assert len(calls) > len(built)
    assert all(len(objects) == 1 for objects in built.values())


def test_class_map_is_sound_4_4():
    raw = all_xmods(4, 4)
    reduced = reduce_by_isomorphism(raw)
    for i in range(0, raw.raw_count, 7):
        rep = reduced.representatives[reduced.class_map[i]]
        assert first_xmod_iso(raw.build(i), rep)


def assert_orbit_stabilizer(result):
    """Each class is one Aut(G1) x Aut(G0) orbit, so its size in the raw
    set is |Aut G1| |Aut G0| / |Aut X|.  |Aut X| is counted by the
    isomorphism search, independently of the orbit reduction."""
    aut_order = {}
    multiplicity = collections.Counter(result.class_map)
    for r, X in enumerate(result.representatives):
        for G in (X.g1, X.g0):
            if G not in aut_order:
                aut_order[G] = len(all_isos(G, G))
        stabilizer = sum(1 for _ in all_xmod_isos(X, X))
        assert multiplicity[r] * stabilizer == aut_order[X.g1] * aut_order[X.g0]


@pytest.mark.parametrize(
    "pair", [(8, 4), (9, 9), (12, 12), (16, 2), (20, 20), (2, 16)]
)
def test_orbit_stabilizer_certificate(pair):
    assert_orbit_stabilizer(census(*pair))


def test_orbit_stabilizer_certificate_8_8(census88):
    assert_orbit_stabilizer(census88)


def test_orbit_stabilizer_certificate_18_18(census1818):
    assert_orbit_stabilizer(census1818)


def root_scan_hits(pair, monkeypatch):
    """The key of every boundary the scan finds at an orbit's root, in
    scan order."""
    module = importlib.import_module("xmodkit.census")
    hits = []

    def recording(G1, G0, *args):
        found = _stage1_scan(G1, G0, *args)
        hits.extend((G1, G0, d, phi) for phi, d in found)
        return found
    monkeypatch.setattr(module, "_stage1_scan", recording)
    all_xmods(*pair)
    monkeypatch.setattr(module, "_stage1_scan", _stage1_scan)
    return hits


def drop_root_scan_hit(k, monkeypatch):
    """Make the root scan skip its k-th hit, counted over the next
    enumeration."""
    module = importlib.import_module("xmodkit.census")
    count = itertools.count()
    monkeypatch.setattr(module, "_stage1_scan", lambda *args: [
        hit for hit in _stage1_scan(*args) if next(count) != k])


def class_members(raw, roots, key):
    """The keys in the class of `key`, by the key-level union-find
    `roots`."""
    root = roots[raw.keys.index(key)]
    return [other for other, r in zip(raw.keys, roots) if r == root]


def repeats_an_action(members):
    actions = [phi for _, _, _, phi in members]
    return len(set(actions)) < len(actions)


def test_reduction_rejects_raw_set_not_closed_under_automorphisms(
        monkeypatch):
    # the isomorphism reduction's closure check runs in the enumeration's
    # walk: without one root boundary of a class that repeats an action,
    # the carried boundaries are not closed and the census raises
    raw = all_xmods(4, 4)
    roots = union_find_roots(raw.keys)
    hits = root_scan_hits((4, 4), monkeypatch)
    k = next(k for k, key in enumerate(hits)
             if repeats_an_action(class_members(raw, roots, key)))
    drop_root_scan_hit(k, monkeypatch)
    with pytest.raises(CensusError, match="not closed"):
        reduce_by_isomorphism(all_xmods(4, 4))


@pytest.mark.parametrize("pair", [(4, 4), (8, 4)])
def test_reduction_rejects_every_dropped_key_of_a_larger_class(
        pair, monkeypatch):
    # drop each boundary the scan finds at an orbit's root in turn: the
    # carried boundaries stay closed under Aut(G1) x Aut(G0) exactly when
    # the dropped module's class, by the key-level union-find, holds no
    # two keys with the same action; otherwise the class goes whole
    raw = all_xmods(*pair)
    roots = union_find_roots(raw.keys)
    for k, key in enumerate(root_scan_hits(pair, monkeypatch)):
        drop_root_scan_hit(k, monkeypatch)
        members = class_members(raw, roots, key)
        if repeats_an_action(members):
            with pytest.raises(CensusError, match="not closed"):
                reduce_by_isomorphism(all_xmods(*pair))
        else:
            kept = reduce_by_isomorphism(all_xmods(*pair))
            assert kept.raw_count == raw.raw_count - len(members)
            assert len(set(kept.class_map)) == len(set(roots)) - 1


def test_reduction_takes_only_raw_keys():
    built = CensusResult(order_pair=(4, 4), raw_count=60,
                         representatives=raw_modules(4, 4))
    with pytest.raises(TypeError):
        reduce_by_isomorphism(built)


def test_reduction_rejects_a_repeated_key():
    raw = all_xmods(2, 2)
    repeated = RawKeys(order_pair=(2, 2), keys=raw.keys + raw.keys[:1],
                       classes=raw.classes + raw.classes[:1])
    with pytest.raises(CensusError, match="repeats raw module 0"):
        reduce_by_isomorphism(repeated)


def test_reduction_rejects_isomorphic_distinct_groups():
    # orbits of Aut(G1) x Aut(G0) never join modules on different tables
    s3, t3 = symmetric_group(3), relabeled_s3()
    assert s3.mul != t3.mul
    built = [identity_xmod(s3), identity_xmod(t3)]
    raw = RawKeys(order_pair=(6, 6), keys=module_keys(built), classes=[0, 1])
    with pytest.raises(CensusError, match="isomorphic groups"):
        reduce_by_isomorphism(raw)
    assert pairwise_roots(built) == [0, 0]


def test_raw_count_survives_catalog_permutation():
    bundled = load_catalog()
    reversed_four = list(reversed(bundled.entries_of_order(4)))
    shuffled = GroupCatalog("perm-test", reversed_four)
    assert all_xmods(4, 4, catalog=shuffled).raw_count == 60


def test_missing_order_pair_raises():
    with pytest.raises(ValueError):
        all_xmods(4, 25)


def test_validate_rejects_broken_class_map(finished44):
    broken = CensusResult(
        order_pair=(4, 4),
        raw_count=60,
        representatives=list(finished44.representatives),
        class_map=(0,) * 60,
    )
    with pytest.raises(CensusError):
        broken.validate()


def test_validate_rejects_non_partition(finished44):
    broken = CensusResult(
        order_pair=(4, 4),
        raw_count=60,
        representatives=list(finished44.representatives),
        class_map=finished44.class_map,
        families=[tuple(range(18)), (0,)],
        reports=list(finished44.reports),
    )
    with pytest.raises(CensusError):
        broken.validate()


def test_persistence_round_trip(tmp_path, finished44):
    save_census(finished44, tmp_path)
    loaded = load_census(tmp_path, 4, 4)
    assert loaded is not None
    assert loaded.counts() == finished44.counts()
    assert loaded.class_map is None
    assert loaded.families == finished44.families
    assert loaded.reports == finished44.reports
    assert [serialize_xmod(x) for x in loaded.representatives] == [
        serialize_xmod(x) for x in finished44.representatives
    ]


def test_census_cache_hit_and_rebuild(tmp_path):
    first = census(4, 4, cache_dir=tmp_path)
    assert first.class_map is not None  # freshly built
    second = census(4, 4, cache_dir=tmp_path)
    assert second.class_map is None  # served from the cache
    assert second.counts() == first.counts()

    # stale engine version must force a rebuild, not an error
    meta = tmp_path / "census-4-4" / "meta"
    meta.write_text(meta.read_text().replace("engine ", "engine stale-"))
    assert load_census(tmp_path, 4, 4) is None
    rebuilt = census(4, 4, cache_dir=tmp_path)
    assert rebuilt.class_map is not None
    assert census(4, 4, cache_dir=tmp_path).class_map is None


def test_damaged_cache_loads_as_none(tmp_path, finished44):
    save_census(finished44, tmp_path)
    (tmp_path / "census-4-4" / "reps" / "00003.xmod").write_text("garbage\n")
    assert load_census(tmp_path, 4, 4) is None
    (tmp_path / "census-4-4" / "report").unlink()
    assert load_census(tmp_path, 4, 4) is None


def test_save_refuses_unfinished(tmp_path):
    with pytest.raises(ValueError):
        save_census(all_xmods(1, 1), tmp_path)


def test_census_directory_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    census(4, 4, cache_dir=a)
    census(4, 4, cache_dir=b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_group_census_order_8():
    rows = group_census(8)
    assert [r.member_count for r in rows] == [3, 2]
    abelian, dihedral = rows
    assert set(abelian.member_ids) == {"8:1", "8:2", "8:5"}
    assert abelian.rank.order == 1 and abelian.middle_length.order == 1
    assert abelian.nilpotency_class == 1
    assert abelian.quotient_id == "1:1"
    assert abelian.gamma_ids == ()
    assert set(dihedral.member_ids) == {"8:3", "8:4"}
    assert dihedral.representative_id == "8:3"
    assert dihedral.rank.order == 8 and dihedral.middle_length.order == 1
    assert dihedral.nilpotency_class == 2
    assert dihedral.quotient_id == "4:2"
    assert dihedral.gamma_ids == ("2:1",)


def test_group_census_order_1():
    rows = group_census(1)
    assert len(rows) == 1 and rows[0].member_ids == ("1:1",)


def test_group_census_unknown_order():
    with pytest.raises(ValueError):
        group_census(25)


def test_one_aut_index_per_automorphism_list(monkeypatch):
    # automorphism_generators, automorphism_group and the census's action
    # search all read the group's one table -> position index of its
    # automorphism list; none builds a copy of its own
    G = FiniteGroup(catalog_group(8, 3).mul, catalog_id=(8, 3))  # nothing cached
    reads, table_indexes = [], []

    def spy(H):
        reads.append(_aut_index(H))
        return reads[-1]

    cayley = groups._cayley_table

    def cayley_spy(elements, index, op):
        table_indexes.append(index)
        return cayley(elements, index, op)

    monkeypatch.setattr(groups, "_aut_index", spy)
    # the census module, not the census function xmodkit exports
    monkeypatch.setattr(importlib.import_module("xmodkit.census"), "_aut_index", spy)
    monkeypatch.setattr(groups, "_cayley_table", cayley_spy)
    for consumer in (lambda: automorphism_generators(G),
                     lambda: automorphism_group(G),
                     lambda: _action_tables(cyclic_group(2), G)):
        before = len(reads)
        consumer()
        assert len(reads) > before
    assert all(index is reads[0] for index in reads)
    assert table_indexes == [reads[0]]
    assert [v for v in G._cache.values() if isinstance(v, dict)] == [reads[0]]
