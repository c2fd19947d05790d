"""Crossed-module core tests: axioms, constructions, subobjects,
quotients, isomorphism search, serialization."""

import pytest

from helpers import (
    all_pairs_is_normal_subxmod,
    first_xmod_iso,
    intersection,
    inversion_module_c8,
    multiplier_module_c8,
)
from xmodkit.catalog import catalog_group
from xmodkit.groups import (
    GroupHom,
    abelian_group,
    Subgroup,
    center,
    compose_perms,
    cyclic_group,
    derived_subgroup,
    full_subgroup,
    generating_sequence,
    group_from_generators,
    identity_hom,
    subgroup_generated,
    symmetric_group,
)
from xmodkit.xmods import (
    CrossedModule,
    SubXMod,
    XModAxiomError,
    XModMorphism,
    all_xmod_isos,
    full_subxmod,
    identity_morphism,
    identity_xmod,
    image,
    inclusion_xmod,
    is_isomorphic_xmod,
    is_normal_subxmod,
    kernel,
    make_xmod,
    module_xmod,
    parse_xmod,
    product,
    quotient_xmod,
    serialize_xmod,
    sub_xmod,
    trivial_subxmod,
    xmod_automorphism_group,
    xmod_fingerprint,
)


# --- axioms and error codes ---


def test_axiom_code_action_not_automorphic():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(XModAxiomError) as err:
        make_xmod(c4, c2, (0, 0, 0, 0), [(0, 1, 2, 3), (0, 0, 0, 0)])
    assert err.value.code == "action-not-automorphic"
    assert err.value.witness[0] == 1


def test_axiom_code_action_not_homomorphic():
    c4 = cyclic_group(4)
    ident = (0, 1, 2, 3)
    inv = (0, 3, 2, 1)
    with pytest.raises(XModAxiomError) as err:
        make_xmod(c4, c4, (0, 0, 0, 0), [ident, inv, ident, ident])
    assert err.value.code == "action-not-homomorphic"


def test_axiom_code_cm1():
    c3, s3 = cyclic_group(3), symmetric_group(3)
    three = next(g for g in s3.elements if s3.elem_order[g] == 3)
    embed = (0, three, s3.mul[three][three])
    trivial = [tuple(range(3))] * 6
    with pytest.raises(XModAxiomError) as err:
        make_xmod(c3, s3, embed, trivial)
    assert err.value.code == "cm1"


def test_axiom_code_cm2():
    with pytest.raises(XModAxiomError) as err:
        module_xmod(symmetric_group(3), cyclic_group(1))
    assert err.value.code == "cm2"
    assert len(err.value.witness) == 2


def test_row_check_skips_only_rows_already_verified_on_the_group():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    make_xmod(c4, c2, (0, 0, 0, 0), [(0, 1, 2, 3), (0, 3, 2, 1)])
    with pytest.raises(XModAxiomError) as err:
        make_xmod(c4, c2, (0, 0, 0, 0), [(0, 1, 2, 3), (0, 2, 1, 3)])
    assert err.value.code == "action-not-automorphic"
    assert err.value.witness[0] == 1


def test_axiom_witnesses_are_first_failures_in_scan_order():
    # the checks compare whole tables at a time; the witness must still be
    # the first failing pair, scanning the definition's quantifiers in order
    c4 = cyclic_group(4)
    ident, inv = (0, 1, 2, 3), (0, 3, 2, 1)
    act = [ident, inv, ident, ident]
    with pytest.raises(XModAxiomError) as err:
        make_xmod(c4, c4, (0, 0, 0, 0), act)
    assert err.value.witness == next(
        (x, y) for x in range(4) for y in range(4)
        if act[c4.mul[x][y]] != tuple(act[x][v] for v in act[y]))

    c3, s3 = cyclic_group(3), symmetric_group(3)
    three = next(g for g in s3.elements if s3.elem_order[g] == 3)
    embed = (0, three, s3.mul[three][three])
    trivial = [tuple(range(3))] * 6
    with pytest.raises(XModAxiomError) as err:
        make_xmod(c3, s3, embed, trivial)
    assert err.value.witness == next(
        (x, a) for x in s3.elements for a in c3.elements
        if embed[trivial[x][a]] != s3.conj(x, embed[a]))

    with pytest.raises(XModAxiomError) as err:
        module_xmod(s3, cyclic_group(1))
    assert err.value.witness == next(
        (a, b) for a in s3.elements for b in s3.elements
        if b != s3.conj(a, b))

    # the action laws are accepted on generators; a failure must still
    # report the first failing pair of the full scan, here not a generator
    # pair
    c5 = cyclic_group(5)
    assert generating_sequence(c4) == [1] and generating_sequence(c5) == [1]
    times = [tuple((k * a) % 5 for a in range(5)) for k in (1, 2, 4, 1)]
    with pytest.raises(XModAxiomError) as err:
        module_xmod(c5, c4, times)
    assert err.value.code == "action-not-homomorphic"
    first = next(
        (x, y) for x in range(4) for y in range(4)
        if times[c4.mul[x][y]] != tuple(times[x][v] for v in times[y]))
    assert first == (1, 2) and err.value.witness == first

    row = (0, 1, 2, 4, 3)  # a bijection fixing 0, not additive
    with pytest.raises(XModAxiomError) as err:
        module_xmod(c5, cyclic_group(2), [tuple(range(5)), row])
    assert err.value.code == "action-not-automorphic"
    first = next(
        (a, b) for a in range(5) for b in range(5)
        if row[c5.mul[a][b]] != c5.mul[row[a]][row[b]])
    assert first == (1, 2) and err.value.witness == (1, first)


def test_xmod_automorphism_group_table_against_brute_force():
    from xmodkit.census import all_xmods, reduce_by_isomorphism

    orders = []
    for n, m in ((4, 4), (8, 4)):
        for X in reduce_by_isomorphism(all_xmods(n, m)).representatives:
            aut, auts = xmod_automorphism_group(X)
            pairs = [(f.alpha.image_of, f.beta.image_of) for f in auts]
            index = {p: i for i, p in enumerate(pairs)}
            # rows above order 256 are 2-byte arrays; compare entries
            assert tuple(map(tuple, aut.mul)) == tuple(
                tuple(
                    index[(compose_perms(fa, ga), compose_perms(fb, gb))]
                    for ga, gb in pairs
                )
                for fa, fb in pairs
            )
            orders.append(aut.order)
    assert max(orders) == 1008


def test_large_automorphism_groups_keep_2_byte_rows():
    """Tables above order 256 store 2-byte rows; a group built from the
    same table as nested lists gets the same rows, so it is equal and
    hashes alike, and the actor over such a range hashes too."""
    from array import array

    from xmodkit.census import census
    from xmodkit.derivations import actor
    from xmodkit.groups import FiniteGroup, automorphism_group

    reps = census(8, 4).representatives
    small = xmod_automorphism_group(reps[32])[0]
    assert small.order == 48 and type(small.mul[0]) is tuple
    large = [xmod_automorphism_group(reps[r])[0] for r in (49, 55)]
    large.append(automorphism_group(catalog_group(18, 4))[0])
    assert [G.order for G in large] == [336, 1008, 432]
    for G in large:
        assert all(type(row) is array and row.typecode == "H"
                   for row in G.mul)
        again = FiniteGroup([list(row) for row in G.mul])
        assert type(again.mul[0]) is array
        assert again == G and hash(again) == hash(G)
    act = actor(reps[55]).xmod
    assert act.g0 is large[1]
    copy = parse_xmod(serialize_xmod(act))
    assert copy == act and hash(copy) == hash(act)


def test_2_byte_rows_are_allocated_to_size():
    """An array read from bytes is allocated 1/16 too long; the rows of a
    large table, built or converted, hold no unused entries."""
    import sys
    from array import array

    from xmodkit.census import census
    from xmodkit.groups import FiniteGroup

    aut = xmod_automorphism_group(census(8, 4).representatives[55])[0]
    again = FiniteGroup([list(row) for row in aut.mul])
    for G in (aut, again):
        assert all(sys.getsizeof(row) == sys.getsizeof(array("H", row))
                   for row in G.mul)


@pytest.mark.parametrize("n, m", [(4, 4), (6, 6), (8, 4)])
def test_automorphism_list_is_all_xmod_isos_in_order(n, m):
    """xmod_automorphism_group builds Aut(X) from kernel cosets; its list
    must be all_xmod_isos(X, X), the search over every beta, in order."""
    from xmodkit.census import all_xmods, reduce_by_isomorphism

    sizes = []
    for X in reduce_by_isomorphism(all_xmods(n, m)).representatives:
        got = [(f.alpha.image_of, f.beta.image_of)
               for f in xmod_automorphism_group(X)[1]]
        want = [(f.alpha.image_of, f.beta.image_of)
                for f in all_xmod_isos(X, X)]
        assert got == want
        sizes.append(len(got))
    if (n, m) == (8, 4):
        assert max(sizes) == 1008


def test_self_isomorphisms_match_full_table_filter():
    """all_xmod_isos(X, X) checks equivariance on generators of g0 only;
    as a set it equals every pair in Aut(G1) x Aut(G0) that passes the
    boundary square and equivariance at every element."""
    from xmodkit.census import all_xmods, reduce_by_isomorphism
    from xmodkit.groups import automorphisms

    for n, m in ((4, 4), (8, 4)):
        for X in reduce_by_isomorphism(all_xmods(n, m)).representatives:
            d, act = X.boundary.image_of, X.action
            expected = set()
            for alpha in automorphisms(X.g1):
                a = alpha.image_of
                for beta in automorphisms(X.g0):
                    b = beta.image_of
                    if all(d[a[y]] == b[d[y]] for y in X.g1.elements) and all(
                        a[act[x][y]] == act[b[x]][a[y]]
                        for x in X.g0.elements
                        for y in X.g1.elements
                    ):
                        expected.add((a, b))
            found = [
                (f.alpha.image_of, f.beta.image_of)
                for f in all_xmod_isos(X, X)
            ]
            assert len(found) == len(set(found))
            assert set(found) == expected


def test_cm1_witness_after_the_first_generator():
    # a valid action makes CM1 hold on a subgroup, so its first failure in
    # scan order is at a generator; here the second one, with a > 1
    k4 = abelian_group([2, 2])
    assert generating_sequence(k4) == [1, 2]
    ident, swap = (0, 1, 2, 3), (0, 1, 3, 2)
    act = [ident, ident, swap, swap]
    with pytest.raises(XModAxiomError) as err:
        make_xmod(k4, k4, ident, act)
    assert err.value.code == "cm1"
    assert err.value.witness == (2, 2) == next(
        (x, a) for x in k4.elements for a in k4.elements
        if act[x][a] != k4.conj(x, a))


def test_action_checks_run_before_cm1():
    # CM1 holds at the only generator of C4 and fails at x = 2, but the
    # action is not a homomorphism, and that check runs first
    c4 = cyclic_group(4)
    assert generating_sequence(c4) == [1]
    ident, inv = (0, 1, 2, 3), (0, 3, 2, 1)
    act = [ident, ident, inv, ident]
    with pytest.raises(XModAxiomError) as err:
        CrossedModule(c4, c4, identity_hom(c4), act)
    assert err.value.code == "action-not-homomorphic"


def test_action_shape_checked():
    c2 = cyclic_group(2)
    with pytest.raises(ValueError):
        make_xmod(c2, c2, (0, 0), [(0, 1)])


# --- standard constructions ---


def test_identity_xmod():
    d8 = catalog_group(8, 3)
    x = identity_xmod(d8)
    assert x.order() == (8, 8)
    assert x.boundary.image_of == tuple(range(8))


def test_inclusion_xmod():
    a4 = catalog_group(12, 3)
    kl4 = derived_subgroup(a4)
    x = inclusion_xmod(a4, kl4)
    assert x.order() == (4, 12)
    # boundary embeds the subgroup
    assert [x.boundary(i) for i in range(4)] == list(kl4.members)
    s3 = symmetric_group(3)
    t = next(g for g in s3.elements if s3.elem_order[g] == 2)
    with pytest.raises(ValueError):
        inclusion_xmod(s3, subgroup_generated(s3, [t]))


def test_module_xmod():
    x = inversion_module_c8()
    assert x.order() == (8, 2)
    assert x.act(1, 3) == 5
    trivial = module_xmod(cyclic_group(4), cyclic_group(2))
    assert trivial.act(1, 3) == 3


# --- subobjects and quotients ---


def test_sub_and_normal_subxmod():
    d8 = catalog_group(8, 3)
    x = identity_xmod(d8)
    z = center(d8)
    s = sub_xmod(x, z.members, z.members)
    assert s.order == (2, 2)
    assert is_normal_subxmod(x, s)

    refl = next(g for g in d8.elements
                if d8.elem_order[g] == 2 and g not in center(d8).member_set)
    tiny = sub_xmod(x, (0, refl), (0, refl))
    assert not is_normal_subxmod(x, tiny)
    with pytest.raises(ValueError):
        sub_xmod(x, (0, refl), d8.elements)  # not closed under conjugation

    assert full_subxmod(x).is_full()
    assert trivial_subxmod(x).is_trivial()


@pytest.mark.parametrize("pair", [(4, 4), (8, 4), (12, 12), (20, 20)])
def test_normality_on_generators_matches_all_pairs(pair):
    """is_normal_subxmod checks generators only; the all-pairs oracle must
    agree on every centre, derived and lower-central term of each
    representative, and on pairs of cyclic subgroups (<a> -> <x>), most
    of them not normal: every pair at [4,4] and [8,4], and (<a> -> 1)
    and (1 -> <x>) at [12,12] and [20,20]."""
    from xmodkit.census import census
    from xmodkit.invariants import center_xmod, derived_subxmod, lower_central_series

    seen = set()
    for X in census(*pair).representatives:
        for S in (center_xmod(X), derived_subxmod(X),
                  *lower_central_series(X).terms):
            assert is_normal_subxmod(X, S) and all_pairs_is_normal_subxmod(X, S)
        cyclic1 = [subgroup_generated(X.g1, [a]) for a in X.g1.elements]
        cyclic0 = [subgroup_generated(X.g0, [x]) for x in X.g0.elements]
        if pair in ((4, 4), (8, 4)):
            levels = [(s1, s0) for s1 in cyclic1 for s0 in cyclic0]
        else:
            levels = [(s1, cyclic0[0]) for s1 in cyclic1]
            levels += [(cyclic1[0], s0) for s0 in cyclic0]
        for s1, s0 in levels:
            # fresh subgroups, so no cached normality is read
            S = SubXMod(X, Subgroup(X.g1, s1.members, check=False),
                        Subgroup(X.g0, s0.members, check=False))
            want = all_pairs_is_normal_subxmod(X, S)
            assert is_normal_subxmod(X, S) == want, (s1.members, s0.members)
            seen.add(want)
    assert seen == {True, False}


def test_quotient_xmod():
    d8 = catalog_group(8, 3)
    x = identity_xmod(d8)
    z = center(d8)
    s = sub_xmod(x, z.members, z.members)
    q, proj = quotient_xmod(x, s)
    assert q.order() == (4, 4)
    # revalidate the projection morphism from scratch
    XModMorphism(x, q, proj.alpha, proj.beta, check=True)
    assert kernel(proj) == s
    assert image(proj).is_full()

    refl = next(g for g in d8.elements
                if d8.elem_order[g] == 2 and g not in z.member_set)
    with pytest.raises(ValueError):
        quotient_xmod(x, sub_xmod(x, (0, refl), (0, refl)))


def test_intersection_and_product():
    d8 = catalog_group(8, 3)
    x = identity_xmod(d8)
    rot = subgroup_generated(
        d8, [next(g for g in d8.elements if d8.elem_order[g] == 4)])
    h = sub_xmod(x, rot.members, d8.elements)
    k = sub_xmod(x, center(d8).members, center(d8).members)
    both = intersection(h, k)
    assert both.order == (2, 2)
    prod = product(h, k)
    assert prod.order == (4, 8)
    refl = next(g for g in d8.elements
                if d8.elem_order[g] == 2 and g not in center(d8).member_set)
    with pytest.raises(ValueError):
        product(k, sub_xmod(x, (0, refl), (0, refl)))


def test_morphism_validation():
    c4 = cyclic_group(4)
    x = identity_xmod(c4)
    with pytest.raises(ValueError):
        # collapsing the range breaks the boundary square
        XModMorphism(x, x, GroupHom(c4, c4, (0, 1, 2, 3)),
                     GroupHom(c4, c4, (0, 0, 0, 0)), check=True)
    ident = identity_morphism(x)
    assert ident.is_iso()


# --- isomorphism ---


def test_isomorphic_relabeled_identity_xmods():
    s3a = symmetric_group(3)
    s3b = group_from_generators([(1, 0, 2), (1, 2, 0)])
    assert s3a.mul != s3b.mul  # genuinely different labelings
    xa, xb = identity_xmod(s3a), identity_xmod(s3b)
    w = is_isomorphic_xmod(xa, xb)
    assert w is not None
    XModMorphism(xa, xb, w.alpha, w.beta, check=True)
    assert w.is_iso()


def test_non_isomorphic_same_fingerprint():
    x = inversion_module_c8()
    y = multiplier_module_c8(3)
    assert xmod_fingerprint(x) == xmod_fingerprint(y)
    assert is_isomorphic_xmod(x, y) is None
    assert first_xmod_iso(x, y) is None


def test_non_isomorphic_fast_reject():
    a = module_xmod(cyclic_group(4), cyclic_group(2))
    b = module_xmod(group_from_generators([(1, 0, 3, 2), (2, 3, 0, 1)]),
                    cyclic_group(2))
    assert xmod_fingerprint(a) != xmod_fingerprint(b)
    assert is_isomorphic_xmod(a, b) is None
    assert first_xmod_iso(a, b) is None


def test_self_isomorphism_identity_first():
    x = identity_xmod(symmetric_group(3))
    isos = list(all_xmod_isos(x, x))
    assert isos[0] == identity_morphism(x)
    seen = {(f.alpha.image_of, f.beta.image_of) for f in isos}
    assert len(seen) == len(isos)
    aut, auts = xmod_automorphism_group(x)
    assert aut.order == 6
    assert not aut.is_abelian()


def test_self_isomorphisms_reuse_the_automorphism_list(monkeypatch):
    import xmodkit.xmods as xmods_module

    def refuse(*_):
        raise AssertionError("Aut(G0) searched again")

    monkeypatch.setattr(xmods_module, "_iter_isos", refuse)
    x = identity_xmod(catalog_group(8, 3))
    assert sum(1 for _ in all_xmod_isos(x, x)) == 8


def test_automorphism_table_too_large_fails_fast(census88):
    """[8,8] representative 282 has |Aut X| = 28224, a 797 M-entry Cayley
    table; the cap refuses it from the automorphism list, in well under a
    second, while 2304, the largest |Aut X| at [9,9], is admitted."""
    import time

    from xmodkit.groups import CapExceededError
    from xmodkit.groups import TABLE_CAP

    assert 2304 <= TABLE_CAP < 28224
    X = census88.representatives[282]
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="28224"):
        xmod_automorphism_group(X)
    assert time.perf_counter() - start < 1.0


def test_identity_module_built_once_per_group():
    G = catalog_group(8, 3)
    assert identity_xmod(G) is identity_xmod(G)


def test_module_xmod_automorphisms():
    x = module_xmod(cyclic_group(4), cyclic_group(1))
    aut, auts = xmod_automorphism_group(x)
    assert aut.order == 2


# --- serialization ---


def test_serialize_catalog_backed():
    x = identity_xmod(catalog_group(8, 4))
    text = serialize_xmod(x)
    assert text.splitlines()[0] == "xmod v1"
    assert "g1 catalog 8 4" in text
    y = parse_xmod(text)
    assert y == x
    assert serialize_xmod(y) == text


def test_serialize_raw_tables():
    x = inversion_module_c8()
    text = serialize_xmod(x)
    assert "g1 table 8" in text
    y = parse_xmod(text)
    assert y == x
    assert hash(y) == hash(x)
    assert serialize_xmod(y) == text


def test_parse_rejects_bad_input():
    x = identity_xmod(catalog_group(4, 2))
    text = serialize_xmod(x)
    with pytest.raises(ValueError):
        parse_xmod(text.replace("xmod v1", "xmod v9"))
    with pytest.raises(ValueError):
        parse_xmod("group v1\n")
    with pytest.raises(ValueError):
        parse_xmod("\n".join(text.splitlines()[:-2]))
    # a token of an action row that is not an integer
    with pytest.raises(ValueError, match="invalid literal"):
        parse_xmod(text.replace("action\n  0 1 2 3\n", "action\n  0 1 b 3\n", 1))
    # tampered action must fail validation
    bad = text.replace("action\n  0 1 2 3\n", "action\n  0 1 3 2\n", 1)
    if bad != text:
        with pytest.raises((ValueError, XModAxiomError)):
            parse_xmod(bad)


def test_round_trip_various():
    a4 = catalog_group(12, 3)
    for x in (
        identity_xmod(catalog_group(6, 1)),
        inclusion_xmod(a4, derived_subgroup(a4)),
        module_xmod(cyclic_group(4), cyclic_group(2)),
        inversion_module_c8(),
    ):
        text = serialize_xmod(x)
        assert parse_xmod(text) == x
        assert serialize_xmod(parse_xmod(text)) == text


def test_sub_xmod_takes_subgroups_of_an_equal_group():
    x, y = inversion_module_c8(), inversion_module_c8()
    assert x.g1 is not y.g1 and x.g1.mul == y.g1.mul
    s = sub_xmod(x, full_subgroup(y.g1), full_subgroup(y.g0))
    assert s.s1.parent is x.g1 and s.s0.parent is x.g0
    assert s.is_full()
    with pytest.raises(ValueError, match="not closed"):  # checked again
        sub_xmod(x, Subgroup(y.g1, (0, 1), check=False), (0,))
    c2 = cyclic_group(2)
    with pytest.raises(ValueError, match="different group"):
        sub_xmod(x, full_subgroup(symmetric_group(3)), full_subgroup(c2))
