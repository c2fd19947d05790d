"""Oracle tests for derivations, Whitehead groups and actors.

Brute-force baselines:

* identity crossed module on S3: derivations correspond to group
  endomorphisms (10 of them, 6 regular), checked against a full scan of
  all 6^6 maps;
* trivial action and zero boundary degenerate the derivation law to
  multiplicativity, so derivations coincide with group homomorphisms;
* the C8-over-C2 inversion module has 8 derivations forming a cyclic
  Whitehead group, an all-zero actor boundary and an order-(4, 2)
  inner actor.
"""

import itertools
import time
from array import array

import pytest

from helpers import inversion_module_c8, zero_derivation

from xmodkit.derivations import (
    ActorXMod,
    Derivation,
    actor,
    all_derivations,
    canonical_morphism,
    circle_product,
    class_preserving_actor,
    class_preserving_auts,
    class_preserving_derivations,
    inner_actor,
    whitehead_group,
)
from xmodkit.census import all_xmods, reduce_by_isomorphism
from xmodkit.groups import (
    CapExceededError,
    abelian_group,
    all_homs,
    cyclic_group,
    dihedral_group,
    first_iso,
    generating_sequence,
    symmetric_group,
)
from xmodkit.xmods import (
    identity_xmod,
    make_xmod,
    is_isomorphic_xmod,
    module_xmod,
)


def brute_derivations(X):
    """All of |g1|^|g0| tables filtered by the derivation law."""
    mul0, mul1, act = X.g0.mul, X.g1.mul, X.action
    found = []
    for img in itertools.product(X.g1.elements, repeat=X.g0.order):
        if all(
            img[mul0[x][y]] == mul1[img[x]][act[x][img[y]]]
            for x in X.g0.elements
            for y in X.g0.elements
        ):
            found.append(img)
    return found


def test_trivial_xmod_has_only_zero_derivation():
    x = module_xmod(cyclic_group(1), cyclic_group(1))
    monoid = all_derivations(x)
    assert len(monoid) == 1
    assert monoid.unit.is_zero()
    assert whitehead_group(x).order == 1
    assert actor(x).xmod.order() == (1, 1)


def test_trivial_action_zero_boundary_gives_homs():
    x = module_xmod(cyclic_group(4), abelian_group([2, 2]))
    monoid = all_derivations(x)
    homs = all_homs(x.g0, x.g1)
    assert {d.image_of for d in monoid.elements} == {
        h.image_of for h in homs
    }
    assert len(monoid) == 4
    # pointwise products of homs into an abelian group are all invertible
    assert whitehead_group(x).order == 4


def test_identity_s3_derivations_match_brute_force():
    x = identity_xmod(symmetric_group(3))
    monoid = all_derivations(x)
    assert sorted(d.image_of for d in monoid.elements) == sorted(
        brute_derivations(x)
    )
    assert len(monoid) == 10
    w = whitehead_group(x)
    assert w.order == 6
    # carrier is Aut(S3), isomorphic to S3 itself
    assert first_iso(w.carrier, symmetric_group(3)) is not None


def test_units_match_brute_invertibility_scan():
    x = identity_xmod(symmetric_group(3))
    monoid = all_derivations(x)
    n = len(monoid)
    brute_units = {
        i
        for i in range(n)
        if any(
            monoid.op[i][j] == 0 and monoid.op[j][i] == 0 for j in range(n)
        )
    }
    assert set(monoid.unit_indices()) == brute_units
    members = {
        monoid.index_of(d)
        for d in whitehead_group(x).member_derivations
    }
    assert members == brute_units


def test_monoid_is_associative_with_zero_unit():
    for x in (identity_xmod(symmetric_group(3)), inversion_module_c8()):
        t = all_derivations(x).op
        n = len(t)
        assert all(t[0][j] == j and t[j][0] == j for j in range(n))
        assert all(
            t[t[i][j]][k] == t[i][t[j][k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


def _representatives(n, m):
    return reduce_by_isomorphism(all_xmods(n, m)).representatives


def brute_generator_derivations(X):
    """Every assignment of g1 elements to the generators of g0, extended
    by d(x s) = d(x) * ^x d(s) and kept when Derivation's full check of
    the law passes."""
    mul0, mul1, act = X.g0.mul, X.g1.mul, X.action
    gens = generating_sequence(X.g0)
    found = []
    for values in itertools.product(X.g1.elements, repeat=len(gens)):
        table = {X.g0.identity: X.g1.identity}
        queue = [X.g0.identity]
        for x in queue:
            for s, v in zip(gens, values):
                xs = mul0[x][s]
                if xs not in table:
                    table[xs] = mul1[table[x]][act[x][v]]
                    queue.append(xs)
        image_of = tuple(table[x] for x in X.g0.elements)
        try:
            Derivation(X, image_of, check=True)
        except ValueError:
            continue
        found.append(image_of)
    return found


def test_derivations_of_census_representatives_match_brute_force():
    for n, m in ((4, 4), (8, 4), (6, 6)):
        for X in _representatives(n, m):
            tables = [d.image_of for d in all_derivations(X).elements]
            assert tables[0] == (X.g1.identity,) * X.g0.order
            assert sorted(tables) == sorted(brute_generator_derivations(X))


def test_circle_product_agrees_with_table():
    modules = [inversion_module_c8()]
    modules += _representatives(4, 4) + _representatives(8, 4)
    for x in modules:
        monoid = all_derivations(x)
        assert zero_derivation(x) == monoid.unit
        for i, d1 in enumerate(monoid.elements):
            for j, d2 in enumerate(monoid.elements):
                assert (
                    circle_product(d1, d2).image_of
                    == monoid.elements[monoid.op[i][j]].image_of
                )


def test_inversion_module_whitehead_and_actor():
    x = inversion_module_c8()
    monoid = all_derivations(x)
    assert len(monoid) == 8
    w = whitehead_group(x)
    assert w.order == 8
    assert 8 in w.carrier.elem_order  # cyclic
    act_x = actor(x)
    assert isinstance(act_x, ActorXMod)
    assert act_x.xmod.order() == (8, 4)
    # zero boundary on the source side forces the trivial automorphism
    assert set(act_x.xmod.boundary.image_of) == {0}
    # revalidate the actor axioms from scratch
    make_xmod(
        act_x.xmod.g1,
        act_x.xmod.g0,
        act_x.xmod.boundary.image_of,
        act_x.xmod.action,
    )


def test_actor_action_is_alpha_der_beta_inverse():
    # the actor computes the rows of generators of Aut(X) and composes the
    # rest; every row must still be alpha o der o beta^-1
    modules = [inversion_module_c8()]
    modules += _representatives(4, 4) + _representatives(8, 4)
    for x in modules:
        act_x = actor(x)
        auts = act_x.xmod.g0
        for j, m in enumerate(act_x.automorphisms):
            alpha = m.alpha.image_of
            beta_inv = act_x.automorphisms[auts.inv[j]].beta.image_of
            for k, der in enumerate(act_x.derivations):
                moved = tuple(
                    alpha[der.image_of[beta_inv[t]]] for t in x.g0.elements
                )
                target = act_x.derivations[act_x.xmod.action[j][k]]
                assert moved == target.image_of


def test_canonical_morphism_and_inner_actor():
    for x in (identity_xmod(dihedral_group(4)), inversion_module_c8()):
        morphism = canonical_morphism(x)  # validates on construction
        assert morphism.source is x
        inner = inner_actor(x)
        assert set(morphism.alpha.image_of) == inner.s1.member_set
        assert set(morphism.beta.image_of) == inner.s0.member_set
    assert inner_actor(inversion_module_c8()).order == (4, 2)
    # inner actor of the D8 identity: D8/Z(D8) on both levels
    assert inner_actor(identity_xmod(dihedral_group(4))).order == (4, 4)


def test_class_preserving_subgroups():
    x = identity_xmod(dihedral_group(4))
    dc = class_preserving_derivations(x)  # Subgroup re-checks axioms
    ac = class_preserving_auts(x)
    assert dc.order == 4
    # conjugation pairs biject with inner automorphisms
    assert ac.order == 4
    w = whitehead_group(x)
    der_of = {d.image_of: k for k, d in enumerate(w.member_derivations)}
    mul1, inv1, act = x.g1.mul, x.g1.inv, x.action
    for a in x.g1.elements:
        table_a = tuple(
            mul1[a][act[t][inv1[a]]] for t in x.g0.elements
        )
        assert der_of[table_a] in dc.member_set
        # circle(inner a, inner b) is inner with witness a*b
        for b in x.g1.elements:
            table_b = tuple(
                mul1[b][act[t][inv1[b]]] for t in x.g0.elements
            )
            table_ab = tuple(
                mul1[mul1[a][b]][act[t][inv1[mul1[a][b]]]]
                for t in x.g0.elements
            )
            da = w.member_derivations[der_of[table_a]]
            db = w.member_derivations[der_of[table_b]]
            assert circle_product(da, db).image_of == table_ab


def test_class_preserving_actor_matches_inner_actor():
    for x in (identity_xmod(dihedral_group(4)), inversion_module_c8()):
        restricted = class_preserving_actor(x)
        inner = inner_actor(x)
        assert restricted.xmod.order() == inner.order
        dc = class_preserving_derivations(x)
        ac = class_preserving_auts(x)
        assert dc.members == inner.s1.members
        assert ac.members == inner.s0.members


def test_isoclinic_identity_xmods_same_class_preserving_actor():
    kl4 = identity_xmod(abelian_group([2, 2]))
    c32 = identity_xmod(cyclic_group(32))
    act_kl4 = actor(kl4)
    act_c32 = actor(c32)
    assert act_kl4.xmod.order() == (6, 6)
    assert act_c32.xmod.order() == (16, 16)
    assert is_isomorphic_xmod(act_kl4.xmod, act_c32.xmod) is None
    small = class_preserving_actor(kl4)
    large = class_preserving_actor(c32)
    assert small.xmod.order() == (1, 1)
    assert large.xmod.order() == (1, 1)
    assert is_isomorphic_xmod(small.xmod, large.xmod) is not None


def test_derivation_validation_and_cap():
    x = inversion_module_c8()
    with pytest.raises(ValueError):
        Derivation(x, (1,) * 2)  # misses the law at (1, 1)
    with pytest.raises(ValueError):
        Derivation(x, (0,))  # wrong length
    # no level order is capped: the trivial module over C25 has one
    # derivation, and its actor's range is Aut(C25), of order 20
    c25 = module_xmod(cyclic_group(1), cyclic_group(25))
    assert len(all_derivations(c25)) == 1
    assert actor(c25).xmod.order() == (1, 20)
    # 2048 derivations fit the cap of 3000: a circle-product table of 4 M
    # entries in 2-byte rows
    x = identity_xmod(abelian_group([2, 2, 8]))
    monoid = all_derivations(x)
    assert len(monoid) == 2048
    assert monoid.op[0] == array("H", range(2048))
    assert actor(x).xmod.order() == (384, 384)


def test_derivation_monoid_too_large_to_tabulate_fails_fast():
    # with the trivial action the derivations are the 2^16 homomorphisms
    # C2^4 -> C2^4, whose circle-product table would have 2^32 entries
    c2_4 = abelian_group([2, 2, 2, 2])
    x = module_xmod(c2_4, c2_4)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="more than 3000 derivations"):
        all_derivations(x)
    assert time.perf_counter() - start < 1.0
    assert all_derivations not in x._cache
