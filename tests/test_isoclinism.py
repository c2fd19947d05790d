"""Oracle tests for crossed-module isoclinism.

Key hand-derived facts used below:

* the C8-over-C2 inversion module and both order-(16, 2) involution
  modules share the central quotient (C4 over C2, inversion) and a
  C4 derived level, and are pairwise isoclinic despite different
  orders and non-isomorphic sources;
* Q8 and D8 identity crossed modules are isoclinic; S3's is not
  isoclinic to either;
* all abelian crossed modules are isoclinic (trivial quotients).
"""

import pytest

from helpers import (
    first_xmod_iso,
    inversion_module_c8,
    slow_family_partition,
    slow_isoclinism,
    xm_16_2_inversion,
    xm_16_2_swap,
)

import xmodkit.isoclinism as isoclinism
from xmodkit.catalog import load_catalog
from xmodkit.census import census
from xmodkit.groups import (
    abelian_group,
    center,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    quotient_group,
    symmetric_group,
)
from xmodkit.invariants import (
    is_aspherical,
    is_simply_connected,
    middle_length_of_xmod,
    nilpotency_class,
    rank_of_xmod,
)
from xmodkit.isoclinism import (
    _LADDER,
    commutator_pairing,
    group_family_partition,
    hz_subxmod_isoclinism,
    is_isoclinic_group,
    is_isoclinic_xmod,
    validate_witness,
    xmod_family_partition,
)
from xmodkit.xmods import (
    full_subxmod,
    identity_xmod,
    is_isomorphic_xmod,
    module_xmod,
    sub_xmod,
)


def kl4_over_c3():
    """C3 cycling the involutions of the Klein four group, zero boundary."""
    kl4 = abelian_group([2, 2])
    rot = (0, 2, 3, 1)
    rot2 = tuple(rot[rot[a]] for a in range(4))
    return module_xmod(kl4, cyclic_group(3), [tuple(range(4)), rot, rot2])


def test_pairing_abelian_is_constant_identity():
    x = module_xmod(cyclic_group(4), cyclic_group(2))
    p = commutator_pairing(x)
    assert p.quotient.order() == (1, 1)
    assert p.derived.order == (1, 1)
    assert all(v == x.g1.identity for row in p.c1 for v in row)
    assert all(v == x.g0.identity for row in p.c0 for v in row)


def test_pairing_identity_d8_matches_group_commutators():
    d8 = dihedral_group(4)
    x = identity_xmod(d8)
    p = commutator_pairing(x)
    q, proj = quotient_group(d8, center(d8))
    b_of = proj.image_of
    # c0 on cosets equals the commutator of any representatives
    for g in d8.elements:
        for h in d8.elements:
            comm = d8.commutator(g, h)
            assert p.c0[b_of[g]][b_of[h]] == comm
            # identity action is conjugation, so c1 mirrors c0
            assert p.c1[b_of[g]][b_of[h]] == d8.commutator(h, g)


def test_pairing_c1_surjective_for_kl4_over_c3():
    x = kl4_over_c3()
    p = commutator_pairing(x)
    assert p.derived.order == (4, 1)
    assert {v for row in p.c1 for v in row} == set(x.g1.elements)


def test_self_witness_and_validation():
    for x in (inversion_module_c8(), identity_xmod(dihedral_group(4))):
        w = is_isoclinic_xmod(x, x)
        assert w is not None
        assert validate_witness(x, x, w)
        # identity-first enumeration yields the identity witness
        n1 = w.quotient_iso.source.g1.order
        assert w.quotient_iso.alpha.image_of == tuple(range(n1))


def test_abelian_xmods_are_isoclinic():
    a = module_xmod(cyclic_group(4), cyclic_group(2))
    b = identity_xmod(abelian_group([2, 2]))
    c = module_xmod(cyclic_group(1), cyclic_group(1))
    for left, right in ((a, b), (a, c), (b, c)):
        assert is_isoclinic_xmod(left, right) is not None
        assert slow_isoclinism(left, right) is not None


def test_different_orders_can_be_isoclinic():
    small = inversion_module_c8()
    a, b = xm_16_2_inversion(), xm_16_2_swap()
    wab = is_isoclinic_xmod(a, b)
    assert wab is not None and validate_witness(a, b, wab)
    assert is_isomorphic_xmod(a, b) is None
    assert first_xmod_iso(a, b) is None
    w = is_isoclinic_xmod(small, a)
    assert w is not None and validate_witness(small, a, w)
    # symmetry
    assert is_isoclinic_xmod(a, small) is not None
    # isoclinic pairs share rank, middle length and class
    assert rank_of_xmod(small) == rank_of_xmod(a) == rank_of_xmod(b)
    assert (
        middle_length_of_xmod(small)
        == middle_length_of_xmod(a)
        == middle_length_of_xmod(b)
    )
    assert nilpotency_class(small) == nilpotency_class(a) == 3


def test_fast_and_slow_paths_agree():
    xs = [
        inversion_module_c8(),
        xm_16_2_inversion(),
        identity_xmod(dihedral_group(4)),
        identity_xmod(symmetric_group(3)),
        module_xmod(cyclic_group(4), cyclic_group(2)),
    ]
    for a in xs:
        for b in xs:
            fast = is_isoclinic_xmod(a, b)
            between = slow_isoclinism(a, b)
            assert (fast is None) == (between is None)
            if fast is not None:
                assert validate_witness(a, b, fast)
                assert validate_witness(a, b, between)


def test_q8_and_d8_identity_xmods():
    q8 = identity_xmod(dicyclic_group(2))
    d8 = identity_xmod(dihedral_group(4))
    s3 = identity_xmod(symmetric_group(3))
    w = is_isoclinic_xmod(q8, d8)
    assert w is not None
    # the component groups of isoclinic crossed modules are isoclinic
    assert validate_witness(q8, d8, w)
    assert is_isoclinic_group(q8.g1, d8.g1) is not None
    assert is_isoclinic_group(q8.g0, d8.g0) is not None
    assert all(is_aspherical(x) and is_simply_connected(x) for x in (q8, d8))
    assert is_isoclinic_xmod(q8, s3) is None
    assert slow_isoclinism(q8, s3) is None


def test_hz_subxmod_isoclinism():
    # identity crossed module on C2 x S3; H spans the S3 part
    m = direct_product(cyclic_group(2), symmetric_group(3))
    x = identity_xmod(m)
    s3_members = tuple(range(6))  # pairs (0, b)
    h = sub_xmod(x, s3_members, s3_members)
    w = hz_subxmod_isoclinism(x, h)
    assert validate_witness(h.as_xmod(), x, w)
    assert is_isoclinic_xmod(h.as_xmod(), x) is not None
    # the full sub-crossed-module gives the identity witness
    full = hz_subxmod_isoclinism(x, full_subxmod(x))
    assert validate_witness(x, x, full)
    # center alone does not satisfy the hypothesis
    zm = tuple(center(m).members)
    with pytest.raises(ValueError):
        hz_subxmod_isoclinism(x, sub_xmod(x, zm, zm))


def test_family_partition():
    xs = [
        module_xmod(cyclic_group(4), cyclic_group(2)),  # abelian
        identity_xmod(abelian_group([2, 2])),  # abelian
        inversion_module_c8(),
        xm_16_2_inversion(),
        xm_16_2_swap(),
        identity_xmod(dihedral_group(4)),
        identity_xmod(dicyclic_group(2)),
        identity_xmod(symmetric_group(3)),
    ]
    assert xmod_family_partition(xs) == [
        [0, 1],
        [2, 3, 4],
        [5, 6],
        [7],
    ]
    assert slow_family_partition(xs) == xmod_family_partition(xs)
    assert xmod_family_partition(xs[:1]) == [[0]]


def test_transitivity_inside_a_family():
    fam = [inversion_module_c8(), xm_16_2_inversion(), xm_16_2_swap()]
    for a in fam:
        for b in fam:
            assert is_isoclinic_xmod(a, b) is not None


# group isoclinism families of the catalog, recorded from the group-only
# search that the identity-module path replaced
GROUP_FAMILIES = {
    1: [[0]], 2: [[0]], 3: [[0]], 4: [[0, 1]], 5: [[0]], 6: [[0], [1]],
    7: [[0]], 8: [[0, 1, 4], [2, 3]], 9: [[0, 1]], 10: [[0], [1]],
    11: [[0]], 12: [[0, 3], [1, 4], [2]], 13: [[0]], 14: [[0], [1]],
    15: [[0]], 16: [[0, 1, 4, 9, 13], [2, 3, 5, 10, 11, 12], [6, 7, 8]],
    17: [[0]], 18: [[0], [1, 4], [2], [3]], 19: [[0]],
    20: [[0, 3], [1, 4], [2]], 21: [[0], [1]], 22: [[0], [1]], 23: [[0]],
    24: [[0, 4, 6, 13], [1, 8, 14], [2], [3, 5, 7], [9, 10], [11], [12]],
}


@pytest.mark.parametrize("order", sorted(GROUP_FAMILIES))
def test_group_families_match_record_and_slow_identity_modules(order):
    groups = load_catalog().groups_of_order(order)
    families = group_family_partition(groups)
    assert families == GROUP_FAMILIES[order]
    slow = slow_family_partition([identity_xmod(G) for G in groups])
    assert slow == families


# --- the ladder of isoclinism invariants ---


def ladder_keys(X):
    return [rung(X) for rung in _LADDER]


@pytest.mark.parametrize("pair", [(4, 4), (8, 4), (12, 12), (20, 20)])
def test_census_families_share_every_ladder_key(pair):
    result = census(*pair)
    for fam in result.families:
        head = ladder_keys(result.representatives[fam[0]])
        for i in fam[1:]:
            assert ladder_keys(result.representatives[i]) == head


def test_group_families_share_every_ladder_key():
    cat = load_catalog()
    for order in sorted(GROUP_FAMILIES):
        groups = cat.groups_of_order(order)
        for fam in GROUP_FAMILIES[order]:
            head = ladder_keys(identity_xmod(groups[fam[0]]))
            for i in fam[1:]:
                assert ladder_keys(identity_xmod(groups[i])) == head


def test_different_orders_share_every_ladder_key():
    small, a, b = inversion_module_c8(), xm_16_2_inversion(), xm_16_2_swap()
    assert small.order() != a.order()
    assert ladder_keys(small) == ladder_keys(a) == ladder_keys(b)


@pytest.mark.parametrize("pair", [(4, 4), (8, 4), (12, 12)])
def test_witness_is_the_slow_searchs_first(pair):
    """The derived map forced by a quotient isomorphism is unique, so the
    ladder and the closure from generating cells must return exactly the
    first witness of the search over every derived isomorphism."""
    reps = census(*pair).representatives
    for x in reps:
        for y in reps:
            fast, slow = is_isoclinic_xmod(x, y), slow_isoclinism(x, y)
            if slow is None:
                assert fast is None
            else:
                assert fast.quotient_iso == slow.quotient_iso
                assert fast.derived_iso == slow.derived_iso


def test_partition_runs_no_search_that_ends_without_a_witness(monkeypatch):
    """At [12,12] the ladder leaves no pair for the witness search to
    reject.  Without the pairing-order profile, the first two rungs send
    12 (member, family head) pairs to a search that exhausts every
    quotient isomorphism."""
    reps = census(12, 12).representatives
    exhausted = []
    search = isoclinism.all_xmod_isos

    def counting(X, Y):
        yield from search(X, Y)
        exhausted.append((X, Y))

    monkeypatch.setattr(isoclinism, "all_xmod_isos", counting)
    families = xmod_family_partition(reps)
    assert exhausted == []
    assert families == slow_family_partition(reps)
    # the partition compares member i with the heads of the families found
    # before i, in order, up to its own family
    own = {i: fam[0] for fam in families for i in fam}
    heads = [fam[0] for fam in families]
    two_rungs = 0
    for i, x in enumerate(reps):
        for h in heads:
            if h == own[i]:
                break
            two_rungs += all(rung(x) == rung(reps[h]) for rung in _LADDER[:2])
    assert two_rungs == 12
