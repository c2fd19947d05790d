"""Oracle tests for structural invariants.

Expected values are hand-derived:

* the C8-over-C2 inversion module has Fix = {0, 4}, displacement <2>,
  rank orders (8, 2), middle length orders (2, 1), class 3;
* identity crossed modules inherit the group invariants levelwise
  (D8: rank 8, middle length 1, class 2; S3: not nilpotent, derived
  length 2);
* the two order-(16, 2) involution modules share all invariants.
"""

import pytest

from helpers import (
    all_pairs_derived_of,
    all_pairs_derived_subxmod,
    all_pairs_relative_commutator,
    inversion_module_c8,
    surjection_xmod_c4_c2,
    xm_16_2_inversion,
    xm_16_2_swap,
)

from xmodkit.catalog import load_catalog
from xmodkit.census import census
from xmodkit.groups import (
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    symmetric_group,
)
from xmodkit.invariants import (
    center_xmod,
    derived_length,
    derived_series,
    derived_subxmod,
    displacement_subgroup,
    fixed_points,
    is_abelian_xmod,
    is_aspherical,
    is_nilpotent,
    is_simply_connected,
    is_solvable,
    is_stem_xmod,
    lower_central_series,
    middle_length_of_xmod,
    nilpotency_class,
    prop10_checks,
    rank_of_xmod,
    relative_commutator,
    stabilizer,
    upper_central_series,
)
from xmodkit.values import NOT_NILPOTENT
from xmodkit.xmods import full_subxmod, identity_xmod, module_xmod


def test_inversion_module_center_and_derived():
    x = inversion_module_c8()
    assert fixed_points(x).members == (0, 4)
    assert stabilizer(x).members == (0,)
    assert center_xmod(x).order == (2, 1)
    assert displacement_subgroup(x).members == (0, 2, 4, 6)
    assert derived_subxmod(x).order == (4, 1)


def test_inversion_module_rank_and_middle_length():
    x = inversion_module_c8()
    rank = rank_of_xmod(x)
    assert (rank.level1_order, rank.level0_order) == (8, 2)
    assert rank.render() == "[3.00,1.00]"
    ml = middle_length_of_xmod(x)
    assert (ml.level1_order, ml.level0_order) == (2, 1)
    assert ml.render() == "[1.00,0.00]"


def test_inversion_module_series():
    x = inversion_module_c8()
    lower = lower_central_series(x)
    assert lower.kind == "lower-central"
    assert lower.sizes() == [(8, 2), (4, 1), (2, 1), (1, 1)]
    assert nilpotency_class(x) == 3
    upper = upper_central_series(x)
    assert upper.kind == "upper-central"
    assert upper.sizes() == [(1, 1), (2, 1), (4, 1), (8, 2)]
    # both series reach their end in the same number of steps
    assert len(upper.terms) == len(lower.terms)


def test_inversion_module_flags():
    x = inversion_module_c8()
    assert is_stem_xmod(x)
    assert not is_abelian_xmod(x)
    assert not is_aspherical(x)
    assert not is_simply_connected(x)
    assert is_solvable(x) and derived_length(x) == 2
    report = prop10_checks(x)
    assert (report.simply_connected, report.aspherical) == (False, False)
    assert report.fix_equals_center_g1 is None
    assert report.all_hold()  # vacuously


def test_identity_xmod_d8_matches_group_invariants():
    x = identity_xmod(dihedral_group(4))
    assert center_xmod(x).order == (2, 2)
    assert derived_subxmod(x).order == (2, 2)
    rank = rank_of_xmod(x)
    assert (rank.level1_order, rank.level0_order) == (8, 8)
    assert rank.render() == "[3.00,3.00]"
    ml = middle_length_of_xmod(x)
    assert (ml.level1_order, ml.level0_order) == (1, 1)
    assert ml.render() == "[0.00,0.00]"
    assert nilpotency_class(x) == 2
    assert lower_central_series(x).sizes() == [(8, 8), (2, 2), (1, 1)]
    assert upper_central_series(x).sizes() == [(1, 1), (2, 2), (8, 8)]
    assert is_stem_xmod(x)
    report = prop10_checks(x)
    assert report.simply_connected and report.aspherical
    assert report.fix_equals_center_g1 is True
    assert report.displacement_equals_derived_g1 is True
    assert report.stabilizer_center_equals_center_g0 is True
    assert report.all_hold()


def test_identity_xmod_s3_not_nilpotent():
    x = identity_xmod(symmetric_group(3))
    assert nilpotency_class(x) is NOT_NILPOTENT
    assert not NOT_NILPOTENT  # marker is falsy
    assert not is_nilpotent(x)
    assert lower_central_series(x).sizes() == [(6, 6), (3, 3)]
    assert upper_central_series(x).sizes() == [(1, 1)]
    assert is_solvable(x) and derived_length(x) == 2
    assert derived_series(x).sizes() == [(6, 6), (3, 3), (1, 1)]
    rank = rank_of_xmod(x)
    assert (rank.level1_order, rank.level0_order) == (6, 6)
    assert rank.render() == "[2.58,2.58]"
    assert middle_length_of_xmod(x).render() == "[1.58,1.58]"
    assert is_stem_xmod(x)


def test_trivial_action_module_is_abelian():
    x = module_xmod(cyclic_group(4), cyclic_group(2))
    assert is_abelian_xmod(x)
    assert not is_stem_xmod(x)
    assert nilpotency_class(x) == 1
    assert lower_central_series(x).sizes() == [(4, 2), (1, 1)]
    assert rank_of_xmod(x).render() == "[0.00,0.00]"
    assert middle_length_of_xmod(x).render() == "[0.00,0.00]"


def test_point_xmod_has_class_zero():
    x = module_xmod(cyclic_group(1), cyclic_group(1))
    assert nilpotency_class(x) == 0
    assert lower_central_series(x).sizes() == [(1, 1)]
    assert is_abelian_xmod(x)


def test_full_relative_commutator_is_derived_subxmod():
    for x in (inversion_module_c8(), identity_xmod(dihedral_group(4))):
        whole = relative_commutator(x, full_subxmod(x))
        assert whole.members() == derived_subxmod(x).members()


def test_simply_connected_surjection_prop10():
    x = surjection_xmod_c4_c2()
    assert is_simply_connected(x)
    assert not is_aspherical(x)
    report = prop10_checks(x)
    assert report.fix_equals_center_g1 is True
    assert report.displacement_equals_derived_g1 is True
    assert report.stabilizer_center_equals_center_g0 is None
    assert report.all_hold()


def test_order_16_2_witnesses_share_invariants():
    a, b = xm_16_2_inversion(), xm_16_2_swap()
    for x in (a, b):
        assert fixed_points(x).order == 4
        assert displacement_subgroup(x).order == 4
        rank = rank_of_xmod(x)
        assert (rank.level1_order, rank.level0_order) == (8, 2)
        assert rank.render() == "[3.00,1.00]"
        assert middle_length_of_xmod(x).render() == "[1.00,0.00]"
        assert nilpotency_class(x) == 3
        assert lower_central_series(x).sizes() == [
            (16, 2),
            (4, 1),
            (2, 1),
            (1, 1),
        ]
        # Fix exceeds the displacement subgroup, so these are not stem
        assert not is_stem_xmod(x)
    # same invariants, different underlying groups
    assert a.g1.mul != b.g1.mul


# --- the generator-based commutators against the all-pairs definitions ---


def assert_series_match(X, series, step, library_step=None):
    """series(X) against the terms step(X, previous) gives from X itself
    until they repeat; library_step, when given, is checked at each term."""
    oracle = [full_subxmod(X)]
    while True:
        nxt = step(X, oracle[-1])
        if library_step is not None:
            assert library_step(X, oracle[-1]).members() == nxt.members()
        if nxt.members() == oracle[-1].members():
            break
        oracle.append(nxt)
    assert [t.members() for t in series(X).terms] == [
        t.members() for t in oracle]


def assert_commutators_match_all_pairs(X):
    """derived_subxmod, every [gamma_i, X], the lower central series and
    the derived series against the all-pairs oracle of tests/helpers.py."""
    assert derived_subxmod(X).members() == all_pairs_derived_subxmod(X).members()
    assert_series_match(X, lower_central_series, all_pairs_relative_commutator,
                        relative_commutator)
    assert_series_match(X, derived_series, all_pairs_derived_of)


@pytest.mark.parametrize("pair", [(4, 4), (8, 4), (12, 12), (20, 20)])
def test_commutators_match_all_pairs_on_census_representatives(pair):
    for X in census(*pair).representatives:
        assert_commutators_match_all_pairs(X)


def test_commutators_match_all_pairs_on_identity_modules():
    cat = load_catalog()
    for order in cat.orders():
        if order <= 24:
            for G in cat.groups_of_order(order):
                assert_commutators_match_all_pairs(identity_xmod(G))


def test_center_and_derived_share_the_group_level_subgroups():
    X = identity_xmod(symmetric_group(3))
    assert derived_subxmod(X).s0 is derived_subgroup(X.g0)
    assert derived_subxmod(X).s1 is displacement_subgroup(X)
    assert center_xmod(X).s1 is fixed_points(X)
