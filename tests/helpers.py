"""Shared constructions for the test suite."""

from xmodkit.groups import (
    abelian_group,
    cyclic_group,
    group_from_generators,
    subgroup_generated,
)
from xmodkit.xmods import make_xmod, module_xmod, sub_xmod


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
