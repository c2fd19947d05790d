"""Structural invariants of crossed modules.

Center, displacement and derived subobjects, lower/upper central and
derived series, nilpotency and solvability, rank and middle length.
Rank-style values keep exact integer orders (see values.PairValue);
tables render their log2.
"""

from __future__ import annotations

from typing import Optional

from .groups import (
    Subgroup,
    center,
    derived_subgroup,
    full_subgroup,
    memoised,
    relative_commutator_group,
    subgroup_generated,
    subgroup_generators,
)
from .values import NOT_NILPOTENT, NOT_SOLVABLE, FrozenRecord, PairValue
from .xmods import (
    CrossedModule,
    SubXMod,
    full_subxmod,
    quotient_xmod,
    sub_xmod,
    trivial_subxmod,
)


@memoised
def fixed_points(X: CrossedModule) -> Subgroup:
    """Elements of G1 fixed by every element of G0."""
    members = [
        a for a in X.g1.elements if all(row[a] == a for row in X.action)
    ]
    return Subgroup(X.g1, members, check=False)


@memoised
def stabilizer(X: CrossedModule) -> Subgroup:
    """Elements of G0 acting trivially on G1."""
    ident = tuple(X.g1.elements)
    members = [x for x in X.g0.elements if X.action[x] == ident]
    return Subgroup(X.g0, members, check=False)


@memoised
def center_xmod(X: CrossedModule) -> SubXMod:
    """(fixed points -> stabilizer ∩ Z(G0)), the categorical center."""
    s0 = stabilizer(X).member_set & center(X.g0).member_set
    return sub_xmod(X, fixed_points(X), Subgroup(X.g0, s0, check=False))


def _displacements(
    X: CrossedModule, acting: Subgroup, *levels: tuple[Subgroup, Subgroup]
) -> Subgroup:
    """The subgroup of G1 generated by the displacements ^x a * a^-1,
    x in s0 and a in s1, over each (s1, s0) of levels.

    It is built from generators: the displacements of generators of s0
    against generators of s1, closed under the action of acting.  That is
    the whole subgroup when acting holds s0 and the boundary of s1 and
    maps the displacements among themselves (s1 stable and s0 normal
    under acting), since
        ^xy a a^-1 = ^x(^y a a^-1) (^x a a^-1),
        ^x(ab) (ab)^-1 = (^x a a^-1) a (^x b b^-1) a^-1,
    and conjugation by a in G1 is the action of its boundary (CM2): the
    normal closure of Holt-Eick-O'Brien, Handbook of Computational Group
    Theory, section 3.3."""
    mul1, inv1, act = X.g1.mul, X.g1.inv, X.action
    seeds = [
        mul1[act[x][a]][inv1[a]]
        for s1, s0 in levels
        for x in subgroup_generators(s0)
        for a in subgroup_generators(s1)
    ]
    rows = [act[x] for x in subgroup_generators(acting)]
    return subgroup_generated(X.g1, seeds, rows)


@memoised
def displacement_subgroup(X: CrossedModule) -> Subgroup:
    """Subgroup of G1 generated by all ^x a * a^-1."""
    full0 = full_subgroup(X.g0)
    return _displacements(X, full0, (full_subgroup(X.g1), full0))


@memoised
def derived_subxmod(X: CrossedModule) -> SubXMod:
    """(displacement subgroup -> [G0, G0])."""
    return sub_xmod(X, displacement_subgroup(X), derived_subgroup(X.g0))


def relative_commutator(X: CrossedModule, N: SubXMod) -> SubXMod:
    """The commutator sub-crossed-module [N, X] of a normal N.

    Level 1 is generated by displacements of N1 under all of G0 together
    with displacements of G1 under N0; it is built as the closure, under
    the action of G0, of the displacements of generators (see
    _displacements).  Level 0 is [N0, G0], computed once per G0 and N0.
    """
    full0 = full_subgroup(X.g0)
    level1 = _displacements(
        X, full0, (N.s1, full0), (full_subgroup(X.g1), N.s0))
    level0 = relative_commutator_group(X.g0, N.s0.members, X.g0.elements)
    return sub_xmod(X, level1, level0)


class SeriesRecord(FrozenRecord):
    """A subobject series; terms are distinct, ending at the stable term."""

    def __init__(self, kind: str, terms: tuple, stabilized: bool = True):
        self.__dict__.update(kind=kind, terms=terms, stabilized=stabilized)

    def sizes(self) -> list[tuple[int, int]]:
        return [t.order for t in self.terms]

    def tail_sizes(self) -> tuple[tuple[int, int], ...]:
        """Sizes of the terms after the first, without the trailing trivial
        term of a series that reaches it: the gamma sizes a census family
        report and the CLI invariants table show."""
        sizes = self.sizes()[1:]
        if sizes and sizes[-1] == (1, 1):
            sizes = sizes[:-1]
        return tuple(sizes)


@memoised
def lower_central_series(X: CrossedModule) -> SeriesRecord:
    """gamma_1 = X, gamma_{i+1} = [gamma_i, X]; computed once per module."""
    terms = [full_subxmod(X)]
    while True:
        nxt = relative_commutator(X, terms[-1])
        if nxt.members() == terms[-1].members():
            break
        terms.append(nxt)
    return SeriesRecord("lower-central", tuple(terms))


def nilpotency_class(X: CrossedModule):
    """Nilpotency class, or the NOT_NILPOTENT marker."""
    terms = lower_central_series(X).terms
    if terms[-1].is_trivial():
        return len(terms) - 1
    return NOT_NILPOTENT


def upper_central_series(X: CrossedModule) -> SeriesRecord:
    """Ascending series of preimages of centers of successive quotients."""
    terms = [trivial_subxmod(X)]
    while True:
        quotient, proj = quotient_xmod(X, terms[-1])
        zq = center_xmod(quotient)
        z1 = zq.s1.member_set
        z0 = zq.s0.member_set
        a, b = proj.alpha.image_of, proj.beta.image_of
        nxt = sub_xmod(
            X,
            (g for g in X.g1.elements if a[g] in z1),
            (g for g in X.g0.elements if b[g] in z0),
        )
        if nxt.members() == terms[-1].members():
            return SeriesRecord("upper-central", tuple(terms))
        terms.append(nxt)


def _derived_of(X: CrossedModule, S: SubXMod) -> SubXMod:
    """Derived subxmod of a subobject, computed in parent coordinates."""
    level1 = _displacements(X, S.s0, (S.s1, S.s0))
    level0 = relative_commutator_group(X.g0, S.s0.members, S.s0.members)
    return sub_xmod(X, level1, level0)


def derived_series(X: CrossedModule) -> SeriesRecord:
    terms = [full_subxmod(X)]
    while True:
        nxt = _derived_of(X, terms[-1])
        if nxt.members() == terms[-1].members():
            return SeriesRecord("derived", tuple(terms))
        terms.append(nxt)


def derived_length(X: CrossedModule):
    """Derived length, or the NOT_SOLVABLE marker."""
    terms = derived_series(X).terms
    if terms[-1].is_trivial():
        return len(terms) - 1
    return NOT_SOLVABLE


def is_solvable(X: CrossedModule) -> bool:
    return derived_series(X).terms[-1].is_trivial()


def is_nilpotent(X: CrossedModule) -> bool:
    return lower_central_series(X).terms[-1].is_trivial()


def is_abelian_xmod(X: CrossedModule) -> bool:
    return center_xmod(X).is_full()


def is_stem_xmod(X: CrossedModule) -> bool:
    """The center is contained levelwise in the derived sub-crossed-module."""
    z = center_xmod(X)
    d = derived_subxmod(X)
    return (
        z.s1.member_set <= d.s1.member_set and z.s0.member_set <= d.s0.member_set
    )


def is_aspherical(X: CrossedModule) -> bool:
    return X.boundary.kernel_subgroup().order == 1


def is_simply_connected(X: CrossedModule) -> bool:
    return X.boundary.image_subgroup().order == X.g0.order


def rank_of_xmod(X: CrossedModule) -> PairValue:
    """Levelwise |Fix ∩ D| * |G1/Fix| and |(St∩Z) ∩ [G0,G0]| * |G0/(St∩Z)|."""
    fix = fixed_points(X)
    disp = displacement_subgroup(X)
    z = center_xmod(X)
    d = derived_subxmod(X)
    level1 = len(fix.member_set & disp.member_set) * (X.g1.order // fix.order)
    level0 = len(z.s0.member_set & d.s0.member_set) * (X.g0.order // z.s0.order)
    return PairValue(level1, level0)


def middle_length_of_xmod(X: CrossedModule) -> PairValue:
    """Levelwise |D / (Fix ∩ D)| and |[G0,G0] / ((St∩Z) ∩ [G0,G0])|."""
    fix = fixed_points(X)
    disp = displacement_subgroup(X)
    z = center_xmod(X)
    d = derived_subxmod(X)
    level1 = disp.order // len(fix.member_set & disp.member_set)
    level0 = d.s0.order // len(z.s0.member_set & d.s0.member_set)
    return PairValue(level1, level0)


class Prop10Report(FrozenRecord):
    """Consequences of simple connectivity and asphericity.

    Fields are None when the hypothesis does not apply.
    """

    def __init__(
        self,
        simply_connected: bool,
        aspherical: bool,
        fix_equals_center_g1: Optional[bool],
        displacement_equals_derived_g1: Optional[bool],
        stabilizer_center_equals_center_g0: Optional[bool],
    ):
        self.__dict__.update(
            simply_connected=simply_connected,
            aspherical=aspherical,
            fix_equals_center_g1=fix_equals_center_g1,
            displacement_equals_derived_g1=displacement_equals_derived_g1,
            stabilizer_center_equals_center_g0=stabilizer_center_equals_center_g0,
        )

    def all_hold(self) -> bool:
        return all(
            v is not False
            for v in (
                self.fix_equals_center_g1,
                self.displacement_equals_derived_g1,
                self.stabilizer_center_equals_center_g0,
            )
        )


def prop10_checks(X: CrossedModule) -> Prop10Report:
    simply = is_simply_connected(X)
    aspher = is_aspherical(X)
    fix_center = disp_derived = stab_center = None
    if simply:
        fix_center = fixed_points(X).member_set == center(X.g1).member_set
        disp_derived = (
            displacement_subgroup(X).member_set
            == derived_subgroup(X.g1).member_set
        )
    if aspher:
        z0 = stabilizer(X).member_set & center(X.g0).member_set
        stab_center = z0 == center(X.g0).member_set
    return Prop10Report(simply, aspher, fix_center, disp_derived, stab_center)
