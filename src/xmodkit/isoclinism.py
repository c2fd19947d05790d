"""Isoclinism of crossed modules.

Two crossed modules are isoclinic when their central quotients and their
derived sub-crossed-modules are isomorphic through maps compatible with
the commutator pairings c1 (central cosets into the displacement
subgroup) and c0 (base cosets into the base derived subgroup). This
module builds those pairings with exhaustive well-definedness checks,
decides isoclinism with an explicit reusable witness, and partitions
representative lists into isoclinism families.  Isoclinism of groups is
the case of the identity crossed modules (G -> G).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import FiniteGroup, GroupHom, Subgroup, _closure_map, quotient_group
from .invariants import (
    center_xmod,
    derived_subxmod,
    is_aspherical,
    is_simply_connected,
)
from .xmods import (
    CrossedModule,
    SubXMod,
    WellDefinednessError,
    XModMorphism,
    all_xmod_isos,
    identity_xmod,
    product,
    quotient_xmod,
    xmod_fingerprint,
)


@dataclass(eq=False)
class CommutatorPairing:
    """The central quotient with its commutator maps into the derived
    sub-crossed-module.

    c1[q1][q0] and c0[q0][q0'] hold parent-coordinate values; both tables
    were verified to be independent of the representative choice.
    """

    xmod: CrossedModule
    quotient: CrossedModule
    projection: XModMorphism
    derived: SubXMod
    c1: tuple
    c0: tuple

    def derived_xmod(self) -> CrossedModule:
        return self.derived.as_xmod()


def commutator_pairing(X: CrossedModule) -> CommutatorPairing:
    """Build c1 and c0, evaluating every representative pair.

    A disagreement between representatives raises WellDefinednessError;
    for a valid crossed module this would indicate a defect in the
    center or derived computation, so it is surfaced, never swallowed.
    """
    if "pairing" in X._cache:
        return X._cache["pairing"]
    quotient, projection = quotient_xmod(X, center_xmod(X))
    derived = derived_subxmod(X)
    a_of = projection.alpha.image_of
    b_of = projection.beta.image_of
    n1, n0 = quotient.g1.order, quotient.g0.order
    mul1, inv1, act = X.g1.mul, X.g1.inv, X.action
    c1 = [[None] * n0 for _ in range(n1)]
    for g1 in X.g1.elements:
        q1 = a_of[g1]
        for g0 in X.g0.elements:
            value = mul1[act[g0][g1]][inv1[g1]]
            cell = c1[q1][b_of[g0]]
            if cell is None:
                c1[q1][b_of[g0]] = value
            elif cell != value:
                raise WellDefinednessError(
                    "c1 depends on the choice of representatives"
                )
    c0 = _commutator_cosets(X.g0, center_xmod(X).s0)
    d1, d0 = derived.s1.member_set, derived.s0.member_set
    assert all(v in d1 for row in c1 for v in row)
    assert all(v in d0 for row in c0 for v in row)
    pairing = CommutatorPairing(
        X, quotient, projection, derived, tuple(tuple(row) for row in c1), c0
    )
    X._cache["pairing"] = pairing
    return pairing


def _commutator_cosets(G: FiniteGroup, N: Subgroup) -> tuple:
    """The commutator map on the cosets of a central N, [gN, hN] = [g, h],
    indexed as quotient_group(G, N) indexes them; every representative
    pair is evaluated.  Built once per group and member set."""
    key = ("commutator cosets", N.members)
    if key not in G._cache:
        quotient, proj = quotient_group(G, N)
        b_of, n = proj.image_of, quotient.order
        mul, inv = G.mul, G.inv
        table = [[None] * n for _ in range(n)]
        for g in G.elements:
            row = table[b_of[g]]
            for h in G.elements:
                value = mul[mul[g][h]][mul[inv[g]][inv[h]]]
                cell = row[b_of[h]]
                if cell is None:
                    row[b_of[h]] = value
                elif cell != value:
                    raise WellDefinednessError(
                        "c0 depends on the choice of representatives"
                    )
        G._cache[key] = tuple(map(tuple, table))
    return G._cache[key]


@dataclass(eq=False)
class IsoclinismWitness:
    """A verified isoclinism: compatible isomorphisms of the central
    quotients and of the derived sub-crossed-modules."""

    quotient_iso: XModMorphism
    derived_iso: XModMorphism


def _sub_positions(sub: SubXMod) -> tuple[dict, dict]:
    """parent element -> index inside sub.as_xmod(), per level."""
    return (
        {g: i for i, g in enumerate(sub.s1.members)},
        {g: i for i, g in enumerate(sub.s0.members)},
    )


def _diagrams_commute(px, py, eta, xi) -> bool:
    """Both commutator diagrams, checked over all argument pairs."""
    s1x, s0x = _sub_positions(px.derived)
    s1y, s0y = _sub_positions(py.derived)
    e1, e0 = eta.alpha.image_of, eta.beta.image_of
    x1, x0 = xi.alpha.image_of, xi.beta.image_of
    for q1, row in enumerate(px.c1):
        for q0, value in enumerate(row):
            if x1[s1x[value]] != s1y[py.c1[e1[q1]][e0[q0]]]:
                return False
    for q0, row in enumerate(px.c0):
        for r0, value in enumerate(row):
            if x0[s0x[value]] != s0y[py.c0[e0[q0]][e0[r0]]]:
                return False
    return True


def validate_witness(
    X: CrossedModule, Y: CrossedModule, witness: IsoclinismWitness
) -> bool:
    """Re-verify a witness from scratch: bijective morphisms between the
    right objects and both diagrams commuting over all pairs."""
    px, py = commutator_pairing(X), commutator_pairing(Y)
    eta, xi = witness.quotient_iso, witness.derived_iso
    if eta.source != px.quotient or eta.target != py.quotient:
        return False
    if xi.source != px.derived_xmod() or xi.target != py.derived_xmod():
        return False
    if not (eta.is_iso() and xi.is_iso()):
        return False
    return _diagrams_commute(px, py, eta, xi)


def _forced_derived_iso(px, py, eta):
    """The unique derived-level candidate compatible with eta, or None.

    The diagrams prescribe the image of every c1/c0 value, and those
    values generate the derived levels, so the candidate is forced;
    it survives only if the forced assignments extend to a bijective
    morphism.
    """
    dx, dy = px.derived_xmod(), py.derived_xmod()
    s1x, s0x = _sub_positions(px.derived)
    s1y, s0y = _sub_positions(py.derived)
    e1, e0 = eta.alpha.image_of, eta.beta.image_of
    pairs1 = {
        (s1x[value], s1y[py.c1[e1[q1]][e0[q0]]])
        for q1, row in enumerate(px.c1)
        for q0, value in enumerate(row)
    }
    map1 = _closure_map(dx.g1, dy.g1, sorted(pairs1))
    if map1 is None or len(map1) != dx.g1.order:
        return None
    if len(set(map1.values())) != dx.g1.order:
        return None
    pairs0 = {
        (s0x[value], s0y[py.c0[e0[q0]][e0[r0]]])
        for q0, row in enumerate(px.c0)
        for r0, value in enumerate(row)
    }
    map0 = _closure_map(dx.g0, dy.g0, sorted(pairs0))
    if map0 is None or len(map0) != dx.g0.order:
        return None
    if len(set(map0.values())) != dx.g0.order:
        return None
    alpha = tuple(map1[a] for a in dx.g1.elements)
    beta = tuple(map0[x] for x in dx.g0.elements)
    bx, by = dx.boundary.image_of, dy.boundary.image_of
    if any(by[alpha[a]] != beta[bx[a]] for a in dx.g1.elements):
        return None
    if any(
        alpha[dx.action[x][a]] != dy.action[beta[x]][alpha[a]]
        for x in dx.g0.elements
        for a in dx.g1.elements
    ):
        return None
    return XModMorphism(
        dx,
        dy,
        GroupHom(dx.g1, dy.g1, alpha, check=False),
        GroupHom(dx.g0, dy.g0, beta, check=False),
        check=False,
    )


def _family_key(X: CrossedModule) -> tuple:
    px = commutator_pairing(X)
    return (xmod_fingerprint(px.quotient), xmod_fingerprint(px.derived_xmod()))


def is_isoclinic_xmod(X: CrossedModule, Y: CrossedModule):
    """First isoclinism witness, or None.

    Modules whose quotient or derived fingerprints differ are rejected at
    once.  Otherwise each central-quotient isomorphism forces the only
    possible derived-level map, which is then tested on the diagrams.
    """
    if _family_key(X) != _family_key(Y):
        return None
    px, py = commutator_pairing(X), commutator_pairing(Y)
    for eta in all_xmod_isos(px.quotient, py.quotient):
        xi = _forced_derived_iso(px, py, eta)
        if xi is not None and _diagrams_commute(px, py, eta, xi):
            return IsoclinismWitness(eta, xi)
    return None


def hz_subxmod_isoclinism(X: CrossedModule, H: SubXMod) -> IsoclinismWitness:
    """Witness that H is isoclinic to X when H * Z(X) = X.

    The witness is canonical: the quotient isomorphism is induced by the
    inclusion of H, the derived isomorphism is the identity (H and X
    share their derived sub-crossed-module under the hypothesis).
    """
    if H.parent is not X:
        raise ValueError("H must be a sub-crossed-module of X")
    z = center_xmod(X)
    if not product(H, z).is_full():
        raise ValueError("hypothesis H * Z(X) = X fails")
    hx = H.as_xmod()
    ph, px = commutator_pairing(hx), commutator_pairing(X)
    # quotient iso induced by inclusion
    a_of, b_of = px.projection.alpha.image_of, px.projection.beta.image_of
    ah, bh = ph.projection.alpha.image_of, ph.projection.beta.image_of
    eta1 = [None] * ph.quotient.g1.order
    for i, g in enumerate(H.s1.members):
        if eta1[ah[i]] not in (None, a_of[g]):
            raise WellDefinednessError("inclusion-induced map disagrees")
        eta1[ah[i]] = a_of[g]
    eta0 = [None] * ph.quotient.g0.order
    for i, g in enumerate(H.s0.members):
        if eta0[bh[i]] not in (None, b_of[g]):
            raise WellDefinednessError("inclusion-induced map disagrees")
        eta0[bh[i]] = b_of[g]
    if None in eta1 or len(set(eta1)) != px.quotient.g1.order:
        raise RuntimeError("inclusion did not induce a quotient bijection")
    if None in eta0 or len(set(eta0)) != px.quotient.g0.order:
        raise RuntimeError("inclusion did not induce a quotient bijection")
    eta = XModMorphism(
        ph.quotient,
        px.quotient,
        GroupHom(ph.quotient.g1, px.quotient.g1, eta1),
        GroupHom(ph.quotient.g0, px.quotient.g0, eta0),
    )
    # derived levels coincide inside X, up to the sub-index translation
    parent1 = tuple(H.s1.members[g] for g in ph.derived.s1.members)
    parent0 = tuple(H.s0.members[g] for g in ph.derived.s0.members)
    if parent1 != px.derived.s1.members or parent0 != px.derived.s0.members:
        raise RuntimeError("derived sub-crossed-modules do not coincide")
    s1x, s0x = _sub_positions(px.derived)
    xi = XModMorphism(
        ph.derived_xmod(),
        px.derived_xmod(),
        GroupHom(
            ph.derived_xmod().g1,
            px.derived_xmod().g1,
            tuple(s1x[g] for g in parent1),
        ),
        GroupHom(
            ph.derived_xmod().g0,
            px.derived_xmod().g0,
            tuple(s0x[g] for g in parent0),
        ),
    )
    witness = IsoclinismWitness(eta, xi)
    if not validate_witness(hx, X, witness):
        raise RuntimeError("canonical witness failed validation")
    return witness


def xmod_family_partition(reps) -> list[list[int]]:
    """Partition indices of reps into isoclinism families.

    Representatives are bucketed by quotient/derived fingerprints first,
    then compared against one member of each candidate family; order of
    first appearance is preserved.
    """
    families: list[list[int]] = []
    keys: list[tuple] = []
    for i, x in enumerate(reps):
        key = _family_key(x)
        for f, fam in enumerate(families):
            if keys[f] == key and is_isoclinic_xmod(x, reps[fam[0]]) is not None:
                fam.append(i)
                break
        else:
            families.append([i])
            keys.append(key)
    return families


@dataclass(frozen=True)
class GroupIsoclinism:
    """Witness that two groups are isoclinic.

    quotient_iso maps M/Z(M) to N/Z(N), cosets indexed as quotient_group
    indexes them; derived_iso maps [M,M] to [N,N] (each derived subgroup
    repackaged as its own FiniteGroup, index i being derived_members[i] in
    the parent). The commutator square is checked over every pair of
    central cosets before a witness is returned.
    """

    quotient_iso: GroupHom
    derived_iso: GroupHom
    source_projection: GroupHom
    target_projection: GroupHom
    source_derived_members: tuple[int, ...]
    target_derived_members: tuple[int, ...]


def is_isoclinic_group(M: FiniteGroup, N: FiniteGroup) -> Optional[GroupIsoclinism]:
    """Search for an isoclinism witness; None when the groups are not
    isoclinic. Deterministic: first witness in backtracking order.

    For X = (M -> M) with the identity boundary and conjugation action,
    Z(X) = (Z(M) -> Z(M)) and D(X) = ([M,M] -> [M,M]), an isomorphism of
    identity modules is a pair (f, f), and both pairings are the
    commutator map.  So M and N are isoclinic exactly when their identity
    modules are, and level 1 of that witness is the group witness.
    """
    X, Y = identity_xmod(M), identity_xmod(N)
    witness = is_isoclinic_xmod(X, Y)
    if witness is None:
        return None
    px, py = commutator_pairing(X), commutator_pairing(Y)
    return GroupIsoclinism(
        quotient_iso=witness.quotient_iso.alpha,
        derived_iso=witness.derived_iso.alpha,
        source_projection=px.projection.alpha,
        target_projection=py.projection.alpha,
        source_derived_members=px.derived.s1.members,
        target_derived_members=py.derived.s1.members,
    )


def group_family_partition(groups: Sequence[FiniteGroup]) -> list[list[int]]:
    """Partition indices into isoclinism families, ordered by first member:
    the families of the identity crossed modules."""
    return xmod_family_partition([identity_xmod(G) for G in groups])


@dataclass(frozen=True)
class ComponentChecks:
    """Group-level consequences of a crossed-module isoclinism."""

    g1_isoclinic: bool
    g0_isoclinic: bool
    both_aspherical: bool
    both_simply_connected: bool

    def all_hold(self) -> bool:
        return self.g1_isoclinic and self.g0_isoclinic


def component_isoclinism_checks(
    X: CrossedModule, Y: CrossedModule, witness: IsoclinismWitness
) -> ComponentChecks:
    """For finite isoclinic pairs the component groups are isoclinic
    levelwise; the witness is revalidated before the group checks run."""
    if not validate_witness(X, Y, witness):
        raise ValueError("invalid witness")
    return ComponentChecks(
        is_isoclinic_group(X.g1, Y.g1) is not None,
        is_isoclinic_group(X.g0, Y.g0) is not None,
        is_aspherical(X) and is_aspherical(Y),
        is_simply_connected(X) and is_simply_connected(Y),
    )
