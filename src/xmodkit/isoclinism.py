"""Isoclinism of crossed modules.

Two crossed modules are isoclinic when their central quotients and their
derived sub-crossed-modules are isomorphic through maps compatible with
the commutator pairings c1 (central cosets into the displacement
subgroup) and c0 (base cosets into the base derived subgroup). This
module builds those pairings with exhaustive well-definedness checks,
decides isoclinism with an explicit reusable witness, and partitions
representative lists into isoclinism families.  Both climb a ladder of
invariants that every isoclinism preserves, cheapest first, before any
witness search.  Isoclinism of groups is the case of the identity
crossed modules (G -> G).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _closure_map,
    _greedy_generators,
    memoised,
    quotient_group,
)
from .invariants import center_xmod, derived_subxmod
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
from .values import FrozenRecord, Record


class CommutatorPairing(Record):
    """The central quotient with its commutator maps into the derived
    sub-crossed-module.

    c1[q1][q0] and c0[q0][q0'] hold parent-coordinate values; both tables
    were verified to be independent of the representative choice.  cells1
    and cells0 are the cells of c1 and c0, in scan order, whose values
    generate the derived levels.
    """

    def __init__(
        self,
        xmod: CrossedModule,
        quotient: CrossedModule,
        projection: XModMorphism,
        derived: SubXMod,
        c1: tuple,
        c0: tuple,
        cells1: tuple,
        cells0: tuple,
    ):
        self.xmod = xmod
        self.quotient = quotient
        self.projection = projection
        self.derived = derived
        self.c1 = c1
        self.c0 = c0
        self.cells1 = cells1
        self.cells0 = cells0

    def derived_xmod(self) -> CrossedModule:
        return self.derived.as_xmod()


@memoised
def commutator_pairing(X: CrossedModule) -> CommutatorPairing:
    """Build c1 and c0, evaluating every representative pair.

    A disagreement between representatives raises WellDefinednessError;
    for a valid crossed module this would indicate a defect in the
    center or derived computation, so it is surfaced, never swallowed.
    """
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
    c1 = tuple(map(tuple, c1))
    return CommutatorPairing(
        X, quotient, projection, derived, c1, c0,
        _generating_cells(X.g1, c1, derived.s1.order),
        _generating_cells(X.g0, c0, derived.s0.order),
    )


def _generating_cells(G: FiniteGroup, table: tuple, order: int) -> tuple:
    """The cells (row, column) of a pairing table, in scan order, whose
    values generate the subgroup of G, of the given order, that all the
    values generate: each cell whose value the earlier cells' values do
    not generate."""
    first = {}  # value -> the first cell holding it
    for i, row in enumerate(table):
        for j, value in enumerate(row):
            first.setdefault(value, (i, j))
    mul = G.mul
    picks, _ = _greedy_generators(
        first, lambda g: mul[g].__getitem__, G.identity, order)
    return tuple(first[v] for v in picks)


@memoised
def _commutator_cosets(G: FiniteGroup, N: Subgroup) -> tuple:
    """The commutator map on the cosets of a central N, [gN, hN] = [g, h],
    indexed as quotient_group(G, N) indexes them; every representative
    pair is evaluated.  Built once per group and member set."""
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
    return tuple(map(tuple, table))


class IsoclinismWitness(Record):
    """A verified isoclinism: compatible isomorphisms of the central
    quotients and of the derived sub-crossed-modules."""

    def __init__(self, quotient_iso: XModMorphism, derived_iso: XModMorphism):
        self.quotient_iso = quotient_iso
        self.derived_iso = derived_iso


@memoised
def _sub_positions(sub: SubXMod) -> tuple[dict, dict]:
    """parent element -> index inside sub.as_xmod(), per level; built once
    per sub-crossed-module."""
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


def _forced_level(G: FiniteGroup, H: FiniteGroup, pairs) -> Optional[tuple]:
    """The image table of the bijective homomorphism G -> H that extends
    pairs, a generator of G with its image each, or None."""
    image = _closure_map(G, H, pairs)
    if image is None or len(image) != G.order:
        return None
    if len(set(image.values())) != G.order:
        return None
    return tuple(image[g] for g in G.elements)


def _forced_derived_iso(px, py, eta):
    """The unique derived-level candidate compatible with eta, or None.

    The diagrams prescribe the image of every c1/c0 value, and those
    values generate the derived levels, so the candidate is forced.  It
    is closed from the cells whose values generate (cells1 and cells0
    of px) and survives only if it is a bijective morphism, as
    XModMorphism checks it; the other cells are left to
    _diagrams_commute.
    """
    dx, dy = px.derived_xmod(), py.derived_xmod()
    s1x, s0x = _sub_positions(px.derived)
    s1y, s0y = _sub_positions(py.derived)
    e1, e0 = eta.alpha.image_of, eta.beta.image_of
    alpha = _forced_level(dx.g1, dy.g1, [
        (s1x[px.c1[q1][q0]], s1y[py.c1[e1[q1]][e0[q0]]])
        for q1, q0 in px.cells1
    ])
    if alpha is None:
        return None
    beta = _forced_level(dx.g0, dy.g0, [
        (s0x[px.c0[q0][r0]], s0y[py.c0[e0[q0]][e0[r0]]])
        for q0, r0 in px.cells0
    ])
    if beta is None:
        return None
    try:
        return XModMorphism(
            dx,
            dy,
            GroupHom(dx.g1, dy.g1, alpha, check=False),
            GroupHom(dx.g0, dy.g0, beta, check=False),
        )
    except ValueError:
        return None


# --- the ladder: invariants of isoclinism, cheapest first ---


@memoised
def _order_key(X: CrossedModule) -> tuple:
    """|G1/Z1|, |G0/Z0|, |D1| and |D0|, read from the centre and the
    derived sub-crossed-module without building either quotient.  The
    orders of X itself are no invariant: isoclinic modules may differ in
    order."""
    z, d = center_xmod(X), derived_subxmod(X)
    return (X.g1.order // z.s1.order, X.g0.order // z.s0.order, *d.order)


@memoised
def _family_key(X: CrossedModule) -> tuple:
    """Fingerprints of the central quotient and of the derived module."""
    px = commutator_pairing(X)
    return (
        xmod_fingerprint(px.quotient), xmod_fingerprint(px.derived_xmod()))


@memoised
def _pairing_profile(X: CrossedModule) -> tuple:
    """How often each triple of element orders (|q1|, |q0|, |c1(q1, q0)|)
    and (|q|, |r|, |c0(q, r)|) occurs over the cells of the pairings, as
    one flat tuple per pairing: each triple in sorted order, then its
    count.  An isoclinism maps cells to cells and values to values by
    isomorphisms, commuting with c1 and c0, so it keeps both counts."""
    p = commutator_pairing(X)
    o1, o0 = p.quotient.g1.elem_order, p.quotient.g0.elem_order
    v1, v0 = X.g1.elem_order, X.g0.elem_order
    c1 = Counter(
        (o1[q1], o0[q0], v1[value])
        for q1, row in enumerate(p.c1) for q0, value in enumerate(row))
    c0 = Counter(
        (o0[q], o0[r], v0[value])
        for q, row in enumerate(p.c0) for r, value in enumerate(row))
    return tuple(
        tuple(v for triple, n in sorted(counts.items()) for v in (*triple, n))
        for counts in (c1, c0))


_LADDER = (_order_key, _family_key, _pairing_profile)


def _ladder_agrees(X: CrossedModule, Y: CrossedModule) -> bool:
    """Whether X and Y agree on every rung of _LADDER.  Each rung is
    computed once per module, and only once the rungs below it agree."""
    return all(rung(X) == rung(Y) for rung in _LADDER)


def is_isoclinic_xmod(X: CrossedModule, Y: CrossedModule):
    """First isoclinism witness, or None.

    Modules that differ on a rung of the ladder (quotient and derived
    orders, then their fingerprints, then the pairing-order profile) are
    rejected without a search.  Otherwise the central-quotient
    isomorphisms are drawn one at a time; each forces the only possible
    derived-level map, which is then tested on the diagrams.
    """
    if not _ladder_agrees(X, Y):
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

    Each representative is compared with the first member of each family,
    in order, until one is isoclinic to it; is_isoclinic_xmod rejects a
    head that differs on the ladder without a search.  Order of first
    appearance is preserved.
    """
    families: list[list[int]] = []
    for i, x in enumerate(reps):
        for fam in families:
            if is_isoclinic_xmod(x, reps[fam[0]]) is not None:
                fam.append(i)
                break
        else:
            families.append([i])
    return families


class GroupIsoclinism(FrozenRecord):
    """Witness that two groups are isoclinic.

    quotient_iso maps M/Z(M) to N/Z(N), cosets indexed as quotient_group
    indexes them; derived_iso maps [M,M] to [N,N] (each derived subgroup
    repackaged as its own FiniteGroup, index i being derived_members[i] in
    the parent). The commutator square is checked over every pair of
    central cosets before a witness is returned.
    """

    def __init__(
        self,
        quotient_iso: GroupHom,
        derived_iso: GroupHom,
        source_projection: GroupHom,
        target_projection: GroupHom,
        source_derived_members: tuple[int, ...],
        target_derived_members: tuple[int, ...],
    ):
        self.__dict__.update(
            quotient_iso=quotient_iso,
            derived_iso=derived_iso,
            source_projection=source_projection,
            target_projection=target_projection,
            source_derived_members=source_derived_members,
            target_derived_members=target_derived_members,
        )


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
