"""Derivations, the Whitehead group, and actor crossed modules.

A derivation is a map from the base group into the source group obeying
the twisted product law d(xy) = d(x) * ^x d(y). Derivations form a monoid
under the circle product; its unit group is the Whitehead group, whose
members pair with the automorphisms of the crossed module to form the
actor. The inner actor and the class preserving actor are sub-structures
of the actor.
"""

from __future__ import annotations

from .groups import (
    TABLE_CAP,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _check_table,
    _closure,
    _extensions,
    _row_type,
    compose_perms,
    generating_sequence,
    memoised,
)
from .xmods import (
    CrossedModule,
    SubXMod,
    WellDefinednessError,
    XModMorphism,
    _xmod_auts,
    make_xmod,
    sub_xmod,
    xmod_automorphism_group,
)
from .values import Record


class Derivation:
    """A map from g0 to g1 with image_of[xy] = image_of[x] * ^x image_of[y]."""

    __slots__ = ("xmod", "image_of")

    def __init__(self, xmod: CrossedModule, image_of, *, check: bool = True):
        self.xmod = xmod
        self.image_of = tuple(image_of)
        if len(self.image_of) != xmod.g0.order:
            raise ValueError("derivation table must cover g0")
        if check:
            mul0, mul1, act = xmod.g0.mul, xmod.g1.mul, xmod.action
            img = self.image_of
            for x in xmod.g0.elements:
                for y in xmod.g0.elements:
                    if img[mul0[x][y]] != mul1[img[x]][act[x][img[y]]]:
                        raise ValueError(
                            f"derivation law fails at ({x}, {y})"
                        )

    def __call__(self, x: int) -> int:
        return self.image_of[x]

    def is_zero(self) -> bool:
        return all(v == self.xmod.g1.identity for v in self.image_of)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.image_of == other.image_of
            and self.xmod == other.xmod
        )

    def __hash__(self) -> int:
        return hash(self.image_of)

    def __repr__(self) -> str:
        return f"Derivation({list(self.image_of)})"


def circle_product(d1: Derivation, d2: Derivation) -> Derivation:
    """(d1 o d2)(x) = d1(boundary(d2(x)) * x) * d2(x)."""
    X = d1.xmod
    mul0, mul1, bnd = X.g0.mul, X.g1.mul, X.boundary.image_of
    i1, i2 = d1.image_of, d2.image_of
    img = tuple(
        mul1[i1[mul0[bnd[i2[x]]][x]]][i2[x]] for x in X.g0.elements
    )
    return Derivation(X, img, check=False)


class DerivationMonoid(Record):
    """All derivations with the circle-product table; element 0 is the unit."""

    def __init__(self, xmod: CrossedModule, elements: tuple, op: tuple):
        self.xmod = xmod
        self.elements = elements
        self.op = op

    @property
    def unit(self) -> Derivation:
        return self.elements[0]

    def index_of(self, der: Derivation) -> int:
        return self._index()[der.image_of]

    def _index(self) -> dict:
        if not hasattr(self, "_idx"):
            self._idx = {d.image_of: i for i, d in enumerate(self.elements)}
        return self._idx

    def unit_indices(self) -> tuple:
        """Indices with a two-sided circle inverse.

        In a finite monoid a right inverse is two-sided, so the first j
        with t[i][j] = 0 is confirmed by t[j][i] = 0; row i is scanned
        for another j only when that confirmation fails."""
        t = self.op
        n = len(self.elements)
        units = []
        for i, row in enumerate(t):
            if 0 not in row:
                continue
            j = row.index(0)
            if t[j][i] == 0 or any(
                row[k] == 0 and t[k][i] == 0 for k in range(n)
            ):
                units.append(i)
        return tuple(units)

    def __len__(self) -> int:
        return len(self.elements)


@memoised
def all_derivations(X: CrossedModule):
    """Every derivation, as a DerivationMonoid; element 0 is the zero
    derivation and the rest follow in ascending table order.

    A table is a derivation exactly when d(a g) = d(a) * ^a d(g) for
    every a in g0 and g in generating_sequence(g0), so the generator-image
    search walks the search plan of g0 with the action as its twist, and
    no semidirect product g1 x| g0 is formed.  A candidate b for a
    generator g of order k must make (b, g) of order k in that product,
    that is b * ^g b * ... * ^(g^(k-1)) b = 1.  A derivation is fixed by
    its values on the generators of g0, and so is the circle-product
    table: column d2 is read off those values of d1 o d2 for every d1.

    The search stops with CapExceededError once it finds more than
    TABLE_CAP derivations, before the |monoid|^2 circle-product table is
    built; the table's rows have _row_type, as a group table's do.
    """
    g0 = X.g0
    n0 = g0.order
    mul0, mul1, act, bnd = g0.mul, X.g1.mul, X.action, X.boundary.image_of
    e1 = X.g1.identity

    def candidates(g: int) -> list[int]:
        # the twisted power (b, g)^k = (b * ^g b * ... , g^k), k = |g|
        norms = [e1] * X.g1.order
        x = g0.identity
        for _ in range(g0.elem_order[g]):
            norms = [mul1[v][w] for v, w in zip(norms, act[x])]
            x = mul0[x][g]
        return [b for b, v in enumerate(norms) if v == e1]

    tables = []
    too_many = f"more than {TABLE_CAP} derivations"
    for found in _extensions(g0, X.g1, candidates, twist=act):
        tables.append(found)
        _check_table(len(tables), len(tables), too_many)
    zero = (e1,) * n0
    tables.sort(key=lambda t: (t != zero, t))
    elements = tuple(Derivation(X, t, check=False) for t in tables)
    gens = generating_sequence(g0)
    index = {tuple(t[s] for s in gens): i for i, t in enumerate(tables)}
    by_point = tuple(zip(*tables))  # by_point[x][i] = tables[i][x]
    cols1 = tuple(zip(*mul1))  # cols1[c][v] = v * c
    as_row = _row_type(len(tables))
    # column j holds d1 o d2 for d2 = elements[j] and every d1, as in
    # circle_product: (d1 o d2)(s) = d1(bnd(d2(s)) s) * d2(s)
    columns = []
    for t2 in tables:
        values = [
            compose_perms(cols1[t2[s]], by_point[mul0[bnd[t2[s]]][s]])
            for s in gens
        ]
        column = list(map(index.get, zip(*values))) if gens else [0]
        if None in column:
            raise RuntimeError("circle product left the derivation set")
        columns.append(as_row(column))
    return DerivationMonoid(X, elements, tuple(map(as_row, zip(*columns))))


class WhiteheadGroup(Record):
    """Group of regular derivations (units of the circle monoid)."""

    def __init__(
        self, carrier: FiniteGroup, member_derivations: tuple, monoid: DerivationMonoid
    ):
        self.carrier = carrier
        self.member_derivations = member_derivations
        self.monoid = monoid

    @property
    def order(self) -> int:
        return self.carrier.order


@memoised
def whitehead_group(X: CrossedModule):
    monoid = all_derivations(X)
    units = monoid.unit_indices()
    pos = {u: k for k, u in enumerate(units)}
    try:
        table = tuple(
            tuple(map(pos.__getitem__, compose_perms(monoid.op[u], units)))
            for u in units
        )
    except KeyError:
        raise RuntimeError("unit product fell outside the units") from None
    carrier = FiniteGroup._of_table(table)
    members = tuple(monoid.elements[u] for u in units)
    return WhiteheadGroup(carrier, members, monoid)


class ActorXMod(Record):
    """A crossed module of regular derivations over automorphism pairs.

    xmod's source element k is derivations[k]; its range element j is
    automorphisms[j]; whitehead is the ambient Whitehead group.
    """

    def __init__(
        self,
        xmod: CrossedModule,
        whitehead: WhiteheadGroup,
        derivations: tuple,
        automorphisms: tuple,
    ):
        self.xmod = xmod
        self.whitehead = whitehead
        self.derivations = derivations
        self.automorphisms = automorphisms


@memoised
def actor(X: CrossedModule) -> ActorXMod:
    """The crossed module (Whitehead group -> Aut(X)).

    The boundary sends a derivation to the automorphism pair
    (a -> der(boundary(a)) * a, x -> boundary(der(x)) * x); an
    automorphism pair (alpha, beta) acts by alpha o der o beta^-1.
    """
    w = whitehead_group(X)
    auts, morphisms = xmod_automorphism_group(X)
    aut_of = _xmod_auts(X)[1]
    mul0, mul1, bnd = X.g0.mul, X.g1.mul, X.boundary.image_of
    boundary = []
    for der in w.member_derivations:
        img = der.image_of
        sigma = tuple(mul1[img[bnd[a]]][a] for a in X.g1.elements)
        theta = tuple(mul0[bnd[img[x]]][x] for x in X.g0.elements)
        j = aut_of.get((sigma, theta))
        if j is None:
            raise RuntimeError(
                "regular derivation induced an unknown automorphism pair"
            )
        boundary.append(j)
    der_of = {d.image_of: k for k, d in enumerate(w.member_derivations)}
    gens = generating_sequence(auts)
    gen_rows = []
    for j in gens:
        alpha = morphisms[j].alpha.image_of
        beta_inv = morphisms[auts.inv[j]].beta.image_of
        row = []
        for der in w.member_derivations:
            moved = compose_perms(alpha, compose_perms(der.image_of, beta_inv))
            k = der_of.get(moved)
            if k is None:
                raise RuntimeError(
                    "automorphism action left the Whitehead group"
                )
            row.append(k)
        gen_rows.append(tuple(row))
    # the action is a homomorphism, so the row of s c is row s after row c,
    # along the Schreier tree of auts; make_xmod checks that law on every
    # (x, s) of the composed table
    reached, _, edges = _closure(
        auts.identity, [auts.mul[s].__getitem__ for s in gens], auts.order)
    rows: list = [None] * auts.order
    rows[auts.identity] = tuple(range(len(w.member_derivations)))
    for t, (c, j) in zip(reached[1:], edges[1:]):
        rows[t] = compose_perms(gen_rows[j], rows[reached[c]])
    xm = make_xmod(w.carrier, auts, tuple(boundary), rows)
    return ActorXMod(xm, w, w.member_derivations, tuple(morphisms))


def _inner_derivation_table(X: CrossedModule, g1: int) -> tuple:
    """x -> g1 * ^x(g1^-1)."""
    mul1, inv1, act = X.g1.mul, X.g1.inv, X.action
    return tuple(mul1[g1][act[x][inv1[g1]]] for x in X.g0.elements)


def _conjugation_pair(X: CrossedModule, g0: int) -> tuple[tuple, tuple]:
    """(action row of g0, conjugation row of g0)."""
    mul0, inv0 = X.g0.mul, X.g0.inv
    sigma = tuple(X.action[g0])
    theta = tuple(mul0[mul0[g0][y]][inv0[g0]] for y in X.g0.elements)
    return sigma, theta


def canonical_morphism(X: CrossedModule) -> XModMorphism:
    """The morphism X -> actor: inner derivations over conjugation pairs."""
    act_x = actor(X)
    der_of = {d.image_of: k for k, d in enumerate(act_x.derivations)}
    aut_of = _xmod_auts(X)[1]
    alpha = []
    for g1 in X.g1.elements:
        k = der_of.get(_inner_derivation_table(X, g1))
        if k is None:
            raise RuntimeError("inner derivation is not regular")
        alpha.append(k)
    beta = []
    for g0 in X.g0.elements:
        j = aut_of.get(_conjugation_pair(X, g0))
        if j is None:
            raise RuntimeError("conjugation pair is not an automorphism")
        beta.append(j)
    return XModMorphism(
        X,
        act_x.xmod,
        GroupHom(X.g1, act_x.xmod.g1, tuple(alpha)),
        GroupHom(X.g0, act_x.xmod.g0, tuple(beta)),
    )


def inner_actor(X: CrossedModule) -> SubXMod:
    """Image of the canonical morphism, as a subobject of the actor."""
    morphism = canonical_morphism(X)
    return sub_xmod(
        actor(X).xmod,
        set(morphism.alpha.image_of),
        set(morphism.beta.image_of),
    )


def class_preserving_derivations(X: CrossedModule) -> Subgroup:
    """Derivations of the form x -> g1 * ^x(g1^-1), inside the Whitehead
    carrier; subgroup axioms are re-verified on construction."""
    w = whitehead_group(X)
    der_of = {d.image_of: k for k, d in enumerate(w.member_derivations)}
    members = set()
    for g1 in X.g1.elements:
        k = der_of.get(_inner_derivation_table(X, g1))
        if k is None:
            raise RuntimeError("inner derivation is not regular")
        members.add(k)
    return Subgroup(w.carrier, members)


def class_preserving_auts(X: CrossedModule) -> Subgroup:
    """Action/conjugation pairs inside Aut(X); axioms re-verified."""
    auts, _ = xmod_automorphism_group(X)
    aut_of = _xmod_auts(X)[1]
    members = set()
    for g0 in X.g0.elements:
        j = aut_of.get(_conjugation_pair(X, g0))
        if j is None:
            raise RuntimeError("conjugation pair is not an automorphism")
        members.add(j)
    return Subgroup(auts, members)


def class_preserving_actor(X: CrossedModule) -> ActorXMod:
    """The restriction of the actor to class preserving members.

    The induced action (alpha, beta) . der = (x -> alpha(g1) * ^x
    alpha(g1)^-1), for any g1 witnessing der, must not depend on the
    witness; that independence is asserted here and a violation raises
    WellDefinednessError rather than silently picking a witness.
    """
    act_x = actor(X)
    dc = class_preserving_derivations(X)
    ac = class_preserving_auts(X)
    der_of = {d.image_of: k for k, d in enumerate(act_x.derivations)}
    witnesses = {k: [] for k in dc.members}
    for g1 in X.g1.elements:
        witnesses[der_of[_inner_derivation_table(X, g1)]].append(g1)
    for j in ac.members:
        alpha = act_x.automorphisms[j].alpha.image_of
        for k in dc.members:
            moved = {
                _inner_derivation_table(X, alpha[g1])
                for g1 in witnesses[k]
            }
            if len(moved) != 1:
                raise WellDefinednessError(
                    "induced action depends on the witness of a class "
                    "preserving derivation"
                )
            if der_of[moved.pop()] != act_x.xmod.action[j][k]:
                raise WellDefinednessError(
                    "induced action disagrees with the actor action"
                )
    restricted = sub_xmod(act_x.xmod, dc.members, ac.members).as_xmod()
    return ActorXMod(
        restricted,
        act_x.whitehead,
        tuple(act_x.derivations[k] for k in dc.members),
        tuple(act_x.automorphisms[j] for j in ac.members),
    )
