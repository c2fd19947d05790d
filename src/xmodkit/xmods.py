"""Crossed modules of finite groups.

A crossed module is a boundary homomorphism d: G1 -> G0 together with a
left action of G0 on G1 by automorphisms, subject to

  CM1:  d(^x a) = x d(a) x^-1          for all x in G0, a in G1,
  CM2:  ^{d(a)} b = a b a^-1           for all a, b in G1.

The action is stored as a dense table: action[x][a] is ^x a. Validation
failures carry a distinct code and a witness pair.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .catalog import catalog_group
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _cayley_table,
    _check_table,
    _closure,
    _extensions,
    _iter_isos,
    automorphisms,
    compose_perms,
    conjugation_row,
    conjugation_table,
    full_subgroup,
    generating_sequence,
    group_fingerprint,
    identity_hom,
    memoised,
    quotient_group,
    subgroup_generators,
)

SERIAL_VERSION = "v1"


class XModAxiomError(ValueError):
    """A crossed-module axiom failed; carries a code and a witness pair."""

    def __init__(self, code: str, witness, detail: str):
        self.code = code
        self.witness = witness
        super().__init__(f"{code} at {witness}: {detail}")


class WellDefinednessError(RuntimeError):
    """A quotient-level value depended on the choice of representative."""


class CrossedModule:
    """A finite crossed module (G1 -> G0) with a dense action table."""

    __slots__ = ("g1", "g0", "boundary", "action", "_cache")

    def __init__(
        self,
        g1: FiniteGroup,
        g0: FiniteGroup,
        boundary: GroupHom,
        action: Sequence[Sequence[int]],
    ):
        if boundary.source is not g1 or boundary.target is not g0:
            if boundary.source.mul != g1.mul or boundary.target.mul != g0.mul:
                raise ValueError("boundary endpoints do not match the groups")
        self.g1 = g1
        self.g0 = g0
        self.boundary = boundary
        self.action = tuple(tuple(map(int, row)) for row in action)
        self._cache = {}
        n, m = g1.order, g0.order
        if len(self.action) != m or any(len(row) != n for row in self.action):
            raise ValueError("action table must be |G0| rows of length |G1|")
        self._check_action_rows()
        self._check_action_hom()
        self._check_cm1()
        self._check_cm2()

    def _check_action_rows(self):
        n = self.g1.order
        full = frozenset(range(n))
        gens = generating_sequence(self.g1)
        cols = None  # cols[c][a] = a c, formed only if a row needs checking
        passed = _automorphic_rows(self.g1)
        for x, row in enumerate(self.action):
            if row in passed:
                continue
            if frozenset(row) != full:
                raise XModAxiomError(
                    "action-not-automorphic", (x, None),
                    f"row {x} is not a bijection")
            if cols is None:
                cols = tuple(zip(*self.g1.mul))
            # row(a s) = row(a) row(s) for the generators s of g1 gives
            # row(a b) = row(a) row(b) by induction on a word for b
            if not all(
                compose_perms(row, cols[s]) == compose_perms(cols[row[s]], row)
                for s in gens
            ):
                self._scan_action_row(x, row)
            passed.add(row)

    def _scan_action_row(self, x: int, row: tuple[int, ...]):
        """Raise at the first pair (a, b), in scan order, where row x does
        not respect the product."""
        mul1 = self.g1.mul
        for a in self.g1.elements:
            ra = mul1[a]
            for b in self.g1.elements:
                if row[ra[b]] != mul1[row[a]][row[b]]:
                    raise XModAxiomError(
                        "action-not-automorphic", (x, (a, b)),
                        "row does not respect the product")

    def _check_action_hom(self):
        ident = tuple(self.g1.elements)
        if self.action[self.g0.identity] != ident:
            raise XModAxiomError(
                "action-not-homomorphic", (self.g0.identity, None),
                "identity must act trivially")
        mul0 = self.g0.mul
        # rows compared by their index among the distinct rows, so each
        # composite of two rows is formed once, not once per pair (x, y)
        rows = list(dict.fromkeys(self.action))
        index = {row: i for i, row in enumerate(rows)}
        idx = [index[row] for row in self.action]
        # act(x s) = act(x) act(s) for the generators s of g0 gives
        # act(x y) = act(x) act(y) by induction on a word for y
        for s in generating_sequence(self.g0):
            cs = [index.get(compose_perms(r, self.action[s]), -1) for r in rows]
            if any(idx[mx[s]] != cs[i] for mx, i in zip(mul0, idx)):
                self._scan_action_hom(rows, index, idx)

    def _scan_action_hom(self, rows, index, idx):
        """Raise at the first pair (x, y), in scan order, where the action
        of the product is not the composite."""
        mul0 = self.g0.mul
        comp = [[index.get(compose_perms(r, s), -1) for s in rows] for r in rows]
        for x in self.g0.elements:
            cx, mx = comp[idx[x]], mul0[x]
            for y in self.g0.elements:
                if idx[mx[y]] != cx[idx[y]]:
                    raise XModAxiomError(
                        "action-not-homomorphic", (x, y),
                        "action of a product is not the composite")

    def _check_cm1(self):
        d = self.boundary.image_of
        # the action is a homomorphism by now, so CM1 at x and at y gives it
        # at x y: d act(x y) = d act(x) act(y) = conj(x) d act(y) = conj(x y) d
        if all(
            compose_perms(d, self.action[s])
            == compose_perms(conjugation_row(self.g0, s), d)
            for s in generating_sequence(self.g0)
        ):
            return
        conj0 = conjugation_table(self.g0)
        for x, row in enumerate(self.action):
            # d(^x a) = x d(a) x^-1, for every a at once
            if compose_perms(d, row) != compose_perms(conj0[x], d):
                a = next(a for a in self.g1.elements
                         if d[row[a]] != conj0[x][d[a]])
                raise XModAxiomError(
                    "cm1", (x, a),
                    "boundary is not equivariant for the action")

    def _check_cm2(self):
        d = self.boundary.image_of
        conj1 = conjugation_table(self.g1)
        for a in self.g1.elements:
            row = self.action[d[a]]
            if row != conj1[a]:
                b = next(b for b in self.g1.elements if row[b] != conj1[a][b])
                raise XModAxiomError(
                    "cm2", (a, b),
                    "boundary image must act by conjugation")

    def act(self, x: int, a: int) -> int:
        return self.action[x][a]

    def order(self) -> tuple[int, int]:
        return (self.g1.order, self.g0.order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CrossedModule)
            and self.g1.mul == other.g1.mul
            and self.g0.mul == other.g0.mul
            and self.boundary.image_of == other.boundary.image_of
            and self.action == other.action
        )

    @memoised
    def __hash__(self) -> int:
        return hash(
            (hash(self.g1), hash(self.g0), self.boundary.image_of, self.action))

    def __repr__(self) -> str:
        return f"CrossedModule(order={list(self.order())})"


@memoised
def _automorphic_rows(G: FiniteGroup) -> set:
    """The rows already shown to be automorphisms of G's table; grows as
    CrossedModule validates actions on G."""
    return set()


def make_xmod(
    g1: FiniteGroup,
    g0: FiniteGroup,
    boundary,
    action: Sequence[Sequence[int]],
) -> CrossedModule:
    """Build and fully validate a crossed module.

    boundary may be a GroupHom or a plain image table.  The action laws
    are checked on generators: each row against the generators of g1, and
    the action of a product against the generators of g0, which implies
    them for every pair.  Once the action is a homomorphism, CM1 too is
    checked on the generators of g0.  When a generator check fails, the
    full table is scanned, so the error carries the first failing pair in
    scan order.
    """
    if not isinstance(boundary, GroupHom):
        boundary = GroupHom(g1, g0, boundary)
    return CrossedModule(g1, g0, boundary, action)


@memoised
def identity_xmod(M: FiniteGroup) -> CrossedModule:
    """(M -> M) with the identity boundary and conjugation action; built
    once per group, so every caller shares its cached centre, pairing and
    isoclinism keys."""
    action = tuple(
        tuple(M.conj(x, a) for a in M.elements) for x in M.elements
    )
    return CrossedModule(M, M, identity_hom(M), action)


def inclusion_xmod(M: FiniteGroup, N) -> CrossedModule:
    """(N -> M) for a normal subgroup N, with the conjugation action."""
    if not isinstance(N, Subgroup):
        N = Subgroup(M, N)
    if not N.is_normal():
        raise ValueError("inclusion_xmod requires a normal subgroup")
    sub = N.as_group()
    sub_index = {g: i for i, g in enumerate(N.members)}
    boundary = GroupHom(sub, M, N.members, check=False)
    action = tuple(
        tuple(sub_index[M.conj(x, g)] for g in N.members) for x in M.elements
    )
    return CrossedModule(sub, M, boundary, action)


def module_xmod(
    K: FiniteGroup, L: FiniteGroup, action: Optional[Sequence[Sequence[int]]] = None
) -> CrossedModule:
    """(K -> L) with zero boundary; K must be abelian (CM2 fails otherwise)."""
    if action is None:
        row = tuple(K.elements)
        action = tuple(row for _ in L.elements)
    boundary = GroupHom(K, L, (L.identity,) * K.order, check=False)
    return CrossedModule(K, L, boundary, action)


class SubXMod:
    """A sub-crossed-module: levelwise subgroups closed under the data."""

    __slots__ = ("parent", "s1", "s0", "_cache")

    def __init__(self, parent: CrossedModule, s1: Subgroup, s0: Subgroup):
        self.parent = parent
        self.s1 = s1
        self.s0 = s0
        self._cache = {}

    @property
    def order(self) -> tuple[int, int]:
        return (self.s1.order, self.s0.order)

    def is_full(self) -> bool:
        return self.s1.is_full() and self.s0.is_full()

    def is_trivial(self) -> bool:
        return self.s1.is_trivial() and self.s0.is_trivial()

    def members(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.s1.members, self.s0.members)

    @memoised
    def as_xmod(self) -> CrossedModule:
        """The sub-crossed-module as a standalone crossed module."""
        X = self.parent
        g1 = self.s1.as_group()
        g0 = self.s0.as_group()
        i1 = {g: i for i, g in enumerate(self.s1.members)}
        i0 = {g: i for i, g in enumerate(self.s0.members)}
        boundary = GroupHom(
            g1, g0,
            tuple(i0[X.boundary(g)] for g in self.s1.members),
            check=False,
        )
        action = tuple(
            tuple(i1[X.act(x, a)] for a in self.s1.members)
            for x in self.s0.members
        )
        return CrossedModule(g1, g0, boundary, action)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubXMod)
            and self.parent == other.parent
            and self.s1.members == other.s1.members
            and self.s0.members == other.s0.members
        )

    def __hash__(self) -> int:
        return hash((self.s1.members, self.s0.members))

    def __repr__(self) -> str:
        return f"SubXMod(order={list(self.order)})"


def _level_subgroup(G: FiniteGroup, s) -> Subgroup:
    """s as a Subgroup of G: a member set, or a Subgroup of G itself or of
    a group with an equal table, whose members are then checked again."""
    if isinstance(s, Subgroup):
        if s.parent is G:
            return s
        if s.parent.mul != G.mul:
            raise ValueError("subgroup of a different group")
        s = s.members
    return Subgroup(G, s)


def sub_xmod(X: CrossedModule, s1, s0) -> SubXMod:
    """Validated sub-crossed-module from levelwise member sets or
    subgroups."""
    s1, s0 = _level_subgroup(X.g1, s1), _level_subgroup(X.g0, s0)
    for a in s1.members:
        if X.boundary(a) not in s0.member_set:
            raise ValueError(f"boundary image of {a} leaves the level-0 part")
    for x in s0.members:
        row = X.action[x]
        for a in s1.members:
            if row[a] not in s1.member_set:
                raise ValueError(
                    f"level-1 part not closed under the action: ({x},{a})")
    return SubXMod(X, s1, s0)


def full_subxmod(X: CrossedModule) -> SubXMod:
    return SubXMod(X, full_subgroup(X.g1), full_subgroup(X.g0))


def trivial_subxmod(X: CrossedModule) -> SubXMod:
    return SubXMod(
        X,
        Subgroup(X.g1, (X.g1.identity,), check=False),
        Subgroup(X.g0, (X.g0.identity,), check=False),
    )


def is_normal_subxmod(X: CrossedModule, S: SubXMod) -> bool:
    """S0 normal in G0, S1 stable under all of G0, and displacements of
    S0 against G1 land in S1; each checked on generators.

    Each ^x is an automorphism, so it maps S1 into S1 once it maps the
    generators of S1 in, and the x that do form a subgroup of G0.  With S1
    stable, the a whose displacement by one x lies in S1 form a subgroup
    of G1, since
        ^x(ab) (ab)^-1 = (^x a a^-1) a (^x b b^-1) a^-1
    and conjugation by a is the action of its boundary (CM2); and the x
    whose displacements all lie in S1 are closed under products, since
        ^xy a a^-1 = ^x(^y a a^-1) (^x a a^-1).
    S1 is then normal in G1 by CM2."""
    if S.parent is not X and S.parent != X:
        raise ValueError("subxmod of a different crossed module")
    if not S.s0.is_normal():
        return False
    s1set, act = S.s1.member_set, X.action
    gens1 = subgroup_generators(S.s1)
    if any(act[x][a] not in s1set
           for x in generating_sequence(X.g0) for a in gens1):
        return False
    mul1, inv1 = X.g1.mul, X.g1.inv
    return all(
        mul1[act[x][a]][inv1[a]] in s1set
        for x in subgroup_generators(S.s0)
        for a in generating_sequence(X.g1)
    )


class XModMorphism:
    """A morphism of crossed modules: compatible level maps (alpha, beta)."""

    __slots__ = ("source", "target", "alpha", "beta")

    def __init__(
        self,
        source: CrossedModule,
        target: CrossedModule,
        alpha: GroupHom,
        beta: GroupHom,
        *,
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.alpha = alpha
        self.beta = beta
        if check:
            dS, dT = source.boundary.image_of, target.boundary.image_of
            a, b = alpha.image_of, beta.image_of
            for x in source.g1.elements:
                if b[dS[x]] != dT[a[x]]:
                    raise ValueError(f"boundary square fails at {x}")
            for x in source.g0.elements:
                row_s = source.action[x]
                row_t = target.action[b[x]]
                for y in source.g1.elements:
                    if a[row_s[y]] != row_t[a[y]]:
                        raise ValueError(f"equivariance fails at ({x},{y})")

    def is_iso(self) -> bool:
        return self.alpha.is_bijective() and self.beta.is_bijective()

    def inverse(self) -> "XModMorphism":
        if not self.is_iso():
            raise ValueError("not invertible")
        return XModMorphism(
            self.target, self.source,
            self.alpha.inverse(), self.beta.inverse(), check=False,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XModMorphism)
            and self.alpha.image_of == other.alpha.image_of
            and self.beta.image_of == other.beta.image_of
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash((self.alpha.image_of, self.beta.image_of))

    def __repr__(self) -> str:
        return (
            f"XModMorphism({list(self.source.order())} -> "
            f"{list(self.target.order())})"
        )


def identity_morphism(X: CrossedModule) -> XModMorphism:
    return XModMorphism(
        X, X, identity_hom(X.g1), identity_hom(X.g0), check=False
    )


def quotient_xmod(X: CrossedModule, N: SubXMod) -> tuple[CrossedModule, XModMorphism]:
    """Quotient by a normal sub-crossed-module, with the projection.

    Both the induced boundary and the induced action are checked to be
    independent of coset representatives (WellDefinednessError otherwise).
    """
    if not is_normal_subxmod(X, N):
        raise ValueError("quotient requires a normal sub-crossed-module")
    q1, p1 = quotient_group(X.g1, N.s1)
    q0, p0 = quotient_group(X.g0, N.s0)
    pi1, pi0 = p1.image_of, p0.image_of
    d = X.boundary.image_of
    bnd = [None] * q1.order
    for a in X.g1.elements:
        c = pi1[a]
        v = pi0[d[a]]
        if bnd[c] is None:
            bnd[c] = v
        elif bnd[c] != v:
            raise WellDefinednessError(
                f"boundary on coset {c} depends on the representative")
    act = [[None] * q1.order for _ in range(q0.order)]
    for x in X.g0.elements:
        row = X.action[x]
        arow = act[pi0[x]]
        for a in X.g1.elements:
            c = pi1[a]
            v = pi1[row[a]]
            if arow[c] is None:
                arow[c] = v
            elif arow[c] != v:
                raise WellDefinednessError(
                    f"action on coset pair ({pi0[x]},{c}) depends on the "
                    "representative")
    quotient = CrossedModule(
        q1, q0, GroupHom(q1, q0, bnd, check=False), act
    )
    proj = XModMorphism(X, quotient, p1, p0, check=False)
    return quotient, proj


def product(H: SubXMod, K: SubXMod) -> SubXMod:
    """Levelwise product H*K; K must be normal so the products are groups."""
    if H.parent != K.parent:
        raise ValueError("subxmods of different crossed modules")
    X = H.parent
    if not is_normal_subxmod(X, K):
        raise ValueError("second factor must be a normal sub-crossed-module")
    mul1, mul0 = X.g1.mul, X.g0.mul
    s1 = {mul1[h][k] for h in H.s1.members for k in K.s1.members}
    s0 = {mul0[h][k] for h in H.s0.members for k in K.s0.members}
    return sub_xmod(X, s1, s0)


def kernel(f: XModMorphism) -> SubXMod:
    return sub_xmod(
        f.source,
        f.alpha.kernel_subgroup().members,
        f.beta.kernel_subgroup().members,
    )


def image(f: XModMorphism) -> SubXMod:
    return sub_xmod(
        f.target, set(f.alpha.image_of), set(f.beta.image_of)
    )


# --- isomorphism search ---


@memoised
def xmod_fingerprint(X: CrossedModule) -> tuple:
    """Cheap isomorphism invariants used to prefilter searches."""
    d = X.boundary.image_of
    ord1, ord0 = X.g1.elem_order, X.g0.elem_order
    fix = [
        a for a in X.g1.elements
        if all(row[a] == a for row in X.action)
    ]
    ident = tuple(X.g1.elements)
    stab = [x for x in X.g0.elements if X.action[x] == ident]
    steps = [row.__getitem__ for row in X.action]
    orbit_sizes = []
    seen = set()
    for a in X.g1.elements:
        if a not in seen:
            orbit = _closure(a, steps, X.g1.order)[0]
            seen.update(orbit)
            orbit_sizes.append(len(orbit))
    return (
        group_fingerprint(X.g1),
        group_fingerprint(X.g0),
        tuple(sorted((ord1[a], ord0[d[a]]) for a in X.g1.elements)),
        len(fix),
        len(stab),
        tuple(sorted(orbit_sizes)),
    )


def _alpha_tables(
    X: CrossedModule, Y: CrossedModule, bt: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Image tables of the alpha that pair with the isomorphism bt of the
    base groups into an isomorphism X -> Y, in backtracking order: by
    ascending images of generating_sequence(X.g1).

    Equivariance, alpha o act_X(x) = act_Y(beta x) o alpha, is checked
    for x in generating_sequence(g0) only: both actions are homomorphisms
    into the automorphisms (CrossedModule validates both), so it then
    holds on every product."""
    dX, dY = X.boundary.image_of, Y.boundary.image_of
    g1x, g1y = X.g1, Y.g1
    eo_x, eo_y = g1x.elem_order, g1y.elem_order
    bd = compose_perms(bt, dX)
    rows = [(X.action[x], Y.action[bt[x]]) for x in generating_sequence(X.g0)]

    def candidates(g: int) -> list[int]:
        want = bd[g]
        return [h for h in g1y.elements if eo_y[h] == eo_x[g] and dY[h] == want]

    for img in _extensions(g1x, g1y, candidates):
        if len(set(img)) != g1x.order:
            continue
        if compose_perms(dY, img) == bd and all(
            compose_perms(img, row_s) == compose_perms(row_t, img)
            for row_s, row_t in rows
        ):
            yield img


def all_xmod_isos(X: CrossedModule, Y: CrossedModule) -> Iterator[XModMorphism]:
    """Every isomorphism X -> Y, searching beta first; on X against itself
    the identity comes first.  The betas come in all_isos order, each
    found when drawn unless the base groups are one object (its cached
    automorphisms), and for each beta the alphas come in _alpha_tables
    order."""
    if X.order() != Y.order():
        return
    same = X == Y
    if same:
        yield identity_morphism(X)
    g1x, g1y = X.g1, Y.g1
    id_pair = (tuple(g1x.elements), tuple(X.g0.elements))
    if X.g0 is Y.g0:
        betas = automorphisms(X.g0)
    else:
        betas = _iter_isos(X.g0, Y.g0)
    for beta in betas:
        for img in _alpha_tables(X, Y, beta.image_of):
            if same and (img, beta.image_of) == id_pair:
                continue
            alpha = GroupHom(g1x, g1y, img, check=False)
            yield XModMorphism(X, Y, alpha, beta, check=False)


def is_isomorphic_xmod(
    X: CrossedModule, Y: CrossedModule
) -> Optional[XModMorphism]:
    """First isomorphism found, or None; modules whose fingerprints
    differ are rejected without a search."""
    if xmod_fingerprint(X) != xmod_fingerprint(Y):
        return None
    return next(all_xmod_isos(X, Y), None)


def _xmod_aut_pairs(X: CrossedModule) -> list[tuple[GroupHom, tuple[int, ...]]]:
    """The (beta, alpha image table) pairs of Aut(X), in all_xmod_isos(X, X)
    order, built from cosets of the kernel instead of one search per beta.

    Aut(X) is the stabilizer of (boundary, action) in Aut(g1) x Aut(g0),
    so the alphas over one beta of its projection B are a coset a_beta K
    of the kernel K = {alpha : (alpha, 1) in Aut(X)}.  K is searched in
    full once.  B is a group, so it is closed over beta from the betas a
    first-hit search pairs with an alpha, carrying one alpha per beta; a
    beta that no alpha pairs with lies outside B, and so does its coset
    beta B.  Each beta is searched only when neither is known yet."""
    g1, betas = X.g1, automorphisms(X.g0)
    ident = betas[0].image_of
    kernel = list(_alpha_tables(X, X, ident))
    steps: list = []  # x -> x o beta for the betas found, which generate B
    B = _closure(ident, steps, len(betas))  # grows in place
    members, position, edges = B
    alphas = [tuple(g1.elements)]  # alphas[i] pairs with members[i]
    found: list[tuple[int, ...]] = []  # the alpha of each step
    failed: list[tuple[int, ...]] = []
    outside: set = set()
    for beta in betas:
        bt = beta.image_of
        if bt in position or bt in outside:
            continue
        alpha = next(_alpha_tables(X, X, bt), None)
        if alpha is None:
            failed.append(bt)
            outside.update(compose_perms(bt, b) for b in members)
            continue
        # a non-identity beta has |g0| > 2 entries, so itemgetter is x o beta
        steps.append(itemgetter(*bt))
        found.append(alpha)
        _closure(ident, steps, len(betas), B)
        for c, j in edges[len(alphas):]:
            alphas.append(compose_perms(alphas[c], found[j]))
        # B grew, so every failed coset grew with it
        outside = {compose_perms(f, b) for f in failed for b in members}
    gens1 = generating_sequence(g1)
    pairs = []
    for beta in betas:
        i = position.get(beta.image_of)
        if i is not None:
            coset = [compose_perms(alphas[i], k) for k in kernel]
            # _alpha_tables order: ascending images of the generators
            coset.sort(key=lambda t: [t[g] for g in gens1])
            pairs.extend((beta, t) for t in coset)
    return pairs


@memoised
def xmod_automorphism_group(
    X: CrossedModule,
) -> tuple[FiniteGroup, list[XModMorphism]]:
    """Aut(X) with composition (f*g) = f after g; identity is element 0.

    The list is all_xmod_isos(X, X) in its order, identity first; the
    table is built row by row from generators of the group.

    The table has |Aut X|^2 entries, so more than TABLE_CAP automorphisms
    raise CapExceededError once they are listed, before the table is
    built.  The largest |Aut X| over the representatives of [4,4], [8,4],
    [9,9], [12,12] and [20,20] is 2304 ([9,9] representative 13), a 5.3 M
    entry table, 10.6 MB in 2-byte rows; on a 2-vCPU VM tracemalloc reads
    a 12 MiB peak inside this call, and the process that also builds the
    actor peaks at 32 MiB after 0.8 s (scripts/aut_peaks.py).  TABLE_CAP
    = 3000 admits it, and tables up to 9 M entries.  At [8,8] |Aut X|
    reaches 4032 (16 M entries) and 28224 (797 M entries, representative
    282), whose list takes 0.05 s; both are refused."""
    auts, index = _xmod_auts(X)
    table = _cayley_table(
        list(index), index,
        lambda f, g: (compose_perms(f[0], g[0]), compose_perms(f[1], g[1])),
    )
    return FiniteGroup._of_table(table, check=False), auts


@memoised
def _xmod_auts(X: CrossedModule) -> tuple[list[XModMorphism], dict]:
    """xmod_automorphism_group's list, and the position in it of each pair
    (alpha, beta) of image tables: the one index of Aut(X), which the
    table and the actor read.  The list is checked against the table cap."""
    pairs = _xmod_aut_pairs(X)
    _check_table(len(pairs), len(pairs), f"|Aut X| = {len(pairs)}")
    g1 = X.g1
    id_pair = (tuple(g1.elements), tuple(X.g0.elements))
    auts, index = [identity_morphism(X)], {id_pair: 0}
    for beta, img in pairs:
        pair = (img, beta.image_of)
        if pair != id_pair:
            index[pair] = len(auts)
            alpha = GroupHom(g1, g1, img, check=False)
            auts.append(XModMorphism(X, X, alpha, beta, check=False))
    return auts, index


# --- serialization ---


def _serialize_group(tag: str, G: FiniteGroup) -> list[str]:
    if G.catalog_id is not None:
        order, index = G.catalog_id
        return [f"{tag} catalog {order} {index}"]
    lines = [f"{tag} table {G.order}"]
    for row in G.mul:
        lines.append("  " + " ".join(str(v) for v in row))
    return lines


def serialize_xmod(X: CrossedModule) -> str:
    """Canonical plain-text form; round-trips bit-exactly through parse."""
    lines = [f"xmod {SERIAL_VERSION}"]
    lines += _serialize_group("g1", X.g1)
    lines += _serialize_group("g0", X.g0)
    lines.append("boundary " + " ".join(str(v) for v in X.boundary.image_of))
    lines.append("action")
    for row in X.action:
        lines.append("  " + " ".join(str(v) for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ValueError("unexpected end of serialized crossed module")
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _parse_group(reader: _LineReader, tag: str) -> FiniteGroup:
    parts = reader.next().split()
    if len(parts) < 2 or parts[0] != tag:
        raise ValueError(f"expected a {tag} record")
    if parts[1] == "catalog":
        return catalog_group(int(parts[2]), int(parts[3]))
    if parts[1] == "table":
        order = int(parts[2])
        rows = [tuple(map(int, reader.next().split())) for _ in range(order)]
        return FiniteGroup(rows)
    raise ValueError(f"unknown group form {parts[1]!r}")


def parse_xmod(text: str) -> CrossedModule:
    reader = _LineReader(text)
    header = reader.next().split()
    if header[:1] != ["xmod"]:
        raise ValueError("not a serialized crossed module")
    if header[1:] != [SERIAL_VERSION]:
        raise ValueError(f"unsupported version {header[1:]}")
    g1 = _parse_group(reader, "g1")
    g0 = _parse_group(reader, "g0")
    bnd_parts = reader.next().split()
    if bnd_parts[:1] != ["boundary"]:
        raise ValueError("expected a boundary record")
    boundary = GroupHom(g1, g0, tuple(map(int, bnd_parts[1:])))
    if reader.next().strip() != "action":
        raise ValueError("expected the action block")
    action = [tuple(map(int, reader.next().split())) for _ in range(g0.order)]
    if reader.next().strip() != "end":
        raise ValueError("expected the end marker")
    return CrossedModule(g1, g0, boundary, action)
