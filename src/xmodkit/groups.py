"""Finite groups as dense multiplication tables.

Elements of a group of order n are the integers 0..n-1; every constructor
in this package places the identity at index 0. Homomorphisms are full
image tables, enumerated deterministically by generator-image backtracking.

A table's rows are tuples of ints up to order COMPACT_ORDER, where the
census's hot loops index them.  Above it each row is an array('H') of
2-byte entries, a quarter of the memory of a row of 8-byte pointers: the
large tables are Aut(X), the range of the actor, and Aut(G) and closures
past 256 elements.  The order alone fixes the row type, so two groups
with equal tables have equal rows of one type.
"""

from __future__ import annotations

import zlib
from array import array
from functools import wraps
from itertools import product as iproduct
from operator import itemgetter
from struct import Struct
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

# the most rows of any dense table this package builds: 9 M entries, 18 MB
# in 2-byte rows.  It admits |Aut X| = 2304 at [9,9] and refuses |Aut C2^4|
# = 20160; every bound is _check_table, before its table is built
TABLE_CAP = 3000
# tables of larger order store their rows as 2-byte arrays (_row_type);
# an order-256 tuple table holds 65 536 entries
COMPACT_ORDER = 256


class CapExceededError(ValueError):
    """A table, or the search or closure that lists its rows, would pass
    TABLE_CAP rows of TABLE_CAP entries; raised before it is built."""


def _check_table(rows: int, width: int, what: str) -> None:
    """Refuse, before it is built, a table of rows x width entries past
    TABLE_CAP x TABLE_CAP: the one check of every resource bound."""
    if rows * width > TABLE_CAP * TABLE_CAP:
        raise CapExceededError(
            f"{what}: a table of {rows} x {width} entries passes the cap of "
            f"{TABLE_CAP} x {TABLE_CAP}")


_MISSING = object()


def memoised(f):
    """f(obj, *args), computed once per object and arguments and kept in
    obj._cache: under the memoised function itself, or under a tuple led by
    it when there are arguments.  A value is stored only once f returns, so
    a call that raises raises again when repeated.  This is the package's
    one memo: the attributes the paper's GAP implementation stores on each
    object (centre, derived sub-crossed-module, automorphisms, ...)."""

    @wraps(f)
    def once(obj, *args):
        key = (once, *args) if args else once
        cache = obj._cache
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = f(obj, *args)
        return value

    return once


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    __slots__ = (
        "order",
        "mul",
        "identity",
        "inv",
        "elem_order",
        "catalog_id",
        "_cache",
    )

    def __init__(
        self,
        mul: Sequence[Sequence[int]],
        *,
        catalog_id: Optional[tuple[int, int]] = None,
        check: bool = True,
    ):
        self._build(tuple(tuple(map(int, row)) for row in mul), catalog_id, check)

    @classmethod
    def _of_table(
        cls, table: tuple[Sequence[int], ...], *, check: bool = True
    ) -> "FiniteGroup":
        """A group from a table built inside the package, a tuple of int
        rows, taken as it is when its rows have _row_type already: no
        per-entry copy."""
        group = cls.__new__(cls)
        group._build(table, None, check)
        return group

    def _build(self, table: tuple[Sequence[int], ...], catalog_id, check: bool):
        n = len(table)
        if n == 0:
            raise ValueError("empty multiplication table")
        full = set(range(n))
        # one set per row settles the square, range and row checks at once;
        # when it fails, the scans name the first fault in their order
        if not all(len(row) == n and set(row) == full for row in table):
            for row in table:
                if len(row) != n:
                    raise ValueError("multiplication table must be square")
                if min(row) < 0 or max(row) >= n:
                    raise ValueError("table entry out of range")
            # entries are in range, so n distinct entries make a permutation
            for i, row in enumerate(table):
                if len(set(row)) != n:
                    raise ValueError(f"row {i} is not a permutation")
        for j, col in enumerate(zip(*table)):
            if len(set(col)) != n:
                raise ValueError(f"column {j} is not a permutation")
        # every row of the type the order fixes, so that equal tables are
        # equal rows; entries are in range now, so a 2-byte row holds them
        as_row = _row_type(n)
        ident_row = as_row(range(n))
        if not all(type(row) is type(ident_row) for row in table):
            table = tuple(map(as_row, table))
        identity = next(
            (e for e in range(n)
             if table[e] == ident_row
             and as_row(map(itemgetter(e), table)) == ident_row),
            None,
        )
        if identity is None:
            raise ValueError("no two-sided identity")
        # tables built with check=False come from closures, which are
        # associative by build.  Light's test runs on the generating
        # sequence, kept for generating_sequence; when it fails, the scan
        # compares row a b with row a composed with row b, one (a, b) at a
        # time, and names the first failing triple
        gens = None
        if check:
            gens = _greedy_generators(
                range(n), lambda s: table[s].__getitem__, identity, n)[0]
        if gens is not None and not _light_associative(table, gens, as_row):
            for a in range(n):
                ra = table[a]
                for b in range(n):
                    rb = table[b]
                    tab = table[ra[b]]
                    if tab != as_row(compose_perms(ra, rb)):
                        c = next(c for c in range(n) if tab[c] != ra[rb[c]])
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        # the powers of x run to x^k = 1, so x^(k-1) is the inverse of x
        inv = [0] * n
        orders = [1] * n
        for x in range(n):
            y = last = x
            k = 1
            while y != identity:
                last = y
                y = table[y][x]
                k += 1
            inv[x] = last
            orders[x] = k
        self.order = n
        self.mul = table
        self.identity = identity
        self.inv = tuple(inv)
        self.elem_order = tuple(orders)
        self.catalog_id = catalog_id
        self._cache = {} if gens is None else {_generators: tuple(gens)}

    @property
    def elements(self) -> range:
        return range(self.order)

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        m = self.mul
        return m[m[m[a][b]][self.inv[a]]][self.inv[b]]

    @memoised
    def is_abelian(self) -> bool:
        m = self.mul
        return all(
            m[a][b] == m[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.mul == other.mul

    @memoised
    def __hash__(self) -> int:
        if self.order <= COMPACT_ORDER:
            return hash(self.mul)
        # 2-byte rows are not hashable: one CRC over them, row by row, so
        # no tuple copy of the table is made
        crc = 0
        for row in self.mul:
            crc = zlib.crc32(row, crc)
        return hash((self.order, crc))

    def __repr__(self) -> str:
        tag = f", catalog_id={self.catalog_id}" if self.catalog_id else ""
        return f"FiniteGroup(order={self.order}{tag})"


def _light_associative(
    table: tuple[Sequence[int], ...],
    gens: Sequence[int],
    as_row: Callable[[Iterable[int]], Sequence[int]],
) -> bool:
    """Light's associativity test on a Latin square with an identity.

    The elements s with (x s) y = x (s y) for all x, y are closed under
    the product: x (s t) = (x s) t, so (x (s t)) y = (x s)(t y) =
    x (s (t y)) = x ((s t) y).  So the test needs only gens, a set whose
    closure from the identity covers the table.  Each s costs n
    compositions of rows: row x s against row x composed with row s,
    made a row of the table's type by as_row.
    """
    for s in gens:
        # rx -> rx o (row s), one C-level lookup per entry; a table with
        # a generator has n > 1 entries per row, so the result is a tuple
        after_s = itemgetter(*table[s])
        if any(table[rx[s]] != as_row(after_s(rx)) for rx in table):
            return False
    return True


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted member tuple."""

    __slots__ = ("parent", "members", "member_set", "_cache")

    def __init__(self, parent: FiniteGroup, members: Iterable[int], *, check: bool = True):
        self.parent = parent
        self.members = tuple(sorted(set(int(x) for x in members)))
        self.member_set = frozenset(self.members)
        self._cache = {}
        if check:
            if parent.identity not in self.member_set:
                raise ValueError("subgroup must contain the identity")
            mul = parent.mul
            for a in self.members:
                if parent.inv[a] not in self.member_set:
                    raise ValueError(f"subgroup not closed under inverse: {a}")
                row = mul[a]
                for b in self.members:
                    if row[b] not in self.member_set:
                        raise ValueError(f"subgroup not closed: ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    def is_full(self) -> bool:
        return len(self.members) == self.parent.order

    def is_trivial(self) -> bool:
        return self.members == (self.parent.identity,)

    @memoised
    def is_normal(self) -> bool:
        """Whether conjugation by each generator of the parent maps each
        generator of the subgroup into it.  Conjugation by g is an
        automorphism, so it maps the subgroup into itself once it maps the
        generators in, and the g that do form a subgroup of the parent."""
        par = self.parent
        return all(
            par.conj(g, h) in self.member_set
            for g in generating_sequence(par)
            for h in subgroup_generators(self)
        )

    def as_group(self) -> FiniteGroup:
        """The subgroup as its own FiniteGroup; index i maps to members[i].

        Built once per member set of the parent, so every Subgroup object
        with these members returns the same group."""
        return _subgroup_table_group(self.parent, self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.members == other.members
            and (self.parent is other.parent or self.parent.mul == other.parent.mul)
        )

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


@memoised
def _subgroup_table_group(G: FiniteGroup, members: tuple[int, ...]) -> FiniteGroup:
    idx = {m: i for i, m in enumerate(members)}
    mul = G.mul
    return FiniteGroup._of_table(
        tuple(tuple(idx[mul[a][b]] for b in members) for a in members))


class GroupHom:
    """A homomorphism between finite groups as a full image table."""

    __slots__ = ("source", "target", "image_of")

    def __init__(
        self,
        source: FiniteGroup,
        target: FiniteGroup,
        image_of: Sequence[int],
        *,
        check: bool = True,
    ):
        self.source = source
        self.target = target
        # unchecked maps come from the package's own int tables, so they
        # skip the per-entry copy but not the range check
        img = tuple(map(int, image_of)) if check else tuple(image_of)
        self.image_of = img
        if len(img) != source.order:
            raise ValueError("image table length mismatch")
        if min(img) < 0 or max(img) >= target.order:
            raise ValueError("image out of range")
        if check:
            if self.image_of[source.identity] != target.identity:
                raise ValueError("identity not preserved")
            ms, mt = source.mul, target.mul
            for a in source.elements:
                ia = img[a]
                ra = ms[a]
                for b in source.elements:
                    if img[ra[b]] != mt[ia][img[b]]:
                        raise ValueError(f"not a homomorphism at ({a},{b})")

    def __call__(self, x: int) -> int:
        return self.image_of[x]

    def after(self, other: "GroupHom") -> "GroupHom":
        """self ∘ other (apply other first)."""
        if other.target is not self.source and other.target.mul != self.source.mul:
            raise ValueError("composition domain mismatch")
        img = tuple(self.image_of[y] for y in other.image_of)
        return GroupHom(other.source, self.target, img, check=False)

    def is_injective(self) -> bool:
        return len(set(self.image_of)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.image_of)) == self.target.order

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_injective()

    def kernel_subgroup(self) -> Subgroup:
        e = self.target.identity
        return Subgroup(
            self.source,
            (x for x in self.source.elements if self.image_of[x] == e),
            check=False,
        )

    def image_subgroup(self) -> Subgroup:
        return Subgroup(self.target, set(self.image_of), check=False)

    def inverse(self) -> "GroupHom":
        if not self.is_bijective():
            raise ValueError("not invertible")
        img = [0] * self.target.order
        for x, y in enumerate(self.image_of):
            img[y] = x
        return GroupHom(self.target, self.source, img, check=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.image_of == other.image_of
            and self.source.mul == other.source.mul
            and self.target.mul == other.target.mul
        )

    def __hash__(self) -> int:
        return hash(self.image_of)

    def __repr__(self) -> str:
        return f"GroupHom({self.source.order} -> {self.target.order})"


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, tuple(G.elements), check=False)


def group_from_closure(
    generators: Sequence[Hashable],
    op: Callable[[Hashable, Hashable], Hashable],
    identity: Hashable,
) -> tuple[FiniteGroup, list]:
    """Close a generating set under an associative product.

    Returns the group and its element list; element i of the group is
    elements[i], with the identity first. Discovery order is a breadth
    first walk multiplying known elements by generators on the right,
    which stops and raises CapExceededError past TABLE_CAP elements.
    """
    steps = [lambda a, g=g: op(a, g) for g in generators]
    elements, index, _ = _closure(identity, steps, TABLE_CAP)
    _check_table(len(elements), len(elements), "closure")
    return FiniteGroup._of_table(_cayley_table(elements, index, op)), elements


def _closure(
    identity: Hashable,
    steps: Sequence[Callable[[Hashable], Hashable]],
    limit: int,
    known: Optional[tuple[list, dict, list]] = None,
) -> tuple[list, dict, list]:
    """The breadth-first closure of identity under steps, one map per
    generator taking an element to its product with that generator.

    Without known, every step is applied once to each element in turn, and
    a new element takes the next number when first met.  The walk stops
    past limit elements, a bound only group_from_closure's closure can pass.

    Returns (elements, index, edges), the identity first.  edges[t] = (c, j)
    is the edge that first reached elements[t] = steps[j](elements[c]), with
    c < t, so the edges form a Schreier tree of the closure; edges[0] is
    None.  known, a closure under steps[:-1], is extended in place by the
    last step: its elements are closed under the other steps already.
    """
    if known is None:
        elements, index, edges = [identity], {identity: 0}, [None]
        old = 0
    else:
        elements, index, edges = known
        old = len(elements)
    every = list(enumerate(steps))
    newest = every[-1:]
    for c, x in enumerate(elements):
        for j, step in newest if c < old else every:
            y = step(x)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                edges.append((c, j))
                if len(elements) > limit:
                    return elements, index, edges
    return elements, index, edges


def _greedy_generators(
    candidates: Iterable[Hashable],
    step_of: Callable[[Hashable], Callable[[Hashable], Hashable]],
    identity: Hashable,
    limit: int,
) -> tuple[list, tuple[list, dict, list]]:
    """The candidates, in their order, that the earlier picks do not
    generate, with the _closure of the picks under step_of(pick).

    Stops once the closure holds limit elements."""
    picks: list = []
    steps: list = []
    closure = _closure(identity, steps, limit)  # grows in place
    reached, index, _ = closure
    for g in candidates:
        if len(reached) == limit:
            break
        if g not in index:
            picks.append(g)
            steps.append(step_of(g))
            _closure(identity, steps, limit, closure)
    return picks, closure


def _row_type(n: int) -> Callable[[Iterable[int]], Sequence[int]]:
    """The row of a group table of order n, made from its n entries: a
    tuple up to COMPACT_ORDER, above it a 2-byte array('H').  Tables are
    capped far below the 65 536 elements that 2 bytes can name.

    A compact row is filled from the entries packed to bytes in one
    struct call: array('H', entries) parses every entry on its own, which
    cost Light's test more than composing the rows it compares.  An array
    read from bytes is allocated 1/16 too long, so the row kept is its
    copy, which is allocated to size."""
    if n <= COMPACT_ORDER:
        return tuple
    pack = Struct(f"{n}H").pack
    return lambda entries: array("H", array("H", pack(*entries)))


def _cayley_table(
    elements: Sequence[Hashable],
    index: dict,
    op: Callable[[Hashable, Hashable], Hashable],
) -> tuple[Sequence[int], ...]:
    """The multiplication table of a closed element list, identity first,
    built row by row from a Cayley graph instead of |G|^2 calls to op.

    Generators are picked greedily in index order.  Each generator g costs
    one left-multiplication map L_g = (index[g e_i])_i, which is row g;
    every other row t, reached by the edge e_t = e_r e_c of the Schreier
    tree from a generator r and a row c, is L_r composed with row c, since
    e_t e_i = e_r (e_c e_i).  By associativity this is the table of op,
    entry for entry.  Each row is made _row_type(n) as it is composed, so
    a large table never exists as tuples.  Unpacking a parent row boxes
    its 2-byte entries, so it is done once per parent, not per child.
    """
    n = len(elements)
    as_row = _row_type(n)
    lefts: list[tuple[int, ...]] = []

    def left(g: int):
        e_g = elements[g]
        lefts.append(tuple(index[op(e_g, a)] for a in elements))
        return lefts[-1].__getitem__

    _, (reached, _, edges) = _greedy_generators(range(n), left, 0, n)
    rows: list = [None] * n
    rows[0] = as_row(range(n))
    # sorted by parent; a parent precedes its children in the tree, so its
    # row is built before they read it
    parent = None
    for (c, j), t in sorted(zip(edges[1:], reached[1:])):
        if c != parent:
            # a table with a child has n > 1 entries per row: tuples come back
            parent, after_c = c, itemgetter(*rows[reached[c]])
        rows[t] = as_row(after_c(lefts[j]))
    return tuple(rows)


def conjugation_row(G: FiniteGroup, g: int) -> tuple[int, ...]:
    """The image table of x -> g x g^-1: column g^-1 of the table read at
    the entries of row g."""
    return compose_perms(tuple(map(itemgetter(G.inv[g]), G.mul)), G.mul[g])


@memoised
def conjugation_table(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Row g is the image table of x -> g x g^-1; computed once per group."""
    return tuple(conjugation_row(G, g) for g in G.elements)


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p ∘ q)(x) = p(q(x)), for image tables of any maps, not only
    permutations."""
    if len(q) > 1:
        # one C-level lookup per entry; a single item would come back bare
        return itemgetter(*q)(p)
    return tuple(p[x] for x in q)


def group_from_generators(perms: Sequence[Sequence[int]]) -> FiniteGroup:
    """The permutation group generated by image-table permutations.

    An empty list yields the trivial group. All permutations are padded
    to a common degree; a group of more than TABLE_CAP elements raises
    CapExceededError (S6, of order 720, is built; S7 is refused).
    """
    degree = max((len(p) for p in perms), default=1)
    gens = []
    for p in perms:
        t = tuple(map(int, p)) + tuple(range(len(p), degree))
        if sorted(t) != list(range(degree)):
            raise ValueError(f"not a permutation: {p}")
        gens.append(t)
    ident = tuple(range(degree))
    group, _ = group_from_closure(gens, compose_perms, ident)
    return group


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup._of_table(table, check=False)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n (n=1 gives C2, n=2 Kl4)."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return group_from_generators([rot, ref])


def dicyclic_group(n: int) -> FiniteGroup:
    """Order 4n with presentation a^2n = 1, b^2 = a^n, b a b^-1 = a^-1."""
    if n < 1:
        raise ValueError("n must be positive")

    def op(x, y):
        i, j = x
        k, l = y
        if j == 0:
            return ((i + k) % (2 * n), l)
        i2, j2 = (i - k) % (2 * n), j + l
        if j2 == 2:
            return ((i2 + n) % (2 * n), 0)
        return (i2, j2)

    group, _ = group_from_closure([(1, 0), (0, 1)], op, (0, 0))
    return group


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return cyclic_group(1)
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return group_from_generators([cycle, swap])


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        return cyclic_group(1)
    three = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        return group_from_generators([three])
    rest = (0,) + tuple(range(2, n)) + (1,)
    return group_from_generators([three, rest])


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Pairs ordered with identity (0,0) first, H index varying fastest."""
    n, m = G.order, H.order
    table = [
        [0] * (n * m) for _ in range(n * m)
    ]
    for a, b, c, d in iproduct(range(n), range(m), range(n), range(m)):
        table[a * m + b][c * m + d] = G.mul[a][c] * m + H.mul[b][d]
    return FiniteGroup(table, check=False)


def abelian_group(invariants: Sequence[int]) -> FiniteGroup:
    group = cyclic_group(1)
    for n in invariants:
        group = direct_product(group, cyclic_group(n))
    return group


def subgroup_generated(
    G: FiniteGroup, seeds: Iterable[int], maps: Sequence[Sequence[int]] = ()
) -> Subgroup:
    """The least subgroup holding seeds and mapped into itself by every
    image table in maps (endomorphisms of G).

    An endomorphism maps a subgroup into itself when it maps a generating
    set into it, so each generator the greedy walk picks queues its images
    as further candidates; with automorphisms of G for maps this is the
    normal closure of Holt-Eick-O'Brien, Handbook of Computational Group
    Theory, section 3.3."""
    mul = G.mul
    candidates = list(seeds)

    def step(g: int):
        candidates.extend(row[g] for row in maps)
        return mul[g].__getitem__

    # the walk reads candidates as a list, so it reaches the queued images
    _, (members, _, _) = _greedy_generators(
        candidates, step, G.identity, G.order)
    return Subgroup(G, members, check=False)


@memoised
def subgroup_generators(S: Subgroup) -> tuple[int, ...]:
    """A generating set of S picked greedily by ascending member."""
    mul = S.parent.mul
    return tuple(_greedy_generators(
        S.members, lambda g: mul[g].__getitem__, S.parent.identity,
        S.order)[0])


@memoised
def full_subgroup(G: FiniteGroup) -> Subgroup:
    """G as a Subgroup of itself; built once per group."""
    return Subgroup(G, G.elements, check=False)


@memoised
def center(G: FiniteGroup) -> Subgroup:
    """Z(G); computed once per group."""
    mul = G.mul
    return Subgroup(G, (
        z for z in G.elements
        if all(mul[z][x] == mul[x][z] for x in G.elements)
    ), check=False)


def relative_commutator_group(
    G: FiniteGroup, left: Iterable[int], right: Iterable[int]
) -> Subgroup:
    """Subgroup generated by commutators [a, b], a in left, b in right;
    computed once per group and pair of element sequences."""
    return _commutator_subgroup(G, tuple(left), tuple(right))


@memoised
def _commutator_subgroup(G: FiniteGroup, left: tuple, right: tuple) -> Subgroup:
    return subgroup_generated(
        G, {G.commutator(a, b) for a in left for b in right})


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """[G, G]; computed once per group."""
    return relative_commutator_group(G, G.elements, G.elements)


def quotient_group(G: FiniteGroup, N) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup, with the projection homomorphism.

    Cosets are indexed in ascending order of their minimal member, so the
    identity coset is element 0.  Built once per group and member set: a
    repeat call returns the same quotient and projection objects.  A
    subgroup that is not normal raises on every call.
    """
    if not isinstance(N, Subgroup):
        N = Subgroup(G, N)
    if N.parent.mul != G.mul:
        raise ValueError("subgroup of a different group")
    return _quotient(G, N)


@memoised
def _quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """quotient_group's build, kept under N: Subgroups of G with equal
    members are equal keys."""
    if not N.is_normal():
        raise ValueError("subgroup is not normal")
    mul = G.mul
    coset_of = [-1] * G.order
    reps = []
    for x in G.elements:
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for n in N.members:
            coset_of[mul[x][n]] = idx
    k = len(reps)
    table = tuple(
        tuple(coset_of[mul[reps[a]][reps[b]]] for b in range(k)) for a in range(k)
    )
    quotient = FiniteGroup._of_table(table, check=False)
    return quotient, GroupHom(G, quotient, coset_of, check=False)


def generating_sequence(G: FiniteGroup) -> list[int]:
    """A short generating sequence found greedily by ascending index."""
    return list(_generators(G))


@memoised
def _generators(G: FiniteGroup) -> tuple[int, ...]:
    """generating_sequence's picks; FiniteGroup stores them up front when
    Light's associativity test has picked them already."""
    mul = G.mul
    return tuple(_greedy_generators(
        G.elements, lambda g: mul[g].__getitem__, G.identity, G.order)[0])


class _OnDemandTable(dict):
    """A table whose entry k is entry(k), computed the first time it is read.

    As the mul of a search target of _extensions, it spares building a
    Cayley table whose entries the search mostly never reads.
    """

    __slots__ = ("entry",)

    def __init__(self, entry: Callable[[int], object]):
        super().__init__()
        self.entry = entry

    def __missing__(self, k: int):
        value = self[k] = self.entry(k)
        return value


def _closure_map(
    G: FiniteGroup, H: FiniteGroup, pairs: Sequence[tuple[int, int]]
) -> Optional[dict]:
    """Extend generator assignments to the generated subgroup, or None.

    Checks every product (known element) * (generator), which is enough to
    certify the extension is a homomorphism on the generated subgroup.
    For pairs that are not a prefix of generating_sequence(G), as in
    isoclinism._forced_level; _extensions walks the search plan instead.
    """
    image = {G.identity: H.identity}
    order_list = [G.identity]
    for g, h in pairs:
        if g in image:
            if image[g] != h:
                return None
        else:
            image[g] = h
            order_list.append(g)
    mg, mh = G.mul, H.mul
    i = 0
    while i < len(order_list):
        a = order_list[i]
        i += 1
        ia = image[a]
        for g, h in pairs:
            p = mg[a][g]
            q = mh[ia][h]
            known = image.get(p)
            if known is None:
                image[p] = q
                order_list.append(p)
            elif known != q:
                return None
    return image


@memoised
def _search_plan(G: FiniteGroup) -> tuple[tuple[int, ...], tuple]:
    """The walk that _extensions makes over G, computed once per group.

    Returns (gens, levels) with gens = generating_sequence(G).  For the
    prefix H_k = <gens[0..k]>, levels[k] = (tree, checks) holds the edges
    (a, j, b), b = a gens[j], of the Cayley graph of H_k that the graph of
    H_(k-1) lacks, in breadth-first order: each a in H_(k-1) by gens[k],
    then each new element by gens[0..k].  A tree edge is the first to reach
    its b, after b's source a; every other edge is a relation that an
    assignment must satisfy (Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, sections 4.1 and 4.6).  Over all levels the edges number
    |G| len(gens), each element but the identity reached by one tree edge.
    """
    gens = _generators(G)
    mul = G.mul
    reached = [G.identity]
    seen = [False] * G.order
    seen[G.identity] = True
    levels = []
    for k in range(len(gens)):
        old = len(reached)
        tree, checks = [], []
        for c, a in enumerate(reached):  # reads the elements it appends
            row = mul[a]
            for j in (k,) if c < old else range(k + 1):
                b = row[gens[j]]
                if seen[b]:
                    checks.append((a, j, b))
                else:
                    seen[b] = True
                    reached.append(b)
                    tree.append((a, j, b))
        levels.append((tuple(tree), tuple(checks)))
    return gens, tuple(levels)


def _extensions(
    G: FiniteGroup,
    H,
    candidates: Callable[[int], Iterable[int]],
    twist: Optional[Sequence[Sequence[int]]] = None,
) -> Iterator[tuple[int, ...]]:
    """Image tables of the homomorphisms G -> H whose generator images come
    from candidates, by generator-image backtracking on _search_plan(G).

    Level k tries candidates(gens[k]) in the order given, each list formed
    once per search.  A node keeps its parent's images of H_(k-1), fills
    the images of the new elements along the level's tree edges,
    img(a g_j) = img(a) img(g_j), and survives when every relation of the
    level holds; the edges of H_(k-1) were checked by its ancestors.  A
    node of the last level has filled all of G and yields its table.

    With twist, a table of rows of automorphisms of H indexed by G, the
    rule is img(a g_j) = img(a) twist[a](img(g_j)): the tables found are
    the derivations G -> H of that action (derivations.all_derivations).

    H need not be a FiniteGroup: the search reads only H.identity and
    H.mul[a][b] for a an image already found and b a candidate, so H.mul
    may be a mapping that builds each entry the first time it is read
    (the census searches Aut(G1) this way).
    """
    gens, levels = _search_plan(G)
    if not gens:
        yield (H.identity,)
        return
    mul = H.mul
    options = [list(candidates(g)) for g in gens]
    img = [H.identity] * G.order
    hs: list[int] = []  # the images of gens[0..k]
    last = len(gens) - 1

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        tree, checks = levels[k]
        for h in options[k]:
            hs.append(h)
            holds = True
            if twist is None:
                for a, j, b in tree:
                    img[b] = mul[img[a]][hs[j]]
                for a, j, b in checks:
                    if img[b] != mul[img[a]][hs[j]]:
                        holds = False
                        break
            else:
                for a, j, b in tree:
                    img[b] = mul[img[a]][twist[a][hs[j]]]
                for a, j, b in checks:
                    if img[b] != mul[img[a]][twist[a][hs[j]]]:
                        holds = False
                        break
            if holds:
                if k == last:
                    yield tuple(img)
                else:
                    yield from rec(k + 1)
            hs.pop()

    yield from rec(0)


def all_homs(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """Every homomorphism G -> H, by generator-image backtracking."""
    eg, eh = G.elem_order, H.elem_order
    return [
        GroupHom(G, H, t, check=False)
        for t in _extensions(
            G, H, lambda g: [h for h in H.elements if eg[g] % eh[h] == 0]
        )
    ]


def _iso_tables(G: FiniteGroup, H: FiniteGroup) -> Iterator[tuple[int, ...]]:
    """Image tables of the isomorphisms G -> H in backtracking order."""
    if G.order != H.order or sorted(G.elem_order) != sorted(H.elem_order):
        return iter(())
    eg, eh = G.elem_order, H.elem_order
    tables = _extensions(
        G, H, lambda g: [h for h in H.elements if eh[h] == eg[g]]
    )
    return (t for t in tables if len(set(t)) == G.order)


def _iter_isos(G: FiniteGroup, H: FiniteGroup) -> Iterator[GroupHom]:
    """The isomorphisms G -> H in all_isos order, each found when drawn."""
    tables = _iso_tables(G, H)
    if G is H or G.mul == H.mul:
        ident = tuple(G.elements)
        yield identity_hom(G)
        tables = (t for t in tables if t != ident)
    for t in tables:
        yield GroupHom(G, H, t, check=False)


def all_isos(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """Every isomorphism G -> H; for G against itself, identity first."""
    return list(_iter_isos(G, H))


def first_iso(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupHom]:
    """The first isomorphism G -> H in all_isos order, or None."""
    return next(_iter_isos(G, H), None)


@memoised
def automorphisms(G: FiniteGroup) -> list[GroupHom]:
    """Every automorphism of G in all_isos(G, G) order, identity first;
    computed once per group.  The search has at most L leaves, L the
    product over generating_sequence(G) of the number of elements of each
    generator's order (Holt-Eick-O'Brien, Handbook of Computational Group
    Theory, 4.6), so it is refused before it starts when its L image
    tables of |G| entries pass the table cap (C2^5; C2^4 is admitted)."""
    orders = G.elem_order
    leaves = 1
    for g in _generators(G):
        leaves *= orders.count(orders[g])
    _check_table(leaves, G.order,
                 f"automorphism search of a group of order {G.order}")
    return all_isos(G, G)


@memoised
def _aut_tables(G: FiniteGroup) -> tuple:
    """The image table of each automorphism in automorphisms(G)."""
    return tuple(f.image_of for f in automorphisms(G))


@memoised
def _aut_index(G: FiniteGroup) -> dict:
    """Position of each automorphism image table in _aut_tables(G): the
    one table -> position index of the group's automorphism list."""
    return {t: i for i, t in enumerate(_aut_tables(G))}


@memoised
def _aut_orders(G: FiniteGroup) -> tuple[int, ...]:
    """Order of each automorphism in _aut_tables(G)."""
    tables = _aut_tables(G)
    orders = []
    for t in tables:
        k, power = 1, t
        while power != tables[0]:
            power = compose_perms(t, power)
            k += 1
        orders.append(k)
    return tuple(orders)


@memoised
def automorphism_generators(G: FiniteGroup) -> tuple[GroupHom, ...]:
    """A generating set of Aut(G), picked greedily from automorphisms(G).

    Each automorphism, in list order, that the generators picked so far do
    not reach becomes a generator, and the reached set is extended by
    composing image tables.  No Cayley table of Aut(G) is built, so this
    stays cheap where automorphism_group refuses a table of more than
    TABLE_CAP rows (|Aut C2^4| = 20160); automorphisms(G) bounds the list.
    """
    tables, index, auts = _aut_tables(G), _aut_index(G), automorphisms(G)
    # itemgetter(*t) maps x to x o t; a non-identity t has |G| > 2 entries
    picks, _ = _greedy_generators(
        tables, lambda t: itemgetter(*t), tables[0], len(tables))
    return tuple(auts[index[t]] for t in picks)


def automorphism_group(G: FiniteGroup) -> tuple[FiniteGroup, list[GroupHom]]:
    """Aut(G) as a FiniteGroup whose element i is the returned list's i-th
    automorphism; the product is composition, (f*g)(x) = f(g(x)).

    More than TABLE_CAP automorphisms raise CapExceededError once they
    are listed, before the |Aut G|^2 table is built."""
    return _automorphism_table_group(G)


@memoised
def _automorphism_table_group(G: FiniteGroup) -> tuple[FiniteGroup, list[GroupHom]]:
    auts = automorphisms(G)
    _check_table(len(auts), len(auts), f"|Aut G| = {len(auts)}")
    table = _cayley_table(_aut_tables(G), _aut_index(G), compose_perms)
    return FiniteGroup._of_table(table, check=False), auts


@memoised
def group_fingerprint(G: FiniteGroup) -> tuple:
    """A cheap isomorphism invariant used to prefilter searches.

    Its last entry is the sorted element orders of G/G', read without
    building the quotient: gG' has the least order k with g^k in G', and
    each coset repeats its order |G'| times among the sorted k."""
    derived = derived_subgroup(G)
    inside, mul = derived.member_set, G.mul
    coset_orders = []
    for g in G.elements:
        y, k = g, 1
        while y not in inside:
            y = mul[y][g]
            k += 1
        coset_orders.append(k)
    return (
        G.order,
        tuple(sorted(G.elem_order)),
        center(G).order,
        derived.order,
        tuple(sorted(coset_orders)[::derived.order]),
    )
