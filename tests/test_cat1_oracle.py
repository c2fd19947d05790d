"""An independent count of the census through cat1-groups, for nm <= 12.

A crossed module of order [n, m] is, up to isomorphism, a cat1-group
(G; t, h): a group G of order nm with endomorphisms t and h such that

    t t = t,  h h = h,  t h = h,  h t = t,  [ker t, ker h] = 1

(maps compose right to left), where ker t has order n and the common
image of t and h has order m.  The boundary is h on ker t, and the image
acts on ker t by conjugation in G.  Its isomorphism classes are the
Aut(G)-orbits of the pairs (t, h), over the groups G of order nm, and its
automorphism group is the stabilizer of (t, h) in Aut(G).  So

    classes of census(n, m)    = number of orbits with |ker t| = n,
    raw_count of census(n, m)  = sum over those orbits of
                                 |Aut ker t| |Aut im t| / |Stab(t, h)|,

the second by orbit-stabilizer over the catalog pairs (G1, G0).

Everything below is brute force on the catalog's Cayley tables:
endomorphisms from every choice of generator images, each checked on the
whole table; Aut(G) as the bijective ones; orbits by applying every
automorphism.  No census, isomorphism-search or automorphism code of the
package runs here, apart from the census calls being checked.
"""

import collections
import itertools
import time

import pytest

from xmodkit.catalog import load_catalog
from xmodkit.census import census

MAX_ORDER = 12


def generators_and_words(mul, identity):
    """Greedy generators of the table, and for every element other than
    the identity the pair (element before it, generator index) of a
    breadth-first spanning tree: x = before * gens[j]."""
    size = len(mul)
    gens = []
    reached = {identity: None}
    for g in range(size):
        if g in reached:
            continue
        gens.append(g)
        reached = {identity: None}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for j, s in enumerate(gens):
                    y = mul[x][s]
                    if y not in reached:
                        reached[y] = (x, j)
                        nxt.append(y)
            frontier = nxt
    return gens, [(x, step) for x, step in reached.items() if step is not None]


def endomorphisms(mul, identity):
    """Every endomorphism of the table, as an image tuple."""
    size = len(mul)
    gens, words = generators_and_words(mul, identity)
    found = []
    for images in itertools.product(range(size), repeat=len(gens)):
        f = [None] * size
        f[identity] = identity
        for x, (before, j) in words:
            f[x] = mul[f[before]][images[j]]
        if all(f[mul[a][b]] == mul[f[a]][f[b]]
               for a in range(size) for b in range(size)):
            found.append(tuple(f))
    return found


def automorphism_count(mul, identity, members):
    """|Aut| of the subgroup on members, from its own table."""
    label = {x: i for i, x in enumerate(members)}
    sub = [[label[mul[a][b]] for b in members] for a in members]
    size = len(members)
    return sum(1 for f in endomorphisms(sub, label[identity])
               if len(set(f)) == size)


def cat1_census(mul, identity):
    """{(n, m): [classes, raw]} over the cat1-group orbits on one table."""
    size = len(mul)
    ends = endomorphisms(mul, identity)
    auts = [f for f in ends if len(set(f)) == size]
    inverse = [tuple(sorted(range(size), key=f.__getitem__)) for f in auts]
    idempotents = [e for e in ends if all(e[e[x]] == e[x] for x in range(size))]
    kernel = {e: [x for x in range(size) if e[x] == identity]
              for e in idempotents}
    pairs = [
        (t, h) for t in idempotents for h in idempotents
        if all(t[h[x]] == h[x] and h[t[x]] == t[x] for x in range(size))
        and all(mul[a][b] == mul[b][a]
                for a in kernel[t] for b in kernel[h])
    ]
    aut_counts = {}

    def aut_count(members):
        key = tuple(members)
        if key not in aut_counts:
            aut_counts[key] = automorphism_count(mul, identity, key)
        return aut_counts[key]

    out = collections.defaultdict(lambda: [0, 0])
    seen = set()
    for t, h in pairs:
        if (t, h) in seen:
            continue
        orbit = {
            (tuple(f[t[g[y]]] for y in range(size)),
             tuple(f[h[g[y]]] for y in range(size)))
            for f, g in zip(auts, inverse)
        }
        seen |= orbit
        stabilizer = len(auts) // len(orbit)
        image = sorted(set(t))
        n, m = len(kernel[t]), len(image)
        out[n, m][0] += 1
        out[n, m][1] += aut_count(kernel[t]) * aut_count(image) // stabilizer
    return out


@pytest.fixture(scope="module")
def oracle():
    start = time.perf_counter()
    totals = collections.defaultdict(lambda: [0, 0])
    cat = load_catalog()
    for order in range(1, MAX_ORDER + 1):
        for G in cat.groups_of_order(order):
            for pair, (classes, raw) in cat1_census(G.mul, G.identity).items():
                totals[pair][0] += classes
                totals[pair][1] += raw
    return totals, time.perf_counter() - start


PAIRS = [(n, m) for n in range(1, MAX_ORDER + 1)
         for m in range(1, MAX_ORDER // n + 1)]


def test_oracle_covers_every_pair_quickly(oracle):
    totals, seconds = oracle
    assert sorted(totals) == PAIRS
    assert seconds < 5.0


@pytest.mark.parametrize("pair", PAIRS, ids="{0[0]},{0[1]}".format)
def test_census_matches_the_cat1_orbits(oracle, pair):
    classes, raw = oracle[0][pair]
    result = census(*pair)
    assert len(result.representatives) == classes
    assert result.raw_count == raw
