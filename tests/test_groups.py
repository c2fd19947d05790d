"""Group-layer oracle tests.

Expected values are frozen up front: small counts are re-derived in-test by
exhaustive brute force (independent of the library's search code), classical
classification facts are stated as constants.
"""

import hashlib
import time
from itertools import product as iproduct

import pytest

from helpers import (
    all_pairs_is_normal,
    group_lower_central_series,
    group_middle_length,
    group_nilpotency_class,
    group_rank,
    semidirect_target,
    slow_extensions,
)
from xmodkit.catalog import catalog_group, load_catalog
from xmodkit.census import _group_row
from xmodkit.groups import (
    TABLE_CAP,
    CapExceededError,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _automorphism_table_group,
    _closure,
    _extensions,
    _generators,
    _search_plan,
    abelian_group,
    all_homs,
    all_isos,
    alternating_group,
    automorphism_generators,
    automorphism_group,
    automorphisms,
    center,
    compose_perms,
    cyclic_group,
    derived_subgroup,
    dicyclic_group,
    dihedral_group,
    direct_product,
    first_iso,
    generating_sequence,
    group_fingerprint,
    group_from_closure,
    group_from_generators,
    identity_hom,
    conjugation_table,
    quotient_group,
    relative_commutator_group,
    subgroup_generated,
    symmetric_group,
)
from xmodkit.invariants import lower_central_series
from xmodkit.isoclinism import group_family_partition, is_isoclinic_group
from xmodkit.values import NOT_NILPOTENT, class_text, log2_text
from xmodkit.xmods import identity_xmod


def brute_homs(G, H):
    """All homomorphisms by filtering every image table. Oracle only."""
    found = []
    for img in iproduct(range(H.order), repeat=G.order):
        if img[G.identity] != H.identity:
            continue
        if all(
            img[G.mul[a][b]] == H.mul[img[a]][img[b]]
            for a in G.elements
            for b in G.elements
        ):
            found.append(img)
    return found


# --- construction and validation ---


def test_trivial_and_cyclic():
    assert group_from_generators([]).order == 1
    c2 = group_from_generators([(1, 0)])
    assert c2.order == 2
    c6 = cyclic_group(6)
    assert c6.order == 6
    assert sorted(c6.elem_order) == [1, 2, 3, 3, 6, 6]
    assert c6.identity == 0
    assert c6.is_abelian()


def test_mixed_degree_generators_pad():
    g = group_from_generators([(1, 0), (0, 1, 3, 2)])
    assert g.order == 4
    assert sorted(g.elem_order) == [1, 2, 2, 2]


def test_closure_cap():
    # S7 has 5040 elements, above TABLE_CAP = 3000: the closure stops
    # past the cap; S6 has 720 and S5 120
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="3001 x 3001"):
        group_from_generators([tuple(range(1, 7)) + (0,), (1, 0, 2, 3, 4, 5, 6)])
    assert time.perf_counter() - start < 1.0
    assert group_from_generators(
        [tuple(range(1, 6)) + (0,), (1, 0, 2, 3, 4, 5)]).order == 720
    cycle = tuple(range(1, 5)) + (0,)
    swap = (1, 0, 2, 3, 4)
    assert group_from_generators([cycle, swap]).order == 120


def _damaged_c300(row, col=None, value=None):
    """C300's table as lists, with one entry set to value, or, with col
    None, row row a copy of the row before it."""
    table = [list(r) for r in cyclic_group(300).mul]
    if col is None:
        table[row] = list(table[row - 1])
    else:
        table[row][col] = value
    return table


def test_table_validation():
    # one case per check, in the order the constructor runs them
    for table, message in [
        # order 300 keeps 2-byte rows, checked as a tuple table is
        (_damaged_c300(3, 5, -1), "table entry out of range"),
        (_damaged_c300(3, 5, 70000), "table entry out of range"),
        (_damaged_c300(7, 0, 8), "row 7 is not a permutation"),
        (_damaged_c300(5), "column 0 is not a permutation"),
        ([], "empty multiplication table"),
        ([[0, 1]], "multiplication table must be square"),
        ([[0, 1], [1, 2]], "table entry out of range"),
        # row 0 is no permutation, but every range check runs first
        ([[0, 0], [1, 2]], "table entry out of range"),
        ([[0, -1], [1, 0]], "table entry out of range"),
        ([[0, 1], [1, 1]], "row 1 is not a permutation"),
        # every row a permutation, column 0 not
        ([[0, 1], [0, 1]], "column 0 is not a permutation"),
        # Latin square with no two-sided identity
        ([[1, 0, 2], [0, 2, 1], [2, 1, 0]], "no two-sided identity"),
    ]:
        with pytest.raises(ValueError) as err:
            FiniteGroup(table)
        assert str(err.value) == message
    # Z/4 written with a shifted identity is still accepted
    shifted = [[(i + j - 1) % 4 for j in range(4)] for i in range(4)]
    g = FiniteGroup(shifted)
    assert g.identity == 1
    # a list-of-lists table of int-like entries comes back as int tuples
    g = FiniteGroup([[False, True], [True, False]])
    assert g.mul == ((0, 1), (1, 0))
    assert all(type(v) is int for row in g.mul for v in row)


def test_not_associative_rejected():
    # subtraction mod 3: 0 is an identity on the right only, so the
    # constructor stops before the associativity check
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError) as err:
        FiniteGroup(table)
    assert str(err.value) == "no two-sided identity"
    # loops (Latin squares with identity 0) that are not associative; the
    # message names the first failing triple in (a, b, c) scan order
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    for table, message in [
        (loop, "associativity fails at (1,1,2)"),
        # Light's test checks only the middle element 1, whose
        # closure covers the table; the first failing triple has
        # middle element 2, so only the full scan that follows a
        # failed test can name it
        ([[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [2, 3, 4, 5, 0, 1],
          [3, 0, 5, 1, 2, 4], [4, 5, 0, 2, 1, 3], [5, 4, 1, 0, 3, 2]],
         "associativity fails at (1,2,1)"),
    ]:
        with pytest.raises(ValueError) as err:
            FiniteGroup(table)
        assert str(err.value) == message
    # the same loop passes with check=False
    assert FiniteGroup(table, check=False).order == 6
    # loop x C13 has order 65, above 64, and is checked like the small
    # loops; (a, b) is element 13 a + b, with identity 0
    big = [[13 * loop[a][c] + (b + d) % 13 for c in range(5) for d in range(13)]
           for a in range(5) for b in range(13)]
    first = next(
        (a, b, c) for a, b, c in iproduct(range(65), repeat=3)
        if big[big[a][b]][c] != big[a][big[b][c]])
    with pytest.raises(ValueError) as err:
        FiniteGroup(big)
    assert str(err.value) == "associativity fails at ({},{},{})".format(*first)


def test_named_constructors():
    assert dihedral_group(4).order == 8
    assert dicyclic_group(2).order == 8
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert direct_product(cyclic_group(2), cyclic_group(3)).order == 6
    assert abelian_group([2, 2, 2]).order == 8
    # frozen: quaternion element orders
    assert sorted(dicyclic_group(2).elem_order) == [1, 2, 4, 4, 4, 4, 4, 4]
    # frozen: dihedral-8 element orders
    assert sorted(dihedral_group(4).elem_order) == [1, 2, 2, 2, 2, 2, 4, 4]


# --- subgroups, center, derived, quotients ---


def test_center_oracle_d8():
    d8 = dihedral_group(4)
    brute = [
        z
        for z in d8.elements
        if all(d8.mul[z][x] == d8.mul[x][z] for x in d8.elements)
    ]
    assert list(center(d8).members) == brute
    assert center(d8).order == 2


def test_center_and_derived_sizes():
    assert center(dicyclic_group(2)).order == 2
    assert derived_subgroup(dicyclic_group(2)).order == 2
    assert center(symmetric_group(3)).order == 1
    assert derived_subgroup(symmetric_group(3)).order == 3
    assert derived_subgroup(cyclic_group(8)).order == 1


def test_subgroup_machinery():
    d8 = dihedral_group(4)
    rot = subgroup_generated(d8, [g for g in d8.elements if d8.elem_order[g] == 4][:1])
    assert rot.order == 4
    assert rot.is_normal()
    assert sorted(rot.as_group().elem_order) == [1, 2, 4, 4]
    with pytest.raises(ValueError):
        Subgroup(d8, [0, 1])  # element 1 is a rotation of order 4, not closed
    assert Subgroup(d8, d8.elements).is_full()


def test_normality_on_generators_matches_all_pairs():
    """Subgroup.is_normal conjugates generators by generators only; on every
    subgroup of a catalog group of order at most 24 generated by one or
    two elements it must agree with conjugating every member by every
    element.  Only orders 16, 18, 20 and 24 hold subgroups whose first
    generator is normalised and whose second is not."""
    cat = load_catalog()
    seen = set()
    for order in range(1, 25):
        for G in cat.groups_of_order(order):
            subgroups = {
                subgroup_generated(G, (a, b)).members
                for a in G.elements for b in G.elements if a <= b
            }
            for members in sorted(subgroups):
                S = Subgroup(G, members, check=False)
                want = all_pairs_is_normal(S)
                assert S.is_normal() == want, (G.catalog_id, members)
                seen.add(want)
    assert seen == {True, False}


def test_quotient_group():
    c4 = cyclic_group(4)
    q, proj = quotient_group(c4, subgroup_generated(c4, [2]))
    assert q.order == 2
    assert proj.image_of == (0, 1, 0, 1)  # cosets ordered by minimal member
    d8 = dihedral_group(4)
    q8z, projz = quotient_group(d8, center(d8))
    assert q8z.order == 4
    assert sorted(q8z.elem_order) == [1, 2, 2, 2]
    assert projz.kernel_subgroup() == center(d8)
    s3 = symmetric_group(3)
    with pytest.raises(ValueError):
        quotient_group(s3, subgroup_generated(s3, [next(
            g for g in s3.elements if s3.elem_order[g] == 2)]))


def test_relative_commutator_group_reads_one_shot_iterables():
    d8 = catalog_group(8, 3)
    once = relative_commutator_group(
        d8, (x for x in d8.elements), (x for x in d8.elements))
    assert once.order == 2
    assert once is derived_subgroup(d8)


def test_group_level_subgroups_are_built_once():
    G = symmetric_group(4)
    assert center(G) is center(G)
    assert derived_subgroup(G) is derived_subgroup(G)
    # any Subgroup object with the same members shares one as_group()
    a4 = derived_subgroup(G)
    assert Subgroup(G, a4.members).as_group() is a4.as_group()


def test_quotient_group_returns_the_same_objects_on_repeat():
    G = symmetric_group(4)
    N = derived_subgroup(G)
    first = quotient_group(G, N)
    assert all(a is b for a, b in zip(quotient_group(G, N), first))
    # a member list names the same normal subgroup
    again = quotient_group(G, list(N.members))
    assert again[0] is first[0] and again[1] is first[1]


def test_quotient_group_raises_on_every_call_for_a_non_normal_subgroup():
    s3 = symmetric_group(3)
    flip = next(g for g in s3.elements if s3.elem_order[g] == 2)
    H = subgroup_generated(s3, [flip])
    for _ in range(2):
        with pytest.raises(ValueError, match="not normal"):
            quotient_group(s3, H)
    with pytest.raises(ValueError, match="not normal"):
        quotient_group(s3, list(H.members))


def test_quotient_cosets_are_indexed_by_ascending_least_member():
    for G in (symmetric_group(4), dicyclic_group(3), abelian_group([2, 4])):
        for N in (center(G), derived_subgroup(G)):
            q, proj = quotient_group(G, N)
            least = [min(x for x in G.elements if proj(x) == c)
                     for c in q.elements]
            assert least == sorted(least)
            assert proj.kernel_subgroup() == N
            GroupHom(G, q, proj.image_of)  # a homomorphism, checked in full


def test_subgroup_generated_closes_under_maps():
    """The closure under conjugation rows is the least normal subgroup
    holding the seeds, found here by adding conjugates until stable."""
    for G in (dihedral_group(4), symmetric_group(4), dicyclic_group(3)):
        conj = conjugation_table(G)
        for seed in G.elements:
            members = {seed}
            while True:
                grown = subgroup_generated(
                    G, {row[g] for row in conj for g in members}).member_set
                if grown == members:
                    break
                members = grown
            assert subgroup_generated(G, [seed], conj).member_set == members


# --- homomorphism enumeration against brute force ---


@pytest.mark.parametrize(
    "make_g,make_h,count",
    [
        (lambda: abelian_group([2, 2]), lambda: cyclic_group(2), 4),
        (lambda: cyclic_group(6), lambda: symmetric_group(3), 6),
        (lambda: symmetric_group(3), lambda: cyclic_group(6), 2),
        (lambda: cyclic_group(4), lambda: cyclic_group(4), 4),
        (lambda: symmetric_group(3), lambda: symmetric_group(3), 10),
    ],
)
def test_all_homs_against_brute_force(make_g, make_h, count):
    G, H = make_g(), make_h()
    homs = all_homs(G, H)
    brute = brute_homs(G, H)
    assert len(homs) == len(brute) == count
    assert sorted(h.image_of for h in homs) == sorted(brute)
    assert len(set(h.image_of for h in homs)) == len(homs)


def test_hom_validation_and_composition():
    c4 = cyclic_group(4)
    c2 = cyclic_group(2)
    with pytest.raises(ValueError):
        GroupHom(c4, c2, (0, 1, 1, 0))
    # an unchecked map is still range-checked, whatever its container
    for image in ([0, 1, 2, 1], [0, -1, 0, 1], (0, 1, 0, 2)):
        with pytest.raises(ValueError) as err:
            GroupHom(c4, c2, image, check=False)
        assert str(err.value) == "image out of range"
    proj = GroupHom(c4, c2, (0, 1, 0, 1))
    sq = GroupHom(c2, c4, (0, 2))
    comp = sq.after(proj)
    assert comp.image_of == (0, 2, 0, 2)
    assert proj.kernel_subgroup().members == (0, 2)
    assert sq.image_subgroup().members == (0, 2)
    assert identity_hom(c4).inverse() == identity_hom(c4)


def test_all_isos_counts():
    # frozen: |Aut| values for familiar small groups
    assert len(all_isos(cyclic_group(6), cyclic_group(6))) == 2
    assert len(all_isos(abelian_group([2, 2]), abelian_group([2, 2]))) == 6
    assert len(all_isos(dihedral_group(4), dihedral_group(4))) == 8
    assert len(all_isos(dicyclic_group(2), dicyclic_group(2))) == 24
    assert len(all_isos(cyclic_group(8), cyclic_group(8))) == 4
    assert len(all_isos(abelian_group([2, 2, 2]), abelian_group([2, 2, 2]))) == 168
    # the quaternion and dihedral groups of order 8 are not isomorphic
    assert all_isos(dicyclic_group(2), dihedral_group(4)) == []
    # C3 x C3 vs C9
    assert all_isos(abelian_group([3, 3]), cyclic_group(9)) == []


def test_identity_first_and_bijectivity():
    s3 = symmetric_group(3)
    isos = all_isos(s3, s3)
    assert isos[0] == identity_hom(s3)
    assert all(f.is_bijective() for f in isos)
    assert len(isos) == 6


def test_automorphism_group_structure():
    s3 = symmetric_group(3)
    aut, auts = automorphism_group(s3)
    assert aut.order == 6
    assert not aut.is_abelian()
    assert auts[0] == identity_hom(s3)
    # table agrees with composition of image tables
    for i in (1, 3):
        for j in (2, 4):
            composed = compose_perms(auts[i].image_of, auts[j].image_of)
            assert auts[aut.mul[i][j]].image_of == composed
    c32 = group_from_generators([tuple(range(1, 32)) + (0,)])
    assert automorphism_group(c32)[0].order == 16
    # no group order is capped: C64 and C65 are admitted
    c64 = group_from_generators([tuple(range(1, 64)) + (0,)])
    assert automorphism_group(c64)[0].order == 32
    c65 = group_from_generators([tuple(range(1, 65)) + (0,)])
    assert automorphism_group(c65)[0].order == 48
    # the automorphism searches of C2^5 and C2^6 are bounded by 31^5 and
    # 63^6 leaves, so they are refused before they start
    for rank in (5, 6):
        for listing in (automorphisms, automorphism_group):
            e = abelian_group([2] * rank)
            start = time.perf_counter()
            with pytest.raises(CapExceededError, match="automorphism search"):
                listing(e)
            assert time.perf_counter() - start < 1.0
            assert automorphisms not in e._cache


def _brute_table(elements, op):
    """The |G|^2 multiplication table of a closed element list. Oracle only."""
    index = {e: i for i, e in enumerate(elements)}
    return tuple(
        tuple(index[op(a, b)] for b in elements) for a in elements
    )


def test_automorphism_group_table_against_brute_force():
    cat = load_catalog()
    for e in cat.entries:
        if (e.order, e.index) == (16, 14):  # refused: 20160 automorphisms
            continue
        aut, auts = automorphism_group(cat.group(e.order, e.index))
        # rows above order 256 are 2-byte arrays; compare entries
        assert tuple(map(tuple, aut.mul)) == _brute_table(
            [f.image_of for f in auts], compose_perms), (e.order, e.index)


def test_group_from_closure_table_against_brute_force():
    for e in load_catalog().entries:
        degree = max(len(g) for g in e.generators)
        gens = [g + tuple(range(len(g), degree)) for g in e.generators]
        G, elements = group_from_closure(
            gens, compose_perms, tuple(range(degree)))
        assert G.order == e.order
        assert G.mul == _brute_table(elements, compose_perms), (e.order, e.index)


def test_automorphism_group_shares_the_cached_list():
    d8 = dihedral_group(4)
    auts = automorphisms(d8)
    assert auts[0] == identity_hom(d8)
    assert [f.image_of for f in auts] == [
        f.image_of for f in all_isos(d8, d8)]
    assert automorphism_group(d8)[1] is auts


def test_automorphism_group_fails_fast_on_c2_4():
    # a fresh copy of catalog 16:14 (C2^4), so no cached list is reused
    e16 = FiniteGroup(catalog_group(16, 14).mul, catalog_id=(16, 14))
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="20160"):
        automorphism_group(e16)
    assert time.perf_counter() - start < 30.0
    assert len(automorphisms(e16)) == 20160 > TABLE_CAP
    assert _automorphism_table_group not in e16._cache


def _perm_closure(gens, degree):
    reached = {tuple(range(degree))}
    frontier = list(reached)
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = compose_perms(p, q.image_of)
            if r not in reached:
                reached.add(r)
                frontier.append(r)
    return reached


def test_automorphism_generators_close_to_aut():
    for G in (symmetric_group(3), dihedral_group(4), dicyclic_group(2),
              abelian_group([2, 2, 2]), cyclic_group(1)):
        gens = automorphism_generators(G)
        assert _perm_closure(gens, G.order) == {
            f.image_of for f in all_isos(G, G)}


def test_automorphism_generators_of_c2_4_build_no_table():
    e16 = catalog_group(16, 14)
    gens = automorphism_generators(e16)
    closure = _perm_closure(gens, 16)
    assert len(closure) == 20160
    assert closure == {f.image_of for f in automorphisms(e16)}
    assert _automorphism_table_group not in e16._cache


def test_generating_sequence():
    e8 = abelian_group([2, 2, 2])
    gens = generating_sequence(e8)
    assert len(gens) == 3
    assert subgroup_generated(e8, gens).order == 8
    assert generating_sequence(cyclic_group(1)) == []


def _check_tree(identity, steps, closure):
    elements, index, edges = closure
    assert elements[0] == identity and edges[0] is None
    assert len(set(elements)) == len(elements) == len(edges)
    assert index == {x: i for i, x in enumerate(elements)}
    for t, (c, j) in enumerate(edges[1:], 1):
        assert c < t and elements[t] == steps[j](elements[c])


def test_closure_edges_are_a_schreier_tree():
    for e in load_catalog().entries:
        degree = max(len(g) for g in e.generators)
        ident = tuple(range(degree))
        steps = [lambda x, g=g + tuple(range(len(g), degree)): compose_perms(x, g)
                 for g in e.generators]
        full = _closure(ident, steps, e.order)
        assert len(full[0]) == e.order, (e.order, e.index)
        _check_tree(ident, steps, full)
        # extended in place one step at a time: the same set, still a tree
        grown = _closure(ident, [], e.order)
        for k in range(1, len(steps) + 1):
            grown = _closure(ident, steps[:k], e.order, grown)
            _check_tree(ident, steps[:k], grown)
        assert set(grown[0]) == set(full[0]), (e.order, e.index)


def test_generator_picks_are_pinned():
    """The greedy picks fix the search order of every backtracking search,
    so their digests change only with a change that means to reorder them."""
    cat = load_catalog()
    gens, autgens = hashlib.sha256(), hashlib.sha256()
    for e in cat.entries:
        G = cat.group(e.order, e.index)
        key = (e.order, e.index)
        gens.update(repr((key, generating_sequence(G))).encode())
        if key != (16, 14):  # C2^4: 20160 automorphisms
            autgens.update(repr(
                (key, [f.image_of for f in automorphism_generators(G)])
            ).encode())
    assert gens.hexdigest() == (
        "62210aa61e1a7b72b3995a147b388c0173f3674a584c16fd84aa4b6c275071b3"
    )
    assert autgens.hexdigest() == (
        "f823920338cf66585ceb662a819fcea06eb9033c74ea827af57f7701c343e4cc"
    )


def _greedy_pick(G):
    """Ascending elements not in the subgroup the earlier picks generate,
    closed by plain set saturation. Oracle only."""
    picks, reached = [], {G.identity}
    for x in G.elements:
        if x not in reached:
            picks.append(x)
            while True:
                more = {G.mul[a][g] for a in reached for g in picks} - reached
                if not more:
                    break
                reached |= more
    return tuple(picks)


def test_stored_generating_sequence_is_the_greedy_pick():
    """Light's test stores its generating set; it must be the sequence
    generating_sequence would pick afresh."""
    for e in load_catalog().entries:
        G = catalog_group(e.order, e.index)
        for H in (G, center(G).as_group(), derived_subgroup(G).as_group()):
            assert H._cache[_generators] == _greedy_pick(H), (e.order, e.index)


# --- rank, middle length, series, class ---


def test_log2_rendering():
    # frozen: two-decimal half-up renderings used throughout the tables
    assert log2_text(1) == "0.00"
    assert log2_text(2) == "1.00"
    assert log2_text(3) == "1.58"
    assert log2_text(6) == "2.58"
    assert log2_text(8) == "3.00"
    assert log2_text(9) == "3.17"
    assert log2_text(18) == "4.17"


def group_row(G):
    """Rank, middle length and class of G, as the group census reads them
    from its identity module."""
    return _group_row(load_catalog(), G)[:3]


def lcs_sizes(G):
    """Level-1 sizes of the lower central series of the identity module."""
    return [t.s1.order for t in lower_central_series(identity_xmod(G)).terms]


def test_rank_and_middle_length_order8():
    # frozen: published order-8 family census (abelian row and D8 row)
    rank, ml, cls = group_row(cyclic_group(8))
    assert rank.order == 1
    assert ml.order == 1
    assert cls == 1
    rank, ml, cls = group_row(dihedral_group(4))
    assert rank.order == 8  # log2 = 3
    assert rank.render() == "3.00"
    assert ml.order == 1
    assert cls == 2
    rank, _, cls = group_row(dicyclic_group(2))
    assert rank.order == 8
    assert cls == 2


def test_rank_and_middle_length_order18():
    # frozen: published order-18 family census rows
    rank, ml, cls = group_row(dihedral_group(9))
    assert rank.order == 18
    assert rank.render() == "4.17"
    assert ml.order == 9
    assert ml.render() == "3.17"
    assert cls is NOT_NILPOTENT
    assert class_text(cls) == "0"

    rank, ml, cls = group_row(direct_product(cyclic_group(3), symmetric_group(3)))
    assert rank.order == 6
    assert rank.render() == "2.58"
    assert ml.order == 3
    assert ml.render() == "1.58"
    assert cls is NOT_NILPOTENT

    rank, _, cls = group_row(cyclic_group(18))
    assert rank.order == 1
    assert cls == 1


def test_lower_central_series():
    assert lcs_sizes(dihedral_group(4)) == [8, 2, 1]
    # stabilizes without reaching the identity
    assert lcs_sizes(dihedral_group(9)) == [18, 9]
    assert lcs_sizes(cyclic_group(1)) == [1]
    assert group_row(cyclic_group(1))[2] == 0


def test_group_rows_match_the_group_definitions():
    # level 1 of the identity module against the group-level definitions
    cat = load_catalog()
    for e in cat.entries:
        G = cat.group(e.order, e.index)
        X = identity_xmod(G)
        series = group_lower_central_series(G)
        terms = lower_central_series(X).terms
        assert [t.s1.members for t in terms] == [t.members for t in series]
        assert all(t.s0.members == t.s1.members for t in terms)
        rank, ml, cls, _, gamma_ids = _group_row(cat, G)
        assert rank == group_rank(G), (e.order, e.index)
        assert ml == group_middle_length(G), (e.order, e.index)
        assert cls == group_nilpotency_class(G), (e.order, e.index)
        gammas = [t for t in series[1:] if t.order > 1]
        assert gamma_ids == tuple(
            "%d:%d" % cat.identify(t.as_group()) for t in gammas)


# --- isoclinism ---


def revalidate_group_isoclinism(M, N, witness):
    """Independent recheck of a returned witness."""
    zm, zn = center(M), center(N)
    qm, pm = quotient_group(M, zm)
    qn, pn = quotient_group(N, zn)
    eta, xi = witness.quotient_iso, witness.derived_iso
    assert eta.is_bijective() and xi.is_bijective()
    dm = list(witness.source_derived_members)
    dn = list(witness.target_derived_members)
    reps_m = {}
    for x in M.elements:
        reps_m.setdefault(pm(x), x)
    reps_n = {}
    for y in N.elements:
        reps_n.setdefault(pn(y), y)
    for a in qm.elements:
        for b in qm.elements:
            cm = M.commutator(reps_m[a], reps_m[b])
            cn = N.commutator(reps_n[eta(a)], reps_n[eta(b)])
            assert dn[xi(dm.index(cm))] == cn


def test_quaternion_dihedral_isoclinic():
    q8, d8 = dicyclic_group(2), dihedral_group(4)
    w = is_isoclinic_group(q8, d8)
    assert w is not None
    revalidate_group_isoclinism(q8, d8, w)
    assert is_isoclinic_group(d8, q8) is not None  # symmetric


def test_abelian_groups_all_isoclinic():
    c32 = group_from_generators([tuple(range(1, 32)) + (0,)])
    kl4 = abelian_group([2, 2])
    w = is_isoclinic_group(c32, kl4)
    assert w is not None
    revalidate_group_isoclinism(c32, kl4, w)
    assert is_isoclinic_group(cyclic_group(1), kl4) is not None


def test_non_isoclinic_pairs():
    assert is_isoclinic_group(symmetric_group(3), cyclic_group(6)) is None
    assert is_isoclinic_group(dihedral_group(4), cyclic_group(8)) is None


def test_isoclinic_reflexive():
    for g in (symmetric_group(3), dihedral_group(4), cyclic_group(5)):
        w = is_isoclinic_group(g, g)
        assert w is not None
        assert w.quotient_iso.image_of == tuple(range(w.quotient_iso.source.order))


def test_family_partition_order8():
    # frozen: order-8 groups fall into 2 isoclinism families, sizes 3 and 2
    groups = [
        cyclic_group(8),
        abelian_group([4, 2]),
        dihedral_group(4),
        dicyclic_group(2),
        abelian_group([2, 2, 2]),
    ]
    assert group_family_partition(groups) == [[0, 1, 4], [2, 3]]


def generalized_dihedral_3x3():
    """Dih(C3 x C3): translations of a 3x3 torus plus the inversion."""
    def enc(i, j):
        return 3 * i + j

    t1 = [0] * 9
    t2 = [0] * 9
    inv = [0] * 9
    for i in range(3):
        for j in range(3):
            t1[enc(i, j)] = enc((i + 1) % 3, j)
            t2[enc(i, j)] = enc(i, (j + 1) % 3)
            inv[enc(i, j)] = enc((-i) % 3, (-j) % 3)
    return group_from_generators([tuple(t1), tuple(t2), tuple(inv)])


def test_family_partition_order18():
    # frozen: order-18 groups fall into 4 isoclinism families
    c3 = cyclic_group(3)
    groups = [
        dihedral_group(9),
        cyclic_group(18),
        direct_product(c3, symmetric_group(3)),
        generalized_dihedral_3x3(),
        direct_product(cyclic_group(6), c3),
    ]
    assert groups[3].order == 18
    assert group_family_partition(groups) == [[0], [1, 4], [2], [3]]


def test_fingerprint_separates():
    assert group_fingerprint(dihedral_group(4)) != group_fingerprint(dicyclic_group(2))
    assert group_fingerprint(cyclic_group(6)) == group_fingerprint(
        direct_product(cyclic_group(2), cyclic_group(3)))


def test_fingerprint_reads_the_abelianization_orders():
    for e in load_catalog().entries:
        G = catalog_group(e.order, e.index)
        derived = derived_subgroup(G)
        quotient, _ = quotient_group(G, derived)
        assert group_fingerprint(G) == (
            G.order,
            tuple(sorted(G.elem_order)),
            center(G).order,
            derived.order,
            tuple(sorted(quotient.elem_order)),
        ), (e.order, e.index)


# --- enumeration order ---


def _relabelled(G):
    """A copy of G with every non-identity element index reversed."""
    n = G.order
    sigma = [0] + list(range(n - 1, 0, -1))
    table = [[0] * n for _ in range(n)]
    for a in G.elements:
        for b in G.elements:
            table[sigma[a]][sigma[b]] = sigma[G.mul[a][b]]
    return FiniteGroup(table, check=False)


def test_search_order_is_pinned():
    """Automorphism lists feed the action tables, so the order in which the
    searches list their results fixes the census representatives and cache
    bytes.  Other tests check the sets; this pins the order, and its digest
    changes only with a change that means to reorder them."""
    from xmodkit.census import all_xmods, reduce_by_isomorphism
    from xmodkit.derivations import all_derivations
    from xmodkit.xmods import all_xmod_isos

    cat = load_catalog()
    digest = hashlib.sha256()

    def feed(tag, tables):
        digest.update(repr((tag, [tuple(t) for t in tables])).encode())

    for e in cat.entries:
        if (e.order, e.index) == (16, 14):  # C2^4: 20160 automorphisms
            continue
        G = cat.group(e.order, e.index)
        R = _relabelled(G)
        feed(("aut", e.order, e.index), [f.image_of for f in automorphisms(G)])
        feed(("first", e.order, e.index), [first_iso(G, R).image_of])
        feed(("isos", e.order, e.index), [f.image_of for f in all_isos(G, R)])
    small = [cat.group(e.order, e.index) for e in cat.entries if e.order <= 8]
    for i, G in enumerate(small):
        for j, H in enumerate(small):
            feed(("homs", i, j), [f.image_of for f in all_homs(G, H)])
    for n, m in ((4, 4), (8, 4), (6, 6)):
        reps = reduce_by_isomorphism(all_xmods(n, m)).representatives
        for i, X in enumerate(reps):
            feed(("xauts", n, m, i), [
                f.alpha.image_of + f.beta.image_of for f in all_xmod_isos(X, X)
            ])
            feed(("ders", n, m, i),
                 [d.image_of for d in all_derivations(X).elements])
    assert digest.hexdigest() == (
        "3ebb48495aef35d0c74e1fcc6cb7434de3345e8d546e20d7dfb07ac5d07ba5fa"
    )


def test_search_plan_reaches_each_element_once():
    """Every element but the identity is reached by one tree edge, after
    its source; check edges join elements already reached; and the edges
    of all levels are the |G| len(gens) edges of the Cayley graph."""
    cat = load_catalog()
    for e in cat.entries:
        G = cat.group(e.order, e.index)
        gens, levels = _search_plan(G)
        assert list(gens) == generating_sequence(G)
        assert len(levels) == len(gens)
        reached = {G.identity}
        edges = set()
        count = 0
        for k, (tree, checks) in enumerate(levels):
            for a, j, b in tree:
                assert a in reached and b not in reached
                reached.add(b)
            assert all(a in reached and b in reached for a, _, b in checks)
            for a, j, b in tree + checks:
                assert j <= k and G.mul[a][gens[j]] == b
                edges.add((a, j))
            count += len(tree) + len(checks)
            # the levels so far cover the Cayley graph of H_k, once each
            assert count == len(edges) == len(reached) * (k + 1)
        assert len(reached) == G.order
        assert len(edges) == G.order * len(gens)


def test_extensions_match_the_closure_oracle():
    """The plan walk yields what closing every node afresh yields, in the
    same order: all_homs between the catalog groups of order at most 8,
    and the isomorphisms of each catalog group to a relabelled copy."""
    cat = load_catalog()
    small = [cat.group(e.order, e.index) for e in cat.entries if e.order <= 8]
    for G, H in iproduct(small, small):
        def divides(g, G=G, H=H):
            return [h for h in H.elements if G.elem_order[g] % H.elem_order[h] == 0]
        assert list(_extensions(G, H, divides)) == list(
            slow_extensions(G, H, divides))
    for e in cat.entries:
        if (e.order, e.index) == (16, 14):  # C2^4: 20160 automorphisms
            continue
        G = cat.group(e.order, e.index)
        R = _relabelled(G)

        def same_order(g, G=G, R=R):
            return [h for h in R.elements if R.elem_order[h] == G.elem_order[g]]
        assert list(_extensions(G, R, same_order)) == list(
            slow_extensions(G, R, same_order))


@pytest.mark.parametrize("pair", [(4, 4), (8, 4), (6, 6)])
def test_twisted_extensions_match_the_semidirect_oracle(pair):
    """With the action as twist, the plan walk yields the derivations in
    the order the closure oracle finds the sections of g1 x| g0, and
    all_derivations lists the same tables."""
    from xmodkit.census import all_xmods, reduce_by_isomorphism
    from xmodkit.derivations import all_derivations

    for X in reduce_by_isomorphism(all_xmods(*pair)).representatives:
        n0 = X.g0.order
        found = list(_extensions(
            X.g0, X.g1, lambda g: X.g1.elements, twist=X.action))
        sections = slow_extensions(
            X.g0, semidirect_target(X),
            lambda g: [b * n0 + g for b in X.g1.elements])
        assert found == [tuple(s // n0 for s in t) for t in sections]
        zero = (X.g1.identity,) * n0
        assert sorted(found, key=lambda t: (t != zero, t)) == [
            d.image_of for d in all_derivations(X).elements]
