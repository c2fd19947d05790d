"""Catalog oracle tests: counts, distinctness, format round-trip."""

import pytest

from xmodkit.catalog import (
    KNOWN_COUNTS,
    catalog_group,
    cycles_text,
    import_catalog,
    load_catalog,
    parse_catalog,
    parse_cycles,
)
from xmodkit.groups import (
    center,
    derived_subgroup,
    dicyclic_group,
    dihedral_group,
    first_iso,
    group_fingerprint,
)


def test_cycle_notation_round_trip():
    assert parse_cycles("()") == (0,)
    assert parse_cycles("(0 1 2)") == (1, 2, 0)
    assert parse_cycles("(0 1)(2 3)") == (1, 0, 3, 2)
    assert cycles_text((1, 2, 0)) == "(0 1 2)"
    assert cycles_text((0, 1, 2)) == "()"
    for perm in [(1, 0, 3, 2), (2, 0, 1), (0,), (3, 2, 1, 0)]:
        assert parse_cycles(cycles_text(perm)) == perm
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 2)")
    with pytest.raises(ValueError):
        parse_cycles("0 1 2")


def test_counts_per_order():
    # frozen: classical numbers of groups of each order up to 24
    catalog = load_catalog()
    assert catalog.orders() == list(range(1, 25))
    for order, count in KNOWN_COUNTS.items():
        assert len(catalog.entries_of_order(order)) == count
    assert len(catalog.entries) == 74
    assert catalog.version == "v1"


def test_every_entry_builds_to_declared_order():
    catalog = load_catalog()
    for entry in catalog.entries:
        assert catalog.group(entry.order, entry.index).order == entry.order


def test_pairwise_non_isomorphic_per_order():
    catalog = load_catalog()
    for order in catalog.orders():
        groups = catalog.groups_of_order(order)
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if group_fingerprint(groups[i]) == group_fingerprint(groups[j]):
                    assert first_iso(groups[i], groups[j]) is None


def test_known_structures():
    assert first_iso(catalog_group(8, 3), dihedral_group(4)) is not None
    assert first_iso(catalog_group(8, 4), dicyclic_group(2)) is not None
    assert catalog_group(8, 1).is_abelian()
    assert not catalog_group(18, 1).is_abelian()
    assert center(catalog_group(18, 4)).order == 1
    assert derived_subgroup(catalog_group(18, 4)).order == 9
    # frozen: SL(2,3) has a unique involution and derived subgroup Q8
    sl = catalog_group(24, 3)
    assert sorted(sl.elem_order).count(2) == 1
    assert first_iso(derived_subgroup(sl).as_group(), dicyclic_group(2)) is not None
    # frozen: S4 has trivial center and derived subgroup A4
    s4 = catalog_group(24, 12)
    assert center(s4).order == 1
    assert derived_subgroup(s4).order == 12


def test_identify():
    catalog = load_catalog()
    assert catalog.identify(dihedral_group(4)) == (8, 3)
    assert catalog.identify(dicyclic_group(2)) == (8, 4)
    assert catalog.identify(dihedral_group(9)) == (18, 1)
    assert catalog.identify(dihedral_group(16)) is None  # order 32 not catalogued


def test_catalog_group_cached_and_deterministic():
    a = catalog_group(8, 3)
    b = catalog_group(8, 3)
    assert a is b
    assert a.catalog_id == (8, 3)
    # two independent parses yield identical tables
    text = load_catalog().render()
    again = parse_catalog(text)
    assert again.group(8, 3).mul == a.mul


def test_render_round_trip(tmp_path):
    catalog = load_catalog()
    text = catalog.render()
    assert parse_catalog(text).render() == text
    path = tmp_path / "ext.txt"
    path.write_text(text)
    imported = import_catalog(str(path))
    assert imported.group(6, 1).order == 6
    path.write_text(text + "\n\n")
    with pytest.raises(ValueError):
        import_catalog(str(path))


def test_bundled_file_is_canonical():
    from xmodkit.catalog import _DATA_PATH

    assert load_catalog().render() == _DATA_PATH.read_text()


def test_bad_records_rejected():
    with pytest.raises(ValueError):
        parse_catalog("wrongheader v1\n")
    with pytest.raises(ValueError):
        parse_catalog("smallgroups v1\n4:1 C4\n")
    with pytest.raises(ValueError):
        parse_catalog("smallgroups v1\n4:1 C4 (0 1 2 3)\n4:1 C4b (0 1)(2 3)\n")
    with pytest.raises(ValueError):
        # declared order does not match the generated group
        parse_catalog("smallgroups v1\n5:1 C4 (0 1 2 3)\n").group(5, 1)


@pytest.mark.parametrize("cycles", ["(0 1 2 3", "(0 1)(1 2)", "(0 x)"])
def test_malformed_cycles_rejected(tmp_path, cycles):
    text = f"smallgroups v1\n2:1 C2 (0 1)\n4:1 C4 {cycles}\n"
    # parsing defers a record's cycles until its group is first built
    catalog = parse_catalog(text)
    assert catalog.group(2, 1).order == 2
    with pytest.raises(ValueError):
        catalog.group(4, 1)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        import_catalog(str(path))
