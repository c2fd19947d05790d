"""CLI contract tests: exit codes, table formats, config precedence.

Exit-code contract: 0 success / mathematical yes, 1 mathematical no,
2 usage or data problems.  Hand-derived fixture: the C8-over-C2 inversion
module has rank [3.00,1.00], middle length [1.00,0.00], class 3, center
(2,1), derived (4,1), lower central sizes (4,1),(2,1), and is stem but
neither aspherical nor simply connected. [DERIVED]
"""

import pytest

from helpers import inversion_module_c8, xm_16_2_swap

from xmodkit.catalog import CatalogEntry, GroupCatalog, load_catalog
from xmodkit.census import census, group_census
from xmodkit.cli import (
    ReportTable,
    main,
    render_group_report,
    render_report,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
    table_to_text,
)
from xmodkit.xmods import serialize_xmod


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_groups_isoclinic_true(capsys):
    code, out, _ = run(capsys, "groups", "isoclinic", "8:4", "8:3")
    assert (code, out) == (0, "true\n")


def test_groups_isoclinic_false(capsys):
    code, out, _ = run(capsys, "groups", "isoclinic", "8:1", "8:3")
    assert (code, out) == (1, "false\n")


def test_bad_group_id_is_a_data_error(capsys):
    code, _, err = run(capsys, "groups", "isoclinic", "8:9", "8:3")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "groups", "isoclinic", "eight", "8:3")
    assert code == 2 and "error:" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "xmods", "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_xmods_census_counts(capsys):
    assert run(capsys, "xmods", "census", "1", "1")[1] == "(1,1,1)\n"
    assert run(capsys, "xmods", "census", "4", "4")[1] == "(60,18,2)\n"


def test_groups_families_text_golden(capsys):
    code, out, _ = run(capsys, "groups", "families", "8")
    assert code == 0
    assert out.splitlines() == [
        "Isoclinism families of groups of order 8",
        "Fam., Num., Rep., Rank, M. L., Class, G/Z, γ₂(G)",
        "1, 3, [8,1], 0.00, 0.00, 1, [1,1]",
        "2, 2, [8,3], 3.00, 0.00, 2, [4,2], [2,1]",
    ]


def test_report_table1_and_table3(capsys):
    code, out, _ = run(capsys, "report", "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Table I"
    assert lines[1] == "Number of Groups in Each Isoclinism Family"
    assert lines[2] == "and Some Family Invariants"
    assert [ln.split(", ")[1] for ln in lines[4:]] == ["3", "2"]

    code, out, _ = run(capsys, "report", "table3")
    lines = out.splitlines()
    assert lines[0] == "Table III"
    body = [ln.split(", ") for ln in lines[4:]]
    assert [row[1] for row in body] == ["1", "2", "1", "1"]
    assert [row[3] for row in body] == ["4.17", "0.00", "2.58", "4.17"]
    assert [row[4] for row in body] == ["3.17", "0.00", "1.58", "3.17"]


def test_xmods_families_text(capsys):
    code, out, _ = run(capsys, "xmods", "families", "4", "4")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "1, 10, [0.00,0.00], [0.00,0.00], 1, [1,1]",
        "2, 8, [2.00,1.00], [0.00,0.00], 2, [2,2], [2,1]",
    ]


def test_trivial_census_renders_single_abelian_row(capsys):
    code, out, _ = run(capsys, "xmods", "families", "1", "1")
    rows = out.splitlines()[2:]
    assert code == 0 and rows == ["1, 1, [0.00,0.00], [0.00,0.00], 0, [1,1]"]


def test_format_flag_position_is_free(capsys):
    before = run(capsys, "--format", "csv", "groups", "families", "8")
    after = run(capsys, "groups", "families", "8", "--format", "csv")
    assert before == after
    assert before[1].splitlines()[0] == "Fam.,Num.,Rep.,Rank,M. L.,Class,G/Z,γ₂(G)"


def test_csv_round_trip():
    table = render_report(census(4, 4), "csv")
    assert table.title == ()
    assert table_from_csv(table_to_csv(table)) == table


def test_json_round_trip():
    table = render_report(census(4, 4), "json")
    assert table_from_json(table_to_json(table)) == table
    group_table = render_group_report(group_census(8), 8, "json")
    assert table_from_json(table_to_json(group_table)) == group_table


def test_csv_quotes_commas():
    text = table_to_csv(render_report(census(4, 4), "csv"))
    assert '"[1,1]"' in text
    assert text.splitlines()[0].startswith("Fam.,Num.,Rank")


def test_rows_must_be_rectangular():
    with pytest.raises(ValueError):
        ReportTable(title=(), headers=("a", "b"), rows=(("1",),), format="text")
    with pytest.raises(ValueError):
        ReportTable(title=(), headers=("a",), rows=(), format="pdf")


def test_text_drops_trailing_blank_cells_only():
    table = ReportTable(
        title=(),
        headers=("a", "b", "c"),
        rows=(("1", "", "2"), ("1", "2", "")),
        format="text",
    )
    assert table_to_text(table).splitlines()[1:] == ["1, , 2", "1, 2"]


def test_paper_row_match_and_ambiguity(capsys):
    code, out, _ = run(capsys, "groups", "families", "8", "--paper-row")
    lines = out.splitlines()
    assert code == 0 and lines[1].endswith(", Match")
    assert lines[2].endswith(", [8,1]") and lines[3].endswith(", [8,3]")

    # a catalog that lists C4 twice makes the C4 fingerprint ambiguous
    entries = load_catalog().entries_of_order(4)
    e = next(e for e in entries if e.index == 1)
    clash = CatalogEntry(e.order, 9, e.name, e.cycles)
    twin = GroupCatalog("twins", entries + [clash])
    table = render_group_report(group_census(4), 4, matches=twin)
    assert table.rows[0][-1] == "[4,?]"


def test_cache_dir_env_fallback_and_flag_priority(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("XMODKIT_CACHE_DIR", str(env_dir))
    run(capsys, "xmods", "census", "4", "4")
    assert (env_dir / "census-4-4" / "meta").exists()
    run(capsys, "xmods", "census", "4", "4", "--cache-dir", str(flag_dir))
    assert (flag_dir / "census-4-4" / "meta").exists()


def test_xmods_invariants(tmp_path, capsys):
    path = tmp_path / "inv.xmod"
    path.write_text(serialize_xmod(inversion_module_c8()))
    code, out, _ = run(capsys, "xmods", "invariants", str(path))
    assert code == 0
    got = dict(
        line.split(", ", 1) for line in out.splitlines()[2:]
    )
    assert got["order"] == "[8,2]"
    assert got["rank"] == "[3.00,1.00]"
    assert got["middle length"] == "[1.00,0.00]"
    assert got["class"] == "3"
    assert got["center"] == "[2,1]"
    assert got["derived"] == "[4,1]"
    assert got["lower central sizes"] == "[4,1] [2,1]"
    assert got["aspherical"] == "false"
    assert got["simply connected"] == "false"
    assert got["stem"] == "true"


def test_xmods_isoclinic_files(tmp_path, capsys):
    a = tmp_path / "a.xmod"
    b = tmp_path / "b.xmod"
    a.write_text(serialize_xmod(inversion_module_c8()))
    b.write_text(serialize_xmod(xm_16_2_swap()))
    code, out, _ = run(capsys, "xmods", "isoclinic", str(a), str(b))
    assert (code, out) == (0, "true\n")

    trivial_action = tmp_path / "c.xmod"
    from xmodkit.groups import cyclic_group
    from xmodkit.xmods import module_xmod

    trivial_action.write_text(
        serialize_xmod(module_xmod(cyclic_group(8), cyclic_group(2)))
    )
    code, out, _ = run(capsys, "xmods", "isoclinic", str(a), str(trivial_action))
    assert (code, out) == (1, "false\n")

    assert run(capsys, "xmods", "isoclinic", str(a), str(tmp_path / "nope"))[0] == 2
    bad = tmp_path / "bad.xmod"
    bad.write_text("not an xmod\n")
    assert run(capsys, "xmods", "invariants", str(bad))[0] == 2


def test_catalog_list_and_import(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out.splitlines()[1] == "Id, Name"
    assert sum(1 for _ in out.splitlines()[2:]) == 74

    path = tmp_path / "cat.txt"
    path.write_text(load_catalog().render())
    code, out, _ = run(capsys, "catalog", "import", str(path))
    assert code == 0 and out.startswith("ok:")

    path.write_text(load_catalog().render() + "\n# trailing junk\n")
    assert run(capsys, "catalog", "import", str(path))[0] == 2


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "xmods", "families", "4", "4", "--format", "json")
    second = run(capsys, "xmods", "families", "4", "4", "--format", "json")
    assert first == second
