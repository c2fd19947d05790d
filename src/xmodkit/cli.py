"""Command-line front end: census tables, predicates, and catalog tools.

Subcommands answer either a question (exit 0 for a mathematical yes, 1 for
a mathematical no, with "true"/"false" on stdout) or produce a table in
text, CSV, or JSON form.  Usage problems and unreadable data exit 2.
--cache-dir falls back to the XMODKIT_CACHE_DIR environment variable; the
flag always wins over the variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .catalog import GroupCatalog, import_catalog, load_catalog
from .census import CensusResult, GroupFamilyReport, census, group_census
from .invariants import (
    center_xmod,
    derived_subxmod,
    is_aspherical,
    is_simply_connected,
    is_stem_xmod,
    lower_central_series,
    middle_length_of_xmod,
    nilpotency_class,
    rank_of_xmod,
)
from .isoclinism import is_isoclinic_group, is_isoclinic_xmod
from .values import FrozenRecord, class_text, subscript
from .xmods import parse_xmod

FORMATS = ("text", "csv", "json")

_ENV_CACHE = "XMODKIT_CACHE_DIR"


class ReportTable(FrozenRecord):
    """A rendered table: title lines, headers, and rectangular string rows.

    The CSV flavor carries no title lines (RFC-style CSV has nowhere to
    put them once the header row is mandatory), so each format round-trips
    to identical content.
    """

    def __init__(
        self,
        title: tuple[str, ...],
        headers: tuple[str, ...],
        rows: tuple[tuple[str, ...], ...],
        format: str = "text",
    ):
        if format not in FORMATS:
            raise ValueError(f"unknown format {format!r}")
        for row in rows:
            if len(row) != len(headers):
                raise ValueError("report rows must be rectangular")
        self.__dict__.update(title=title, headers=headers, rows=rows, format=format)


def _pair_cell(pair) -> str:
    return f"[{pair[0]},{pair[1]}]"


def _id_cell(text: str) -> str:
    order, _, index = text.partition(":")
    return f"[{order},{index}]"


def render_report(result: CensusResult, format: str = "text") -> ReportTable:
    """Family table of a finished crossed-module census.

    Columns: Fam., Num., Rank, M. L., Class, |XM/Z(XM)|, then one column
    per lower-central term any family reaches; blank cells pad families
    with shorter series.
    """
    if result.reports is None:
        raise ValueError("census pipeline has not finished")
    depth = max((len(r.gamma_sizes) for r in result.reports), default=0)
    headers = ["Fam.", "Num.", "Rank", "M. L.", "Class", "|XM/Z(XM)|"]
    headers += [f"|γ{subscript(i + 2)}(XM)|" for i in range(depth)]
    rows = []
    for r in result.reports:
        cells = [
            str(r.family_index + 1),
            str(r.member_count),
            r.rank.render(),
            r.middle_length.render(),
            class_text(r.nilpotency_class),
            _pair_cell(r.central_quotient_size),
        ]
        gammas = [_pair_cell(g) for g in r.gamma_sizes]
        cells += gammas + [""] * (depth - len(gammas))
        rows.append(tuple(cells))
    n, m = result.order_pair
    title = (f"Isoclinism families of crossed modules of order [{n},{m}]",)
    return ReportTable(
        title=() if format == "csv" else title,
        headers=tuple(headers),
        rows=tuple(rows),
        format=format,
    )


def render_group_report(
    reports: list[GroupFamilyReport],
    order: int,
    format: str = "text",
    *,
    matches: GroupCatalog | None = None,
    title: tuple[str, ...] | None = None,
) -> ReportTable:
    """Family table of a one-order group census, in the same style.

    matches, when given, appends a Match column holding the representative
    id whenever its fingerprint is unique within the order, else [n,?].
    """
    depth = max((len(r.gamma_ids) for r in reports), default=0)
    headers = ["Fam.", "Num.", "Rep.", "Rank", "M. L.", "Class", "G/Z"]
    headers += [f"γ{subscript(i + 2)}(G)" for i in range(depth)]
    if matches is not None:
        headers.append("Match")
    rows = []
    for r in reports:
        cells = [
            str(r.family_index + 1),
            str(r.member_count),
            _id_cell(r.representative_id),
            r.rank.render(),
            r.middle_length.render(),
            class_text(r.nilpotency_class),
            _id_cell(r.quotient_id),
        ]
        gammas = [_id_cell(g) for g in r.gamma_ids]
        cells += gammas + [""] * (depth - len(gammas))
        if matches is not None:
            n, _, i = r.representative_id.partition(":")
            ambiguous = matches.is_ambiguous_fingerprint(int(n), int(i))
            cells.append(f"[{n},?]" if ambiguous else _id_cell(r.representative_id))
        rows.append(tuple(cells))
    if title is None:
        title = (f"Isoclinism families of groups of order {order}",)
    return ReportTable(
        title=() if format == "csv" else title,
        headers=tuple(headers),
        rows=tuple(rows),
        format=format,
    )


# --- table serialization, all formats round-trip ---


def table_to_text(table: ReportTable) -> str:
    lines = list(table.title)
    lines.append(", ".join(table.headers))
    for row in table.rows:
        cells = list(row)
        while cells and cells[-1] == "":
            cells.pop()
        lines.append(", ".join(cells))
    return "\n".join(lines) + "\n"


def table_to_csv(table: ReportTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    writer.writerows(table.rows)
    return buf.getvalue()


def table_from_csv(text: str) -> ReportTable:
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        raise ValueError("empty CSV report")
    return ReportTable(
        title=(),
        headers=tuple(records[0]),
        rows=tuple(tuple(r) for r in records[1:]),
        format="csv",
    )


def table_to_json(table: ReportTable) -> str:
    payload = {
        "meta": {"title": list(table.title), "headers": list(table.headers)},
        "rows": [list(r) for r in table.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def table_from_json(text: str) -> ReportTable:
    payload = json.loads(text)
    return ReportTable(
        title=tuple(payload["meta"]["title"]),
        headers=tuple(payload["meta"]["headers"]),
        rows=tuple(tuple(r) for r in payload["rows"]),
        format="json",
    )


def emit(table: ReportTable) -> str:
    if table.format == "csv":
        return table_to_csv(table)
    if table.format == "json":
        return table_to_json(table)
    return table_to_text(table)


# --- dispatch ---


def _parse_group_id(text: str) -> tuple[int, int]:
    order, sep, index = text.partition(":")
    if not sep:
        raise ValueError(f"group ids look like 8:3, got {text!r}")
    return int(order), int(index)


def _read_xmod(path: str):
    return parse_xmod(Path(path).read_text())


def _options_parent() -> argparse.ArgumentParser:
    # shared options accepted before or after the subcommand; SUPPRESS
    # defaults keep a leaf parser from clobbering a value given up front
    parent = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    parent.add_argument("--format", choices=FORMATS)
    parent.add_argument("--cache-dir", help=f"census cache (env {_ENV_CACHE})")
    parent.add_argument(
        "--paper-row",
        action="store_true",
        help="annotate group tables with the fingerprint-matched id",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    opts = _options_parent()
    parser = argparse.ArgumentParser(
        prog="xmodkit",
        description="Finite crossed modules: invariants, isoclinism, census tables.",
        parents=[opts],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grp = sub.add_parser("groups", help="group-level questions and tables")
    grp_sub = grp.add_subparsers(dest="subcommand", required=True)
    g_iso = grp_sub.add_parser(
        "isoclinic", parents=[opts], help="are two catalog groups isoclinic"
    )
    g_iso.add_argument("id1")
    g_iso.add_argument("id2")
    g_fam = grp_sub.add_parser(
        "families", parents=[opts], help="isoclinism families of one order"
    )
    g_fam.add_argument("order", type=int)

    xm = sub.add_parser("xmods", help="crossed-module questions and tables")
    xm_sub = xm.add_subparsers(dest="subcommand", required=True)
    x_census = xm_sub.add_parser(
        "census", parents=[opts], help="counts (raw, classes, families)"
    )
    x_census.add_argument("n", type=int)
    x_census.add_argument("m", type=int)
    x_fam = xm_sub.add_parser(
        "families", parents=[opts], help="family table for an order pair"
    )
    x_fam.add_argument("n", type=int)
    x_fam.add_argument("m", type=int)
    x_inv = xm_sub.add_parser(
        "invariants", parents=[opts], help="invariants of a serialized xmod"
    )
    x_inv.add_argument("file")
    x_iso = xm_sub.add_parser(
        "isoclinic", parents=[opts], help="are two serialized xmods isoclinic"
    )
    x_iso.add_argument("fileA")
    x_iso.add_argument("fileB")

    rep = sub.add_parser(
        "report", parents=[opts], help="regenerate a published census table"
    )
    rep.add_argument("table", choices=("table1", "table2", "table3", "table4"))

    cat = sub.add_parser("catalog", help="bundled catalog tools")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    cat_sub.add_parser("list", parents=[opts], help="list the bundled groups")
    c_imp = cat_sub.add_parser(
        "import", parents=[opts], help="validate an external catalog file"
    )
    c_imp.add_argument("file")

    return parser


def _cache_dir(args):
    return getattr(args, "cache_dir", None) or os.environ.get(_ENV_CACHE) or None


def _xmod_invariants_table(X, format: str) -> ReportTable:
    rank = rank_of_xmod(X)
    ml = middle_length_of_xmod(X)
    z = center_xmod(X)
    d = derived_subxmod(X)
    n1, n0 = X.order()
    z1, z0 = z.order
    gammas = " ".join(
        _pair_cell(s) for s in lower_central_series(X).tail_sizes()
    ) or "-"
    rows = (
        ("order", _pair_cell((n1, n0))),
        ("rank", rank.render()),
        ("middle length", ml.render()),
        ("class", class_text(nilpotency_class(X))),
        ("center", _pair_cell(z.order)),
        ("central quotient", _pair_cell((n1 // z1, n0 // z0))),
        ("derived", _pair_cell(d.order)),
        ("lower central sizes", gammas),
        ("aspherical", "true" if is_aspherical(X) else "false"),
        ("simply connected", "true" if is_simply_connected(X) else "false"),
        ("stem", "true" if is_stem_xmod(X) else "false"),
    )
    return ReportTable(
        title=() if format == "csv" else ("Crossed module invariants",),
        headers=("Invariant", "Value"),
        rows=rows,
        format=format,
    )


def _catalog_table(cat: GroupCatalog, format: str) -> ReportTable:
    rows = tuple(
        (f"{e.order}:{e.index}", e.name) for e in cat.entries
    )
    return ReportTable(
        title=() if format == "csv" else (f"Bundled group catalog {cat.version}",),
        headers=("Id", "Name"),
        rows=rows,
        format=format,
    )


_PUBLISHED_HEAD = (
    "Number of {what} in Each Isoclinism Family",
    "and Some Family Invariants",
)


def _dispatch(args, out) -> int:
    fmt = getattr(args, "format", "text")

    if args.command == "groups" and args.subcommand == "isoclinic":
        cat = load_catalog()
        G = cat.group(*_parse_group_id(args.id1))
        H = cat.group(*_parse_group_id(args.id2))
        witness = is_isoclinic_group(G, H)
        print("true" if witness else "false", file=out)
        return 0 if witness else 1

    if args.command == "groups" and args.subcommand == "families":
        reports = group_census(args.order)
        matches = load_catalog() if getattr(args, "paper_row", False) else None
        print(
            emit(render_group_report(reports, args.order, fmt, matches=matches)),
            end="",
            file=out,
        )
        return 0

    if args.command == "xmods" and args.subcommand == "census":
        raw, classes, families = census(
            args.n, args.m, cache_dir=_cache_dir(args)
        ).counts()
        print(f"({raw},{classes},{families})", file=out)
        return 0

    if args.command == "xmods" and args.subcommand == "families":
        result = census(args.n, args.m, cache_dir=_cache_dir(args))
        print(emit(render_report(result, fmt)), end="", file=out)
        return 0

    if args.command == "xmods" and args.subcommand == "invariants":
        X = _read_xmod(args.file)
        print(emit(_xmod_invariants_table(X, fmt)), end="", file=out)
        return 0

    if args.command == "xmods" and args.subcommand == "isoclinic":
        X = _read_xmod(args.fileA)
        Y = _read_xmod(args.fileB)
        witness = is_isoclinic_xmod(X, Y)
        print("true" if witness else "false", file=out)
        return 0 if witness else 1

    if args.command == "report":
        group_orders = {"table1": 8, "table3": 18}
        xmod_orders = {"table2": (8, 8), "table4": (18, 18)}
        number = {"table1": "I", "table2": "II", "table3": "III", "table4": "IV"}
        if args.table in group_orders:
            order = group_orders[args.table]
            title = (f"Table {number[args.table]}",) + tuple(
                line.format(what="Groups") for line in _PUBLISHED_HEAD
            )
            reports = group_census(order)
            matches = load_catalog() if getattr(args, "paper_row", False) else None
            table = render_group_report(
                reports, order, fmt, matches=matches, title=title
            )
        else:
            n, m = xmod_orders[args.table]
            result = census(n, m, cache_dir=_cache_dir(args))
            table = render_report(result, fmt)
            if fmt != "csv":
                title = (f"Table {number[args.table]}",) + tuple(
                    line.format(what="Crossed Modules") for line in _PUBLISHED_HEAD
                )
                table = ReportTable(title, table.headers, table.rows, fmt)
        print(emit(table), end="", file=out)
        return 0

    if args.command == "catalog" and args.subcommand == "list":
        print(emit(_catalog_table(load_catalog(), fmt)), end="", file=out)
        return 0

    if args.command == "catalog" and args.subcommand == "import":
        cat = import_catalog(args.file)
        print(f"ok: catalog {cat.version} with {len(cat.entries)} groups", file=out)
        return 0

    raise ValueError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args, sys.stdout)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
