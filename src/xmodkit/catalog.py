"""Bundled small-group catalog: every group of order 1..24.

The catalog ships as a versioned plain-text file with one record per group:
"order:index name perm;perm;...", generators written in cycle notation.
A record's cycles are parsed, and its group rebuilt from the generators,
on first access, and cached.
External catalogs in the same format can be imported; the format
round-trips byte-exactly through parse and render.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

from .groups import FiniteGroup, first_iso, group_fingerprint, group_from_generators
from .values import FrozenRecord

CATALOG_MAX_ORDER = 24

# classical counts of groups per order, 1..24
KNOWN_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1, 18: 5, 19: 1,
    20: 5, 21: 2, 22: 2, 23: 1, 24: 15,
}

_DATA_PATH = Path(__file__).parent / "data" / "smallgroups_1_24.txt"
_HEADER_PREFIX = "smallgroups "


def parse_cycles(text: str) -> tuple[int, ...]:
    """Parse cycle notation like "(0 1 2)(3 4)" into an image table.

    The identity is "()"; degree is one past the largest point named.
    """
    text = text.strip()
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError(f"bad cycle text: {text!r}")
    cycles: list[list[int]] = []
    for chunk in text[1:-1].split(")("):
        chunk = chunk.strip()
        if not chunk:
            continue
        points = [int(tok) for tok in chunk.split()]
        if len(points) != len(set(points)):
            raise ValueError(f"repeated point in cycle: {chunk!r}")
        cycles.append(points)
    flat = [p for cyc in cycles for p in cyc]
    if len(flat) != len(set(flat)):
        raise ValueError(f"cycles are not disjoint: {text!r}")
    degree = max(flat, default=0) + 1
    image = list(range(degree))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            image[p] = cyc[(i + 1) % len(cyc)]
    return tuple(image)


def cycles_text(perm: Sequence[int]) -> str:
    """Render an image-table permutation in cycle notation."""
    perm = tuple(perm)
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


class CatalogEntry(FrozenRecord):
    """One record; its generators are parsed from cycles, the record's
    "perm;perm;..." text, when first read."""

    def __init__(self, order: int, index: int, name: str, cycles: str):
        self.__dict__.update(order=order, index=index, name=name, cycles=cycles)

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(parse_cycles(p) for p in self.cycles.split(";"))


class GroupCatalog:
    """Parsed catalog with lazy group construction and fingerprint lookup."""

    def __init__(self, version: str, entries: Sequence[CatalogEntry]):
        self.version = version
        self.entries = list(entries)
        self._by_id = {(e.order, e.index): e for e in self.entries}
        if len(self._by_id) != len(self.entries):
            raise ValueError("duplicate order:index records")
        self._groups: dict[tuple[int, int], FiniteGroup] = {}

    def orders(self) -> list[int]:
        return sorted({e.order for e in self.entries})

    def entries_of_order(self, order: int) -> list[CatalogEntry]:
        return [e for e in self.entries if e.order == order]

    def entry(self, order: int, index: int) -> CatalogEntry:
        key = (order, int(index))
        if key not in self._by_id:
            raise ValueError(f"no catalog group {order}:{index}")
        return self._by_id[key]

    def group(self, order: int, index: int) -> FiniteGroup:
        key = (order, int(index))
        if key not in self._groups:
            entry = self.entry(order, index)
            built = group_from_generators(entry.generators)
            if built.order != order:
                raise ValueError(
                    f"catalog record {order}:{index} generates a group of "
                    f"order {built.order}"
                )
            built.catalog_id = key
            self._groups[key] = built
        return self._groups[key]

    def groups_of_order(self, order: int) -> list[FiniteGroup]:
        return [self.group(e.order, e.index) for e in self.entries_of_order(order)]

    def identify(self, G: FiniteGroup) -> Optional[tuple[int, int]]:
        """Catalog id of the entry isomorphic to G, or None.

        Fingerprints prefilter; every surviving candidate is checked by an
        isomorphism search, so twins with equal fingerprints are safe.
        """
        fp = group_fingerprint(G)
        for entry in self.entries_of_order(G.order):
            candidate = self.group(entry.order, entry.index)
            if group_fingerprint(candidate) != fp:
                continue
            if first_iso(G, candidate) is not None:
                return (entry.order, entry.index)
        return None

    def is_ambiguous_fingerprint(self, order: int, index: int) -> bool:
        """True when another same-order entry shares this entry's fingerprint."""
        fp = group_fingerprint(self.group(order, index))
        twins = [
            e
            for e in self.entries_of_order(order)
            if group_fingerprint(self.group(e.order, e.index)) == fp
        ]
        return len(twins) > 1

    def render(self) -> str:
        lines = [f"smallgroups {self.version}"]
        for e in self.entries:
            perms = ";".join(cycles_text(p) for p in e.generators)
            lines.append(f"{e.order}:{e.index} {e.name} {perms}")
        return "\n".join(lines) + "\n"


def parse_catalog(text: str) -> GroupCatalog:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError("missing catalog header")
    version = lines[0][len(_HEADER_PREFIX):].strip()
    entries = []
    for ln in lines[1:]:
        parts = ln.split(" ", 2)
        if len(parts) != 3:
            raise ValueError(f"bad catalog record: {ln!r}")
        ident, name, perm_text = parts
        order_text, _, index_text = ident.partition(":")
        entries.append(
            CatalogEntry(int(order_text), int(index_text), name, perm_text)
        )
    return GroupCatalog(version, entries)


_bundled: Optional[GroupCatalog] = None


def load_catalog(path: Optional[str] = None) -> GroupCatalog:
    """The bundled catalog (cached), or one parsed from an explicit path."""
    global _bundled
    if path is not None:
        return parse_catalog(Path(path).read_text())
    if _bundled is None:
        _bundled = parse_catalog(_DATA_PATH.read_text())
    return _bundled


def import_catalog(path: str) -> GroupCatalog:
    """Import an external catalog file, verifying the format round-trips.

    Rendering parses every record's cycles, so a malformed cycle raises
    ValueError here; a catalog from parse_catalog or load_catalog raises
    it when that record's group is first built."""
    text = Path(path).read_text()
    catalog = parse_catalog(text)
    if catalog.render() != text:
        raise ValueError("catalog file is not in canonical form")
    return catalog


def catalog_group(order: int, index: int) -> FiniteGroup:
    """Group order:index from the bundled catalog."""
    return load_catalog().group(order, index)
