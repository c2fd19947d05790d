"""The package's records against the dataclasses they were declared as,
and what `import xmodkit` loads."""

import inspect
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import xmodkit
from helpers import RECORD_DECLARATIONS, dataclass_twin
from xmodkit.catalog import CatalogEntry, load_catalog
from xmodkit.cli import ReportTable
from xmodkit.values import Record

SRC = Path(xmodkit.__file__).resolve().parent.parent


def _names(fields):
    return [f if isinstance(f, str) else f[0] for f in fields]


def _sample_args(cls, names):
    if cls is ReportTable:
        return [("title",), ("a", "b"), (("1", "2"),), "csv"]
    return [f"{name}-value" for name in names]


def _parameters(cls):
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(cls).parameters.values()
    ]


def _attribute_error(action, *args):
    with pytest.raises(AttributeError) as caught:
        action(*args)
    return str(caught.value)


def test_every_record_is_declared():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if "__init__" in vars(sub):
                found.add(sub)
    assert found == {cls for cls, _, _ in RECORD_DECLARATIONS}
    assert len(found) == 16


@pytest.mark.parametrize(
    "cls, frozen, fields", RECORD_DECLARATIONS,
    ids=[cls.__name__ for cls, _, _ in RECORD_DECLARATIONS],
)
def test_record_behaves_as_its_dataclass(cls, frozen, fields):
    twin = dataclass_twin(cls, frozen, fields)
    assert _parameters(cls) == _parameters(twin)
    names = _names(fields)
    args = _sample_args(cls, names)
    required = sum(isinstance(f, str) for f in fields)
    other = [*args[:-1], "json" if cls is ReportTable else "other-value"]
    calls = [
        (args, {}),
        ((), dict(zip(names, args))),
        (args[:required], {}),  # defaults
        (other, {}),
    ]
    for pos, kw in calls:
        a, b = cls(*pos, **kw), cls(*pos, **kw)
        ta, tb = twin(*pos, **kw), twin(*pos, **kw)
        assert repr(a) == repr(ta)
        assert (a == b, a != b, a == a) == (ta == tb, ta != tb, ta == ta)
        assert a != ta and ta != a
        assert a in {a}
        if frozen:
            assert hash(a) == hash(ta) == hash(b)
        for name in names:
            if frozen:
                assert _attribute_error(setattr, a, name, 0) == _attribute_error(
                    setattr, ta, name, 0)
                assert _attribute_error(delattr, a, name) == _attribute_error(
                    delattr, ta, name)
            else:
                setattr(a, name, 0)
                setattr(ta, name, 0)
                assert repr(a) == repr(ta)
    assert (cls(*args) == cls(*other)) == (twin(*args) == twin(*other))


def test_report_table_errors_match_its_dataclass():
    decl = next(d for d in RECORD_DECLARATIONS if d[0] is ReportTable)
    twin = dataclass_twin(*decl)
    cases = [
        ((), ("a",), (("1", "2"),)),  # not rectangular
        ((), ("a",), (("1",),), "html"),  # unknown format
        ((), ("a",), (("1", "2"),), "html"),  # both: the format is checked first
        ((), ("a", "b"), (("1", "2"), ("3",)), "json"),
    ]
    for args in cases:
        messages = []
        for make in (ReportTable, twin):
            with pytest.raises(ValueError) as caught:
                make(*args)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


def test_catalog_entry_generators_stay_a_cached_property():
    assert isinstance(vars(CatalogEntry)["generators"], cached_property)
    e = load_catalog().entries_of_order(6)[0]
    copy = CatalogEntry(e.order, e.index, e.name, e.cycles)
    assert e.generators is e.generators
    assert e == copy and hash(e) == hash(copy)
    assert repr(e) == repr(copy)


def test_import_loads_no_dataclasses_inspect_or_decimal():
    # -S: a bare interpreter, so that site cannot load a module first
    code = (
        "import sys; before = set(sys.modules); import xmodkit; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "xmodkit.census" in added
    assert not added & {"dataclasses", "inspect", "decimal"}
