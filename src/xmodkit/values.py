"""Shared value types for size-based invariants and their table rendering,
and the base classes of the package's records.

Rank-style invariants are stored as exact integer orders and rendered as
log2 values with two decimals, round half up. Nilpotency class and derived
length use distinct sentinel markers when undefined; census tables render
the non-nilpotent marker as "0".

Records are plain classes on Record or FrozenRecord, not dataclasses: the
dataclasses module imports inspect and ast, and its generated methods are
compiled at import, which together cost a third of `import xmodkit`.
"""

from __future__ import annotations

import math

_SUBSCRIPTS = "₀₁₂₃₄₅₆₇₈₉"


def subscript(n: int) -> str:
    """Render a nonnegative integer using unicode subscript digits."""
    return "".join(_SUBSCRIPTS[int(c)] for c in str(n))


def log2_text(order: int) -> str:
    """log2 of a positive integer, two decimals, round half up."""
    # decimal is imported on first use: a census process renders no log2
    from decimal import ROUND_HALF_UP, Decimal

    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    exact = Decimal(str(math.log2(order)))
    return str(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


class Record:
    """A record whose fields are the parameters of its __init__, in order.

    The repr is Name(field=value, ...); equality and hashing are by
    identity, as for any object."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose __init__ sets its fields once, through self.__dict__.

    Two are equal when they have the same class and equal fields, the hash
    is the hash of the field tuple, and assigning or deleting an attribute
    raises AttributeError."""

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LogValue(FrozenRecord):
    """An exact group-order value rendered as log2."""

    def __init__(self, order: int):
        self.__dict__.update(order=order)

    @property
    def log2(self) -> float:
        return math.log2(self.order)

    def render(self) -> str:
        return log2_text(self.order)


class PairValue(FrozenRecord):
    """Exact orders of a two-level invariant, rendered as [log2, log2].

    level1 is the source-level (degree 1) value, level0 the range-level
    (degree 0) value; rendering order matches the order pair convention.
    """

    def __init__(self, level1_order: int, level0_order: int):
        self.__dict__.update(level1_order=level1_order, level0_order=level0_order)

    @property
    def log2_pair(self) -> tuple[float, float]:
        return (math.log2(self.level1_order), math.log2(self.level0_order))

    def render(self) -> str:
        return f"[{log2_text(self.level1_order)},{log2_text(self.level0_order)}]"


class _Marker:
    """Singleton sentinel; falsy so `if cls:` treats it as undefined."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        return False


NOT_NILPOTENT = _Marker("not-nilpotent")
NOT_SOLVABLE = _Marker("not-solvable")


def class_text(value) -> str:
    """Table rendering for a nilpotency class: the marker prints as 0."""
    return "0" if value is NOT_NILPOTENT else str(value)
