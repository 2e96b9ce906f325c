"""Cell kinds: the exact types a profile's cells may have (a bool is no
number), checked by the store reader and by the trace-profile builder
on the layer and kernel tags it reads."""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any

STR, INT, LIST, DICT = (str,), (int,), (list,), (dict,)
NUMBER = (int, float)
INT_OR_NULL = (int, type(None))
#: A list as JSON makes it, or the tuple a capture holds.
SEQUENCE = (list, tuple)
TYPE_NAMES = {STR: "a string", INT: "an integer", NUMBER: "a number",
              LIST: "a list", DICT: "an object", SEQUENCE: "a list",
              INT_OR_NULL: "an integer or null"}


class Ints(tuple):
    """The kind of a sequence of exact integers (a bool is none),
    ``length`` of them unless it is None."""

    def __new__(cls, length: int | None = None) -> "Ints":
        kind = super().__new__(cls, SEQUENCE)
        kind.length = length
        return kind

    def fault(self, value: list) -> str | None:
        """How the sequence ``value`` is not of this kind; None if it is."""
        for at, cell in enumerate(value):
            if type(cell) is not int:
                return f"[{at}]: expected an integer, got {cell!r:.40}"
        if self.length not in (None, len(value)):
            return f": expected {self.length} integers, got {len(value)}"
        return None

    def fits(self, column: list) -> bool:
        """Whether every sequence of ``column`` is of this kind."""
        return set(map(type, chain.from_iterable(column))) <= {int} and (
            self.length is None or set(map(len, column)) <= {self.length})


def fault(value: Any, kind: tuple) -> str | None:
    """How ``value`` is not of ``kind``, after its path; None if it is."""
    if type(value) not in kind:
        return f": expected {TYPE_NAMES[kind]}, got {value!r:.40}"
    return kind.fault(value) if isinstance(kind, Ints) else None


def column_fault(column: list, kind: tuple) -> tuple[int, str] | None:
    """The first cell of ``column`` not of ``kind`` and how, or None.  The
    column is checked as a whole; cells one at a time only to name a
    fault."""
    if set(map(type, column)) <= set(kind) and (
            not isinstance(kind, Ints) or kind.fits(column)):
        return None
    return next((at, how) for at, how in enumerate(
        map(fault, column, repeat(kind))) if how)
