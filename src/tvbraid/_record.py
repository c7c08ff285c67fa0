"""Base classes for the package's small record types.

A record lists its fields in ``__slots__`` and writes its own ``__init__``.
``_fields`` names the fields that take part in equality, hashing and the
repr, in constructor order; slots outside ``_fields`` are caches.  Records
compare, hash and print as the equivalent dataclasses would, without
importing ``dataclasses`` (and with it ``inspect``, ``ast``, ``dis`` and
``tokenize``) on every start.  A hot or printed class may write its own
``__eq__``, ``__hash__`` and ``__repr__``.
"""

from __future__ import annotations


class Record:
    """A mutable record: equal to a record of the same class with equal
    fields, unhashable, and shown as ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class FrozenRecord(Record):
    """An immutable record, hashable by its fields.  Its ``__init__`` sets
    the fields with ``object.__setattr__``; it pickles and copies by calling
    the constructor again with its fields, which rebuilds the caches."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
