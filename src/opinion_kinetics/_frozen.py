"""Immutable records written out by hand.

A record class derives from Frozen and sets its fields in its own __init__,
through the instance __dict__; functools.cached_property stores the same
way.  Frozen refuses every later assignment, and a Value is also equal to,
and hashed as, the tuple of its _fields.  Unlike @dataclass, neither
generates a method from source text when a module is imported.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError


class Frozen:
    """Refuses assignment and deletion of attributes; compares and hashes
    by identity."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A Frozen record equal to a record of its own class with equal
    _fields, and hashed as the tuple of them; its repr names them."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__name__}({fields})"
