"""Bases of every record in the package that checks its fields or stays
mutable.

One rule covers every record in the package:

- A record that checks its fields or stays mutable is a :class:`Record`
  or a :class:`FrozenRecord`.
- An immutable record with no checks is a ``collections.namedtuple``
  subclass, ``class X(namedtuple("X", "a b")): __slots__ = ()``, whose
  docstring gives each field's type and meaning.
- No module uses ``dataclasses``: importing it (and ``inspect`` with it)
  and generating each class's methods took about a third of what the
  numpy-free verbs spent starting up past the interpreter's own start.
  Nor does any module import ``typing``, which ``typing.NamedTuple`` would
  bring.

A :class:`Record` names its fields in ``__slots__``, in constructor order,
and sets them in ``__init__``, which holds its checks. As a dataclass
would, it prints as ``Name(field=value, ...)`` and equals a record of its
own class with equal fields. A :class:`FrozenRecord` also hashes by its
fields and refuses assignment, so its ``__init__`` sets them with
:meth:`FrozenRecord._set`.
"""

from __future__ import annotations


class Record:
    """A mutable record: unhashable, like a dataclass with ``eq``."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class FrozenRecord(Record):
    """An immutable record, like a frozen dataclass."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which runs the checks
        return type(self), self._values()
