"""The record protocol of the package's frozen value types.

A record's fields are its ``__slots__``, in order, and its ``__init__``
sets them once through ``_set`` (``object.__setattr__``).  Two records
are equal when they are of the same class with equal fields; a record
hashes as the tuple of its fields, prints as ``Name(field=value, ...)``
and copies and pickles through its constructor; assigning or deleting an
attribute raises AttributeError.  This is the behaviour the standard
library's frozen generated classes give, written out once: their module
pulls in ``inspect``, ``ast`` and ``dis`` and generates code per class,
which cost a one-shot command more than its arithmetic did.

The hot types (``FieldElt``, ``ClosureElt``, ``Mat2``) spell out their
own ``__init__``, ``__eq__`` and ``__hash__`` on their named fields,
which agree with the generic ones here and skip the loop over the slots.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
