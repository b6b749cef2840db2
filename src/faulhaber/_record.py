"""Plain value records, the package's data classes without `dataclasses`.

`dataclasses` imports `inspect`, `ast` and `dis`, and it builds each class by
generating and compiling source; that was about a quarter of the CLI's
start-up.  A record names its fields in `__slots__`, in constructor order,
and writes its own `__init__`.
"""
from __future__ import annotations

__all__: list[str] = []


class Record:
    """Fields named by `__slots__`.  Equal to a record of the same class with
    equal fields; unhashable, because its fields may change."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, by `__init__`, and never again.
    Hashable, so a cached instance can be handed to every caller."""

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, since the default
        # path assigns the fields one by one.
        return type(self), self._fields()
