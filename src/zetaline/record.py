"""Record, the base of the package's immutable result and parameter types.

A record is a tuple underneath, so building one is a single tuple.__new__
call (about a third of what a frozen dataclass's __init__ costs), and it
needs nothing beyond `operator`, which importing the package loads anyway.
A subclass sets `__slots__ = ()` and declares its fields as the
parameters of its __new__, in order and with their defaults, checks them
there, and ends with `return tuple.__new__(cls, (field, ...))`; each field
is read by name, and __match_args__ lists them.

Records keep the behaviour of frozen dataclasses: the repr is
Name(field=value, ...), two records are equal when they are of one type and
their fields are equal, the hash is that of the fields' tuple, nothing can
be assigned, and records do not order.
"""

from __future__ import annotations

from operator import itemgetter

__all__ = ["Record"]


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls.__match_args__):
            setattr(cls, name, property(itemgetter(i), doc=f"field {i} of {cls.__name__}"))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # a plain tuple would otherwise compare equal through tuple's own __eq__
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented  # unordered
    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        """copy and pickle rebuild a record from its fields."""
        return tuple(self)
