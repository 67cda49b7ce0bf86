"""The one frozen base behind the package's exact values and result records.

``Frozen`` holds a value in its ``__slots__``, rejects assignment and
deletion, and pickles (or deep-copies) by passing its slots, in order, back to
its constructor.  ``ExactRing`` adds coercion and subtraction, ``ExactField``
division.

``Record`` is the result type.  A subclass declares its fields as class
annotations, in order, which become its slots; a class attribute of the same
name is that field's default.  Records compare equal only to a record of the
same class with equal fields, hash as their field tuple and print as
``Name(field=value, ...)``.  The constructor takes the fields by position or
keyword, then calls ``__post_init__`` when the class defines one.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._astuple()


class ExactRing(Frozen):
    """``_coerce`` keeps an element of this ring, lifts an instance of one of
    ``_lifts`` by ``_lift`` and answers None (so NotImplemented) for anything
    else; subtraction is ``+`` and unary ``-`` after it."""

    __slots__ = ()
    _lifts = ()

    @classmethod
    def _lift(cls, value):
        return cls(value)

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, cls):
            return other
        return cls._lift(other) if isinstance(other, cls._lifts) else None

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)


class ExactField(ExactRing):
    """Division is ``*`` by the ``inverse``."""

    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()


class _RecordType(type):
    """Makes a record class's annotated fields its slots and keeps their
    class-attribute defaults in ``_defaults``."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {field: namespace.pop(field) for field in fields if field in namespace}
        cls = super().__new__(mcs, name, bases, {**namespace, "__slots__": fields})
        cls._fields, cls._defaults = fields, defaults
        return cls


class Record(Frozen, metaclass=_RecordType):
    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in fields:
            if name not in values and name not in cls._defaults:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, values.get(name, cls._defaults.get(name)))
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
