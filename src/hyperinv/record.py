"""The one frozen record type behind the package's result classes.

A subclass declares its fields as class annotations, in order; a class
attribute of the same name is that field's default.  Records are immutable,
compare equal only to a record of the same class with equal fields, hash as
their field tuple and print as ``Name(field=value, ...)``.  The constructor
takes the fields by position or keyword and then calls ``__post_init__`` when
the class defines one.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

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
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__} is missing field {name!r}")
                    values[name] = cls._defaults[name]
        self.__dict__.update(values)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _astuple(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
