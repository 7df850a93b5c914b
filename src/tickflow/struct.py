"""Record classes built without code generation.

`Struct` gives a subclass what `dataclasses` would, but reads everything it
needs when the class is defined and runs no `exec`, so a class costs about
as much to define as a plain one:

- `FIELDS`: the field names in order, bases first, read from the class
  annotations; a class attribute of the same name is the field's default
  when it is a plain value, and no default when it is a descriptor (a
  property, a slot, a method);
- an `__init__` that takes the fields by position or by name and then calls
  `__post_init__` if the class has one;
- `==` and `hash` over the fields not named in `UNCOMPARED`, read through
  one `operator.attrgetter`, between instances of the same class only;
- a `repr` of the form `Name(field=value, ...)`;
- immutability: assigning or deleting an attribute raises, unless the class
  or one of its bases is declared with `frozen=False`.

A mutable struct still hashes by its fields, so it must not change while it
is a set member or a dict key. A class built on every tick writes its
own `__init__`, which skips the generic argument handling.
"""

from __future__ import annotations

from operator import attrgetter


_MISSING = object()


def _no_fields(obj) -> tuple:
    return ()


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Struct:
    __slots__ = ()
    FIELDS: tuple = ()  # set per class; not itself a field
    UNCOMPARED: tuple = ()  # field names left out of == and hash
    _DEFAULTS: dict = {}
    _POST_INIT = None
    _key = staticmethod(_no_fields)

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", ()) if name not in cls.FIELDS]
        cls.FIELDS = cls.FIELDS + tuple(own)
        defaults = {}
        for name in cls.FIELDS:
            value = getattr(cls, name, _MISSING)
            if value is not _MISSING and not hasattr(type(value), "__get__"):
                defaults[name] = value
        cls._DEFAULTS = defaults
        compared = [name for name in cls.FIELDS if name not in cls.UNCOMPARED]
        cls._key = attrgetter(*compared) if compared else staticmethod(_no_fields)
        cls._POST_INIT = getattr(cls, "__post_init__", None)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __init__(self, *args, **kwargs):
        cls = self.__class__
        names = cls.FIELDS
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values or name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values.update(kwargs)
        defaults = cls._DEFAULTS
        for name in names:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in defaults:
                object.__setattr__(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if cls._POST_INIT is not None:
            cls._POST_INIT(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{self.__class__.__qualname__}({fields})"


def replace(obj: Struct, **changes) -> Struct:
    """A new instance of `obj`'s class with the fields in `changes` set and
    every other field, compared or not, copied from `obj`."""
    values = {name: getattr(obj, name) for name in obj.FIELDS}
    values.update(changes)
    return obj.__class__(**values)
