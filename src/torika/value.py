"""The base of the package's read-only value classes.

A value class names its fields once, in `__slots__`, and in `_fields`
those that `==`, `hash` and the repr read.  `Value.__init__` sets every
slot of the class and its bases, base first and each in `__slots__`
order, from positional or keyword arguments, and a
slot left out from the class's `_defaults`; a class that checks or
normalizes its arguments calls it from its own `__init__`.  Any other
assignment or deletion raises AttributeError.  Two values are equal when
they are of one class and their fields are equal, and a value hashes as
its fields do.  No code is generated, so neither `dataclasses` nor the
`inspect` it imports is loaded.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # a plain callable, not a method
        cls._slots = tuple(name for klass in reversed(cls.__mro__)
                           for name in klass.__dict__.get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._slots)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_slot, value in zip(setters, args):
            set_slot(self, value)

    def _bind(self, args, kwargs):
        """The slot values of a call that is not one positional value per slot."""
        cls, slots = type(self).__qualname__, self._slots
        if len(args) > len(slots):
            raise TypeError(f"{cls}() takes {len(slots)} arguments but {len(args)} were given")
        unknown = [name for name in kwargs if name not in slots]
        if unknown:
            raise TypeError(f"{cls}() got an unexpected keyword argument {unknown[0]!r}")
        given = {**self._defaults, **kwargs}
        for name, value in zip(slots, args):
            if name in kwargs:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            given[name] = value
        try:
            return [given[name] for name in slots]
        except KeyError as missing:
            raise TypeError(f"{cls}() missing argument {missing}") from None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Restore the slots that pickle and copy saved."""
        Value.__init__(self, **state[1])
