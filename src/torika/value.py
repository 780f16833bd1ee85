"""The base of the package's read-only value classes.

A value class declares `__slots__`, names in `_fields` the fields that
`==`, `hash` and the repr read, and sets each slot in its own
`__init__` with `object.__setattr__`; any other assignment or deletion
raises AttributeError.  Two values are equal when they are of one class
and their fields are equal, and a value hashes as its fields do.
The classes are written out so that importing the package generates no
code and loads neither `dataclasses` nor the `inspect` it imports.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)  # a plain callable, not a method

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
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
