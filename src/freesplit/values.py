"""The base of the library's immutable value classes.

These are the methods ``@dataclass(frozen=True)`` would generate, written
once: importing ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each decorated class compiles its methods from generated
source, which together cost every command about 17 ms of start-up (see
README, "Value classes").  Copies and pickles run the checked constructor.
"""

from operator import attrgetter
from typing import Tuple


class Value:
    """An immutable record compared, hashed and shown by its ``_fields``.

    A subclass names the fields that make its value in ``_fields``: equality
    and hashing read them as one tuple, and ``repr`` shows them as
    ``Name(field=value, ...)``.  It stores them in ``__slots__``, then any
    attributes kept beside them outside the value; no value has a ``__dict__``.
    Its ``__init__`` checks its arguments, derives what it keeps, and passes
    everything to ``Value.__init__`` in slot order; after that, assignment and
    deletion raise ``AttributeError``.  A clone calls the class on its
    ``_fields``, and ``_trusted`` is the one unchecked build.  A subclass
    whose fields may hold lists or dicts sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """An instance built unchecked, from already checked values in slot order."""
        value = object.__new__(cls)
        Value.__init__(value, *values)
        return value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, shown)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
