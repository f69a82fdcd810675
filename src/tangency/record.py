"""Frozen value records: the certificate, chain and parameter types.

A record's fields are its ``__slots__``, in order, which its own
``__init__`` sets once through ``_set``; assigning or deleting a field
afterwards raises ``AttributeError``.  ``==`` compares, and ``hash``
hashes, the fields not named in ``_uncompared``, and only records of one
class are equal; ``repr`` shows the fields not named in ``_unshown``.
"""

from __future__ import annotations

_setattr = object.__setattr__


class Record:
    __slots__ = ()
    _uncompared = ()
    _unshown = ()

    def __init_subclass__(cls):
        cls._compared = tuple(n for n in cls.__slots__ if n not in cls._uncompared)
        cls._shown = tuple(n for n in cls.__slots__ if n not in cls._unshown)

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self):
        return tuple([getattr(self, n) for n in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join([f"{n}={getattr(self, n)!r}" for n in self._shown])
        return f"{type(self).__qualname__}({shown})"
