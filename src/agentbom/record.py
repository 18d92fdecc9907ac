"""The base of the package's record classes.

Every record (a node, an event, a rule, a finding) is a plain class: it
names its fields in ``__slots__`` and writes its own ``__init__``, with any
check on its arguments folded in. Record adds value equality and a repr
that lists the fields, and FrozenRecord adds immutability and a hash, all
read off ``__slots__``; a slot whose name starts with an underscore holds
something derived from the fields and is left out. dataclasses would
generate the same methods, but importing it (it pulls in inspect, ast and
dis) and generating them with exec would more than double the cost of
every CLI start. A mutable default is written FRESH and becomes a new list
or dict per instance, so an explicit None stays None. A frozen record's
``__init__`` sets its slots through ``object.__setattr__``.
"""

from __future__ import annotations


class _Fresh:
    __slots__ = ()

    def __repr__(self) -> str:
        return "FRESH"


FRESH = _Fresh()


class Record:
    __slots__ = ()
    _fields = ()  # the public slots, in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # equal records may stop being equal

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields in
        # slot order; a frozen record could not have its slots set afterwards
        return self.__class__, self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())
