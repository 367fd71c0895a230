"""A base for the library's small immutable value classes."""


class Record:
    """Equality, hash and repr from the fields listed in ``__slots__``.

    A subclass lists its fields in order as ``__slots__`` and assigns them
    in its own ``__init__``.  Two records are equal iff they are of the same
    class with equal fields, the hash is that of the tuple of fields, and
    the repr is ``Name(field=value, ...)``.  Records are immutable by
    convention, as ``Vector`` and ``Isometry`` are.  A subclass with a
    field built on its first read lists its fields as ``_names`` instead.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = cls.__dict__.get("_names", cls.__slots__)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({body})"
