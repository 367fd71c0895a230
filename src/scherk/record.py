"""The one definition of value equality and hashing in the library.

Every exact value is stored in one canonical form, so two values are equal
exactly when their stored fields are.  ``Record`` holds that rule, and every
value class subclasses it: ``Vector``, ``Matrix`` and ``LinearSubspace``
(linalg), ``Point`` and the affine subspaces (affine), ``Isometry``,
``Reflection``, ``IsometryClass`` and ``ProductPrediction`` (isometry),
``Factorization`` (factor), and the poset elements, ``PosetContext`` and
``BoundFamily`` (poset).  No other class defines ``__eq__`` or ``__hash__``.
"""

from operator import attrgetter


class Record:
    """Equality, hash and repr from a class's value fields, ``_names``.

    A subclass lists its fields in order as ``__slots__`` and assigns them
    in its own ``__init__``; they are its ``_names`` unless it lists
    ``_names`` itself, and a subclass of a Record subclass inherits them.
    A class whose slots also hold a memo or derived data (a complement, a
    classification, a membership mark) lists only its value fields, so
    filling the memo changes neither equality nor hash.  A field may also
    be a property, read on each compare.

    Two records are equal iff they are of the same class with equal
    fields, the hash is the hash of the tuple of fields (of the field
    itself, for a record of one), and the default repr is
    ``Name(field=value, ...)``.  The key that reads the fields is built
    once per class.  Records are immutable by convention.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls._names = getattr(cls, "_names", cls.__slots__)
        # a tuple of two or more fields, and a lone field as it is
        cls._key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({body})"
