"""The base of the package's value types.

Records: ``CartanType``, ``ConjugacyClass``, ``MaximalSet``,
``Permutation``, ``Partition``, ``EigenData``, ``JordanClass``,
``ClosureMonotonicity``, ``PrimeField``, ``MatrixFq``,
``IntersectionTable``, ``CheckResult`` and the mutable ``Report``.
``WeylElement`` is not one: it fills its length in lazily, and elements
of separately built root systems of one type are equal, so its equality
does not read its ``rs`` field.

Equality, hashing, ``repr`` and immutability are written once here and
read the fields from ``__slots__``.  Generating these methods per class as
source at import time would load ``inspect``, ``ast`` and ``dis`` and
compile code for every record class: most of the package's import time
with cached bytecode.  Equality and hashing are instead closures over each
class's ``attrgetter``, made when the class is created, so that no call
looks its getter up on the instance: ``Permutation`` compares and hashes
in hot loops.
"""

from operator import attrgetter


class Record:
    """Fields are the subclass's ``__slots__``, in order; its ``__init__``
    passes every field value, in that order, to ``Record.__init__``, or
    writes the slots itself where construction is hot.

    Records of one class are equal when their fields are and hash as the
    tuple of their fields, a record with one field as that field alone;
    a class that defines ``__eq__`` or ``__hash__`` keeps its own.  Records
    print as ``Name(field=value, ...)``, copy and pickle, and refuse
    assignment.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        values = attrgetter(*cls.__slots__)
        # The slot descriptors' setters, which bypass __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if "__eq__" not in cls.__dict__:

            def __eq__(self, other):
                if other.__class__ is cls:
                    return values(self) == values(other)
                return NotImplemented

            cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = lambda self: hash(values(self))

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copies and unpickled records are rebuilt through __init__, since
        # the default rebuild assigns the fields.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
