"""The base of the package's value records.

Equality, hashing, ``repr`` and immutability are written once here and
read the fields from ``__slots__``.  Generating these methods per class at
import time would load ``inspect``, ``ast`` and ``dis`` and compile code
for every record class: most of the package's import time with cached
bytecode.
"""

from operator import attrgetter


class Record:
    """Fields are the subclass's ``__slots__``, in order; its ``__init__``
    passes every field value, in that order, to ``Record.__init__``.

    Records of one class are equal when their fields are, hash as the tuple
    of their fields, print as ``Name(field=value, ...)``, copy and pickle,
    and refuse assignment.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)
        # The slot descriptors' setters, which bypass __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

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
