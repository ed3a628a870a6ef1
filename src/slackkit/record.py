"""Immutable records: a few named fields, set once by the constructor."""


class Record:
    """Base of a class whose fields, named in order by ``_fields``, its
    ``__init__`` sets once through :meth:`_set`.

    Two records are equal when they are of one class and their fields are
    equal; a record hashes by its fields and prints as
    ``Name(field=value, ...)``.  No field can be assigned or deleted."""

    _fields = ()

    def __init_subclass__(cls):
        # the modules postpone annotations, which makes "-> None" the string
        # 'None'; the signature of a record's class reads "-> None"
        cls.__init__.__annotations__["return"] = None

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")
