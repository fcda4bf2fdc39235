"""One base class for the package's immutable records.

Every record in the package is a :class:`Record`: expression nodes,
regions and programs, the Boolean composition trees (``Leaf``, ``And``,
``Or``, ``Not``), report and fit records, demo cases, grid fields and
contours, and the kinetic parameters.

A subclass names its fields in ``__slots__``.  :class:`Record` gives it a
constructor that takes the fields in order, positionally or by keyword;
assigning or deleting an attribute raises AttributeError.  A slot whose
name starts with an underscore (``__dict__``, a cache) is not a field.  A
class with defaults or checks writes its own ``__init__``, taking the
fields in the same order, and passes the final values on to
``Record.__init__``.  Records compare and hash by identity.

Nothing here generates or compiles code, as ``dataclasses`` does for each
class it decorates, so a record class costs no more to define than any
other class.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in vars(klass).get("__slots__", ())
                            if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments, "
                            f"got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            try:
                object.__setattr__(self, name, kwargs.pop(name))
            except KeyError:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}") from None
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected argument "
                            f"{next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
