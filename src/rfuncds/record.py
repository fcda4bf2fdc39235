"""One base class for the package's immutable records, and the traversal
that compares, hashes, prints and pickles them.

Every record in the package is a :class:`Record`: expression nodes,
regions and programs, the Boolean composition trees (``Leaf``, ``And``,
``Or``, ``Not``), report and fit records, demo cases, grid fields and
contours, and the kinetic parameters.  A record that holds arrays (a grid
field, a polyline) is not hashable.

A subclass names its fields in ``__slots__``.  :class:`Record` gives it a
constructor that takes the fields in order, positionally or by keyword,
structural equality and hashing over them, a ``repr`` that names them, and
pickling through the constructor (:meth:`Record._args` gives its
arguments); assigning or deleting an attribute raises
AttributeError.  A slot whose name starts with an underscore (``__dict__``,
a cache) is not a field.  A class with defaults or checks writes its own
``__init__``, taking the fields in the same order, and passes the final
values on to ``Record.__init__``.

The records a record holds, in a field or in a tuple field (the children
of ``And`` and ``Or``, a report's box axes and constraints), are its
:func:`children` (expression nodes read theirs through ``attrgetter``).
Equality, hashing, ``repr`` and pickling visit each distinct record once,
without recursion; ``repr`` prints a record with children that is read
more than once as ``#n=...`` once and as ``#n#`` after that, and a pickle
rebuilds it once and shares it again.

Nothing here generates or compiles code, as ``dataclasses`` does for each
class it decorates, so a record class costs no more to define than any
other class.
"""

from typing import Callable


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

    def _children(self) -> tuple:
        found = []
        for value in self._values():
            if isinstance(value, Record):
                found.append(value)
            elif type(value) is tuple:
                found += [v for v in value if isinstance(v, Record)]
        return tuple(found)

    def __eq__(self, other):
        """Equal classes and fields; each pair of records is compared once."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = set()   # (id, id) of the pairs taken off the stack
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            if a.__class__ is not b.__class__:
                return False
            compared.add((id(a), id(b)))
            for x, y in zip(a._values(), b._values()):
                if isinstance(x, Record):
                    pairs.append((x, y))
                elif x is y:
                    continue
                elif type(x) is tuple and type(y) is tuple and len(x) == len(y):
                    for xi, yi in zip(x, y):   # records in it are children too
                        if isinstance(xi, Record):
                            pairs.append((xi, yi))
                        elif not (xi is yi or xi == yi):   # as tuple comparison does
                            return False
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        """Hash of the class, the children's hashes and the other fields."""
        return fold(self, lambda rec, *hashes: hash((type(rec), *hashes, *_plain(rec))))

    def __repr__(self):
        readers: dict[int, int] = {}   # by id of a record's parts list

        def visit(rec, *printed):   # a list of parts, or one string without children
            for part in printed:
                if type(part) is list:
                    readers[id(part)] = readers.get(id(part), 0) + 1
            operands = iter(printed)
            parts = [f"{type(rec).__qualname__}("]
            for name, value in zip(rec._fields, rec._values()):
                parts.append(f"{name}=")
                if isinstance(value, Record):
                    parts.append(next(operands))
                elif type(value) is tuple and any(isinstance(v, Record) for v in value):
                    parts.append("(")
                    for v in value:
                        parts += (next(operands) if isinstance(v, Record) else repr(v), ", ")
                    parts[-1] = ",)" if len(value) == 1 else ")"
                else:
                    parts.append(repr(value))
                parts.append(", ")
            if rec._fields:
                parts.pop()   # the last ", "
            parts.append(")")
            return parts if printed else "".join(parts)

        out: list[str] = []
        labels: dict[int, int] = {}
        stack = [fold(self, visit)]
        while stack:
            part = stack.pop()
            if type(part) is str:
                out.append(part)
            elif id(part) in labels:
                out.append(f"#{labels[id(part)]}#")
            else:
                if readers.get(id(part), 0) > 1:
                    labels[id(part)] = len(labels) + 1
                    out.append(f"#{len(labels)}=")
                stack.extend(reversed(part))
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _args(self) -> tuple:
        """The arguments the class's constructor rebuilds the record from."""
        return self._values()

    def __reduce__(self):
        """Pickled as one flat list of ``(class, arguments, read)``, one
        entry per distinct record in :func:`postorder`: a record among the
        arguments is stored as ``_HOLE``, and ``read`` holds the positions
        of the entries that fill the holes, in order.  Pickle meets no
        nesting however deep the record, and a record held twice is stored
        and rebuilt once."""
        order, _ = postorder(self)
        index = {id(rec): i for i, rec in enumerate(order)}
        steps = []
        for rec in order:
            read: list[int] = []

            def hole(value):
                if isinstance(value, Record):
                    read.append(index[id(value)])
                    return _HOLE
                return value

            steps.append((type(rec), _map_args(hole, rec._args()), tuple(read)))
        return _rebuild, (steps,)


class _Hole:
    """Where a pickled record's arguments held a record."""

    __slots__ = ()

    def __reduce__(self):
        return "_HOLE"   # pickled by name, so loading gives the one _HOLE back


_HOLE = _Hole()


def _rebuild(steps: list) -> Record:
    """The record :meth:`Record.__reduce__` flattened into ``steps``, built
    through each class's constructor, children first."""
    built: list = []
    for cls, args, read in steps:
        records = iter([built[i] for i in read])

        def fill(value):
            return next(records) if value is _HOLE else value

        built.append(cls(*_map_args(fill, args)))
    return built[-1]


def _map_args(f: Callable, args: tuple) -> tuple:
    """``args`` with ``f`` applied to each value, and to each item of a
    tuple value (where records are children too)."""
    return tuple([tuple([f(v) for v in value]) if type(value) is tuple else f(value)
                  for value in args])


def children(rec: Record) -> tuple:
    """The records that ``rec`` holds in a field or a tuple field, in field
    order."""
    return type(rec)._children(rec)


def _plain(rec: Record) -> list:
    """The fields of ``rec`` without its children: a field holding a record
    is left out, and a tuple field keeps only its other values."""
    plain = []
    for value in rec._values():
        if type(value) is tuple:
            plain.append(tuple([v for v in value if not isinstance(v, Record)]))
        elif not isinstance(value, Record):
            plain.append(value)
    return plain


def postorder(rec: Record) -> tuple[list, dict[int, int]]:
    """Every distinct record under ``rec`` once (by identity), children
    before the records that hold them, and the number of fields holding
    each record (the root counts one); without recursion."""
    order: list = []
    uses = {id(rec): 1}
    entered = set()
    stack = [rec]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is None:            # every child of the record below is in order
            order.append(pop())
            continue
        if id(node) in entered:
            continue
        entered.add(id(node))
        push(node)
        push(None)
        for child in reversed(type(node)._children(node)):
            push(child)
            uses[id(child)] = uses.get(id(child), 0) + 1
    return order, uses


def fold(rec: Record, visit: Callable):
    """``visit(record, *children's results)`` once per distinct record (by
    identity), children first, without recursion; returns the root's
    result.  A result is dropped once its last reader has used it, so a
    deep chain holds only the results still waiting for a reader."""
    order, waiting = postorder(rec)
    results: dict[int, object] = {}
    for node in order:
        operands = type(node)._children(node)
        args = [results[id(c)] for c in operands]
        for c in operands:
            waiting[id(c)] -= 1
            if not waiting[id(c)]:
                del results[id(c)]
        results[id(node)] = visit(node, *args)
    return results[id(rec)]
