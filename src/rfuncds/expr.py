"""Expression trees over implicit functions and the R-function algebra on them.

An expression evaluates to a real number at a point; a :class:`Region` is an
expression together with the membership convention ``f(x) >= 0``.  Set
operations on regions are realized by the parametric R-conjunction and
R-disjunction

    a AND_alpha b = (a + b - sqrt(a^2 + b^2 - 2*alpha*a*b)) / (1 + alpha)
    a OR_alpha  b = (a + b + sqrt(a^2 + b^2 - 2*alpha*a*b)) / (1 + alpha)

with -1 < alpha <= 1, plus negation ``-a``.  The sign of a combined
expression is exactly the Boolean combination of the operand signs, and at
alpha = 1 the pair degenerates to min/max.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import struct
import sys
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from .errors import (
    AlphaOutOfRange,
    MixedVariableLists,
    NegativeSqrtArgument,
    UnboundVariable,
)
from .record import Record

if TYPE_CHECKING:
    import numpy as np

# Sqrt node arguments in [-SQRT_CLAMP_TOL, 0) clamp to 0; anything lower
# raises.  R-nodes never reach it: they are exact extremes at alpha = 1 and
# clamp their own radicand at 0 otherwise.
SQRT_CLAMP_TOL = 1e-12

# |f| <= BOUNDARY_TOL classifies a point as on the boundary of a region
BOUNDARY_TOL = 1e-9


class Expr(Record):
    """Immutable expression node; operators build new nodes.

    Nodes are records (see :mod:`rfuncds.record`): unchangeable once
    built, and compared by identity.
    """

    __slots__ = ()

    def __add__(self, other) -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other) -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other) -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other) -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other) -> "Expr":
        return Mul(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, exponent)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot treat {value!r} as an expression")


class Const(Expr):
    __slots__ = ("value",)


class Var(Expr):
    __slots__ = ("name",)


class Neg(Expr):
    __slots__ = ("a",)


class Add(Expr):
    __slots__ = ("a", "b")


class Sub(Expr):
    __slots__ = ("a", "b")


class Mul(Expr):
    __slots__ = ("a", "b")


class Pow(Expr):
    """Integer power with non-negative exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError(f"Pow exponent must be a non-negative integer, got {exponent!r}")
        if exponent > sys.float_info.max:   # as the tree format's counts; a square per bit
            raise ValueError("Pow exponent is too large to convert to float")
        super().__init__(base, exponent)


class Sqrt(Expr):
    __slots__ = ("a",)


class Abs(Expr):
    __slots__ = ("a",)


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not -1.0 < alpha <= 1.0:
        raise AlphaOutOfRange(alpha)
    return alpha


class RAnd(Expr):
    __slots__ = ("a", "b", "alpha")

    def __init__(self, a: Expr, b: Expr, alpha: float):
        super().__init__(a, b, check_alpha(alpha))


class ROr(Expr):
    __slots__ = ("a", "b", "alpha")

    def __init__(self, a: Expr, b: Expr, alpha: float):
        super().__init__(a, b, check_alpha(alpha))


# ----------------------------------------------------------------------
# the node table

def _children_getter(operands: tuple[str, ...]) -> Callable[[Expr], tuple[Expr, ...]]:
    if len(operands) == 1:
        get = operator.attrgetter(operands[0])
        return lambda e: (get(e),)
    if not operands:
        return lambda e: ()
    return operator.attrgetter(*operands)


class Node:
    """What the rest of the package needs to know about one node class."""

    __slots__ = ("tag", "operands", "params", "emit")

    def __init__(self, tag: str, operands: tuple[str, ...], params: tuple[str, ...],
                 emit: Callable):
        self.tag = tag              # ``kind`` in the tree format
        self.operands = operands    # child fields, left to right
        self.params = params        # other fields; constructors take operands first
        self.emit = emit            # (node, compiler, *operand texts) -> Python text


def _emit_r_node(join: str, extreme: str, wins: str):
    """Text of an R-node: AND joins a+b and the radical with "-" and is
    "minimum" at alpha = 1, OR uses "+" and "maximum".  The scalar spelling
    writes each extreme inline on locals, as numpy computes it on floats:
    operand a if it ``wins`` over b or is nan, else b (b on a tie)."""
    def emit(e, k, a, b):
        if e.alpha == 1.0 and not k.scalar:
            return f"{extreme}({a}, {b})"  # exact value of (a+b -/+ |a-b|)/2
        # the inline extreme and the formula read each operand more than once
        a, b = k.local(a), k.local(b)
        if e.alpha == 1.0:
            return f"({a} if {a} {wins} {b} or {a} != {a} else {b})"
        # the radicand is mathematically >= (1-|alpha|)(a^2+b^2); its
        # float-error negatives clamp to 0
        rad = f"(({a} * {a}) + ({b} * {b})) - ({k.const(2.0 * e.alpha)} * ({a} * {b}))"
        if k.scalar:
            r = k.local(rad)
            rad = f"({r} if {r} > 0.0 or {r} != {r} else 0.0)"
        else:
            rad = f"maximum({rad}, 0.0)"
        return f"((({a} + {b}) {join} sqrt({rad})) / {k.const(1.0 + e.alpha)})"
    return emit


def _emit_binary(op: str):
    return lambda e, k, a, b: f"({a} {op} {b})"


def _emit_pow(e, k, a):
    # every power from 2 on is multiplies, each correctly rounded, which
    # floats and arrays run alike, bit for bit, and which give inf on overflow
    n = e.exponent
    if n < 2:
        return f"({a} ** {'%d' % n})"
    if n == 2:
        # a compound base is named where it is squared, and every square
        # reuses the one name sq, so an array base lives until the next
        # square, not to its statement
        if a.isidentifier():
            return f"({a} * {a})"
        return f"((sq := {a}) * sq)"
    # square and multiply, lowest bit first; each step is one statement, so
    # nesting stays bounded for any exponent
    square, product = k.local(a), None
    while True:
        if n & 1:
            product = square if product is None else k.local(f"({product} * {square})")
        n >>= 1
        if not n:
            return product
        square = k.local(f"({square} * {square})")


# every concrete Expr class, declared once; constructors are type(e)(*operands, *params)
NODES: dict[type, Node] = {
    Const: Node("const", (), ("value",), lambda e, k: k.const(e.value)),
    Var: Node("var", (), ("name",), lambda e, k: k.var(e.name)),
    Neg: Node("neg", ("a",), (), lambda e, k, a: f"(-{a})"),
    Add: Node("add", ("a", "b"), (), _emit_binary("+")),
    Sub: Node("sub", ("a", "b"), (), _emit_binary("-")),
    Mul: Node("mul", ("a", "b"), (), _emit_binary("*")),
    Pow: Node("pow", ("base",), ("exponent",), _emit_pow),
    Sqrt: Node("sqrt", ("a",), (), lambda e, k, a: f"root({a})"),
    Abs: Node("abs", ("a",), (), lambda e, k, a: f"absolute({a})"),
    RAnd: Node("rand", ("a", "b"), ("alpha",), _emit_r_node("-", "minimum", "<")),
    ROr: Node("ror", ("a", "b"), ("alpha",), _emit_r_node("+", "maximum", ">")),
}


# a node's children are its operands, read through attrgetter
for _cls, _node in NODES.items():
    _cls._children = _children_getter(_node.operands)
del _cls, _node


def postorder(expr: Expr) -> tuple[list, dict[int, int]]:
    """Every distinct node under ``expr`` once (by identity), operands
    before the nodes that read them, and the number of operand fields
    holding each node (the root counts one); without recursion."""
    order: list = []
    uses = {id(expr): 1}
    entered = set()
    stack = [expr]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is None:            # every operand of the node below is in order
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


def fold(expr: Expr, visit: Callable):
    """``visit(node, *operands' results)`` once per distinct node (by
    identity), operands first, without recursion; returns the root's
    result.  A result is dropped once its last reader has used it, so a
    deep chain holds only the results still waiting for a reader."""
    order, waiting = postorder(expr)
    results: dict[int, object] = {}
    for node in order:
        operands = type(node)._children(node)
        args = [results[id(c)] for c in operands]
        for c in operands:
            waiting[id(c)] -= 1
            if not waiting[id(c)]:
                del results[id(c)]
        results[id(node)] = visit(node, *args)
    return results[id(expr)]


# ----------------------------------------------------------------------
# compiled evaluation
#
# An expression is evaluated by one generated Python function, in one of
# two spellings: the array spelling calls numpy's minimum and maximum, and
# the scalar spelling writes them inline on floats.  Nodes equal by value
# are compiled once: the same class, operands already merged, and
# parameters equal bit for bit (a float by its IEEE bits, so 0.0 and -0.0,
# or nans of two payloads, stay apart).  Each node's text comes from its
# NODES entry and goes inline into its parent's text, so numpy reuses
# temporaries as it would for hand-written arithmetic.  A node read by
# several parents is bound to a local when its text takes two or more
# operations to recompute; one operation over names is cheaper to write
# again, since numpy cannot reuse a named array in place.  (An R-node may
# bind its operands itself: the alpha != 1 formula reads each four times.)
# A node is also bound when its text nests _SPILL_DEPTH levels deep, so
# that compile() never meets the parser's nesting limit.  The array
# spelling deletes each local after its last read, which frees its array.
# Nothing taken from the expression enters the source: inputs are read as
# x0, x1, ..., constants as the globals c0, c1, ..., and a verdict function
# reads a dict point at the globals n0, n1, ... and tests the box limits
# l0, h0, ..., so names and values such as inf, nan or -0.0 are never
# spelled in it.

_SPILL_DEPTH = 40


def _root_arrays(arg):
    """sqrt with arguments in [-SQRT_CLAMP_TOL, 0) clamped to 0."""
    import numpy as np
    low = np.min(arg)
    if low < -SQRT_CLAMP_TOL:
        raise NegativeSqrtArgument(float(low))
    if low < 0.0:
        arg = np.maximum(arg, 0.0)
    return np.sqrt(arg)


def _root_scalar(arg):
    if arg < 0.0:
        if arg < -SQRT_CLAMP_TOL:
            raise NegativeSqrtArgument(float(arg))
        arg = 0.0
    return math.sqrt(arg)


# the functions the generated source calls, for numpy arrays and for floats
@functools.cache
def _array_functions() -> dict:
    import numpy as np
    return {"sqrt": np.sqrt, "root": _root_arrays, "absolute": np.abs,
            "minimum": np.minimum, "maximum": np.maximum}


_SCALAR_FUNCTIONS = {"sqrt": math.sqrt, "root": _root_scalar, "absolute": abs}
_LOCAL_RE = re.compile(r"\bv\d+\b")


class Program(Record):
    """An expression compiled into a generated Python function, in the
    array spelling (a :class:`ScalarProgram` is in the scalar spelling).

    ``body`` holds the statements that compute the expression from the
    inputs x0, x1, ... (one line each, unindented), ``result`` the text of
    its value and ``consts`` the values of the globals c0, c1, ...;
    ``reads`` holds the names the expression reads, ordered like ``names``.
    ``source`` wraps them into one function of the input values, taken as
    one sequence ordered like ``names``, and ``function`` is that function
    bound to the functions of the spelling, on first use.
    """

    # the instance dict holds only the bound function
    __slots__ = ("names", "reads", "body", "result", "consts", "__dict__")

    @property
    def source(self) -> str:
        lines = ["def program(X):"]
        if self.names:
            lines.append(f"    {''.join(f'x{i}, ' for i in range(len(self.names)))}= X")
        lines += [f"    {line}" for line in self.body]
        lines.append(f"    return {self.result}")
        return "\n".join(lines) + "\n"

    functions = staticmethod(_array_functions)   # those the source calls, by name

    @functools.cached_property
    def function(self) -> Callable:
        return _bind(self, self.source, "program", self.functions())

    def inputs(self, point):
        """The input sequence for a name -> value mapping; any other
        ``point`` is taken as the values already ordered like ``names``."""
        if isinstance(point, (list, tuple)) or not isinstance(point, Mapping):
            return point
        try:
            return [point[name] for name in self.names]
        except KeyError:
            pass
        for name in self.names:
            if name not in point and name in self.reads:
                raise UnboundVariable(name)
        return [point.get(name) for name in self.names]   # unread names may be absent


class ScalarProgram(Program):
    """A Program in the scalar spelling, for floats: alpha = 1 R-nodes and
    the radicand clamp are written inline, and no local is deleted.  It
    never imports numpy.  ``eval_expr`` and both verdict frames run it."""

    __slots__ = ()
    functions = staticmethod(lambda: _SCALAR_FUNCTIONS)


class _Compiler:
    """The state of one compilation: inputs read, constants and statements,
    and the spelling (``scalar``)."""

    def __init__(self, names: tuple[str, ...], scalar: bool):
        self.inputs = {name: f"x{i}" for i, name in enumerate(names)}
        self.scalar = scalar
        self.reads: set[str] = set()
        self.consts: list = []
        self.statements: list[tuple[str, str]] = []   # (local, text)

    def const(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def var(self, name: str) -> str:
        self.reads.add(name)
        return self.inputs[name]

    def local(self, text: str) -> str:
        """A name holding the value of ``text``; a name stays as it is."""
        if text.isidentifier():
            return text
        name = f"v{len(self.statements)}"
        self.statements.append((name, text))
        return name


_DOUBLE = struct.Struct("<d")


def _param_key(value):
    """What a parameter is compared by when nodes are merged by value."""
    kind = type(value)
    if kind is float:
        return kind, _DOUBLE.pack(value)
    if kind is int or kind is str:
        return kind, value
    return kind, id(value)   # any other value is equal only to itself


@functools.lru_cache(maxsize=64)
def _code(source: str):
    # constraints fitted on one basis share their source, so one compiles for all
    return compile(source, "<rfuncds program>", "exec")


def _bind(program: Program, source: str, name: str, values: dict) -> Callable:
    """The function ``name`` that ``source``, written around ``program``'s
    statements, defines; its globals are ``values`` and the constants."""
    namespace = {**values, **{f"c{i}": value for i, value in enumerate(program.consts)}}
    exec(_code(source), namespace)
    return namespace[name]


def compile_expr(expr: Expr, names: Sequence[str] | None = None) -> Program:
    """Compile ``expr`` into an array-spelling Program whose inputs are
    ``names`` (default: the variables, sorted), covering every variable."""
    return _compile(expr, names, scalar=False)


def _compile(expr: Expr, names: Sequence[str] | None, scalar: bool) -> Program:
    names = tuple(sorted(variables(expr)) if names is None else names)
    k = _Compiler(names, scalar)
    # merge nodes equal by value; each distinct value is a class, numbered
    # in postorder, and the operand fields that read it count its uses
    classes: dict[tuple, int] = {}
    of: dict[int, int] = {}    # id(node) -> its class
    nodes, operands, uses = [], [], []   # by class: the first node, its operands' classes
    for node in postorder(expr)[0]:
        spec = NODES[type(node)]
        reads = tuple(of[id(c)] for c in type(node)._children(node))
        key = (type(node), reads, *[_param_key(getattr(node, p)) for p in spec.params])
        if key not in classes:
            classes[key] = len(nodes)
            nodes.append(node)
            operands.append(reads)
            uses.append(0)
            for c in reads:
                uses[c] += 1
        of[id(node)] = classes[key]
    uses[of[id(expr)]] += 1

    texts: list[str] = []
    levels: list[int] = []   # nesting depth of each text; names are level 0
    for i, (node, reads) in enumerate(zip(nodes, operands)):
        spec = NODES[type(node)]
        if not reads:
            texts.append(spec.emit(node, k))
            levels.append(0)
            continue
        text = spec.emit(node, k, *[texts[c] for c in reads])
        level = 1 + max([levels[c] for c in reads])
        # every operation opens a parenthesis, so a text with one is a
        # single operation over names
        if (uses[i] > 1 and text.count("(") > 1) or level >= _SPILL_DEPTH:
            text, level = k.local(text), 0
        texts.append(text)
        levels.append(level)

    result = texts[of[id(expr)]]
    last_read = {}
    for i, (_, text) in enumerate([*k.statements, (None, result)]):
        for name in _LOCAL_RE.findall(text):
            last_read[name] = i
    dead: dict[int, list[str]] = {}
    for name, i in last_read.items():
        dead.setdefault(i, []).append(name)

    body = []
    for i, (name, text) in enumerate(k.statements):
        body.append(f"{name} = {text}")
        if i in dead and not scalar:   # a del frees an array; floats need none
            body.append(f"del {', '.join(dead[i])}")
    reads = tuple(name for name in names if name in k.reads)
    cls = ScalarProgram if scalar else Program
    return cls(names, reads, tuple(body), result, tuple(k.consts))


def compile_verdict(region: Region,
                    bounds: Sequence[tuple[float, float]] | None = None) -> Callable:
    """``classify`` of ``region``'s value as one generated function of a
    point: it reads the point into the inputs and runs the ``body`` of
    ``region.scalar_program``, as :func:`eval_expr` does.  It gives None
    where it does not answer, so that the caller takes its checked path.

    A point whose type is exactly list or tuple is read by unpacking it,
    one value per input; one whose type is exactly dict is read at the
    input names, bound as the globals n0, n1, ...  A wrong count, a missing
    name and any other type give None.

    Without ``bounds`` (a region's frame) the values are used as given and
    the value is ``float`` of the program's result, as in
    :func:`eval_expr`, and every error is raised as there.  With ``bounds``
    (a report's frame) a dict must hold exactly the input names, each value
    must convert with float and lie in its inclusive ``(lo, hi)`` pair, and
    every point that does not gives None.  The bounds are globals like the
    constants, l0, h0, l1, ..., so programs of one expression shape share
    one code object.
    """
    program = region.scalar_program
    n = len(program.names)
    xs = ", ".join(f"x{i}" for i in range(n))
    sequence = [f"[{xs}] = u"]
    mapping = [f"x{i} = u[n{i}]" for i in range(n)]
    if bounds is None:
        is_mapping, value = "cls is dict", f"float({program.result})"
        refused, missing = "ValueError", "KeyError"
        box = []
    else:
        # the checked path raises where float refuses a value
        is_mapping, value = f"cls is dict and len(u) == {n}", program.result
        refused = "(TypeError, ValueError, OverflowError)"
        missing = "(KeyError, TypeError, ValueError, OverflowError)"
        sequence += [f"x{i} = float(x{i})" for i in range(n)]
        mapping = [f"x{i} = float(u[n{i}])" for i in range(n)]
        inside = " and ".join(f"l{i} <= x{i} <= h{i}" for i in range(n)) or "True"
        box = [f"if not ({inside}):", "    return None"]
    lines = [
        "def verdict(u):",
        "    cls = type(u)",
        "    if cls is list or cls is tuple:",
        "        try:",
        *[f"            {line}" for line in sequence],
        f"        except {refused}:",
        "            return None",
        f"    elif {is_mapping}:",
        "        try:",
        *[f"            {line}" for line in mapping or ["pass"]],
        f"        except {missing}:",
        "            return None",
        "    else:",
        "        return None",
        *[f"    {line}" for line in box],
        *[f"    {line}" for line in program.body],
        f"    value = {value}",
        "    # as classify",
        "    if value > tol:",
        "        return 'inside'",
        "    if value >= -tol:",
        "        return 'boundary'",
        "    return 'outside'",
    ]
    values = {f"n{i}": name for i, name in enumerate(program.names)}
    for i, (lo, hi) in enumerate(bounds or ()):
        values[f"l{i}"], values[f"h{i}"] = lo, hi
    return _bind(program, "\n".join(lines) + "\n", "verdict",
                 {**program.functions(), **values, "tol": BOUNDARY_TOL})


# ----------------------------------------------------------------------
# evaluation and traversal

def eval_expr(expr: Expr | Region, point) -> float:
    """Evaluate at a single point.

    ``point`` is a name -> value mapping, or the values in the order of a
    Region's ``vars``.  A Region evaluates through its ``scalar_program``,
    compiled on first use; a bare expression is compiled for this call.  It
    gives the value :func:`eval_arrays` gives, bit for bit, inf included,
    except the sign and payload of a nan value, which IEEE 754 leaves open
    (Python's float ``+`` and numpy's keep the sign of different operands).
    """
    program = expr.scalar_program if isinstance(expr, Region) else _compile(expr, None, True)
    return float(program.function(program.inputs(point)))


def eval_arrays(expr: Expr | Region, env) -> np.ndarray:
    """Vectorized evaluation; env values are broadcast-compatible arrays,
    given like ``point`` of :func:`eval_expr`."""
    import numpy as np
    program = expr.program if isinstance(expr, Region) else compile_expr(expr)
    return np.asarray(program.function(program.inputs(env)), dtype=float)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the tree, parents before children."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(type(node)._children(node)))


def depth(expr: Expr) -> int:
    """Number of levels of the tree (a leaf has depth 1), without recursion.

    Shared nodes are visited once, so this is linear in the distinct nodes.
    """
    return fold(expr, lambda node, *levels: 1 + max(levels, default=0))


def variables(expr: Expr) -> set[str]:
    return {node.name for node in postorder(expr)[0] if type(node) is Var}


# ----------------------------------------------------------------------
# regions and Boolean composition

class Region(Record):
    """Implicit region: the point set where ``expr >= 0``.

    ``vars`` fixes the coordinate order (used by grids, CSV output and CLI
    point arguments).
    """

    # the instance dict holds only the compiled programs and verdict function
    __slots__ = ("expr", "vars", "__dict__")

    def __init__(self, expr: Expr, vars: Sequence[str]):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"variable names repeat in the binding list {vars}")
        unbound = variables(expr) - set(vars)
        if unbound:
            raise ValueError(f"expression uses variables {sorted(unbound)} "
                             f"not in the binding list {vars}")
        super().__init__(expr, vars)

    @functools.cached_property
    def program(self) -> Program:
        """The expression compiled with ``vars`` as inputs, on first use."""
        return compile_expr(self.expr, self.vars)

    @functools.cached_property
    def scalar_program(self) -> ScalarProgram:
        """:attr:`program` in the scalar spelling, on first use, which
        :func:`eval_expr` and both verdict frames run."""
        return _compile(self.expr, self.vars, scalar=True)

    @functools.cached_property
    def verdict(self) -> Callable:
        """``sign_class`` of a dict, list or tuple point as one generated
        function, on first use (:func:`compile_verdict` without a box), and
        None for every point it does not answer."""
        return compile_verdict(self)


def sign_class(region: Region, point) -> str:
    """Classify a point as 'inside' (f > BOUNDARY_TOL), 'boundary'
    (|f| <= BOUNDARY_TOL) or 'outside' (anything else, nan included).

    ``point`` is a name -> value mapping or the values in ``region.vars``
    order.  A dict, list or tuple point is answered by the region's
    ``verdict`` function; any other point, a missing name and a wrong count
    take the checked path, ``classify(eval_expr(region, point))``.  Both run
    the statements of ``region.scalar_program``, so they give the same
    verdicts and raise the same errors.
    """
    return region.verdict(point) or classify(eval_expr(region, point))


def classify(value: float) -> str:
    """The class of an expression value, as in :func:`sign_class`."""
    if value > BOUNDARY_TOL:
        return "inside"
    if value >= -BOUNDARY_TOL:
        return "boundary"
    return "outside"


class BoolTree(Record):
    """Set-operation tree whose leaves are regions; a record like the
    expression nodes."""

    __slots__ = ()


class Leaf(BoolTree):
    __slots__ = ("region",)


class _Join(BoolTree):
    """And or Or of one or more trees, built as ``And(*children)``; it
    composes to a left fold of ``r_node``."""

    __slots__ = ("children",)
    r_node: type

    def __init__(self, *children: BoolTree):
        if not children:
            raise ValueError(f"{type(self).__name__} needs at least one child")
        super().__init__(children)


class And(_Join):
    __slots__ = ()
    r_node = RAnd


class Or(_Join):
    __slots__ = ()
    r_node = ROr


class Not(BoolTree):
    __slots__ = ("child",)


def compose(tree: BoolTree, alpha: float = 1.0) -> Region:
    """Collapse a Boolean tree of regions into one region.

    And/Or fold left into binary R-nodes with the given alpha; Not becomes a
    sign flip.  The membership of the result equals the set-theoretic
    combination of the leaf memberships.  The tree is walked without
    recursion, so nesting depth has no limit, and a subtree shared by
    several parents is composed once, into one shared expression.
    """
    check_alpha(alpha)
    regions = []
    composed: dict[int, Expr] = {}   # id(node) -> its expression
    exprs: list[Expr] = []   # the composed subtrees not yet read by their parent
    stack: list[tuple[BoolTree, bool]] = [(tree, False)]   # (node, operands composed)
    while stack:
        node, ready = stack.pop()
        if id(node) in composed:
            out = composed[id(node)]
        elif isinstance(node, Leaf):
            regions.append(node.region)
            out = node.region.expr
        elif ready and isinstance(node, Not):
            out = Neg(exprs.pop())
        elif ready:
            out, *rest = exprs[-len(node.children):]
            del exprs[-len(node.children):]
            for e in rest:
                out = node.r_node(out, e, alpha)
        else:
            if isinstance(node, Not):
                operands = (node.child,)
            elif isinstance(node, _Join):
                operands = node.children
            else:
                raise TypeError(f"unknown BoolTree node {type(node).__name__}")
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(operands))
            continue
        composed[id(node)] = out
        exprs.append(out)

    expr, = exprs
    var_lists = {r.vars for r in regions}
    if len(var_lists) != 1:
        raise MixedVariableLists(f"leaf regions use different variable lists: {sorted(var_lists)}")
    return Region(expr, regions[0].vars)
