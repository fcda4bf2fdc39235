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

# Sqrt arguments in [-SQRT_CLAMP_TOL, 0) clamp to 0; anything lower raises.
# alpha=1 compositions produce sqrt((a-b)^2), which can go epsilon-negative.
SQRT_CLAMP_TOL = 1e-12


class Expr(Record):
    """Immutable expression node; operators build new nodes.

    Nodes are records (see :mod:`rfuncds.record`): equal when their classes
    and fields are equal, and unchangeable once built.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        """The record ``repr`` of every node, in time and length linear in the
        distinct nodes and without recursion: a node with operands that is
        read more than once prints in full once, as ``#n=Add(...)``, and as
        the back-reference ``#n#`` wherever it occurs again."""
        readers: dict[int, int] = {}   # by id of a node's parts list

        def visit(node, *operands):
            for part in operands:
                if type(part) is list:
                    readers[id(part)] = readers.get(id(part), 0) + 1
            params = [repr(getattr(node, name)) for name in NODES[type(node)].params]
            parts = [f"{type(node).__qualname__}("]
            for name, value in zip(node._fields, [*operands, *params]):
                parts += (f"{name}=", value, ", ")
            parts[-1] = ")"
            return parts if operands else "".join(parts)

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

    def __eq__(self, other):
        """Record equality, without recursion and in time near-linear in the
        distinct nodes of both sides: a pair of nodes is compared once and
        then joined into one class of equal nodes, so a pair that meets
        the class again (through a shared node) is not compared twice."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        joined: dict[int, int] = {}   # id of a node -> id of one known equal to it

        def find(i):
            root = i
            while root in joined:
                root = joined[root]
            while i != root:
                joined[i], i = root, joined[i]
            return root

        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            ra, rb = find(id(a)), find(id(b))
            if ra == rb:
                continue
            if type(a) is not type(b):
                return False
            spec = NODES[type(a)]
            for name in spec.params:
                x, y = getattr(a, name), getattr(b, name)
                if not (x is y or x == y):   # as tuple comparison does
                    return False
            joined[ra] = rb
            pairs.extend(zip(spec.children(a), spec.children(b)))
        return True

    def __hash__(self):
        """Hash of the class, the operands' hashes and the parameters, one
        fold over the distinct nodes."""
        return fold(self, lambda node, *hashes: hash(
            (type(node), *hashes, *[getattr(node, name) for name in NODES[type(node)].params])))

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
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"Pow exponent must be a non-negative integer, got {exponent!r}")
        if exponent > sys.float_info.max:   # float ** int and numpy convert it to float
            raise ValueError("Pow exponent is too large to convert to float")
        super().__init__(base, exponent)


class Sqrt(Expr):
    __slots__ = ("a",)


class Abs(Expr):
    __slots__ = ("a",)


class Min(Expr):
    __slots__ = ("a", "b")


class Max(Expr):
    __slots__ = ("a", "b")


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


def r_and(a, b, alpha: float = 1.0) -> Expr:
    """R-conjunction node: sign(r_and(a, b)) == sign(min(a, b))."""
    return RAnd(as_expr(a), as_expr(b), alpha)


def r_or(a, b, alpha: float = 1.0) -> Expr:
    """R-disjunction node: sign(r_or(a, b)) == sign(max(a, b))."""
    return ROr(as_expr(a), as_expr(b), alpha)


def r_not(a) -> Expr:
    """R-negation: plain sign flip."""
    return Neg(as_expr(a))


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

    __slots__ = ("tag", "operands", "params", "emit", "children")

    def __init__(self, tag: str, operands: tuple[str, ...], params: tuple[str, ...],
                 emit: Callable):
        self.tag = tag              # ``kind`` in the tree format
        self.operands = operands    # child fields, left to right
        self.params = params        # other fields; constructors take operands first
        self.emit = emit            # (node, compiler, *operand texts) -> Python text
        # a node's operands as a tuple; attrgetter is the fastest generic accessor
        self.children = _children_getter(operands)


def _emit_r_node(join: str, extreme: str):
    """Text of an R-node: AND joins a+b and the radical with "-" and is
    "minimum" at alpha = 1, OR uses "+" and "maximum"."""
    def emit(e, k, a, b):
        if e.alpha == 1.0:
            return f"{extreme}({a}, {b})"  # exact value of (a+b -/+ |a-b|)/2
        # the formula reads each operand four times, so both become locals
        a, b = k.local(a), k.local(b)
        # the radicand is mathematically >= (1-|alpha|)(a^2+b^2); maximum
        # clamps its float-error negatives
        rad = f"(({a} * {a}) + ({b} * {b})) - ({k.const(2.0 * e.alpha)} * ({a} * {b}))"
        return f"((({a} + {b}) {join} sqrt(maximum({rad}, 0.0))) / {k.const(1.0 + e.alpha)})"
    return emit


def _emit_binary(op: str):
    return lambda e, k, a, b: f"({a} {op} {b})"


# every concrete Expr class, declared once; constructors are type(e)(*operands, *params)
NODES: dict[type, Node] = {
    Const: Node("const", (), ("value",), lambda e, k: k.const(e.value)),
    Var: Node("var", (), ("name",), lambda e, k: k.var(e.name)),
    Neg: Node("neg", ("a",), (), lambda e, k, a: f"(-{a})"),
    Add: Node("add", ("a", "b"), (), _emit_binary("+")),
    Sub: Node("sub", ("a", "b"), (), _emit_binary("-")),
    Mul: Node("mul", ("a", "b"), (), _emit_binary("*")),
    Pow: Node("pow", ("base",), ("exponent",), lambda e, k, a: f"({a} ** {'%d' % e.exponent})"),
    Sqrt: Node("sqrt", ("a",), (), lambda e, k, a: f"root({a})"),
    Abs: Node("abs", ("a",), (), lambda e, k, a: f"absolute({a})"),
    Min: Node("min", ("a", "b"), (), lambda e, k, a, b: f"minimum({a}, {b})"),
    Max: Node("max", ("a", "b"), (), lambda e, k, a, b: f"maximum({a}, {b})"),
    RAnd: Node("rand", ("a", "b"), ("alpha",), _emit_r_node("-", "minimum")),
    ROr: Node("ror", ("a", "b"), ("alpha",), _emit_r_node("+", "maximum")),
}


# ----------------------------------------------------------------------
# compiled evaluation
#
# An expression is evaluated by one generated Python function.  Each node's
# text comes from its NODES entry and goes inline into its parent's text, so
# numpy reuses temporaries as it would for hand-written arithmetic.  A node
# is bound to a local only when its value is read more than once (a node
# shared by identity, an operand of an alpha != 1 R-node), or when its text
# nests _SPILL_DEPTH levels deep, so that compile() never meets the parser's
# nesting limit; each local is deleted after its last read.  Nothing taken
# from the expression enters the source: inputs are read as x0, x1, ... and
# constants as the globals c0, c1, ..., so names and values such as inf,
# nan or -0.0 are never spelled in it.

_SPILL_DEPTH = 40


def _scalar_min(a, b):
    # np.minimum bit for bit: b on ties (min(0.0, -0.0) is -0.0), nan if either is nan
    return a if (a < b or a != a) else b


def _scalar_max(a, b):
    return a if (a > b or a != a) else b


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


_SCALAR_FUNCTIONS = {"sqrt": math.sqrt, "root": _root_scalar, "absolute": abs,
                     "minimum": _scalar_min, "maximum": _scalar_max}
_LOCAL_RE = re.compile(r"\bv\d+\b")


class Program(Record):
    """An expression compiled into one generated Python function.

    ``arrays`` evaluates it with numpy functions, ``scalars`` with float
    functions; both take the input values as one sequence ordered like
    ``names`` and share one code object.  ``bind`` makes the function from
    a table of the functions it calls; ``arrays`` is bound on first use, so
    scalar evaluation never imports numpy.  ``reads`` holds the names the
    expression reads and ``source`` the generated text.
    """

    __slots__ = ("names", "reads", "source", "scalars", "bind", "_arrays")

    @property
    def arrays(self) -> Callable:
        try:
            return self._arrays
        except AttributeError:
            object.__setattr__(self, "_arrays", self.bind(_array_functions()))
            return self._arrays

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


class _Compiler:
    """The state of one compilation: inputs read, constants and statements."""

    def __init__(self, names: tuple[str, ...]):
        self.inputs = {name: f"x{i}" for i, name in enumerate(names)}
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


@functools.lru_cache(maxsize=64)
def _code(source: str):
    # constraints fitted on one basis share their source, so one compiles for all
    return compile(source, "<rfuncds program>", "exec")


def compile_expr(expr: Expr, names: Sequence[str] | None = None) -> Program:
    """Compile ``expr`` into a Program whose inputs are ``names`` (default:
    the expression's variables, sorted), which must cover every variable."""
    names = tuple(sorted(variables(expr)) if names is None else names)
    k = _Compiler(names)
    order, uses = _postorder(expr)
    texts: dict[int, str] = {}    # by id(node)
    levels: dict[int, int] = {}   # nesting depth of each text; names are level 0
    for node in order:
        spec = NODES[type(node)]
        operands = spec.children(node)
        if not operands:
            texts[id(node)], levels[id(node)] = spec.emit(node, k), 0
            continue
        text = spec.emit(node, k, *[texts[id(c)] for c in operands])
        level = 1 + max([levels[id(c)] for c in operands])
        if uses[id(node)] > 1 or level >= _SPILL_DEPTH:
            text, level = k.local(text), 0
        texts[id(node)], levels[id(node)] = text, level

    result = texts[id(expr)]
    last_read = {}
    for i, (_, text) in enumerate(k.statements):
        for name in _LOCAL_RE.findall(text):
            last_read[name] = i
    for name in _LOCAL_RE.findall(result):
        last_read[name] = len(k.statements)
    dead: dict[int, list[str]] = {}
    for name, i in last_read.items():
        dead.setdefault(i, []).append(name)

    lines = ["def program(X):"]
    if names:
        lines.append(f"    {''.join(f'x{i}, ' for i in range(len(names)))}= X")
    for i, (name, text) in enumerate(k.statements):
        lines.append(f"    {name} = {text}")
        if i in dead:
            lines.append(f"    del {', '.join(dead[i])}")
    lines.append(f"    return {result}")
    source = "\n".join(lines) + "\n"

    # the constants and the functions called are the program's globals
    code = _code(source)
    consts = {f"c{i}": value for i, value in enumerate(k.consts)}

    def bind(functions):
        namespace = {**functions, **consts}
        exec(code, namespace)
        return namespace["program"]
    return Program(names, frozenset(k.reads), source, bind(_SCALAR_FUNCTIONS), bind)


# ----------------------------------------------------------------------
# evaluation and traversal

def eval_expr(expr: Expr | Region, point) -> float:
    """Evaluate at a single point.

    ``point`` is a name -> value mapping, or the values in the order of a
    Region's ``vars``.  A Region evaluates through the program it compiled
    on first use; a bare expression is compiled for this call.  A float
    power that overflows gives inf, as in :func:`eval_arrays`.
    """
    program = expr.program if isinstance(expr, Region) else compile_expr(expr)
    inputs = program.inputs(point)
    try:
        return float(program.scalars(inputs))
    except OverflowError:
        # float ** int raises where numpy gives inf; only such points pay for numpy
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            return float(program.arrays([np.float64(v) for v in inputs]))


def eval_arrays(expr: Expr | Region, env) -> np.ndarray:
    """Vectorized evaluation; env values are broadcast-compatible arrays,
    given like ``point`` of :func:`eval_expr`."""
    import numpy as np
    program = expr.program if isinstance(expr, Region) else compile_expr(expr)
    return np.asarray(program.arrays(program.inputs(env)), dtype=float)


def children(node: Expr) -> tuple[Expr, ...]:
    """The direct operands of a node, left to right."""
    return NODES[type(node)].children(node)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the tree, parents before children."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def _postorder(expr: Expr) -> tuple[list[Expr], dict[int, int]]:
    """Every distinct node once (by identity), operands before the nodes
    that read them, and the number of operand slots reading each node (the
    root counts one); without recursion."""
    order: list[Expr] = []
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
        for child in reversed(children(node)):
            push(child)
            uses[id(child)] = uses.get(id(child), 0) + 1
    return order, uses


def fold(expr: Expr, visit: Callable):
    """``visit(node, *operand results)`` once per distinct node (by identity),
    operands before the nodes that read them, without recursion; returns the
    root's result.  A result is dropped once its last reader has used it, so
    a deep chain holds only the results still waiting for a reader."""
    order, waiting = _postorder(expr)
    results: dict[int, object] = {}
    for node in order:
        operands = children(node)
        args = [results[id(c)] for c in operands]
        for c in operands:
            waiting[id(c)] -= 1
            if not waiting[id(c)]:
                del results[id(c)]
        results[id(node)] = visit(node, *args)
    return results[id(expr)]


def depth(expr: Expr) -> int:
    """Number of levels of the tree (a leaf has depth 1), without recursion.

    Shared nodes are visited once, so this is linear in the distinct nodes.
    """
    return fold(expr, lambda node, *levels: 1 + max(levels, default=0))


def variables(expr: Expr) -> set[str]:
    return {node.name for node in _postorder(expr)[0] if type(node) is Var}


# ----------------------------------------------------------------------
# regions and Boolean composition

class Region(Record):
    """Implicit region: the point set where ``expr >= 0``.

    ``vars`` fixes the coordinate order (used by grids, CSV output and CLI
    point arguments).
    """

    # the instance dict holds only the compiled program
    __slots__ = ("expr", "vars", "__dict__")

    def __init__(self, expr: Expr, vars: Sequence[str]):
        vars = tuple(vars)
        unbound = variables(expr) - set(vars)
        if unbound:
            raise ValueError(f"expression uses variables {sorted(unbound)} "
                             f"not in the binding list {vars}")
        super().__init__(expr, vars)

    @functools.cached_property
    def program(self) -> Program:
        """The expression compiled with ``vars`` as inputs, on first use.

        A pickled region leaves it out (its functions do not pickle) and
        compiles it again on first use after loading."""
        return compile_expr(self.expr, self.vars)

    def __call__(self, point: Mapping[str, float]) -> float:
        return eval_expr(self, point)


def sign_class(region: Region, point, tol: float = 1e-9) -> str:
    """Classify a point as 'inside' (f > tol), 'boundary' (|f| <= tol) or 'outside'.

    ``point`` is a name -> value mapping or the values in ``region.vars`` order.
    """
    return classify(eval_expr(region, point), tol)


def classify(value: float, tol: float = 1e-9) -> str:
    """The class of an expression value, as in :func:`sign_class`."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    if value > tol:
        return "inside"
    if value < -tol:
        return "outside"
    return "boundary"


class BoolTree:
    """Set-operation tree whose leaves are regions."""

    __slots__ = ()


class Leaf(BoolTree):
    __slots__ = ("region",)

    def __init__(self, region: Region):
        self.region = region

    def __repr__(self):
        return f"Leaf({self.region.expr!r})"


class And(BoolTree):
    __slots__ = ("children",)

    def __init__(self, *children: BoolTree):
        if not children:
            raise ValueError("And needs at least one child")
        self.children = tuple(children)

    def __repr__(self):
        return f"And{self.children}"


class Or(BoolTree):
    __slots__ = ("children",)

    def __init__(self, *children: BoolTree):
        if not children:
            raise ValueError("Or needs at least one child")
        self.children = tuple(children)

    def __repr__(self):
        return f"Or{self.children}"


class Not(BoolTree):
    __slots__ = ("child",)

    def __init__(self, child: BoolTree):
        self.child = child

    def __repr__(self):
        return f"Not({self.child!r})"


def compose(tree: BoolTree, alpha: float = 1.0) -> Region:
    """Collapse a Boolean tree of regions into one region.

    And/Or fold left into binary R-nodes with the given alpha; Not becomes a
    sign flip.  The membership of the result equals the set-theoretic
    combination of the leaf memberships.
    """
    check_alpha(alpha)
    regions = []

    def rec(node: BoolTree) -> Expr:
        if isinstance(node, Leaf):
            regions.append(node.region)
            return node.region.expr
        if isinstance(node, Not):
            return r_not(rec(node.child))
        if not isinstance(node, (And, Or)):
            raise TypeError(f"unknown BoolTree node {type(node).__name__}")
        exprs = [rec(child) for child in node.children]
        out = exprs[0]
        ctor = r_and if isinstance(node, And) else r_or
        for e in exprs[1:]:
            out = ctor(out, e, alpha)
        return out

    expr = rec(tree)
    var_lists = {r.vars for r in regions}
    if len(var_lists) != 1:
        raise MixedVariableLists(f"leaf regions use different variable lists: {sorted(var_lists)}")
    return Region(expr, regions[0].vars)
