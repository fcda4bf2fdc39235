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

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import (
    AlphaOutOfRange,
    MixedVariableLists,
    NegativeSqrtArgument,
    UnboundVariable,
)

# Sqrt arguments in [-SQRT_CLAMP_TOL, 0) clamp to 0; anything lower raises.
# alpha=1 compositions produce sqrt((a-b)^2), which can go epsilon-negative.
SQRT_CLAMP_TOL = 1e-12


class Expr:
    """Immutable expression node; operators build new nodes."""

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


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    """Integer power with non-negative exponent."""

    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError(f"Pow exponent must be a non-negative integer, got {self.exponent!r}")


@dataclass(frozen=True, slots=True)
class Sqrt(Expr):
    a: Expr


@dataclass(frozen=True, slots=True)
class Abs(Expr):
    a: Expr


@dataclass(frozen=True, slots=True)
class Min(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Max(Expr):
    a: Expr
    b: Expr


def check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not -1.0 < alpha <= 1.0:
        raise AlphaOutOfRange(alpha)
    return alpha


@dataclass(frozen=True, slots=True)
class RAnd(Expr):
    a: Expr
    b: Expr
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))


@dataclass(frozen=True, slots=True)
class ROr(Expr):
    a: Expr
    b: Expr
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))


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

    __slots__ = ("tag", "operands", "params", "evaluate", "children")

    def __init__(self, tag: str, operands: tuple[str, ...], params: tuple[str, ...],
                 evaluate: Callable):
        self.tag = tag              # ``kind`` in the tree format
        self.operands = operands    # child fields, left to right
        self.params = params        # other fields; constructors take operands first
        self.evaluate = evaluate    # (node, env) -> value
        # a node's operands as a tuple; attrgetter is the fastest generic accessor
        self.children = _children_getter(operands)


# Each evaluator looks its operands' evaluators up in _EVAL itself rather than
# going through _eval, so a tree level costs one Python frame, not two.

def _eval(e: Expr, env: Mapping[str, object]):
    # env values are floats or numpy arrays; numpy ufuncs cover both.
    return _EVAL[type(e)](e, env)


def _eval_var(e: Var, env):
    try:
        return env[e.name]
    except KeyError:
        raise UnboundVariable(e.name) from None


def _eval_pow(e: Pow, env):
    base = _EVAL[type(e.base)](e.base, env)
    if e.exponent == 0:
        return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
    return base ** e.exponent


def _eval_sqrt(e: Sqrt, env):
    arg = _EVAL[type(e.a)](e.a, env)
    low = np.min(arg)
    if low < -SQRT_CLAMP_TOL:
        raise NegativeSqrtArgument(float(low))
    if low < 0.0:
        arg = np.maximum(arg, 0.0)
    return np.sqrt(arg)


def _r_root(va, vb, alpha: float):
    rad = va * va + vb * vb - 2.0 * alpha * (va * vb)
    # mathematically >= (1-|alpha|)(a^2+b^2); clamp float-error negatives
    return np.sqrt(np.maximum(rad, 0.0))


def _eval_r_and(e: RAnd, env):
    va, vb = _EVAL[type(e.a)](e.a, env), _EVAL[type(e.b)](e.b, env)
    if e.alpha == 1.0:
        return np.minimum(va, vb)  # exact value of (a+b-|a-b|)/2
    return (va + vb - _r_root(va, vb, e.alpha)) / (1.0 + e.alpha)


def _eval_r_or(e: ROr, env):
    va, vb = _EVAL[type(e.a)](e.a, env), _EVAL[type(e.b)](e.b, env)
    if e.alpha == 1.0:
        return np.maximum(va, vb)
    return (va + vb + _r_root(va, vb, e.alpha)) / (1.0 + e.alpha)


# every concrete Expr class, declared once; constructors are type(e)(*operands, *params)
NODES: dict[type, Node] = {
    Const: Node("const", (), ("value",), lambda e, env: e.value),
    Var: Node("var", (), ("name",), _eval_var),
    Neg: Node("neg", ("a",), (), lambda e, env: -_EVAL[type(e.a)](e.a, env)),
    Add: Node("add", ("a", "b"), (),
              lambda e, env: _EVAL[type(e.a)](e.a, env) + _EVAL[type(e.b)](e.b, env)),
    Sub: Node("sub", ("a", "b"), (),
              lambda e, env: _EVAL[type(e.a)](e.a, env) - _EVAL[type(e.b)](e.b, env)),
    Mul: Node("mul", ("a", "b"), (),
              lambda e, env: _EVAL[type(e.a)](e.a, env) * _EVAL[type(e.b)](e.b, env)),
    Pow: Node("pow", ("base",), ("exponent",), _eval_pow),
    Sqrt: Node("sqrt", ("a",), (), _eval_sqrt),
    Abs: Node("abs", ("a",), (), lambda e, env: np.abs(_EVAL[type(e.a)](e.a, env))),
    Min: Node("min", ("a", "b"), (),
              lambda e, env: np.minimum(_EVAL[type(e.a)](e.a, env), _EVAL[type(e.b)](e.b, env))),
    Max: Node("max", ("a", "b"), (),
              lambda e, env: np.maximum(_EVAL[type(e.a)](e.a, env), _EVAL[type(e.b)](e.b, env))),
    RAnd: Node("rand", ("a", "b"), ("alpha",), _eval_r_and),
    ROr: Node("ror", ("a", "b"), ("alpha",), _eval_r_or),
}

_EVAL = {cls: node.evaluate for cls, node in NODES.items()}


# ----------------------------------------------------------------------
# evaluation and traversal

def eval_expr(expr: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a single point given as a name -> value mapping."""
    return float(_eval(expr, point))


def eval_arrays(expr: Expr, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Vectorized evaluation; env values are broadcast-compatible arrays."""
    return np.asarray(_eval(expr, env), dtype=float)


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


def depth(expr: Expr) -> int:
    """Number of levels of the tree (a leaf has depth 1), without recursion."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in children(node))
    return deepest


def variables(expr: Expr) -> set[str]:
    return {node.name for node in walk(expr) if type(node) is Var}


# ----------------------------------------------------------------------
# rewrites

# how an R-node joins a+b with its radical term: AND subtracts, OR adds
_R_JOIN = {RAnd: Sub, ROr: Add}


def canonicalize_alpha1(expr: Expr) -> Expr:
    """Rewrite every alpha=1 R-node into its abs form.

    RAnd(1)(a, b) -> 0.5*((a+b) - |a-b|), ROr(1) with '+'.  Values are
    preserved (within 1e-12); all other nodes are left untouched.  The
    result shares each rewritten node's operands between a+b and |a-b|.
    """
    def step(e: Expr, rec) -> Expr:
        join = _R_JOIN.get(type(e))
        if join is not None and e.alpha == 1.0:
            a, b = rec(e.a), rec(e.b)
            return Mul(Const(0.5), join(Add(a, b), Abs(Sub(a, b))))
        return _rebuild(e, rec)
    return _rewrite(expr, step)


def desugar_r_nodes(expr: Expr) -> Expr:
    """Expand every R-node into explicit arithmetic with a Sqrt.

    Used when emitting expressions in a form free of R-specific node kinds.
    """
    def step(e: Expr, rec) -> Expr:
        join = _R_JOIN.get(type(e))
        if join is not None:
            a, b = rec(e.a), rec(e.b)
            rad = Sub(Add(Pow(a, 2), Pow(b, 2)), Mul(Const(2.0 * e.alpha), Mul(a, b)))
            return Mul(Const(1.0 / (1.0 + e.alpha)), join(Add(a, b), Sqrt(rad)))
        return _rebuild(e, rec)
    return _rewrite(expr, step)


def _rewrite(expr: Expr, step) -> Expr:
    """Rebuild ``expr`` bottom-up through ``step(node, rec)``, once per
    distinct node: results are memoized by node identity, so a node shared
    by several parents is rewritten once and its result is shared too."""
    memo: dict[int, tuple[Expr, Expr]] = {}

    def rec(e: Expr) -> Expr:
        hit = memo.get(id(e))
        if hit is None:
            # the key node is kept alive with the result so its id stays unique
            hit = memo[id(e)] = (e, step(e, rec))
        return hit[1]
    return rec(expr)


def _rebuild(e: Expr, rec) -> Expr:
    """Apply rec to children; reuse the node when nothing changed."""
    node = NODES[type(e)]
    if not node.operands:
        return e
    old = node.children(e)
    new = tuple(map(rec, old))
    if all(map(operator.is_, new, old)):
        return e
    return type(e)(*new, *[getattr(e, p) for p in node.params])


# ----------------------------------------------------------------------
# regions and Boolean composition

@dataclass(frozen=True)
class Region:
    """Implicit region: the point set where ``expr >= 0``.

    ``vars`` fixes the coordinate order (used by grids, CSV output and CLI
    point arguments); ``units`` is optional per-variable unit labels.
    """

    expr: Expr
    vars: tuple[str, ...]
    units: tuple[str | None, ...] | None = None
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if self.units is not None:
            if len(self.units) != len(self.vars):
                raise ValueError("units length must match vars length")
            object.__setattr__(self, "units", tuple(self.units))
        unbound = variables(self.expr) - set(self.vars)
        if unbound:
            raise ValueError(f"expression uses variables {sorted(unbound)} "
                             f"not in the binding list {self.vars}")

    def __call__(self, point: Mapping[str, float]) -> float:
        return eval_expr(self.expr, point)


def sign_class(region: Region, point: Mapping[str, float], tol: float = 1e-9) -> str:
    """Classify a point as 'inside' (f > tol), 'boundary' (|f| <= tol) or 'outside'."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    value = eval_expr(region.expr, point)
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
        return f"Leaf({self.region.description or self.region.vars})"


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


def _leaf_regions(tree: BoolTree) -> Iterator[Region]:
    if isinstance(tree, Leaf):
        yield tree.region
    elif isinstance(tree, (And, Or)):
        for child in tree.children:
            yield from _leaf_regions(child)
    elif isinstance(tree, Not):
        yield from _leaf_regions(tree.child)
    else:
        raise TypeError(f"unknown BoolTree node {type(tree).__name__}")


def compose(tree: BoolTree, alpha: float = 1.0) -> Region:
    """Collapse a Boolean tree of regions into one region.

    And/Or fold left into binary R-nodes with the given alpha; Not becomes a
    sign flip.  The membership of the result equals the set-theoretic
    combination of the leaf memberships.
    """
    check_alpha(alpha)
    regions = list(_leaf_regions(tree))
    if not regions:
        raise ValueError("tree has no leaves")
    var_lists = {r.vars for r in regions}
    if len(var_lists) != 1:
        raise MixedVariableLists(f"leaf regions use different variable lists: {sorted(var_lists)}")
    first = regions[0]

    def rec(node: BoolTree) -> Expr:
        if isinstance(node, Leaf):
            return node.region.expr
        if isinstance(node, Not):
            return r_not(rec(node.child))
        exprs = [rec(child) for child in node.children]
        out = exprs[0]
        ctor = r_and if isinstance(node, And) else r_or
        for e in exprs[1:]:
            out = ctor(out, e, alpha)
        return out

    return Region(
        expr=rec(tree),
        vars=first.vars,
        units=first.units,
        description=f"composed from {len(regions)} region(s), alpha={alpha}",
    )
