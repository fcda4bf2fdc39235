"""The two R-node rewrites that infix output was printed from before the
printer expanded R-nodes itself, kept as the printer's oracle: printing
``desugar_r_nodes(canonicalize_alpha1(e))`` (or ``desugar_r_nodes(e)`` in
the sqrt style) must give the same text as printing ``e``.

Each rewrite memoizes by node identity, so a node shared by several
parents is rewritten once and its result is shared too.
"""

from rfuncds.expr import NODES, Abs, Add, Const, Mul, Pow, RAnd, ROr, Sqrt, Sub

# how an R-node joins a+b with its radical term: AND subtracts, OR adds
_R_JOIN = {RAnd: Sub, ROr: Add}


def canonicalize_alpha1(expr):
    """Rewrite every alpha=1 R-node into its abs form.

    RAnd(1)(a, b) -> 0.5*((a+b) - |a-b|), ROr(1) with '+'.  Values are
    preserved (within 1e-12); all other nodes are left untouched.  The
    result shares each rewritten node's operands between a+b and |a-b|.
    """
    def step(e, rec):
        join = _R_JOIN.get(type(e))
        if join is not None and e.alpha == 1.0:
            a, b = rec(e.a), rec(e.b)
            return Mul(Const(0.5), join(Add(a, b), Abs(Sub(a, b))))
        return _rebuild(e, rec)
    return _rewrite(expr, step)


def desugar_r_nodes(expr):
    """Expand every R-node into explicit arithmetic with a Sqrt."""
    def step(e, rec):
        join = _R_JOIN.get(type(e))
        if join is not None:
            a, b = rec(e.a), rec(e.b)
            rad = Sub(Add(Pow(a, 2), Pow(b, 2)), Mul(Const(2.0 * e.alpha), Mul(a, b)))
            return Mul(Const(1.0 / (1.0 + e.alpha)), join(Add(a, b), Sqrt(rad)))
        return _rebuild(e, rec)
    return _rewrite(expr, step)


def children(e) -> tuple:
    """The operands of node ``e``, left to right, as its NODES entry names them."""
    return tuple(getattr(e, name) for name in NODES[type(e)].operands)


def _rewrite(expr, step):
    """Rebuild ``expr`` bottom-up through ``step(node, rec)``, once per
    distinct node; recurses once per level."""
    memo = {}

    def rec(e):
        hit = memo.get(id(e))
        if hit is None:
            # the key node is kept alive with the result so its id stays unique
            hit = memo[id(e)] = (e, step(e, rec))
        return hit[1]
    return rec(expr)


def _rebuild(e, rec):
    """Apply rec to children; reuse the node when nothing changed."""
    node = NODES[type(e)]
    if not node.operands:
        return e
    old = children(e)
    new = tuple(map(rec, old))
    if all(a is b for a, b in zip(new, old)):
        return e
    return type(e)(*new, *[getattr(e, p) for p in node.params])
