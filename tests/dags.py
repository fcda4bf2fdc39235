"""A hypothesis strategy for expressions that share nodes, used by the
compiled-evaluator and infix-printer tests."""

import math

from hypothesis import strategies as st

from rfuncds.expr import Abs, Add, Const, Mul, Neg, Pow, RAnd, ROr, Sqrt, Sub, Var

X, Y = Var("x"), Var("y")
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]

values = st.one_of(st.floats(-5, 5), st.sampled_from(SPECIAL))
_alphas = st.one_of(st.just(1.0), st.floats(-1.0, 1.0, exclude_min=True))
_BINARY = (Add, Sub, Mul)
_UNARY = (Neg, Abs, Sqrt)


@st.composite
def dags(draw):
    """Expressions whose operands are drawn from every node built so far, so
    a node may be shared by several parents (by identity) or appear twice
    in one."""
    pool = [X, Y, *(Const(v) for v in draw(st.lists(values, min_size=1, max_size=3)))]
    for _ in range(draw(st.integers(1, 12))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from(["binary", "unary", "pow", "r-node"]))
        if kind == "binary":
            node = draw(st.sampled_from(_BINARY))(draw(pick), draw(pick))
        elif kind == "unary":
            node = draw(st.sampled_from(_UNARY))(draw(pick))
        elif kind == "pow":
            node = Pow(draw(pick), draw(st.integers(0, 7)))
        else:
            node = draw(st.sampled_from((RAnd, ROr)))(draw(pick), draw(pick), draw(_alphas))
        pool.append(node)
    return pool[-1]
