import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from rfuncds.errors import (
    AlphaOutOfRange,
    MixedVariableLists,
    NegativeSqrtArgument,
    UnboundVariable,
)
from rfuncds.expr import (
    NODES, Abs, Add, And, Const, Expr, Leaf, Mul, Neg, Not, Or, Pow, RAnd, ROr, Region, Sqrt,
    Sub, Var, classify, compose, depth, eval_arrays, eval_expr, fold, postorder, sign_class,
    variables, walk,
)
from rfuncds.exprtext import to_tree_text
from rfuncds.geometry import circle, testcase as load_case
from rewrites import canonicalize_alpha1, children, desugar_r_nodes

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
alphas = st.sampled_from([-0.9, -0.5, 0.0, 0.5, 1.0])

A, B = Var("a"), Var("b")


def test_eval_circle_center():
    disc = circle(1.0, 2.0, 1.5)
    assert eval_expr(disc.expr, {"x": 1.0, "y": 2.0}) == 2.25


def test_eval_r0_conjunction():
    assert eval_expr(RAnd(A, B, 0.0), {"a": 3.0, "b": 4.0}) == pytest.approx(2.0, abs=1e-15)


def test_eval_parabola_composition_point():
    f_and, _, _ = load_case("parabolas-4.2")
    assert eval_expr(f_and.expr, {"x": 1.0, "y": -2.25}) == pytest.approx(0.75, abs=1e-12)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(A + B, {"a": 1.0})


def test_sqrt_clamp_and_error():
    e = Sqrt(Var("x"))
    assert eval_expr(e, {"x": -5e-13}) == 0.0
    assert eval_expr(e, {"x": 4.0}) == 2.0
    with pytest.raises(NegativeSqrtArgument):
        eval_expr(e, {"x": -1e-9})


def test_eval_arrays_matches_scalar(rng):
    expr = RAnd(A * A - 1.0, B + 0.5, 0.5)
    a = rng.uniform(-3, 3, size=50)
    b = rng.uniform(-3, 3, size=50)
    vec = eval_arrays(expr, {"a": a, "b": b})
    for i in range(50):
        assert vec[i] == eval_expr(expr, {"a": a[i], "b": b[i]})


def test_pow_exponent_validation():
    with pytest.raises(ValueError):
        Pow(A, -1)
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"got {flag}"):
            Pow(A, flag)
    assert eval_expr(Pow(A, 0), {"a": 7.0}) == 1.0


# one node of every class, each field holding a value of its kind
SAMPLE_NODES = [Const(1.0), Var("a"), Neg(A), Add(A, B), Sub(A, B), Mul(A, B), Pow(A, 2),
                Sqrt(A), Abs(A), RAnd(A, B, 0.5), ROr(A, B, 0.5)]


def test_nodes_are_immutable():
    for node in SAMPLE_NODES:
        for name in node.__slots__:
            with pytest.raises(AttributeError):
                setattr(node, name, Const(2.0))


@pytest.mark.parametrize("alpha", [-1.0, -1.5, 1.0 + 1e-9, 2.0])
def test_alpha_out_of_range(alpha):
    with pytest.raises(AlphaOutOfRange):
        RAnd(A, B, alpha)


def test_alpha_boundary_values_accepted():
    RAnd(A, B, 1.0)
    RAnd(A, B, -0.999999)


def test_r_and_examples():
    assert eval_expr(RAnd(A, B, 1.0), {"a": 2.0, "b": 5.0}) == 2.0
    assert eval_expr(RAnd(A, B, 0.0), {"a": 3.0, "b": 0.0}) == pytest.approx(0.0, abs=1e-15)
    expected = -1.0 + 5.0 - np.sqrt(26.0)
    assert eval_expr(RAnd(A, B, 0.0), {"a": -1.0, "b": 5.0}) == pytest.approx(expected, abs=1e-12)


def test_r_or_examples():
    assert eval_expr(ROr(A, B, 1.0), {"a": 2.0, "b": 5.0}) == 5.0
    assert eval_expr(ROr(A, B, 0.0), {"a": -3.0, "b": -4.0}) == pytest.approx(-2.0, abs=1e-12)
    assert eval_expr(ROr(A, B, 0.5), {"a": 1.0, "b": 1.0}) == pytest.approx(2.0, abs=1e-12)


def test_r_not_involution(rng):
    e = Neg(Neg(A * B - 2.0))
    pts = rng.uniform(-10, 10, size=(100, 2))
    for a, b in pts:
        env = {"a": a, "b": b}
        assert eval_expr(e, env) == eval_expr(A * B - 2.0, env)


@given(a=finite, b=finite, alpha=alphas)
def test_sign_consistency(a, b, alpha):
    va = eval_expr(RAnd(A, B, alpha), {"a": a, "b": b})
    vo = eval_expr(ROr(A, B, alpha), {"a": a, "b": b})
    for value, ref in ((va, min(a, b)), (vo, max(a, b))):
        if abs(ref) <= 1e-12:
            assert abs(value) <= 1e-9
        else:
            assert np.sign(value) == np.sign(ref)


@given(a=finite, b=finite, alpha=alphas)
def test_symmetry(a, b, alpha):
    env_ab = {"a": a, "b": b}
    env_ba = {"a": b, "b": a}
    assert eval_expr(RAnd(A, B, alpha), env_ab) == eval_expr(RAnd(A, B, alpha), env_ba)
    assert eval_expr(ROr(A, B, alpha), env_ab) == eval_expr(ROr(A, B, alpha), env_ba)


@given(a=finite, b=finite, alpha=alphas)
def test_de_morgan_at_sign_level(a, b, alpha):
    lhs = eval_expr(Neg(ROr(A, B, alpha)), {"a": a, "b": b})
    rhs = eval_expr(RAnd(A, B, alpha), {"a": -a, "b": -b})
    band = 1e-9
    if abs(lhs) <= band or abs(rhs) <= band:
        assert abs(lhs) <= band and abs(rhs) <= band
    else:
        assert np.sign(lhs) == np.sign(rhs)


def test_alpha1_equals_min_max(rng):
    a = rng.uniform(-10, 10, size=10_000)
    b = rng.uniform(-10, 10, size=10_000)
    env = {"a": a, "b": b}
    assert np.abs(eval_arrays(RAnd(A, B, 1.0), env) - np.minimum(a, b)).max() <= 1e-12
    assert np.abs(eval_arrays(ROr(A, B, 1.0), env) - np.maximum(a, b)).max() <= 1e-12


# ----------------------------------------------------------------------
# traversal

def test_walk_order_and_depth():
    expr = Sub(Mul(A, Pow(B, 2)), RAnd(Sqrt(A), Const(1.0), 0.5))
    assert [type(n).__name__ for n in walk(expr)] == [
        "Sub", "Mul", "Var", "Pow", "Var", "RAnd", "Sqrt", "Var", "Const"]
    assert depth(expr) == 4
    assert depth(A) == 1


def test_depth_needs_no_recursion():
    expr = A
    for _ in range(20_000):
        expr = Neg(expr)
    assert depth(expr) == 20_001
    assert sum(1 for _ in walk(expr)) == 20_001


def test_eval_takes_one_frame_per_level():
    # trees built in memory have no depth cap; at two frames per level an
    # 800-level tree would exceed Python's default recursion limit
    expr = A
    for _ in range(400):
        expr = RAnd(Add(expr, Const(1.0)), B, 1.0)
    assert eval_expr(expr, {"a": 0.0, "b": 1000.0}) == 400.0
    assert eval_arrays(expr, {"a": np.zeros(2), "b": np.full(2, 5.0)}).tolist() == [5.0, 5.0]


# ----------------------------------------------------------------------
# canonicalization

def test_canonicalize_structure():
    out = canonicalize_alpha1(RAnd(Var("x"), Var("y"), 1.0))
    x, y = Var("x"), Var("y")
    assert to_tree_text(out) == to_tree_text(Mul(Const(0.5), Sub(x + y, Abs(Sub(x, y)))))


def test_canonicalize_value_preserving(rng):
    expr = RAnd(Var("x"), Var("y"), 1.0)
    canon = canonicalize_alpha1(expr)
    pts = rng.uniform(-50, 50, size=(10_000, 2))
    env = {"x": pts[:, 0], "y": pts[:, 1]}
    assert np.abs(eval_arrays(expr, env) - eval_arrays(canon, env)).max() <= 1e-12


def test_canonicalize_fixpoint_without_r_nodes():
    expr = Mul(Var("x") ** 2 - 1.0, Abs(Var("y")))
    assert canonicalize_alpha1(expr) is expr


def test_canonicalize_keeps_other_alpha():
    expr = RAnd(Var("x"), Var("y"), 0.5)
    assert canonicalize_alpha1(expr) is expr


# random trees over every node kind but Sqrt (whose domain a random tree
# would leave); R-nodes take alpha = 1 or a well-conditioned alpha
_X, _Y = Var("x"), Var("y")


def _random_trees(alphas):
    def branches(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(
            *(pairs.map(lambda ab, c=c: c(*ab)) for c in (Add, Sub, Mul)),
            inner.map(Neg), inner.map(Abs), inner.map(lambda e: Pow(e, 2)),
            *(st.tuples(inner, inner, alphas).map(lambda t, c=c: c(*t)) for c in (RAnd, ROr)),
        )
    leaves = st.one_of(st.floats(-5, 5).map(Const), st.sampled_from([_X, _Y]))
    return st.recursive(leaves, branches, max_leaves=12)


_any_alpha = st.one_of(st.just(1.0), st.floats(-0.99, 0.99))
_points = {"x": st.floats(-3, 3), "y": st.floats(-3, 3)}



def _sum(e, a, b):
    return a + b


# the expression evaluated on operand magnitudes; each node's entry bounds
# both its value and how much it scales rounding errors in its operands
# (an R-node's partial derivatives are at most 2 / (1 + alpha))
_MAGNITUDE = {
    Add: _sum, Sub: _sum,
    Mul: lambda e, a, b: a * b,
    Neg: lambda e, a: a, Abs: lambda e, a: a,
    Pow: lambda e, a: a ** e.exponent,
    RAnd: lambda e, a, b: 2 * (a + b) / (1 + e.alpha),
    ROr: lambda e, a, b: 2 * (a + b) / (1 + e.alpha),
}


def _magnitude(e, env) -> float:
    operands = children(e)
    if not operands:
        return abs(eval_expr(e, env))
    return _MAGNITUDE[type(e)](e, *(_magnitude(c, env) for c in operands))


def _assert_same_value(rewritten, expr, env):
    # The rewrites round differently from the nodes they replace, and that
    # difference grows with the operands, not with the result: the abs form
    # 0.5*((a+b) - |a-b|) of min(a, b) is off by about eps*|a| when b << a,
    # and later products scale it further.  So the bound is relative to the
    # magnitude evaluation, which bounds every operand and every such factor.
    magnitude = _magnitude(expr, env)
    assume(magnitude < 1e150)  # the radical form squares operands
    v = eval_expr(expr, env)
    assert abs(eval_expr(rewritten, env) - v) <= 1e-12 * (1 + magnitude)


_C625 = Pow(Pow(Const(5.0), 2), 2)


# min(390625, 0.1) in abs form is off by about 1e-11: within 1e-12 of the
# operands, but not of the result
@example(expr=RAnd(Pow(_C625, 2), _X, 1.0), x=0.1, y=0.0)
# the same error, scaled by later factors far beyond any operand of the R-node
@example(expr=Mul(Mul(RAnd(_C625, _X, 1.0), _C625), _C625), x=0.001, y=0.0)
@given(expr=_random_trees(_any_alpha), **_points)
def test_canonicalize_and_desugar_preserve_values(expr, x, y):
    env = {"x": x, "y": y}
    _assert_same_value(canonicalize_alpha1(expr), expr, env)
    _assert_same_value(desugar_r_nodes(canonicalize_alpha1(expr)), expr, env)


@given(expr=_random_trees(st.floats(-0.99, 0.99)), **_points)
def test_desugar_preserves_values_below_alpha1(expr, x, y):
    _assert_same_value(desugar_r_nodes(expr), expr, {"x": x, "y": y})


def test_desugared_alpha1_loses_sqrt_eps_near_a_equals_b():
    # the radical form of an alpha = 1 node computes sqrt((a-b)^2) from
    # a^2 + b^2 - 2ab, which cancels to rounding noise when a is close to b
    expr = RAnd(_X, _Y, 1.0)
    env = {"x": 1.0, "y": 1.0 + 1e-9}
    assert eval_expr(expr, env) == 1.0
    assert eval_expr(canonicalize_alpha1(expr), env) == 1.0
    assert abs(eval_expr(desugar_r_nodes(expr), env) - 1.0000000005) <= 1e-12


def _distinct_nodes(expr) -> int:
    seen, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(children(node))
    return len(seen)


@pytest.mark.parametrize("alphas", [(1.0,), (1.0, 0.5)], ids=["alpha1", "alternating"])
def test_rewrites_stay_linear_on_shared_operands(alphas):
    # a left-nested 20-level RAnd chain; the canonical form shares each
    # alpha-1 node's operands between a+b and |a-b|, so a walk that does not
    # notice the sharing reaches the innermost node 2^(alpha-1 levels) ways
    depth = 20
    expr = Var("x0")
    for i in range(1, depth + 1):
        expr = RAnd(expr, Var(f"x{i}"), alphas[i % len(alphas)])
    canon = canonicalize_alpha1(expr)
    # counted before the asserts, so a failure does not print the expressions
    sizes = (_distinct_nodes(canon), _distinct_nodes(desugar_r_nodes(canon)))
    assert sizes[0] <= 8 * depth and sizes[1] <= 16 * depth


def _concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_subclasses(sub)


def test_node_table_covers_every_expression_class():
    classes = set(_concrete_subclasses(Expr))
    assert classes == set(NODES) == {type(node) for node in SAMPLE_NODES}
    for cls, node in NODES.items():
        # constructors take the operands first, then the parameters
        assert list(cls.__slots__) == [*node.operands, *node.params]
    assert len({node.tag for node in NODES.values()}) == len(NODES)


def _label(node, *operands) -> str:
    """A node's class, parameters and operands' labels, as one string."""
    params = [repr(getattr(node, name)) for name in NODES[type(node)].params]
    return f"{type(node).__name__}({', '.join([*operands, *params])})"


def _label_recursive(node) -> str:
    return _label(node, *map(_label_recursive, children(node)))


def test_fold_hands_each_node_its_operands_results_then_reads_its_fields():
    e = RAnd(Pow(Sub(A, Const(-0.0)), 2), Neg(Var("b")), 0.5)
    assert fold(e, _label) == "RAnd(Pow(Sub(Var('a'), Const(-0.0)), 2), Neg(Var('b')), 0.5)"


@given(expr=_random_trees(_any_alpha))
def test_fold_of_trees_without_shared_nodes_is_the_recursive_fold(expr):
    assert fold(expr, _label) == _label_recursive(expr)


def test_fold_visits_a_shared_node_once_and_hands_its_result_to_each_reader():
    shared = Add(A, Const(1.0))
    e = Mul(Neg(shared), Sub(shared, shared))
    visited, operands_of = [], {}

    def visit(node, *operands):
        visited.append(node)
        operands_of[id(node)] = operands
        return object()   # a result distinct from every other
    fold(e, visit)
    assert len(visited) == len({id(node) for node in visited}) == 6 and visited[-1] is e
    (from_neg,), (left, right) = operands_of[id(e.a)], operands_of[id(e.b)]
    assert from_neg is left is right


def test_fold_of_a_shared_dag_is_linear():
    expr = Var("x0")
    for i in range(1, 15):
        expr = RAnd(expr, Var(f"x{i}"), 1.0)
    canon = canonicalize_alpha1(expr)
    visits = []
    assert fold(canon, lambda node, *levels: visits.append(node) or 1 + max(levels, default=0)) \
        == depth(canon) == 1 + 4 * 14
    assert len(visits) == _distinct_nodes(canon) == 99


def test_fold_depth_and_variables_need_no_recursion():
    e = A
    for _ in range(20_000):
        e = Neg(e)
    assert fold(e, lambda node, *counts: 1 + sum(counts)) == 20_001
    assert depth(e) == 20_001 and variables(e) == {"a"}


# ----------------------------------------------------------------------
# regions and composition

def _two_circles():
    c0 = circle(1.0, 2.0, 1.5)
    c1 = circle(1.0, 1.0, 1.0)
    return c0, c1


def test_compose_and_matches_min_oracle():
    c0, c1 = _two_circles()
    region = compose(And(Leaf(c0), Leaf(c1)), 1.0)
    env = {"x": 1.0, "y": 1.5}
    expected = min(eval_expr(c0.expr, env), eval_expr(c1.expr, env))
    assert expected == pytest.approx(0.75)
    assert eval_expr(region.expr, env) == expected


def test_compose_not_is_negation(rng):
    c0, _ = _two_circles()
    region = compose(Not(Leaf(c0)), 1.0)
    for x, y in rng.uniform(-3, 3, size=(25, 2)):
        assert eval_expr(region.expr, {"x": x, "y": y}) == -eval_expr(c0.expr, {"x": x, "y": y})


def test_compose_single_leaf_is_identity(rng):
    c0, _ = _two_circles()
    region = compose(And(Leaf(c0)), 1.0)
    for x, y in rng.uniform(-3, 3, size=(25, 2)):
        env = {"x": x, "y": y}
        assert eval_expr(region.expr, env) == eval_expr(c0.expr, env)


def test_compose_appendix_composite_point():
    _, composite, _ = load_case("paraboloid-cylinders-A2")
    # inside the annular cut-out: excluded from the region
    assert eval_expr(composite.expr, {"x": 0.4, "y": 0.0, "z": 0.0}) < 0


def test_compose_rejects_mixed_variables():
    c0, _ = _two_circles()
    other = Region(Var("u") - 1.0, vars=("u", "v"))
    with pytest.raises(MixedVariableLists):
        compose(And(Leaf(c0), Leaf(other)), 1.0)


def test_compose_rejects_a_node_that_is_not_a_bool_tree():
    c0, c1 = _two_circles()
    for tree in (c0, And(Leaf(c0), c1), Not(c1)):
        with pytest.raises(TypeError, match="unknown BoolTree node Region"):
            compose(tree)


def test_compose_alpha_checked():
    c0, c1 = _two_circles()
    with pytest.raises(AlphaOutOfRange):
        compose(And(Leaf(c0), Leaf(c1)), -1.0)


def _compose_recursive(tree, alpha):
    """compose's rule read recursively, one call per level: for shallow trees."""
    if isinstance(tree, Leaf):
        return tree.region.expr
    if isinstance(tree, Not):
        return Neg(_compose_recursive(tree.child, alpha))
    exprs = [_compose_recursive(child, alpha) for child in tree.children]
    out = exprs[0]
    for e in exprs[1:]:
        out = tree.r_node(out, e, alpha)
    return out


def _nested_and(levels, leaves):
    """And(And(...And(l0, l1)..., l2), l0): ``levels`` nested joins."""
    tree = leaves[0]
    for i in range(1, levels + 1):
        tree = And(tree, leaves[i % len(leaves)])
    return tree


def test_compose_matches_the_recursive_rule_on_shallow_trees():
    c0, c1 = _two_circles()
    l0, l1 = Leaf(c0), Leaf(c1)
    trees = [l0, Not(l0), And(l0), Or(l0, l1, Not(l0)), Not(And(Or(l0, Not(l1)), l1, Or(l1))),
             And(Or(l0, And(l1, Not(Not(l0)))), Not(Or(l1, l0, l1))), _nested_and(5, [l0, l1])]
    for tree in trees:
        for alpha in (1.0, 0.25):
            assert to_tree_text(compose(tree, alpha).expr) == \
                to_tree_text(_compose_recursive(tree, alpha))


def _reused(levels, leaf):
    """``t = And(t, Not(t))``, ``levels`` times: each level reads the one
    below twice, so the tree has 2^levels paths to its leaf."""
    tree = leaf
    for _ in range(levels):
        tree = And(tree, Not(tree))
    return tree


def test_compose_composes_a_shared_subtree_once():
    leaf = Leaf(Region(Var("x") - 1.0, ("x",)))   # three expression nodes
    # 16 levels first: composed once per path they give 131,073 nodes, not 2^40
    for levels in (16, 40):
        start = time.perf_counter()
        expr = compose(_reused(levels, leaf), 0.5).expr
        assert time.perf_counter() - start < 0.5
        assert len(postorder(expr)[0]) == 2 * levels + 3
    for levels in (1, 2, 5):
        for alpha in (1.0, 0.5):
            tree = _reused(levels, leaf)
            assert to_tree_text(compose(tree, alpha).expr) == \
                to_tree_text(_compose_recursive(tree, alpha))
            for x in (-2.0, 0.5, 1.0, 3.0):
                assert eval_expr(compose(tree, alpha), [x]) == \
                    eval_expr(_compose_recursive(tree, alpha), {"x": x})


def test_compose_takes_3000_nested_joins():
    c0, c1 = _two_circles()
    leaves = [Leaf(c0), Leaf(c1), Leaf(c0)]
    # the chain the recursive rule gives: one R-node per join, folded left
    chain = c0.expr
    for i in range(1, 3001):
        chain = RAnd(chain, leaves[i % 3].region.expr, 0.5)
    assert to_tree_text(compose(_nested_and(5, leaves), 0.5).expr) == \
        to_tree_text(_compose_recursive(_nested_and(5, leaves), 0.5))
    region = compose(_nested_and(3000, leaves), 0.5)
    # too deep for the tree format: compared by depth and by value, at points
    # inside both circles, where the chain stays finite
    assert depth(region.expr) == depth(chain) == 3000 + depth(c0.expr)
    env = {"x": np.linspace(0.6, 1.4, 5), "y": np.linspace(1.2, 1.8, 5)}
    values = eval_arrays(region, env)
    assert (values > 0.0).all() and values.tolist() == eval_arrays(chain, env).tolist()
    assert region.vars == c0.vars


def test_sign_class_circle():
    c0, _ = _two_circles()
    assert sign_class(c0, {"x": 1.0, "y": 2.0}) == "inside"
    assert sign_class(c0, {"x": 2.5, "y": 2.0}) == "boundary"
    assert sign_class(c0, {"x": 10.0, "y": 10.0}) == "outside"


def test_classify_reads_nan_as_outside():
    # as everywhere else, where a region is the set f >= 0
    assert classify(math.nan) == "outside"


def test_region_rejects_unbound_expression_variables():
    with pytest.raises(ValueError):
        Region(Var("z") + 1.0, vars=("x", "y"))


def test_region_rejects_repeated_variable_names():
    with pytest.raises(ValueError, match="repeat"):
        Region(Var("x") + 1.0, vars=("x", "x"))


def test_canonicalized_composition_matches_closed_form():
    f_and, _, _ = load_case("parabolas-4.2")
    canon = canonicalize_alpha1(f_and.expr)
    x, y = np.meshgrid(np.linspace(-2, 4, 50), np.linspace(-6, 2, 50), indexing="ij")
    values = eval_arrays(canon, {"x": x, "y": y})
    expected = 2 * x - x**2 - np.abs(4 * y + 9) / 4 - 0.25
    assert np.abs(values - expected).max() <= 1e-9
