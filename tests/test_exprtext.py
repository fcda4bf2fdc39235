import json
import math
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from rfuncds.errors import ParseError
from rfuncds.expr import (
    Abs, Add, Const, Expr, Mul, Neg, Pow, RAnd, ROr, Sqrt, Sub, Var, depth, eval_expr,
)
from rfuncds.exprtext import (
    MAX_DEPTH, dump_json, expression_fields, parse_tree_text, to_infix, to_tree_obj, to_tree_text,
)
from rfuncds.geometry import testcase as load_case
from dags import dags
from infix_eval import infix_eval
from rewrites import canonicalize_alpha1, desugar_r_nodes

X, Y = Var("x"), Var("y")

ZOO = [
    Const(1.5),
    Const(-2.0),
    X,
    X + Y,
    Sub(X, Const(3.0)),
    Mul(Const(2.0), X) - Y * Y,
    Neg(X + 1.0),
    Pow(X + Y, 3),
    Sqrt(Abs(X)),
    Abs(Sub(Mul(X, Y), Const(0.5))),
    RAnd(X, Y, 1.0),
    ROr(X - 1.0, Y + 2.0, 0.5),
    RAnd(ROr(X, Y, -0.5), Sub(X, Y), 0.0),
]

# each text format as (writer, its text's value at env): infix text is
# evaluated as Python arithmetic, tree text is read back and evaluated
FORMATS = {
    "infix": (to_infix, infix_eval),
    "tree": (to_tree_text, lambda text, env: eval_expr(parse_tree_text(text), env)),
}


def test_const_round_trip():
    assert to_infix(Const(1.5)) == "1.5"
    assert infix_eval("1.5", {}) == 1.5


def test_canonical_alpha1_infix_spelling():
    canon = canonicalize_alpha1(RAnd(X, Y, 1.0))
    assert to_infix(canon) == "0.5*((x+y)-abs(x-y))"


@pytest.mark.parametrize("expr", ZOO, ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("fmt", FORMATS)
def test_round_trip_value_equality(expr, fmt, rng):
    write, value = FORMATS[fmt]
    text = write(expr)
    # infix output expands R-nodes to arithmetic (alpha=1 in abs form), so
    # the round-trip contract is against the expression as emitted
    reference = desugar_r_nodes(canonicalize_alpha1(expr)) if fmt == "infix" else expr
    pts = rng.uniform(-7, 7, size=(200, 2))
    for x, y in pts:
        env = {"x": x, "y": y}
        assert value(text, env) == pytest.approx(eval_expr(reference, env), abs=1e-12)


@pytest.mark.parametrize("expr", ZOO, ids=lambda e: type(e).__name__)
def test_tree_round_trip_is_structural(expr):
    text = to_tree_text(expr)
    assert to_tree_text(parse_tree_text(text)) == text


def test_composed_case_round_trips(rng):
    f_and, _, _ = load_case("parabolas-4.2")
    for style in ("sqrt", "abs"):
        text = to_infix(f_and.expr, alpha1_style=style)
        reference = desugar_r_nodes(
            canonicalize_alpha1(f_and.expr) if style == "abs" else f_and.expr)
        pts = rng.uniform(-6, 6, size=(1000, 2))
        for x, y in pts:
            env = {"x": x, "y": y}
            assert infix_eval(text, env) == pytest.approx(eval_expr(reference, env), abs=1e-12)


def test_default_infix_reads_alpha1_back_exactly():
    # the sqrt style's text evaluates RAnd(x, y, 1) to 1.0000000005 here
    expr = RAnd(X, Y, 1.0)
    env = {"x": 1.0, "y": 1.0 + 1e-9}
    assert eval_expr(expr, env) == 1.0
    assert infix_eval(to_infix(expr), env) == 1.0
    assert abs(infix_eval(to_infix(expr, alpha1_style="sqrt"), env) - 1.0000000005) <= 1e-12


def test_infix_alpha1_styles_differ():
    expr = RAnd(X, Y, 1.0)
    assert "sqrt" in to_infix(expr, alpha1_style="sqrt")
    assert "abs" in to_infix(expr, alpha1_style="abs")


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_number_round_trip_full_precision(v):
    # negative literals (including -0.0) print as unary minus and |v|,
    # which evaluates to v exactly
    assert infix_eval(to_infix(Const(v)), {}) == v


@pytest.mark.parametrize("bad", [
    "42",                                     # not an object
    '{"kind":"nope"}',
    pytest.param('{"kind":"min","args":[{"kind":"var","name":"x"},{"kind":"var","name":"y"}]}',
                 id="kind-min"),
    pytest.param('{"kind":"max","args":[{"kind":"var","name":"x"},{"kind":"var","name":"y"}]}',
                 id="kind-max"),
    '{"kind":"const","value":"x"}',
    '{"kind":"pow","exponent":-1,"args":[{"kind":"var","name":"x"}]}',
    '{"kind":"add","args":[{"kind":"var","name":"x"}]}',
    '{"kind":"rand","args":[{"kind":"var","name":"x"},{"kind":"var","name":"y"}]}',
    "{not json",
    pytest.param('{"kind":"pow","exponent":1' + "0" * 400 + ',"args":[{"kind":"var","name":"x"}]}',
                 id="exponent-10**400"),
    pytest.param('{"kind":"const","value":1' + "0" * 400 + "}", id="value-10**400"),
    pytest.param('{"kind":"const","value":1' + "0" * 5000 + "}", id="value-5001-digits"),
])
def test_tree_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_tree_text(bad)


# ----------------------------------------------------------------------
# depth limit

def _neg_chain(n):
    expr = X
    for _ in range(n):
        expr = Neg(expr)
    return expr


def _neg_tree_text(n):
    return '{"kind":"neg","args":[' * n + '{"kind":"var","name":"x"}' + "]}" * n


def test_trees_at_the_depth_limit_round_trip():
    expr = _neg_chain(MAX_DEPTH - 1)
    assert depth(expr) == MAX_DEPTH
    text = to_tree_text(expr)
    assert to_tree_text(parse_tree_text(text)) == text
    for write, value in FORMATS.values():
        assert value(write(expr), {"x": 2.0}) == -2.0


def test_tree_text_deeper_than_the_limit_is_a_parse_error():
    assert depth(parse_tree_text(_neg_tree_text(MAX_DEPTH - 1))) == MAX_DEPTH
    for n in (MAX_DEPTH, 5000):
        with pytest.raises(ParseError, match="deeper than"):
            parse_tree_text(_neg_tree_text(n))
    # brackets inside strings do not nest
    name = "[{" * 5000
    text = json.dumps({"kind": "var", "name": name}, separators=(",", ":"))
    assert to_tree_text(parse_tree_text(text)) == text


def test_tree_writers_refuse_trees_deeper_than_the_limit():
    # the reader refuses them, so no writer emits them
    for levels in (MAX_DEPTH + 1, 20_000):
        for write in (to_tree_obj, to_tree_text):
            with pytest.raises(ValueError, match=f"expression {levels} levels deep; "
                                                 f"the tree format holds at most {MAX_DEPTH}"):
                write(_neg_chain(levels - 1))


def _compact_json(expr):
    return json.dumps(to_tree_obj(expr), separators=(",", ":"))


@pytest.mark.parametrize("expr", [
    *ZOO, Var('T"\\\u00e9\n\u2603'), Const(1e300), Const(-0.0), Const(5e-324), Const(math.nan),
    Const(-math.inf), Pow(X, 2 ** 70), RAnd(X, Y, -0.999), Mul(X + Y, X + Y),
], ids=lambda e: type(e).__name__)
def test_tree_text_is_the_compact_json_of_the_tree(expr):
    assert to_tree_text(expr) == _compact_json(expr)


@given(expr=dags())
def test_tree_text_of_shared_nodes_is_the_compact_json_of_the_tree(expr):
    assert to_tree_text(expr) == _compact_json(expr)


# random safe expressions (no sqrt: keeps domains valid for any point)
_leaf = st.one_of(
    st.floats(min_value=-5, max_value=5, allow_nan=False).map(lambda v: Const(v)),
    st.sampled_from([X, Y]),
)
_expr = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: Add(*ab)),
        st.tuples(inner, inner).map(lambda ab: Sub(*ab)),
        st.tuples(inner, inner).map(lambda ab: Mul(*ab)),
        inner.map(Neg),
        inner.map(Abs),
        inner.map(lambda e: Pow(e, 2)),
    ),
    max_leaves=12,
)


@given(expr=_expr, x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_random_expression_round_trip(expr, x, y):
    env = {"x": x, "y": y}
    reference = eval_expr(expr, env)
    for write, value in FORMATS.values():
        assert value(write(expr), env) == pytest.approx(reference, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("expr, abs_text, sqrt_text", [
    (Pow(Const(-2.0), 2), "(-2.0)^2", None),
    (Pow(Const(math.nan), 2), "nan^2", None),
    (Pow(Const(-0.0), 2), "-0.0^2", None),
    (Neg(Const(-1.0)), "--1.0", None),
    (Mul(Const(-1.0), X), "-1.0*x", None),
    (Pow(Pow(X, 2), 3), "(x^2)^3", None),
    (Pow(Abs(X), 2), "(abs(x))^2", None),
    (Sub(X, Neg(Y)), "x-(-y)", None),
    (Sqrt(X + Y * Y), "sqrt(x+(y*y))", None),
    (RAnd(X, Y, 1.0), "0.5*((x+y)-abs(x-y))", "0.5*((x+y)-sqrt((x^2+y^2)-(2.0*(x*y))))"),
    (ROr(X + Y, Const(-3.0), 1.0), "0.5*(((x+y)+-3.0)+abs((x+y)--3.0))",
     "0.5*(((x+y)+-3.0)+sqrt(((x+y)^2+(-3.0)^2)-(2.0*((x+y)*-3.0))))"),
    (RAnd(Pow(X, 2), Neg(Y), -0.5), "2.0*((x^2+(-y))-sqrt(((x^2)^2+(-y)^2)-(-1.0*(x^2*(-y)))))",
     None),
    (Pow(ROr(X, Y, 1.0), 2), "(0.5*((x+y)+abs(x-y)))^2",
     "(0.5*((x+y)+sqrt((x^2+y^2)-(2.0*(x*y)))))^2"),
])
def test_infix_spelling(expr, abs_text, sqrt_text):
    # operands of operators and negation are parenthesized unless they are
    # atoms, calls, powers or constants; a power base prints bare only as a
    # name or a constant that is not negative
    assert to_infix(expr, alpha1_style="abs") == abs_text
    assert to_infix(expr, alpha1_style="sqrt") == (sqrt_text or abs_text)


@given(expr=dags())
def test_infix_matches_printing_the_rewritten_expression(expr):
    # the printer expands R-nodes itself; the rewrites build that expansion
    # as a tree, which prints without any R-node
    assert to_infix(expr, alpha1_style="abs") == to_infix(
        desugar_r_nodes(canonicalize_alpha1(expr)), alpha1_style="abs")
    assert to_infix(expr, alpha1_style="sqrt") == to_infix(
        desugar_r_nodes(expr), alpha1_style="sqrt")


def test_deep_chain_prints_to_infix_in_small_memory():
    # each level's text is dropped once its parent has read it; holding
    # every level's text of this chain takes about 1 GB
    levels = 20_000
    expr = X
    for _ in range(levels):
        expr = Add(expr, Y)
    tracemalloc.start()
    try:
        text = to_infix(expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "(" * (levels - 1) + "x+y" + ")+y" * (levels - 1)
    assert peak < 20e6


def test_shared_alpha1_chain_prints_in_time_linear_in_its_text():
    # the abs form repeats each level's operand twice, so the text doubles
    # with each level; printing each distinct node once costs no more
    expr = X
    for i in range(16):
        expr = RAnd(expr, Var(f"x{i}"), 1.0)
    start = time.perf_counter()
    text = to_infix(expr, alpha1_style="abs")
    assert time.perf_counter() - start < 0.5
    assert text == to_infix(desugar_r_nodes(canonicalize_alpha1(expr)))
    assert len(text) > 2 ** 16


# ----------------------------------------------------------------------
# expression_fields: one fold against separate to_infix and to_tree_obj calls

def _separate_fields(expr):
    return (to_infix(expr), to_infix(expr, alpha1_style="sqrt"), to_tree_obj(expr))


def assert_fields_match_separate_calls(expr, *parts):
    got = expression_fields(expr, *parts)
    assert len(got) == 1 + len(parts)
    for e, fields in zip((expr, *parts), got):
        want = _separate_fields(e)
        assert fields[:2] == want[:2]
        assert _compact_json_obj(fields[2]) == _compact_json_obj(want[2])


def _compact_json_obj(obj):
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize("expr", ZOO, ids=lambda e: type(e).__name__)
def test_expression_fields_equal_separate_calls(expr):
    operands = [getattr(expr, name) for name in ("a", "b") if hasattr(expr, name)]
    assert_fields_match_separate_calls(expr, *operands)
    # parts that are not nodes of expr get folds of their own
    assert_fields_match_separate_calls(expr, X + Y, expr, Const(2.0))


@given(expr=dags())
def test_expression_fields_of_shared_nodes_equal_separate_calls(expr):
    assert_fields_match_separate_calls(expr, *[getattr(expr, n) for n in ("a", "b")
                                               if isinstance(getattr(expr, n, None), Expr)])


def test_expression_fields_share_the_sqrt_text_below_the_r_nodes():
    phi = Sub(Mul(X, Y), Const(0.5))
    joint = RAnd(ROr(phi, X, 1.0), Y, 1.0)
    [(j_abs, j_sqrt, _), (p_abs, p_sqrt, _)] = expression_fields(joint, phi)
    assert p_abs is p_sqrt and j_abs != j_sqrt


def test_expression_fields_refuse_trees_deeper_than_the_limit():
    limit = _neg_chain(MAX_DEPTH - 1)
    assert depth(limit) == MAX_DEPTH
    assert_fields_match_separate_calls(Neg(X), limit)
    deep = Neg(limit)
    for expr, parts, levels in [(deep, (), MAX_DEPTH + 1), (Neg(deep), (deep,), MAX_DEPTH + 1),
                                (X, (Neg(deep),), MAX_DEPTH + 2)]:
        # the parts are checked first, each with its own depth
        with pytest.raises(ValueError, match=f"expression {levels} levels deep"):
            expression_fields(expr, *parts)


# ----------------------------------------------------------------------
# dump_json against json.dumps(indent=2)

class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize("obj", [
    {"values": [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, 0.1, 2 ** 70, -3]},
    {"provenance": "rfuncds 0.1 | caf\u00e9 \u2603 \U0001f600 tab\t nul\x00 us\x1f "
                   "ls\u2028 ps\u2029 lone\udcff quote\" back\\"},
    {}, [], {"a": {}, "b": [], "c": [{}], "d": [[]], "e": [{"f": []}]},
    {"name": "T", "lo": 250.0, "hi": 300.0, "unit": None}, [True, False, None],
    1.5, -7, "text", None, True, math.nan,
    ((1, 2.5), ("x",)), {"f": _Float(0.1), "i": _Int(3), "s": _Str("s\n"), "nan": _Float("nan")},
], ids=repr)
def test_dump_json_is_json_dumps_indent_2(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2)


def test_dump_json_of_a_tree_at_the_depth_limit():
    obj = to_tree_obj(_neg_chain(MAX_DEPTH - 1))
    assert dump_json(obj) == json.dumps(obj, indent=2)
    assert dump_json({"tree": obj, "trees": [obj, obj]}) == json.dumps(
        {"tree": obj, "trees": [obj, obj]}, indent=2)


@pytest.mark.parametrize("obj", [{1, 2}, object(), b"bytes", 1j, {"a": [object()]},
                                 {(1, 2): "key"}])
def test_dump_json_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        dump_json(obj)
