"""The compiled evaluator against the recursive tree walk, and its limits."""

import json
import math
import re
import struct
import time
import types
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rfuncds import ds, expr as expr_mod
from rfuncds.errors import NegativeSqrtArgument, OutOfBox, UnboundVariable
from rfuncds.expr import (
    NODES, Add, Const, Mul, Neg, Pow, RAnd, ROr, Region, Sqrt, Sub, Var, classify, compile_expr,
    compile_verdict, compose, depth, eval_arrays, eval_expr, sign_class, variables,
)
from rfuncds.geometry import TESTCASE_NAMES, testcase as load_case
from dags import dags, values
from rewrites import canonicalize_alpha1
from tree_eval import tree_eval, tree_eval_arrays

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
X, Y = Var("x"), Var("y")


def _outcome(evaluate, expr, env):
    try:
        return evaluate(expr, env)
    except NegativeSqrtArgument as exc:
        return exc


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _same_bits_but_nan_sign(a, b) -> bool:
    """``_same_bits``, except that a nan matches a nan of any sign: where
    two nans of opposite sign meet in ``+``, Python floats keep the first
    operand's sign and numpy the other's, and IEEE 754 leaves it open."""
    a, b = np.asarray(a), np.asarray(b)
    number = ~np.isnan(a)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[number]), np.signbit(b[number])))


@given(expr=dags(), x=values, y=values)
def test_compiled_matches_tree_walk(expr, x, y):
    with np.errstate(all="ignore"):
        got = _outcome(eval_expr, expr, {"x": x, "y": y})
        want = _outcome(tree_eval, expr, {"x": x, "y": y})
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert repr(got) == repr(want)
            # the point as one-element arrays gives the same bits (a constant
            # gives one value), but for the sign of a nan
            one = eval_arrays(expr, {"x": np.array([x]), "y": np.array([y])})
            assert _same_bits_but_nan_sign(np.broadcast_to(one, (1,)), [got])

        env = {"x": np.array([x, -x, 0.5]), "y": np.array([y, 2.0, y])}
        got = _outcome(eval_arrays, expr, env)
        want = _outcome(tree_eval_arrays, expr, env)
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert _same_bits(got, want)


def _regions():
    for name in ("kelvin-alpha1", "kelvin-alpha0"):
        report = ds.load_report(FIXTURES / f"{name}.json")
        box = tuple((a.lo, a.hi) for a in report.box)
        yield pytest.param(report.joint, box, id=f"{name}-joint")
        for c in report.constraints:
            yield pytest.param(c.phi, box, id=f"{name}-{c.name}")
    for case_name in TESTCASE_NAMES:
        _, _, case = load_case(case_name)
        for label, tree in case.trees:
            for alpha in (1.0, 0.5):
                yield pytest.param(compose(tree, alpha), case.bounds,
                                   id=f"{case_name}-{label}-alpha{alpha}")


@pytest.mark.parametrize("region, box", list(_regions()))
def test_compiled_matches_tree_walk_on_saved_and_demo_regions(region, box, rng):
    lo, hi = np.array(box).T
    pts = rng.uniform(lo, hi, size=(10_000, len(box)))
    env = {n: pts[:, i] for i, n in enumerate(region.vars)}
    assert _same_bits(eval_arrays(region, env), tree_eval_arrays(region.expr, env))
    for row in pts.tolist():
        assert repr(eval_expr(region, row)) == repr(
            tree_eval(region.expr, dict(zip(region.vars, row))))


@pytest.mark.parametrize("region, box", list(_regions()))
def test_scalar_values_equal_the_array_values_bit_for_bit(region, box):
    lo, hi = np.array(box).T
    pts = np.random.default_rng(5).uniform(lo, hi, size=(10_000, len(box)))
    want = eval_arrays(region, {n: pts[:, i] for i, n in enumerate(region.vars)})
    assert _same_bits([eval_expr(region, row) for row in pts.tolist()], want)


def test_a_scalar_square_is_the_array_square():
    x = 4.02855845376335   # x ** 2 through libm pow is one unit in the last place higher
    square = Pow(X, 2)
    assert eval_expr(square, [x]) == x * x == 16.22928321538815
    assert _same_bits(eval_arrays(square, {"x": np.array([x, -x])}), [x * x, x * x])


def _renamed_report(tmp_path, names):
    """The kelvin fixture with its two axes renamed, saved and loaded again."""
    text = (FIXTURES / "kelvin-alpha1.json").read_text()
    obj = json.loads(text)
    rename = dict(zip((a["name"] for a in obj["box"]), names))

    def visit(node):
        if isinstance(node, dict):
            if node.get("kind") == "var":
                node["name"] = rename[node["name"]]
            for v in node.values():
                visit(v)
        elif isinstance(node, list):
            for v in node:
                visit(v)

    def rename_text(text):   # the infix texts print each name as it is
        return re.sub(r"\b[Tt]\b", lambda m: rename[m.group()], text)

    visit(obj["joint"]["tree"])
    for key in ("infix_sqrt", "infix_abs"):
        obj["joint"][key] = rename_text(obj["joint"][key])
    for c in obj["constraints"]:
        visit(c["phi_tree"])
        c["phi_infix"] = rename_text(c["phi_infix"])
        c["basis"]["vars"] = [rename[v] for v in c["basis"]["vars"]]
    for axis in obj["box"]:
        axis["name"] = rename[axis["name"]]
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(obj))
    return ds.load_report(path)


def test_variable_names_never_reach_the_generated_source(tmp_path, rng):
    hostile = ("T t", "__import__('os').system('exit 1')")
    plain = ds.load_report(FIXTURES / "kelvin-alpha1.json")
    for names in (hostile, ("X[0]", "X[1]")):
        report = _renamed_report(tmp_path, names)
        assert tuple(a.name for a in report.box) == names
        pts = rng.uniform([250.0, 250.0], [300.0, 300.0], size=(500, 2))
        for T, t in pts.tolist():
            assert ds.membership(report, [T, t]) == ds.membership(plain, [T, t])
            assert ds.membership(report, dict(zip(names, (T, t)))) == \
                ds.membership(plain, {"T": T, "t": t})
        for name in names:
            assert name not in report.joint.program.source
            for verdict in (report.verdict, report.joint.verdict):
                assert name not in verdict.__code__.co_names + verdict.__code__.co_consts


@pytest.mark.parametrize("exponent", [2, 3, 2**70, 10**30], ids=["2", "3", "2**70", "10**30"])
def test_scalar_power_overflow_gives_the_array_value(exponent):
    # every power is products, which give inf where float ** int raises
    # OverflowError
    expr = Sub(Pow(Mul(Const(1e200), X), exponent), Y)
    bases = [1.0, -1.0, 1e-200, -1e-200, 1.5e-200, -1.5e-200, 0.5e-200, 0.0, -0.0,
             math.inf, -math.inf, math.nan]
    with np.errstate(over="ignore", invalid="ignore"):
        want = eval_arrays(expr, {"x": np.array(bases), "y": np.ones(len(bases))})
    got = [eval_expr(expr, {"x": x, "y": 1.0}) for x in bases]
    assert _same_bits(got, want)
    assert math.isinf(got[0])


def test_deep_chains_evaluate_without_recursion():
    expr = X
    for i in range(10_000):
        expr = Add(Neg(expr), Const(float(i)))
    assert depth(expr) == 20_001
    want = 1.5
    for i in range(10_000):
        want = -want + float(i)
    assert eval_expr(expr, {"x": 1.5}) == want
    assert eval_arrays(expr, {"x": np.array([1.5, 1.5])}).tolist() == [want, want]


def _canonical_chain(levels):
    expr = Var("x0")
    for i in range(1, levels + 1):
        expr = RAnd(expr, Var(f"x{i}"), 1.0)
    return canonicalize_alpha1(expr), tuple(f"x{i}" for i in range(levels + 1))


def test_depth_and_variables_visit_shared_nodes_once():
    # the abs form shares each level's operands between a+b and |a-b|, so a
    # walk that does not notice the sharing reaches x0 2^24 ways
    expr, names = _canonical_chain(24)
    start = time.perf_counter()
    assert depth(expr) == 4 * 24 + 1
    assert variables(expr) == set(names)
    assert time.perf_counter() - start < 0.5


def test_shared_chain_compiles_and_evaluates_once_per_node():
    expr, names = _canonical_chain(40)
    start = time.perf_counter()
    region = Region(expr, names)
    value = eval_expr(region, [float(i) for i in range(41)])
    assert time.perf_counter() - start < 0.5
    assert value == 0.0
    values = eval_arrays(region, [np.full(3, float(i)) for i in range(41)])
    assert values.tolist() == [0.0] * 3


def test_unbound_variable_only_when_read():
    region = Region(X + 1.0, ("x", "y"))
    assert eval_expr(region, {"x": 2.0}) == 3.0
    with pytest.raises(UnboundVariable, match="'x'"):
        eval_expr(region, {"y": 2.0})
    assert eval_expr(region, [2.0, math.nan]) == 3.0


def test_region_compiles_lazily_and_a_reloaded_one_compiles_again():
    report = ds.load_report(FIXTURES / "kelvin-alpha0.json")
    assert "scalar_program" not in vars(report.joint)
    before = ds.membership(report, [275.0, 280.0])
    # the report's frame runs the joint's scalar program, and eval_expr reuses it
    assert "verdict" in vars(report) and "scalar_program" in vars(report.joint)
    program = report.joint.scalar_program
    value = eval_expr(report.joint, [275.0, 280.0])
    assert report.joint.scalar_program is program and "program" not in vars(report.joint)
    copy = ds.load_report(FIXTURES / "kelvin-alpha0.json")
    assert "scalar_program" not in vars(copy.joint)
    assert ds.membership(copy, [275.0, 280.0]) == before
    assert eval_expr(copy.joint, [275.0, 280.0]) == value
    assert copy.joint.scalar_program.source == program.source


def test_a_report_compiles_one_scalar_program_for_its_frame_and_checked_path(monkeypatch):
    report = ds.load_report(FIXTURES / "kelvin-alpha0.json")
    compiled, sources = [], []
    compile_, code = expr_mod._compile, expr_mod._code

    def counting(expr, names, scalar):
        compiled.append(scalar)
        return compile_(expr, names, scalar)

    def recording(source):
        sources.append(source)
        return code(source)
    monkeypatch.setattr(expr_mod, "_compile", counting)
    monkeypatch.setattr(expr_mod, "_code", recording)
    point = OrderedDict(T=290.0, t=280.0)
    assert ds.membership(report, [290.0, 280.0]) == "inside"   # the frame answers
    assert report.verdict(point) is None
    assert ds.membership(report, point) == "inside"            # the checked path answers
    assert eval_expr(report.joint, [290.0, 280.0]) == 0.0013891291596621613
    assert compiled == [True] and "program" not in vars(report.joint)
    program = report.joint.scalar_program
    frame, function = sources
    assert frame.startswith("def verdict(u):\n") and function == program.source
    assert "".join(f"    {line}\n" for line in program.body) in frame
    assert f"    value = {program.result}\n" in frame


def test_each_program_is_bound_to_the_functions_of_its_spelling():
    assert not hasattr(expr_mod, "_scalar_min") and not hasattr(expr_mod, "_scalar_max")
    assert not hasattr(expr_mod._Compiler, "binding")
    regions = [param.values[0] for param in _regions()]
    # the array spelling frees its arrays
    assert any("del " in region.program.source for region in regions)
    for region in regions:
        scalar = region.scalar_program
        assert type(scalar) is expr_mod.ScalarProgram and type(region.program) is expr_mod.Program
        for text in ("del ", "minimum", "maximum"):
            assert text not in scalar.source
        assert scalar.function.__globals__["sqrt"] is math.sqrt
        assert region.program.function.__globals__["maximum"] is np.maximum
        assert "maximum" not in scalar.function.__globals__
        assert not hasattr(region.program, "scalars")


# ----------------------------------------------------------------------
# a region's generated verdict frame against the checked path

def _answer(query, region, point):
    """The verdict, or the type and message of the error raised."""
    try:
        return query(region, point)
    except Exception as exc:
        return type(exc), str(exc)


def _checked(region, point):
    return classify(eval_expr(region, point))


def _assert_frame_pinned(region, point):
    """The frame gives the checked verdict or error, or None; sign_class
    gives the checked answer either way.  Returns the frame's answer."""
    want = _answer(_checked, region, point)
    got = _answer(lambda r, u: r.verdict(u), region, point)
    assert got is None or got == want, (point, got, want)
    assert _answer(sign_class, region, point) == want, point
    return got


def _frame_points(names, values):
    """Points of every kind the frame reads or declines, for ``values``
    ordered like ``names``."""
    d = dict(zip(names, values))
    return [
        list(values), tuple(values), d, [int(v) if math.isfinite(v) else v for v in values],
        {n: int(v) if math.isfinite(v) else v for n, v in d.items()}, {**d, "z": 1.0},
        *[{n: v for n, v in d.items() if n != missing} for missing in names],
        OrderedDict(d), types.MappingProxyType(d),
        list(values)[:-1], [*values, 1.0], (), [math.nan, *values[1:]],
        {**d, names[0]: math.nan}, [np.float64(v) for v in values], None,
    ]


@given(expr=dags(), x=values, y=values)
def test_region_frame_matches_the_checked_path_on_shared_dags(expr, x, y):
    region = Region(expr, ("x", "y"))
    with np.errstate(all="ignore"):
        for point in _frame_points(region.vars, [x, y]):
            _assert_frame_pinned(region, point)


def _demo_regions():
    for case_name in TESTCASE_NAMES:
        _, _, case = load_case(case_name)
        for label, tree in case.trees:
            for alpha in (1.0, 0.5):
                yield pytest.param(compose(tree, alpha), case.bounds,
                                   id=f"{case_name}-{label}-alpha{alpha}")


@pytest.mark.parametrize("region, box", list(_demo_regions()))
def test_region_frame_matches_the_checked_path_on_demo_regions(region, box, rng):
    lo, hi = np.array(box).T
    for row in rng.uniform(lo, hi, size=(200, len(box))).tolist():
        for point in _frame_points(region.vars, row):
            _assert_frame_pinned(region, point)
        # a plain dict, list or tuple of floats is answered by the frame
        for point in (row, tuple(row), dict(zip(region.vars, row))):
            assert region.verdict(point) == _checked(region, point)


def test_region_frame_reads_names_and_counts_as_the_checked_path_does():
    region = Region(X + 1.0, ("x", "y"))   # y is not read
    assert _assert_frame_pinned(region, {"x": 2}) is None   # a missing unread name
    assert sign_class(region, {"x": 2}) == "inside"
    assert _assert_frame_pinned(region, {"y": 2.0}) is None
    with pytest.raises(UnboundVariable, match="'x'"):
        sign_class(region, {"y": 2.0})
    for point in ([2.0], [2.0, 1.0, 0.0], OrderedDict(x=2.0, y=1.0),
                  types.MappingProxyType({"x": 2.0})):
        assert _assert_frame_pinned(region, point) is None
    with pytest.raises(ValueError):
        sign_class(region, [2.0])
    assert region.verdict({"x": -1, "y": "unread", "z": None}) == "boundary"
    assert region.verdict((math.nan, 0.0)) == "outside"


@pytest.mark.parametrize("exponent", [2, 3, 2**70, 10**30], ids=["2", "3", "2**70", "10**30"])
def test_region_frame_answers_an_overflowing_power_itself(exponent, monkeypatch):
    # a power is multiplies, which give inf where float ** int raises
    region = Region(Sub(Pow(Mul(Const(1e200), X), exponent), Y), ("x", "y"))
    assert "**" not in region.program.source
    odd = exponent % 2
    assert eval_expr(region, [-1.0, 1.0]) == (-math.inf if odd else math.inf)
    for point in ([1.0, 1.0], {"x": 1.0, "y": 1.0}):
        assert _assert_frame_pinned(region, point) == "inside"
    assert _assert_frame_pinned(region, (-1.0, 1.0)) == ("outside" if odd else "inside")
    # an int beyond the floats raises in the frame as in the checked path
    assert _assert_frame_pinned(region, (10 ** 400, 1.0)) == (
        OverflowError, "int too large to convert to float")

    def checked(*args):
        raise AssertionError("eval_expr called")
    monkeypatch.setattr(expr_mod, "eval_expr", checked)
    assert sign_class(region, {"x": 1.0, "y": 1.0}) == "inside"


def test_region_frame_raises_the_checked_negative_sqrt_error():
    region = Region(Sqrt(X - 1.0), ("x",))
    for point in ([0.0], {"x": 0.0}):
        with pytest.raises(NegativeSqrtArgument, match="-1.0"):
            region.verdict(point)
        assert _assert_frame_pinned(region, point) == (NegativeSqrtArgument,
                                                       str(NegativeSqrtArgument(-1.0)))
    assert region.verdict([1.0]) == "boundary"


def test_sign_class_of_a_plain_dict_never_takes_the_checked_path(monkeypatch):
    _, _, case = load_case("circles-4.1")
    region = compose(case.trees[0][1])
    want = [sign_class(region, {"x": x, "y": 0.25}) for x in (-1.0, 0.0, 0.5, 2.0)]

    def checked(*args):
        raise AssertionError("eval_expr called")
    monkeypatch.setattr(expr_mod, "eval_expr", checked)
    assert [sign_class(region, {"x": x, "y": 0.25}) for x in (-1.0, 0.0, 0.5, 2.0)] == want


def test_report_frame_reads_a_dict_with_exactly_the_box_names():
    report = ds.load_report(FIXTURES / "kelvin-alpha1.json")
    assert report.verdict({"T": 290.0, "t": 280.0}) == "inside"
    assert report.verdict({"t": 280, "T": 275}) == ds.membership(report, [275.0, 280.0])
    for point, message in [({"T": 290.0}, "missing coordinate 't'"),
                           ({"T": 290.0, "t": 280.0, "z": 1.0}, "coordinate 'z'"),
                           ({"T": 290.0, "z": 1.0}, "coordinate 'z'"),
                           ({"T": 200.0, "t": 280.0}, "T = 200.0 outside")]:
        assert report.verdict(point) is None
        with pytest.raises(OutOfBox, match=message):
            ds.membership(report, point)
    assert report.verdict(OrderedDict(T=290.0, t=280.0)) is None
    assert ds.membership(report, OrderedDict(T=290.0, t=280.0)) == "inside"


def test_reloaded_region_and_report_build_their_frames_again():
    report = ds.load_report(FIXTURES / "kelvin-alpha0.json")
    point = {"T": 290.0, "t": 280.0}
    region_verdict = sign_class(report.joint, point)
    report_verdict = ds.membership(report, point)
    assert "verdict" in vars(report.joint) and "verdict" in vars(report)
    copy = ds.load_report(FIXTURES / "kelvin-alpha0.json")
    assert "verdict" not in vars(copy.joint) and "verdict" not in vars(copy)
    assert copy.joint.verdict(point) == region_verdict
    assert copy.verdict(point) == report_verdict
    assert "verdict" in vars(copy.joint) and "verdict" in vars(copy)
    assert copy.verdict is not report.verdict


# ----------------------------------------------------------------------
# nodes equal by value compile once

def _value_copy(expr, fresh, memo=None):
    """A copy of ``expr`` from new objects, equal to it by value.  An operand
    field for which ``fresh()`` is true gets a subtree of its own, so a node
    that several parents shared becomes several value-equal nodes."""
    memo = {} if memo is None else memo
    if id(expr) not in memo:
        operands = [_value_copy(c, fresh, {} if fresh() else memo)
                    for c in type(expr)._children(expr)]
        params = [getattr(expr, p) for p in NODES[type(expr)].params]
        memo[id(expr)] = type(expr)(*operands, *params)
    return memo[id(expr)]


def _bits(value):
    return struct.pack("<d", value)


@given(expr=dags(), x=values, y=values, rnd=st.randoms(use_true_random=False))
def test_value_equal_copies_compile_to_the_same_program_and_values(expr, x, y, rnd):
    copy = _value_copy(expr, lambda: rnd.random() < 0.5)
    names = ("x", "y")
    original, program = compile_expr(expr, names), compile_expr(copy, names)
    assert program.source == original.source
    assert [_bits(c) for c in program.consts] == [_bits(c) for c in original.consts]
    region, shared = Region(copy, names), Region(expr, names)
    point, env = [x, y], {"x": np.array([x, -x, 0.5]), "y": np.array([y, 2.0, y])}
    with np.errstate(all="ignore"):
        got = _outcome(eval_expr, region, point)
        want = _outcome(tree_eval, copy, dict(zip(names, point)))
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert repr(got) == repr(want)
            assert _bits(got) == _bits(eval_expr(shared, point))
        got = _outcome(eval_arrays, region, env)
        want = _outcome(tree_eval_arrays, copy, env)
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert _same_bits(got, want) and _same_bits(got, eval_arrays(shared, env))
        # both frame kinds answer as the checked path does
        for u in _frame_points(names, point):
            _assert_frame_pinned(region, u)
        framed = compile_verdict(region, [(-5.0, 5.0), (-5.0, 5.0)])
        for u in (point, tuple(point), dict(zip(names, point))):
            answer = _answer(lambda r, v: framed(v), region, u)
            if math.isfinite(x) and math.isfinite(y):
                assert answer == _answer(_checked, region, u), u
            else:
                assert answer is None


def test_zero_signs_and_nan_payloads_are_never_merged():
    # np.minimum gives its second operand on a tie, so merging 0.0 and
    # -0.0 would give 0.0
    tie = RAnd(Const(0.0), Const(-0.0), 1.0)
    assert [_bits(c) for c in compile_expr(tie).consts] == [_bits(0.0), _bits(-0.0)]
    assert _bits(eval_expr(tie, {})) == _bits(-0.0)
    assert _same_bits(eval_arrays(tie, {}), -0.0)
    nans = [struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | k))[0] for k in (1, 2)]
    program = compile_expr(Add(Mul(Const(nans[0]), X), Mul(Const(nans[1]), X)))
    assert [_bits(c) for c in program.consts] == [_bits(v) for v in nans]
    assert program.result == "((c0 * x0) + (c1 * x0))"
    # the same bits are one constant
    same = compile_expr(Add(Mul(Const(nans[0]), X), Mul(Const(nans[0]), X)))
    assert [_bits(c) for c in same.consts] == [_bits(nans[0])]
    assert same.result == "((c0 * x0) + (c0 * x0))"


def test_a_shared_single_operation_stays_inline():
    square = lambda: Mul(Var("x"), Var("x"))
    program = compile_expr(Add(Sub(square(), Y), Mul(square(), Y)))
    assert program.body == ()
    assert program.result == "(((x0 * x0) - x1) + ((x0 * x0) * x1))"


def test_a_shared_node_of_two_operations_is_one_local():
    scaled = lambda: Mul(Add(Var("x"), Var("y")), Const(2.0))
    expr = Sub(Mul(scaled(), X), Mul(Y, scaled()))
    program = compile_expr(expr)
    assert program.body == ("v0 = ((x0 + x1) * c0)",)
    assert program.result == "((v0 * x0) - (x1 * v0))"
    assert program.consts == (2.0,)
    assert eval_expr(expr, [1.5, 0.25]) == 3.5 * 1.5 - 0.25 * 3.5


# ----------------------------------------------------------------------
# the frames' inline spelling of alpha = 1 R-nodes

_TIES = [(0.0, -0.0), (-0.0, 0.0), (math.nan, 1.0), (1.0, math.nan)]


@pytest.mark.parametrize("node", [RAnd, ROr])
@pytest.mark.parametrize("a, b", _TIES, ids=["0,-0", "-0,0", "nan,1", "1,nan"])
def test_inline_extremes_give_the_array_bits_at_ties_and_nan(node, a, b):
    expr = node(X, Y, 1.0)
    region = Region(expr, ("x", "y"))
    scalar = region.scalar_program
    assert "minimum" not in scalar.source and "maximum" not in scalar.source
    want = eval_arrays(expr, {"x": np.array([a]), "y": np.array([b])})
    assert _same_bits([scalar.function([a, b])], want)
    assert region.verdict([a, b]) == classify(eval_expr(region, [a, b]))
    # the report frame refuses a nan coordinate, so its operands are constants here
    constant = Region(node(Const(a), Const(b), 1.0), ("x",))
    report_frame = compile_verdict(constant, [(0.0, 1.0)])
    assert report_frame([0.5]) == constant.verdict([0.5]) == classify(eval_expr(constant, [0.5]))


def test_frames_answer_deep_alpha1_chains():
    # each inline extreme nests its operand two parentheses deeper; the
    # program spills before the parser's nesting limit
    expr = X
    for i in range(2_000):
        expr = (RAnd if i % 2 else ROr)(expr, Sub(Y, Const(float(i % 7))), 1.0)
    region = Region(expr, ("x", "y"))
    framed = compile_verdict(region, [(-10.0, 10.0), (-10.0, 10.0)])
    for point in ([0.5, 3.0], [-2.0, 9.0], [4.0, 0.0]):
        want = classify(eval_expr(region, point))
        assert region.verdict(point) == framed(point) == want
