"""Record semantics of the expression nodes and every other record of the
package: construction from the fields in order, immutability, comparison
by identity, and copies and compositions that keep shared nodes shared and
deep chains free of recursion."""

import dataclasses
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from dags import X, Y, dags
from rewrites import canonicalize_alpha1
import rfuncds
from rfuncds import ds, geometry
from rfuncds.contour import ContourSet, Polyline, ScalarField, grid_eval, marching_squares
from rfuncds.ds import (
    BoxAxis, ConstraintReport, ConstraintSpec, DSReport, SamplingMeta, ValidationStats,
)
from rfuncds.errors import NegativeSqrtArgument
from rfuncds.expr import (
    NODES, Abs, Add, And, Const, Leaf, Mul, Neg, Not, Or, Pow, Program, RAnd, ROr, Region,
    ScalarProgram, Sqrt, Sub, Var, compose, depth, eval_arrays, eval_expr, fold, postorder,
    sign_class,
)
from rfuncds.exprtext import to_tree_text
from rfuncds.polyfit import BasisSpec, FitResult
from rfuncds.reactor import KineticParams

REPORT_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "kelvin-alpha1.json"

# one node of every class
NODE_SAMPLES = [Const(-0.0), Var("x"), Neg(X), Add(X, Y), Sub(X, Y), Mul(X, Y), Pow(X, 3),
                Sqrt(X), Abs(X), RAnd(X, Y, 0.25), ROr(X, Y, -0.5)]

# each record class with its fields, in constructor order
RECORD_FIELDS = {
    Region: ("expr", "vars"),
    Program: ("names", "reads", "body", "result", "consts"),
    ScalarProgram: ("names", "reads", "body", "result", "consts"),
    Leaf: ("region",),
    And: ("children",),
    Or: ("children",),
    Not: ("child",),
    BoxAxis: ("name", "lo", "hi", "unit"),
    ConstraintSpec: ("name", "threshold"),
    ConstraintReport: ("name", "threshold", "fit", "phi", "validation_r_squared"),
    SamplingMeta: ("n_train", "skip", "n_validation", "validation_skip"),
    ValidationStats: ("agreement_rate", "n_points", "n_disagreements"),
    DSReport: ("box", "alpha", "constraints", "joint", "sampling", "validation"),
    BasisSpec: ("vars", "monomials"),
    FitResult: ("basis", "coefficients", "r_squared", "n_points", "residual_max_abs"),
    geometry.TestCase: ("name", "trees", "bounds"),
    KineticParams: ("e1", "e2", "k1_0", "k2_0", "r_gas", "c_a0", "volume"),
}

# records that hold arrays
ARRAY_RECORD_FIELDS = {
    ScalarField: ("bounds", "values", "vars"),
    Polyline: ("points", "closed"),
    ContourSet: ("polylines",),
}


def _node_operands(node):
    return [getattr(node, name) for name in NODES[type(node)].operands]


def _node_params(node):
    return [getattr(node, name) for name in NODES[type(node)].params]


def _rebuild(expr):
    """A copy of ``expr`` that shares no node with it but keeps its sharing."""
    return fold(expr, lambda node, *operands: type(node)(*operands, *_node_params(node)))


def _chain(make, levels, bottom):
    for _ in range(levels):
        bottom = make(bottom)
    return bottom


def _records():
    report = ds.load_report(REPORT_FIXTURE)
    constraint = report.constraints[0]
    leaf = Leaf(geometry.circle(0.0, 0.0, 1.0))
    trees = [leaf, And(leaf, Not(leaf), Or(leaf, leaf)), Or(leaf), Not(leaf)]
    return [report.joint, report.joint.program, report.joint.scalar_program, *trees, report.box[0],
            ConstraintSpec("purity", 0.9), constraint, report.sampling, report.validation,
            report, constraint.fit.basis, constraint.fit, geometry.testcase("circles-4.1")[2],
            KineticParams(r_gas=1.0)]


def _array_records():
    field = grid_eval(geometry.circle(0.0, 0.0, 1.0), ((-1.5, 1.5), (-1.5, 1.5)), 9)
    contours = marching_squares(field)
    return [field, contours.polylines[0], contours]


def _record_id(record):
    return type(record).__name__


def _fields(record):
    return {**RECORD_FIELDS, **ARRAY_RECORD_FIELDS}[type(record)]


def _copy(record):
    values = [getattr(record, name) for name in _fields(record)]
    if type(record) in (And, Or):   # they take their children as separate arguments
        values = values[0]
    return type(record)(*values)


def test_samples_cover_every_class():
    assert {type(node) for node in NODE_SAMPLES} == set(NODES)
    assert {type(record) for record in _records()} == set(RECORD_FIELDS)
    assert {type(record) for record in _array_records()} == set(ARRAY_RECORD_FIELDS)


def test_no_class_of_the_package_is_a_dataclass():
    exported = [getattr(rfuncds, name) for name in rfuncds.__all__]
    classes = [value for value in exported if isinstance(value, type)]
    classes += [value for module in exported if isinstance(module, types.ModuleType)
                for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module.__name__]
    assert {*RECORD_FIELDS, *ARRAY_RECORD_FIELDS} <= set(classes)
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == []


def _outcome(expr, env):
    """The bytes of the values of ``expr`` on ``env``, or the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return eval_arrays(expr, env).tobytes()
    except NegativeSqrtArgument as error:
        return str(error)


@given(expr=dags())
def test_a_rebuilt_dag_prints_the_same_tree_and_evaluates_the_same(expr):
    copy = _rebuild(expr)
    assert copy is not expr and copy != expr
    assert to_tree_text(copy) == to_tree_text(expr)
    env = {"x": np.array([-1.5, 0.0, 2.0]), "y": np.array([0.5, -0.0, 3.0])}
    assert _outcome(copy, env) == _outcome(expr, env)


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=_record_id)
def test_a_rebuilt_node_prints_the_same_tree_and_a_changed_one_does_not(node):
    operands, params = _node_operands(node), _node_params(node)
    copy = type(node)(*operands, *params)
    assert copy is not node and to_tree_text(copy) == to_tree_text(node)
    for i in range(len(operands)):
        changed = type(node)(*operands[:i], Const(7.0), *operands[i + 1:], *params)
        assert to_tree_text(changed) != to_tree_text(node)
    for i, value in enumerate(params):
        other = {float: 0.75, int: 2, str: "z"}[type(value)]
        changed = type(node)(*operands, *params[:i], other, *params[i + 1:])
        assert to_tree_text(changed) != to_tree_text(node)


@pytest.mark.parametrize("first, second", [
    (Add(X, Y), Sub(X, Y)), (Add(X, Y), Mul(X, Y)), (Sqrt(X), Abs(X)),
    (RAnd(X, Y, 1.0), ROr(X, Y, 1.0)),
], ids=lambda node: type(node).__name__)
def test_nodes_of_different_classes_with_equal_fields_print_different_trees(first, second):
    assert to_tree_text(first) != to_tree_text(second)
    assert eval_expr(first, {"x": 2.0, "y": 3.0}) != eval_expr(second, {"x": 2.0, "y": 3.0})


def _doubling_chain(levels, name):
    """``Add(e, e)`` nested ``levels`` deep: 2**levels paths reach the leaf."""
    expr = Var(name)
    for _ in range(levels):
        expr = Add(expr, expr)
    return expr


def test_postorder_counts_the_readers_of_each_node():
    chain = _doubling_chain(16, "x")
    order, uses = postorder(chain)
    assert len(order) == 17 and order[0] is _chain(lambda e: e.a, 16, chain)
    assert order[-1] is chain and uses[id(chain)] == 1
    assert [uses[id(node)] for node in order[:-1]] == [2] * 16
    shared = Add(X, Y)
    order, uses = postorder(Mul(shared, Neg(shared)))
    assert len(order) == 5 and uses[id(shared)] == 2 and uses[id(X)] == 1


def test_a_rebuilt_canonicalized_chain_keeps_its_sharing():
    # each alpha-1 level shares its operands between a+b and |a-b|, so the
    # innermost variable is reached 2**14 ways
    expr = Var("x0")
    for i in range(1, 15):
        expr = RAnd(expr, Var(f"x{i}"), 1.0)
    canon = canonicalize_alpha1(expr)
    copy = _rebuild(canon)
    assert len(postorder(copy)[0]) == len(postorder(canon)[0]) == 99
    ids = [{id(node) for node in postorder(e)[0]} for e in (copy, canon)]
    assert not ids[0] & ids[1]
    point = {f"x{i}": float(i % 5) - 2.0 for i in range(15)}
    assert eval_expr(copy, point) == eval_expr(canon, point)


def test_a_deep_rebuilt_chain_needs_no_recursion():
    expr = Var("a")
    for _ in range(20_000):
        expr = Neg(expr)
    copy = _rebuild(expr)
    assert copy is not expr and depth(copy) == depth(expr) == 20_001
    assert eval_expr(copy, {"a": 1.5}) == eval_expr(expr, {"a": 1.5}) == 1.5


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=_record_id)
def test_nodes_refuse_assignment_and_deletion(node):
    for name in [*NODES[type(node)].operands, *NODES[type(node)].params]:
        with pytest.raises(AttributeError):
            setattr(node, name, Const(0.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert getattr(node, name) is not None


@pytest.mark.parametrize("record", _records(), ids=_record_id)
def test_a_rebuilt_record_holds_the_same_fields(record):
    copy = _copy(record)
    assert copy is not record and copy != record   # records compare by identity
    assert copy._values() == record._values()


@pytest.mark.parametrize("record", [*_records(), *_array_records()], ids=_record_id)
def test_records_compare_and_hash_by_identity(record):
    copy = _copy(record)
    assert record == record and not record != record
    assert copy != record and not copy == record
    assert hash(record) == object.__hash__(record)
    assert len({record, copy}) == 2 and {record: 1, copy: 2}[record] == 1


@pytest.mark.parametrize("record", [*_records(), *_array_records()], ids=_record_id)
def test_a_record_built_by_keyword_holds_the_same_fields(record):
    fields = _fields(record)
    if type(record) in (And, Or):   # they take their children only positionally
        with pytest.raises(TypeError):
            type(record)(children=record.children)
        copy = type(record)(*record.children)
    else:
        copy = type(record)(**dict(zip(fields, record._values())))
    assert type(copy) is type(record)
    assert copy._values() == record._values()


@pytest.mark.parametrize("record", [*_records(), *_array_records()], ids=_record_id)
def test_records_refuse_assignment_and_deletion(record):
    fields = _fields(record)
    assert type(record)._fields == fields
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


def test_and_and_or_need_a_child():
    for join in (And, Or):
        with pytest.raises(ValueError, match=f"{join.__name__} needs at least one child"):
            join()


def test_records_check_their_arguments():
    with pytest.raises(TypeError):
        SamplingMeta(64, 1, 256)
    with pytest.raises(TypeError):
        ValidationStats(1.0, 256, 0, 0)
    with pytest.raises(TypeError):
        ConstraintSpec(name="purity", threshold=0.9, unit="")
    assert ConstraintSpec(threshold=0.9, name="purity")._values() == ("purity", 0.9)


def test_region_program_is_an_instance_dict_entry_after_first_use():
    region = ds.load_report(REPORT_FIXTURE).joint
    assert "program" not in vars(region)
    program = region.program
    assert vars(region)["program"] is program and region.program is program


@pytest.mark.parametrize("make", [Not, And, Or, Neg], ids=lambda make: make.__name__)
def test_a_deep_chain_composes_and_evaluates_without_recursion(make):
    leaf = Leaf(geometry.circle(0.0, 0.0, 1.0))
    chain = _chain(make, 3000, X if make is Neg else leaf)
    expr = chain if make is Neg else compose(chain).expr
    bottom = X if make is Neg else leaf.region.expr
    # Not and Neg flip the sign per level, an even number of times; a
    # one-child join composes to its child
    levels = 0 if make in (And, Or) else 3000
    assert depth(expr) == levels + depth(bottom)
    assert _chain(lambda e: e.a, levels, expr) is bottom
    point = {"x": 0.25, "y": 0.5}
    assert eval_expr(expr, point) == eval_expr(bottom, point)


@pytest.mark.parametrize("join", [And, Or], ids=lambda join: join.__name__)
def test_a_deep_two_child_join_chain_composes_without_recursion(join):
    inner = Leaf(geometry.circle(0.0, 0.0, 1.0))
    outer = Leaf(geometry.circle(0.0, 0.0, 2.0))
    chain = _chain(lambda tree: join(tree, outer), 3000, inner)
    region = compose(chain)   # alpha 1: each level is the min or max, exactly
    assert depth(region.expr) == 3000 + depth(inner.region.expr)
    assert _chain(lambda e: e.a, 3000, region.expr) is inner.region.expr
    assert all(type(e) is join.r_node and e.b is outer.region.expr
               for e in _chain(lambda es: [*es, es[-1].a], 2999, [region.expr]))
    # between the circles: outside the inner one, inside the outer one
    between = {"x": 1.5, "y": 0.0}
    assert sign_class(region, between) == ("outside" if join is And else "inside")
    assert eval_expr(region, between) == eval_expr(join.r_node(
        inner.region.expr, outer.region.expr, 1.0), between)


def test_a_deep_not_chain_composes_to_a_neg_chain():
    leaf = Leaf(geometry.circle(0.0, 0.0, 1.0))
    region = compose(_chain(Not, 2999, leaf))
    assert all(type(e) is Neg for e in _chain(lambda es: [*es, es[-1].a], 2998, [region.expr]))
    assert _chain(lambda e: e.a, 2999, region.expr) is leaf.region.expr
    assert sign_class(region, {"x": 0.0, "y": 0.0}) == "outside"
    assert sign_class(region, {"x": 1.5, "y": 0.0}) == "inside"


def test_a_composed_tree_keeps_its_shared_records_shared():
    leaf = Leaf(geometry.circle(0.0, 0.0, 1.0))
    tree = And(leaf, Not(leaf), Or(leaf, _chain(Not, 3000, leaf)))
    expr = compose(tree).expr
    first, negated = expr.a.a, expr.a.b
    assert first is leaf.region.expr and negated.a is first
    assert expr.b.a is first and _chain(lambda e: e.a, 3000, expr.b.b) is first
    assert len(postorder(expr)[0]) == len(postorder(first)[0]) + 3000 + 4


def test_region_and_report_answer_the_same_after_save_and_load(tmp_path):
    report = ds.load_report(REPORT_FIXTURE)
    point = [290.0, 280.0]
    verdict = ds.membership(report, point)
    value = eval_expr(report.joint, point)
    assert "scalar_program" in vars(report.joint) and "verdict" in vars(report)

    ds.save_report(report, tmp_path / "report.json")
    loaded = ds.load_report(tmp_path / "report.json")
    assert loaded is not report and loaded != report
    assert "verdict" not in vars(loaded) and "scalar_program" not in vars(loaded.joint)
    assert eval_expr(loaded.joint, point) == value
    assert ds.membership(loaded, point) == verdict
    assert "verdict" in vars(loaded) and "scalar_program" in vars(loaded.joint)
