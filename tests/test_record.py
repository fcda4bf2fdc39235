"""Record semantics of the expression nodes and every other record of the
package: equality and hashing by class and fields, immutability, and
pickling."""

import dataclasses
import pickle
import types
from pathlib import Path

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
from rfuncds.expr import (
    NODES, Abs, Add, And, Const, Leaf, Mul, Neg, Not, Or, Pow, Program, RAnd, ROr, Region,
    Sqrt, Sub, Var, children, eval_expr, fold,
)
from rfuncds.polyfit import BasisSpec, FitResult
from rfuncds.reactor import KineticParams
from test_expr import _tree_repr

REPORT_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "kelvin-alpha1.json"

# one node of every class
NODE_SAMPLES = [Const(-0.0), Var("x"), Neg(X), Add(X, Y), Sub(X, Y), Mul(X, Y), Pow(X, 3),
                Sqrt(X), Abs(X), RAnd(X, Y, 0.25), ROr(X, Y, -0.5)]

# each record class with its fields, in constructor order
RECORD_FIELDS = {
    Region: ("expr", "vars"),
    Program: ("names", "reads", "body", "result", "consts"),
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

# records that hold arrays: immutable, but not hashable
ARRAY_RECORD_FIELDS = {
    ScalarField: ("bounds", "values", "vars"),
    Polyline: ("points", "closed"),
    ContourSet: ("polylines",),
}


def _node_params(node):
    return [getattr(node, name) for name in NODES[type(node)].params]


def _rebuild(expr):
    """A copy of ``expr`` that shares no node with it but keeps its sharing."""
    return fold(expr, lambda node, *operands: type(node)(*operands, *_node_params(node)))


def _records():
    report = ds.load_report(REPORT_FIXTURE)
    constraint = report.constraints[0]
    leaf = Leaf(geometry.circle(0.0, 0.0, 1.0))
    trees = [leaf, And(leaf, Not(leaf), Or(leaf, leaf)), Or(leaf), Not(leaf)]
    return [report.joint, report.joint.program, *trees, report.box[0],
            ConstraintSpec("purity", 0.9), constraint, report.sampling, report.validation,
            report, constraint.fit.basis, constraint.fit, geometry.testcase("circles-4.1")[2],
            KineticParams(r_gas=1.0)]


def _array_records():
    field = grid_eval(geometry.circle(0.0, 0.0, 1.0), ((-1.5, 1.5), (-1.5, 1.5)), 9)
    contours = marching_squares(field)
    return [field, contours.polylines[0], contours]


def _record_id(record):
    return type(record).__name__


def _copy(record):
    values = [getattr(record, name) for name in RECORD_FIELDS[type(record)]]
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


@given(expr=dags())
def test_a_rebuilt_dag_is_equal_and_hashes_equal(expr):
    copy = _rebuild(expr)
    assert copy is not expr and copy == expr and hash(copy) == hash(expr)


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=_record_id)
def test_a_rebuilt_node_is_equal_and_a_changed_one_is_not(node):
    operands, params = list(children(node)), _node_params(node)
    copy = type(node)(*operands, *params)
    assert copy is not node and copy == node and hash(copy) == hash(node)
    for i in range(len(operands)):
        assert type(node)(*operands[:i], Const(7.0), *operands[i + 1:], *params) != node
    for i, value in enumerate(params):
        other = {float: 0.75, int: 2, str: "z"}[type(value)]
        assert type(node)(*operands, *params[:i], other, *params[i + 1:]) != node


@pytest.mark.parametrize("first, second", [
    (Add(X, Y), Sub(X, Y)), (Add(X, Y), Mul(X, Y)), (Sqrt(X), Abs(X)),
    (RAnd(X, Y, 1.0), ROr(X, Y, 1.0)),
], ids=lambda node: type(node).__name__)
def test_nodes_of_different_classes_with_equal_fields_differ(first, second):
    assert first != second and not first == second


class _CountedName(str):
    """A variable name that counts the times it is hashed or compared."""

    def __new__(cls, text):
        name = super().__new__(cls, text)
        name.reads = 0
        return name

    def __hash__(self):
        self.reads += 1
        return str.__hash__(self)

    def __eq__(self, other):
        self.reads += 1
        return str.__eq__(self, other)


def _doubling_chain(levels, name):
    """``Add(e, e)`` nested ``levels`` deep: 2**levels paths reach the leaf."""
    expr = Var(name)
    for _ in range(levels):
        expr = Add(expr, expr)
    return expr


def test_hash_and_eq_read_each_distinct_node_once():
    first, second = _CountedName("x"), _CountedName("x")
    a, b = _doubling_chain(16, first), _doubling_chain(16, second)
    assert hash(a) == hash(b)
    assert (first.reads, second.reads) == (1, 1)
    assert a == b
    assert first.reads + second.reads == 3   # the two leaves are compared once
    assert a != _doubling_chain(16, "y") and Add(a, a) != Add(a, Neg(a))


def test_hash_and_eq_of_a_canonicalized_chain_are_linear():
    # each alpha-1 level shares its operands between a+b and |a-b|, so the
    # innermost variable is reached 2**14 ways
    name = _CountedName("x0")
    expr = Var(name)
    for i in range(1, 15):
        expr = RAnd(expr, Var(f"x{i}"), 1.0)
    canon = canonicalize_alpha1(expr)
    copy = _rebuild(canon)
    assert hash(copy) == hash(canon) and copy == canon
    assert name.reads == 2   # once per hash; the copy shares the name object


def test_hash_and_eq_need_no_recursion():
    def chain(leaf):
        expr = Var(leaf)
        for _ in range(20_000):
            expr = Neg(expr)
        return expr
    a, b = chain("a"), chain("a")
    assert a == b and hash(a) == hash(b)
    assert a != chain("b") and a != Neg(b) and Abs(a) != Neg(b)


@pytest.mark.parametrize("node", NODE_SAMPLES, ids=_record_id)
def test_nodes_refuse_assignment_and_deletion(node):
    for name in [*NODES[type(node)].operands, *NODES[type(node)].params]:
        with pytest.raises(AttributeError):
            setattr(node, name, Const(0.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert getattr(node, name) is not None


@pytest.mark.parametrize("record", _records(), ids=_record_id)
def test_a_rebuilt_record_is_equal(record):
    copy = _copy(record)
    assert copy is not record and copy == record and hash(copy) == hash(record)
    assert record != object()


@pytest.mark.parametrize("record", _records(), ids=_record_id)
def test_repr_of_a_record_is_the_recursive_repr(record):
    want = _tree_repr(record)
    if type(record) is And:
        # its children read one leaf four times: printed once, then referred to
        leaf = _tree_repr(record.children[0])
        want = f"And(children=(#1={leaf}, Not(child=#1#), Or(children=(#1#, #1#))))"
    if type(record) is DSReport:
        # the joint reads each constraint's phi: printed once, then referred to
        for k, c in enumerate(record.constraints, 1):
            phi = _tree_repr(c.phi.expr)
            head, _, tail = want.partition(phi)
            want = f"{head}#{k}={phi}{tail.replace(phi, f'#{k}#')}"
    assert repr(record) == want


def test_a_deep_not_chain_compares_hashes_and_prints_without_recursion():
    def chain(levels):
        tree = Leaf(geometry.circle(0.0, 0.0, 1.0))
        for _ in range(levels):
            tree = Not(tree)
        return tree
    a, b = chain(3000), chain(3000)
    assert a == b and hash(a) == hash(b)
    assert a != chain(2999) and a != Not(Not(a.child))
    assert repr(a) == "Not(child=" * 3000 + repr(chain(0)) + ")" * 3000


@pytest.mark.parametrize("join", [And, Or], ids=lambda join: join.__name__)
def test_a_deep_join_chain_compares_hashes_and_prints_without_recursion(join):
    # a join holds its children in a tuple field, which the traversal enters too
    def chain(levels, leaf=None):
        tree = leaf or Leaf(geometry.circle(0.0, 0.0, 1.0))
        for _ in range(levels):
            tree = join(tree)
        return tree
    a, b = chain(3000), chain(3000)
    assert a == b and hash(a) == hash(b)
    assert a != chain(2999) and a != join(join(*a.children[0].children), Not(a))
    assert a != chain(3000, Leaf(geometry.circle(0.0, 0.0, 2.0)))
    name = join.__name__
    assert repr(a) == f"{name}(children=(" * 3000 + repr(chain(0)) + ",))" * 3000


@pytest.mark.parametrize("record", [*_records(), *_array_records()], ids=_record_id)
def test_records_refuse_assignment_and_deletion(record):
    fields = {**RECORD_FIELDS, **ARRAY_RECORD_FIELDS}[type(record)]
    assert type(record)._fields == fields
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


@pytest.mark.parametrize("record", [*_records(), *_array_records()], ids=_record_id)
def test_records_pickle(record):
    # a Program pickles its statements; its bound functions are left out
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and repr(copy) == repr(record)


def _chain(make, levels, bottom):
    for _ in range(levels):
        bottom = make(bottom)
    return bottom


@pytest.mark.parametrize("make", [Not, And, Or, Neg], ids=lambda make: make.__name__)
def test_a_deep_chain_pickles_without_recursion(make):
    bottom = X if make is Neg else Leaf(geometry.circle(0.0, 0.0, 1.0))
    chain = _chain(make, 3000, bottom)
    copy = pickle.loads(pickle.dumps(chain))
    assert copy == chain and copy is not chain
    assert type(_chain(lambda c: children(c)[0], 3000, copy)) is type(bottom)


def test_a_pickled_record_keeps_its_shared_records_shared():
    leaf = Leaf(geometry.circle(0.0, 0.0, 1.0))
    tree = And(leaf, Not(leaf), Or(leaf, _chain(Not, 3000, leaf)))
    copy = pickle.loads(pickle.dumps(tree))
    assert copy == tree
    first, negated, joined = copy.children
    assert first is not leaf and negated.child is first and joined.children[0] is first
    assert _chain(lambda c: c.child, 3000, joined.children[1]) is first
    # a shared expression node is rebuilt once too
    shared = Add(X, Y)
    copy = pickle.loads(pickle.dumps(Mul(shared, Neg(shared))))
    assert copy.a is copy.b.a


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
    assert ConstraintSpec(threshold=0.9, name="purity") == ConstraintSpec("purity", 0.9)


def test_region_program_is_an_instance_dict_entry_after_first_use():
    region = ds.load_report(REPORT_FIXTURE).joint
    assert "program" not in vars(region)
    program = region.program
    assert vars(region)["program"] is program and region.program is program


def test_region_and_report_pickle_after_queries():
    report = ds.load_report(REPORT_FIXTURE)
    point = [290.0, 280.0]
    verdict = ds.membership(report, point)
    value = eval_expr(report.joint, point)
    assert "program" in vars(report.joint)

    region = pickle.loads(pickle.dumps(report.joint))
    assert region == report.joint and "program" not in vars(region)
    assert eval_expr(region, point) == value

    # the report's compiled verdict function is left out, like the program
    assert "verdict" in vars(report)
    loaded = pickle.loads(pickle.dumps(report))
    assert loaded == report and hash(loaded) == hash(report)
    assert "verdict" not in vars(loaded) and "program" not in vars(loaded.joint)
    assert ds.membership(loaded, point) == verdict
    assert "verdict" in vars(loaded)
    assert loaded == report and hash(loaded) == hash(report) and repr(loaded) == repr(report)
