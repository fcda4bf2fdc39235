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
    NODES, Abs, Add, Const, Max, Min, Mul, Neg, Pow, Program, RAnd, ROr, Region, Sqrt, Sub, Var,
    children, eval_expr, fold,
)
from rfuncds.geometry import Circle, CylinderZ, Parabola, Paraboloid, Slab, primitive
from rfuncds.polyfit import BasisSpec, FitResult
from rfuncds.reactor import KineticParams

REPORT_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "kelvin-alpha1.json"

# one node of every class
NODE_SAMPLES = [Const(-0.0), Var("x"), Neg(X), Add(X, Y), Sub(X, Y), Mul(X, Y), Pow(X, 3),
                Sqrt(X), Abs(X), Min(X, Y), Max(X, Y), RAnd(X, Y, 0.25), ROr(X, Y, -0.5)]

# each record class with its fields, in constructor order
RECORD_FIELDS = {
    Region: ("expr", "vars"),
    Program: ("names", "reads", "source", "scalars", "bind"),
    BoxAxis: ("name", "lo", "hi", "unit"),
    ConstraintSpec: ("name", "threshold"),
    ConstraintReport: ("name", "threshold", "fit", "phi", "validation_r_squared"),
    SamplingMeta: ("n_train", "skip", "n_validation", "validation_skip"),
    ValidationStats: ("agreement_rate", "n_points", "n_disagreements"),
    DSReport: ("box", "alpha", "constraints", "joint", "sampling", "validation"),
    BasisSpec: ("vars", "monomials"),
    FitResult: ("basis", "coefficients", "r_squared", "n_points", "residual_max_abs"),
    Circle: ("cx", "cy", "radius"),
    Parabola: ("a", "x0", "c", "orientation"),
    Slab: ("axis", "half_thickness"),
    Paraboloid: ("side", "coeff"),
    CylinderZ: ("radius",),
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
    return [report.joint, report.joint.program, report.box[0], ConstraintSpec("purity", 0.9),
            constraint, report.sampling, report.validation, report, constraint.fit.basis,
            constraint.fit, Circle(1.0, 2.0, 1.5), Parabola(1.0, 1.0, 3.0), Slab("x", 2.0),
            Paraboloid("under", 0.6), CylinderZ(0.5), geometry.testcase("circles-4.1")[2],
            KineticParams(r_gas=1.0)]


def _array_records():
    field = grid_eval(primitive(Circle(0.0, 0.0, 1.0)), ((-1.5, 1.5), (-1.5, 1.5)), 9)
    contours = marching_squares(field)
    return [field, contours.polylines[0], contours]


def _record_id(record):
    return type(record).__name__


def _copy(record):
    return type(record)(*[getattr(record, name) for name in RECORD_FIELDS[type(record)]])


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
    (Add(X, Y), Sub(X, Y)), (Add(X, Y), Mul(X, Y)), (Min(X, Y), Max(X, Y)), (Sqrt(X), Abs(X)),
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


@pytest.mark.parametrize("record", [record for record in [*_records(), *_array_records()]
                                    if type(record) is not Program], ids=_record_id)
def test_records_pickle(record):
    # a Program holds generated functions and is rebuilt from its Region
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and repr(copy) == repr(record)


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

    loaded = pickle.loads(pickle.dumps(report))
    assert loaded == report
    assert ds.membership(loaded, point) == verdict
