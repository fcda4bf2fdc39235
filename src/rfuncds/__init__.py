"""Rvachev-function algebra over implicit functions, geometry demos built
on it, and an analytical design-space identifier for process models."""

__version__ = "0.1.0"

from . import errors
from .contour import (
    ContourSet,
    Polyline,
    ScalarField,
    grid_eval,
    inside_fraction,
    marching_squares,
    slice_contours_3d,
)
from .ds import (
    BoxAxis,
    ConstraintSpec,
    DSReport,
    identify,
    joint_expression,
    load_report,
    membership,
    plot_count,
    save_report,
)
from .expr import (
    Abs,
    Add,
    And,
    BoolTree,
    Const,
    Expr,
    Leaf,
    Max,
    Min,
    Mul,
    Neg,
    Not,
    Or,
    Pow,
    RAnd,
    ROr,
    Region,
    Sqrt,
    Sub,
    Var,
    canonicalize_alpha1,
    compose,
    desugar_r_nodes,
    eval_arrays,
    eval_expr,
    r_and,
    r_not,
    r_or,
    sign_class,
)
from .exprtext import parse, parse_infix, parse_tree_text, serialize, to_infix, to_tree_text
from .geometry import (
    TESTCASE_NAMES,
    Circle,
    CylinderZ,
    Parabola,
    Paraboloid,
    Slab,
    TestCase,
    primitive,
    testcase,
)
from .polyfit import (
    BasisSpec,
    FitResult,
    design_matrix,
    fit_least_squares,
    fit_report,
    to_expr,
)
from .qmc import SampleSet, scale, sobol
from .reactor import (
    CQA_BASIS,
    DEFAULT_BOX,
    DEFAULT_PARAMS,
    PROFIT_MIN,
    PURITY_MIN,
    Box,
    KineticParams,
    OperatingPoint,
    ReactorOutcome,
    batch_cqa,
    cqa_closed,
    cqa_ode,
    rate_constants,
    simulate,
)
