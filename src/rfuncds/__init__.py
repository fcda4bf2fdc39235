"""Rvachev-function algebra over implicit functions, geometry demos built
on it, and an analytical design-space identifier for process models.

The names below are imported from their modules on first access, so
``import rfuncds`` and a membership query load no numpy.
"""

import importlib

__version__ = "0.1.0"

# exported name -> module that defines it; a module maps to itself
_EXPORTS = {
    **{m: m for m in ("contour", "ds", "errors", "expr", "exprtext", "geometry", "polyfit",
                      "qmc", "reactor")},
    **dict.fromkeys(("ContourSet", "Polyline", "ScalarField", "grid_eval", "inside_fraction",
                     "marching_squares", "slice_contours_3d"), "contour"),
    **dict.fromkeys(("BoxAxis", "ConstraintSpec", "DSReport", "identify", "load_report",
                     "membership", "plot_count", "save_report"), "ds"),
    **dict.fromkeys(("Abs", "Add", "And", "BoolTree", "Const", "Expr", "Leaf", "Mul", "Neg",
                     "Not", "Or", "Pow", "RAnd", "ROr", "Region", "Sqrt", "Sub", "Var",
                     "compose", "eval_arrays", "eval_expr", "sign_class"), "expr"),
    **dict.fromkeys(("parse_tree_text", "to_infix", "to_tree_text"), "exprtext"),
    **dict.fromkeys(("TESTCASE_NAMES", "TestCase", "circle", "cylinder_z", "parabola",
                     "paraboloid", "slab", "testcase"), "geometry"),
    **dict.fromkeys(("BasisSpec", "FitResult", "design_matrix", "fit_least_squares", "to_expr"),
                    "polyfit"),
    **dict.fromkeys(("scale", "sobol"), "qmc"),
    **dict.fromkeys(("CQA_BASIS", "DEFAULT_PARAMS", "PROFIT_MIN", "PURITY_MIN", "KineticParams",
                     "batch_cqa", "cqa_closed"), "reactor"),
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
