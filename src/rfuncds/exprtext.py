"""Text formats for expressions: human-readable infix and a JSON node tree.

Infix is written, never read: arithmetic with sqrt and abs calls and integer
powers, whose grammar docs/expressions.md gives.  R-nodes have no infix
spelling; they are expanded to arithmetic (alpha=1 in abs form unless the
sqrt form is asked for).  The tree format keeps R-nodes intact and is the
one text format read back.

Both formats are built by one fold over the distinct nodes, without
recursion.  The tree format holds at most ``MAX_DEPTH`` levels, as ``json``
recurses once per level: writers refuse deeper trees (ValueError) and the
reader checks before it recurses (ParseError), never a RecursionError.
"""

from __future__ import annotations

import json
import re
import sys

from .errors import ParseError
from .expr import NODES, Abs, Add, Const, Expr, Mul, Neg, Pow, RAnd, ROr, Sqrt, Sub, Var, fold

# deepest expression the tree format holds; a leaf has depth 1
MAX_DEPTH = 128


# ----------------------------------------------------------------------
# infix output
#
# One fold prints each node once, from its operands' printed text and how
# each reads as an operand: _ATOM bare everywhere (a name, a constant that
# is not negative), _CALL bare except as a power base (calls, powers,
# negative constants), _COMPOUND parenthesized except as a call argument.

_ATOM, _CALL, _COMPOUND = range(3)


def to_infix(expr: Expr, alpha1_style: str = "abs") -> str:
    """Infix text with R-nodes expanded; alpha=1 nodes in the abs form, which
    evaluates to the node's value within rounding, or with
    ``alpha1_style="sqrt"`` the radical form, which loses about sqrt(eps)*|a|
    near a = b (see docs/expressions.md)."""
    if alpha1_style not in ("sqrt", "abs"):
        raise ValueError("alpha1_style must be 'sqrt' or 'abs'")
    abs_alpha1 = alpha1_style == "abs"
    printers = {**_PRINTERS, RAnd: _r_printer("-", abs_alpha1), ROr: _r_printer("+", abs_alpha1)}
    return fold(expr, lambda e, *operands: printers[type(e)](e, *operands))[0]


def _operand(printed) -> str:
    text, how = printed
    return f"({text})" if how == _COMPOUND else text


def _base(printed) -> str:
    text, how = printed
    return text if how == _ATOM else f"({text})"


def _binary_printer(op: str):
    return lambda e, a, b: (f"{_operand(a)}{op}{_operand(b)}", _COMPOUND)


def _call_printer(name: str):
    return lambda e, *args: (f"{name}({','.join(text for text, _ in args)})", _CALL)


def _r_printer(join: str, abs_alpha1: bool):
    """An R-node printed as its expansion, a product: AND joins a+b and the
    root term with "-", OR with "+".  At alpha = 1 the abs style prints
    0.5*((a+b) -/+ abs(a-b)); every other node prints the radical form
    (a+b -/+ sqrt(a^2 + b^2 - 2*alpha*a*b)) / (1 + alpha)."""
    def print_r(e, a, b):
        a_, b_ = _operand(a), _operand(b)
        if abs_alpha1 and e.alpha == 1.0:
            return f"0.5*(({a_}+{b_}){join}abs({a_}-{b_}))", _COMPOUND
        radicand = f"({_base(a)}^2+{_base(b)}^2)-({2.0 * e.alpha!r}*({a_}*{b_}))"
        return f"{1.0 / (1.0 + e.alpha)!r}*(({a_}+{b_}){join}sqrt({radicand}))", _COMPOUND
    return print_r


_PRINTERS = {
    Const: lambda e: (repr(e.value), _CALL if e.value < 0 else _ATOM),
    Var: lambda e: (e.name, _ATOM),
    Neg: lambda e, a: (f"-{_operand(a)}", _COMPOUND),
    Add: _binary_printer("+"),
    Sub: _binary_printer("-"),
    Mul: _binary_printer("*"),
    Pow: lambda e, a: (f"{_base(a)}^{e.exponent}", _CALL),
    Sqrt: _call_printer("sqrt"),
    Abs: _call_printer("abs"),
}


# ----------------------------------------------------------------------
# tree format (JSON)

def check_depth(levels: int, subject: str = "an expression") -> None:
    """Raise ValueError naming ``subject`` if ``levels`` (its ``expr.depth``)
    exceeds ``MAX_DEPTH``, so no writer emits a tree the reader refuses."""
    if levels > MAX_DEPTH:
        raise ValueError(f"{subject} {levels} levels deep; "
                         f"the tree format holds at most {MAX_DEPTH}")


def to_tree_obj(expr: Expr):
    """The tree format as JSON-ready dicts and lists, one object per distinct
    node (shared nodes share it); raises ValueError as ``check_depth``."""
    obj, levels = fold(expr, _tree_node)
    check_depth(levels)
    return obj


def _tree_node(e: Expr, *args):
    """A node's object and depth, from its operands' objects and depths."""
    node = NODES[type(e)]
    obj = {"kind": node.tag}
    for field in node.params:
        obj[field] = getattr(e, field)
    if not node.operands:
        return obj, 1
    objs, levels = zip(*args)
    obj["args"] = list(objs)
    return obj, 1 + max(levels)


def to_tree_text(expr: Expr) -> str:
    """The tree format as compact JSON text, keys in a fixed order."""
    return json.dumps(to_tree_obj(expr), separators=(",", ":"))


def _is_number(v) -> bool:
    """A JSON number within the float range, not a bool or string."""
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= sys.float_info.max)


# the kinds of field that the tree format and a report hold: for each, the
# test a decoded JSON value passes, its conversion, and what messages call it
FIELD_KINDS = {
    "number": (_is_number, float, "a number"),
    "count": (lambda v: _is_number(v) and isinstance(v, int) and v >= 0, int,
              "a non-negative integer below 2^1024"),
    "name": (lambda v: isinstance(v, str) and v != "", str, "a non-empty string"),
    "unit": (lambda v: v is None or isinstance(v, str), lambda v: v, "a string or null"),
}


def read_field(value, kind: str, subject: str):
    """``value`` converted as a field of ``kind`` in ``FIELD_KINDS``; a value
    of another kind raises ParseError naming ``subject``."""
    accepts, convert, what = FIELD_KINDS[kind]
    if not accepts(value):
        raise ParseError(None, f"{subject} must be {what}, got {value!r}")
    return convert(value)


# the kind of each parameter field of the tree format, and each node
# class's parameter fields as (field, kind, name in messages)
_PARAM_KINDS = {"value": "number", "alpha": "number", "name": "name", "exponent": "count"}
_PARAMS = {cls: [(field, _PARAM_KINDS[field], f"{node.tag} {field}") for field in node.params]
           for cls, node in NODES.items()}
_BY_TAG = {node.tag: cls for cls, node in NODES.items()}
_CHILD_COUNTS = {1: "one child", 2: "two children"}


def from_tree_obj(obj) -> Expr:
    """Read the tree format from decoded JSON.  It recurses once per level,
    so the caller bounds the depth, as ``load_json`` does."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(None, f"tree node must be an object with 'kind', got {obj!r}")
    tag = obj["kind"]
    try:
        cls = _BY_TAG[tag]
    except (KeyError, TypeError):   # TypeError: a list or object as kind
        raise ParseError(None, f"unknown node kind {tag!r}") from None
    node = NODES[cls]
    params = []
    for field, kind, subject in _PARAMS[cls]:
        params.append(read_field(obj.get(field), kind, subject))
    if not node.operands:
        return cls(*params)
    args = obj.get("args")
    if not isinstance(args, list) or len(args) != len(node.operands):
        raise ParseError(None, f"{tag} takes {_CHILD_COUNTS[len(node.operands)]}")
    return cls(*map(from_tree_obj, args), *params)


_JSON_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
_JSON_NON_BRACKET_RE = re.compile(r"[^\[\]{}]+")


def load_json(text: str, max_nesting: int):
    """``json.loads`` for input nested at most ``max_nesting`` arrays/objects deep.

    The nesting is counted without recursion before decoding, since the
    decoder recurses once per level; deeper input and invalid JSON raise
    ParseError.  A tree of ``MAX_DEPTH`` levels nests ``2 * MAX_DEPTH - 1``
    deep (an object plus an ``args`` array per inner node).
    """
    level = 0
    for bracket in _JSON_NON_BRACKET_RE.sub("", _JSON_STRING_RE.sub("", text)):
        if bracket in "[{":
            level += 1
            if level > max_nesting:
                raise ParseError(None, f"JSON nests deeper than {max_nesting} levels "
                                       f"(expression trees may be at most {MAX_DEPTH} deep)")
        else:
            level -= 1
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.pos, f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:   # an integer with more digits than int() converts
        raise ParseError(None, f"invalid JSON: {exc}") from None


def parse_tree_text(text: str) -> Expr:
    return from_tree_obj(load_json(text, 2 * MAX_DEPTH - 1))
