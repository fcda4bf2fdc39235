"""Text formats for expressions: human-readable infix and a JSON node tree.

Infix is written, never read: arithmetic with sqrt and abs calls and integer
powers, whose grammar docs/expressions.md gives.  R-nodes have no infix
spelling; they are expanded to arithmetic (alpha=1 in abs form unless the
sqrt form is asked for).  The tree format keeps R-nodes intact and is the
one text format read back.

Both formats are built by one fold over the distinct nodes, without
recursion, and ``expression_fields`` builds both infix styles and the tree
of an expression and of its parts in one such fold, with the same printers.
The tree format holds at most ``MAX_DEPTH`` levels, as ``json`` recurses
once per level: writers refuse deeper trees (ValueError) and the reader
checks before it recurses (ParseError), never a RecursionError.

``load_json`` reads JSON and ``dump_json`` writes it in the layout of
``json.dumps(indent=2)``, each leaf encoded by json's C encoders.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii

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
    printers = _INFIX[alpha1_style]
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
# the printers of each alpha1_style
_INFIX = {style: {**_PRINTERS, RAnd: _r_printer("-", style == "abs"),
                  ROr: _r_printer("+", style == "abs")}
          for style in ("abs", "sqrt")}


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


def expression_fields(expr: Expr, *parts: Expr) -> list[tuple[str, str, object]]:
    """``(to_infix(e), to_infix(e, alpha1_style="sqrt"), to_tree_obj(e))`` for
    ``expr`` and then each of ``parts``, from one fold over the distinct nodes
    of ``expr``: a part that is a node of ``expr`` (by identity) is read
    from that fold, any other part gets a fold of its own.

    A node with no R-node under it prints the same in both styles, so its
    sqrt-style text is its abs-style text, printed once.  A tree deeper than
    ``MAX_DEPTH`` raises ValueError as ``check_depth``, the parts' first.
    """
    abs_printers, sqrt_printers = _INFIX["abs"], _INFIX["sqrt"]
    wanted = set(map(id, parts))
    kept = {}

    def visit(e, *args):
        cls = type(e)
        abs_printed = abs_printers[cls](e, *[a for a, _, _ in args])
        if cls is RAnd or cls is ROr or any(s is not a for a, s, _ in args):
            sqrt_printed = sqrt_printers[cls](e, *[s for _, s, _ in args])
        else:
            sqrt_printed = abs_printed
        result = abs_printed, sqrt_printed, _tree_node(e, *[t for _, _, t in args])
        if id(e) in wanted:
            kept[id(e)] = result
        return result

    for e in (expr, *parts):   # a part that is not a node of expr gets a fold of its own
        if id(e) not in kept:
            kept[id(e)] = fold(e, visit)
    results = [kept[id(e)] for e in (expr, *parts)]
    for _, _, (_, levels) in results[1:] + results[:1]:
        check_depth(levels)
    return [(a[0], s[0], obj) for a, s, (obj, _) in results]


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


def _float_text(v: float) -> str:
    """A float as json spells it: NaN and the infinities as its tokens."""
    if v != v:
        return "NaN"
    if v in (math.inf, -math.inf):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


_LEAVES = {str: encode_basestring_ascii, float: _float_text, int: int.__repr__,
           bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, written without leaving json's C leaf
    encoders: one walk lays out the objects and arrays, and every string,
    number and constant is encoded as json encodes it.  Keys must be
    strings; a value json cannot encode raises TypeError.  Like json, it
    recurses once per level of nesting."""
    parts: list[str] = []
    _dump(obj, "\n", parts)
    return "".join(parts)


def _dump(obj, newline: str, parts: list[str]) -> None:
    """Append the text of ``obj``, whose lines start with ``newline``, to ``parts``."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        parts.append(leaf(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner, opening = newline + "  ", "{"
        for key, value in obj.items():   # a key that is not a str raises TypeError
            parts.append(f"{opening}{inner}{encode_basestring_ascii(key)}: ")
            _dump(value, inner, parts)
            opening = ","
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner, opening = newline + "  ", "["
        for value in obj:
            parts.append(opening + inner)
            _dump(value, inner, parts)
            opening = ","
        parts.append(newline + "]")
    elif isinstance(obj, str):   # subclasses encode as their base type
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def parse_tree_text(text: str) -> Expr:
    return from_tree_obj(load_json(text, 2 * MAX_DEPTH - 1))
