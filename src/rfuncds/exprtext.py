"""Text formats for expressions: human-readable infix and a JSON node tree.

The infix grammar (documented in docs/expressions.md):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := atom ('^' UINT)?
    atom    := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sqrt, abs (one argument), min, max (two or more, folded left).
There is no division.  R-nodes have no infix spelling; they are expanded to
arithmetic on output (alpha=1 in abs form unless the sqrt form is asked
for) and never produced by the parser.  The tree format keeps R-nodes
intact, so structural round trips go through it.

Both parsers refuse expressions deeper than ``MAX_DEPTH`` levels with a
ParseError, checked before anything recurses that deep, so deep input never
ends in a RecursionError.  Infix text may also nest parentheses and calls
at most ``MAX_DEPTH`` deep.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError
from .expr import (
    NODES, Abs, Add, Const, Expr, Max, Min, Mul, Neg, Pow, Sqrt, Sub, Var,
    canonicalize_alpha1, children, depth, desugar_r_nodes,
)

FORMATS = ("infix", "tree")

# deepest expression the parsers accept; a leaf has depth 1
MAX_DEPTH = 128


def serialize(expr: Expr, format: str = "infix", alpha1_style: str = "abs") -> str:
    """Render an expression as text.

    ``format="tree"`` emits the JSON node tree (R-nodes kept).  With
    ``format="infix"``, R-nodes are expanded: ``alpha1_style="abs"`` uses the
    0.5*((a+b) -/+ |a-b|) form for alpha=1 nodes, which reads back to
    rounding, ``"sqrt"`` the radical form, which loses about sqrt(eps)*|a|
    near a = b (see docs/expressions.md).
    """
    if format == "tree":
        return to_tree_text(expr)
    if format == "infix":
        return to_infix(expr, alpha1_style=alpha1_style)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


def parse(text: str, format: str = "infix") -> Expr:
    if format == "tree":
        return parse_tree_text(text)
    if format == "infix":
        return parse_infix(text)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


# ----------------------------------------------------------------------
# infix output

def to_infix(expr: Expr, alpha1_style: str = "abs") -> str:
    if alpha1_style not in ("sqrt", "abs"):
        raise ValueError("alpha1_style must be 'sqrt' or 'abs'")
    if alpha1_style == "abs":
        expr = canonicalize_alpha1(expr)
    expr = desugar_r_nodes(expr)
    return _infix(expr)


def _infix(e: Expr) -> str:
    try:
        printer = _PRINTERS[type(e)]
    except KeyError:
        raise TypeError(f"node {type(e).__name__} has no infix form") from None
    return printer(e)


def _operand(e: Expr) -> str:
    # operands of operators and of negation are parenthesized unless they
    # are atoms or calls; the direct lookup keeps a tree level to two frames
    s = _PRINTERS[type(e)](e)
    return f"({s})" if type(e) in _PARENTHESIZED else s


def _power(e: Pow) -> str:
    base, text = e.base, _infix(e.base)
    # atoms print bare, except negative constants
    if not (type(base) is Var or (type(base) is Const and not base.value < 0)):
        text = f"({text})"
    return f"{text}^{e.exponent}"


def _call_printer(name: str):
    return lambda e: f"{name}({','.join(map(_infix, children(e)))})"


# Function spellings, shared by the printer and the parser.  min and max
# print with two arguments and parse with two or more, folded left.
FUNCTIONS = {"sqrt": Sqrt, "abs": Abs, "min": Min, "max": Max}
_PARENTHESIZED = {Add, Sub, Mul, Neg}
_PRINTERS = {
    Const: lambda e: repr(e.value),
    Var: lambda e: e.name,
    Neg: lambda e: f"-{_operand(e.a)}",
    Add: lambda e: f"{_operand(e.a)}+{_operand(e.b)}",
    Sub: lambda e: f"{_operand(e.a)}-{_operand(e.b)}",
    Mul: lambda e: f"{_operand(e.a)}*{_operand(e.b)}",
    Pow: _power,
    **{cls: _call_printer(name) for name, cls in FUNCTIONS.items()},
}


# ----------------------------------------------------------------------
# infix parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^(),]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped)
                raise ParseError(bad_at, f"unexpected character {text[bad_at]!r}")
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.depth = 0   # open parentheses and calls

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(pos, f"expected {op!r}, got {value!r}")


def parse_infix(text: str) -> Expr:
    toks = _Tokens(text)
    expr = _parse_sum(toks)
    kind, value, pos = toks.peek()
    if kind is not None:
        raise ParseError(pos, f"unexpected trailing {value!r}")
    if depth(expr) > MAX_DEPTH:
        raise ParseError(None, f"expression is deeper than {MAX_DEPTH} levels")
    return expr


def _parse_sum(toks: _Tokens) -> Expr:
    node = _parse_term(toks)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in ("+", "-"):
            toks.next()
            rhs = _parse_term(toks)
            node = Add(node, rhs) if value == "+" else Sub(node, rhs)
        else:
            return node


def _parse_term(toks: _Tokens) -> Expr:
    node = _parse_factor(toks)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value == "*":
            toks.next()
            node = Mul(node, _parse_factor(toks))
        else:
            return node


def _parse_factor(toks: _Tokens) -> Expr:
    negations = 0
    while toks.peek()[:2] == ("op", "-"):
        toks.next()
        negations += 1
    node = _parse_power(toks)
    for _ in range(negations):
        node = Neg(node)
    return node


def _parse_power(toks: _Tokens) -> Expr:
    node = _parse_atom(toks)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, pos = toks.next()
        if kind != "number" or not value.isdigit():
            raise ParseError(pos, "exponent must be an unsigned integer literal")
        node = Pow(node, int(value))
    return node


def _parse_atom(toks: _Tokens) -> Expr:
    kind, value, pos = toks.next()
    if kind == "number":
        return Const(float(value))
    if kind == "name":
        nkind, nvalue, _ = toks.peek()
        if nkind == "op" and nvalue == "(":
            if value not in FUNCTIONS:
                raise ParseError(pos, f"unknown function {value!r}")
            toks.next()
            args = [_parse_nested(toks, pos)]
            while True:
                k, v, p = toks.next()
                if k == "op" and v == ")":
                    break
                if not (k == "op" and v == ","):
                    raise ParseError(p, f"expected ',' or ')', got {v!r}")
                args.append(_parse_nested(toks, pos))
            ctor = FUNCTIONS[value]
            if len(NODES[ctor].operands) == 1:
                if len(args) != 1:
                    raise ParseError(pos, f"{value} takes exactly one argument")
                return ctor(args[0])
            if len(args) < 2:
                raise ParseError(pos, f"{value} takes at least two arguments")
            out = args[0]
            for a in args[1:]:
                out = ctor(out, a)
            return out
        return Var(value)
    if kind == "op" and value == "(":
        node = _parse_nested(toks, pos)
        toks.expect_op(")")
        return node
    raise ParseError(pos, f"expected a number, name or '(', got {value!r}")


def _parse_nested(toks: _Tokens, pos: int) -> Expr:
    # the only recursion: one level per open parenthesis or call
    toks.depth += 1
    if toks.depth > MAX_DEPTH:
        raise ParseError(pos, f"parentheses nest deeper than {MAX_DEPTH} levels")
    node = _parse_sum(toks)
    toks.depth -= 1
    return node


# ----------------------------------------------------------------------
# tree format (JSON)

def _to_obj(e: Expr):
    node = NODES[type(e)]
    obj = {"kind": node.tag}
    for field in node.params:
        obj[field] = getattr(e, field)
    if node.operands:
        obj["args"] = list(map(_to_obj, node.children(e)))
    return obj


def to_tree_text(expr: Expr) -> str:
    return json.dumps(_to_obj(expr), separators=(",", ":"))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# what the tree format accepts for each parameter field, and how to read it
_PARAMS = {
    "value": (_is_number, float, "a number"),
    "alpha": (_is_number, float, "a number"),
    "name": (lambda v: isinstance(v, str) and v != "", str, "a non-empty string"),
    "exponent": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0, int,
                 "a non-negative integer"),
}
_BY_TAG = {node.tag: cls for cls, node in NODES.items()}
_CHILD_COUNTS = {1: "one child", 2: "two children"}


def _from_obj(obj) -> Expr:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(None, f"tree node must be an object with 'kind', got {obj!r}")
    tag = obj["kind"]
    try:
        cls = _BY_TAG[tag]
    except (KeyError, TypeError):   # TypeError: a list or object as kind
        raise ParseError(None, f"unknown node kind {tag!r}") from None
    node = NODES[cls]
    params = []
    for field in node.params:
        accepts, convert, what = _PARAMS[field]
        value = obj.get(field)
        if not accepts(value):
            raise ParseError(None, f"{tag} {field} must be {what}, got {value!r}")
        params.append(convert(value))
    if not node.operands:
        return cls(*params)
    args = obj.get("args")
    if not isinstance(args, list) or len(args) != len(node.operands):
        raise ParseError(None, f"{tag} takes {_CHILD_COUNTS[len(node.operands)]}")
    return cls(*map(_from_obj, args), *params)


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


def parse_tree_text(text: str) -> Expr:
    return _from_obj(load_json(text, 2 * MAX_DEPTH - 1))
