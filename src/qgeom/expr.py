"""Coefficient expressions: parsing, evaluation, exact first derivatives.

Hamiltonian families carry scalar coefficient functions f(parameters).  The
grammar is deliberately small::

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?            # right associative
    atom    :=  number | name | name '(' expr ')' | '(' expr ')'

so '^' binds tighter than unary minus (``-2^2 == -4``) and is right
associative (``2^3^2 == 512``).  Functions: sin, cos, tan, exp, log, sqrt,
abs.  Angles are radians.  Identifiers must be declared parameters.

Derivatives are computed by first-order dual numbers (forward mode), exact
to machine precision; domain errors raise instead of propagating NaN.
One walker serves one point and many: :func:`evaluate_gradient` runs it on
arrays of N points with all k partials seeded at once (vector mode), and the
scalar functions are its one-row calls; checks act point by point.  ASTs are
immutable; evaluation is pure and thread-safe.
"""

import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import EvaluationError, InputError, ParseError

__all__ = [
    "Constant",
    "Parameter",
    "UnaryOp",
    "BinaryOp",
    "ExprNode",
    "Dual",
    "parse_expression",
    "evaluate",
    "evaluate_with_derivative",
    "evaluate_gradient",
    "format_expression",
    "parameters_used",
    "FUNCTION_NAMES",
]


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Parameter:
    name: str


@dataclass(frozen=True)
class UnaryOp:
    op: str  # 'neg' or a function name
    operand: "ExprNode"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # '+', '-', '*', '/', '^'
    left: "ExprNode"
    right: "ExprNode"


ExprNode = Union[Constant, Parameter, UnaryOp, BinaryOp]

FUNCTION_NAMES = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")


# --------------------------------------------------------------------------
# dual numbers


@dataclass(frozen=True)
class Dual:
    """First-order dual number: value plus directional derivative.

    Either a float each, or point values of shape S and a (k, *S) array of partials.
    """

    value: float | np.ndarray
    deriv: float | np.ndarray

    def __add__(self, other):
        other = _as_dual(other)
        return Dual(self.value + other.value, self.deriv + other.deriv)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_dual(other)
        return Dual(self.value - other.value, self.deriv - other.deriv)

    def __rsub__(self, other):
        return _as_dual(other).__sub__(self)

    def __mul__(self, other):
        other = _as_dual(other)
        return Dual(
            self.value * other.value,
            self.deriv * other.value + self.value * other.deriv,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_dual(other)
        _check(other.value == 0.0, "division by zero")
        return Dual(
            self.value / other.value,
            (self.deriv * other.value - self.value * other.deriv)
            / (other.value * other.value),
        )

    def __rtruediv__(self, other):
        return _as_dual(other).__truediv__(self)

    def __neg__(self):
        return Dual(-self.value, -self.deriv)


def _as_dual(x) -> Dual:
    # numpy floats: IEEE results (inf, nan) instead of Python's ZeroDivisionError
    return x if isinstance(x, Dual) else Dual(np.float64(x), 0.0)


def _check(bad, message: str, *values) -> None:
    """Raise EvaluationError if ``bad`` holds anywhere, formatting ``values`` there."""
    bad = np.asarray(bad)
    if bad.any():
        firsts = (float(np.broadcast_to(v, bad.shape)[bad][0]) for v in values)
        raise EvaluationError(message.format(*firsts))


def _pow(a: Dual, b: Dual) -> Dual:
    """a^b with the chain rule; domain checks instead of NaN."""
    av, bv = a.value, b.value
    varying = np.not_equal(b.deriv, 0.0)  # the exponent moves along the direction
    _check(varying & (av <= 0.0), "{!r} ^ x with varying exponent needs a positive base", av)
    value = np.power(av, bv)
    # finite operands give a non-finite power only at a domain error or an overflow
    operands = np.isfinite(av) & np.isfinite(bv)
    _check(operands & ~np.isfinite(value), "invalid power {!r} ^ {!r}", av, bv)
    # fixed exponent: d(a^b) = b a^(b-1) a'
    moved = ~varying & (a.deriv != 0.0)
    _check(moved & (av == 0.0) & (bv < 1.0), "derivative of 0 ^ {!r} is singular", bv)
    slope = bv * np.power(av, bv - 1.0)
    _check(moved & (av != 0.0) & operands & ~np.isfinite(slope), "invalid power {!r} ^ {!r}",
           av, bv)
    at_zero = np.where(bv > 1.0, 0.0, a.deriv)
    fixed = np.where(a.deriv == 0.0, 0.0, np.where(av == 0.0, at_zero, slope * a.deriv))
    moving = value * (b.deriv * np.log(av) + bv * a.deriv / av)
    return Dual(value, np.where(varying, moving, fixed))


def _apply_function(name: str, x: Dual) -> Dual:
    v, d = x.value, x.deriv
    if name == "sin":
        return Dual(np.sin(v), np.cos(v) * d)
    if name == "cos":
        return Dual(np.cos(v), -np.sin(v) * d)
    if name == "tan":
        t = np.tan(v)
        return Dual(t, (1.0 + t * t) * d)
    if name == "exp":
        e = np.exp(v)
        _check(np.isinf(e) & np.isfinite(v), "exp({!r}) overflows", v)
        return Dual(e, e * d)
    if name == "log":
        _check(v <= 0.0, "log of non-positive value {!r}", v)
        return Dual(np.log(v), d / v)
    if name == "sqrt":
        _check(v < 0.0, "sqrt of negative value {!r}", v)
        _check((d != 0.0) & (v == 0.0), "derivative of sqrt at 0 is singular")
        s = np.sqrt(v)
        return Dual(s, np.where(d == 0.0, 0.0, d / (2.0 * s)))
    if name == "abs":
        # subgradient 0 at the kink
        return Dual(np.abs(v), np.sign(v) * d)
    raise InputError(f"unknown function {name!r}")


# --------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)"
    r"|(?P<stray>.))"
)


class _Parser:
    def __init__(self, src: str, params: tuple[str, ...]):
        # (kind, text, offset) per token, up to ("end", "", len(src)); a stray character raises
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN_RE.finditer(src)]
        for kind, text, pos in self.tokens:
            if kind == "stray":
                raise ParseError(f"unexpected character {text!r}", pos)
        self.params = params
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += tok[0] != "end"  # the end token is never consumed
        return tok

    def parse(self) -> ExprNode:
        node = self.binary()
        if (tok := self.peek())[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r} after expression", tok[2])
        return node

    def binary(self, level=0) -> ExprNode:  # a left-associative chain: 0 is expr, 1 is term
        operand = self.unary if level else lambda: self.binary(1)
        ops = (("+", "-"), ("*", "/"))[level]  # tuples: the end token's "" is in any string
        node = operand()
        while self.peek()[1] in ops:
            node = BinaryOp(self.next()[1], node, operand())
        return node

    def unary(self) -> ExprNode:
        if self.peek()[1] == "-":
            self.next()
            return UnaryOp("neg", self.unary())
        return self.power()

    def power(self) -> ExprNode:
        node = self.atom()
        if self.peek()[1] == "^":
            self.next()
            # right associative; allow a signed exponent like 2^-3
            node = BinaryOp("^", node, self.unary())
        return node

    def atom(self) -> ExprNode:
        kind, text, pos = self.next()
        if kind == "end":
            raise ParseError("empty operand at end of input", pos)
        if kind == "num":
            if not np.isfinite(value := float(text)):
                raise ParseError(f"number literal {text!r} overflows a float", pos)
            return Constant(value)
        if kind == "name":
            if self.peek()[1] != "(":
                if text not in self.params:
                    raise ParseError(f"unknown identifier {text!r}", pos)
                return Parameter(text)
            if text not in FUNCTION_NAMES:
                raise ParseError(f"unknown function {text!r}", pos)
            self.next()  # consume '('
        elif text != "(":
            raise ParseError(f"empty operand before {text!r}", pos)
        # a function call or a parenthesized expression: both end at ')'
        node = self.binary()
        if self.next()[1] != ")":
            raise ParseError("unbalanced parentheses: expected ')'", self.peek()[2])
        return UnaryOp(text, node) if kind == "name" else node


def parse_expression(src: str, params) -> ExprNode:
    """Parse an expression over the declared parameter names.

    Raises :class:`ParseError` (with byte offset) on unknown identifiers,
    unbalanced parentheses, missing operands or a literal past the float range.
    """
    if not isinstance(src, str):
        raise ParseError(f"expression must be a string, not {type(src).__name__}")
    if not src.strip():
        raise ParseError("empty expression")
    try:
        return _Parser(src, tuple(params)).parse()
    except RecursionError:  # the parser recurses once per nesting level
        raise ParseError("expression is nested too deeply") from None


# --------------------------------------------------------------------------
# evaluation


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": _pow}


def _walk(node: ExprNode, leaf, unary, binary):
    """Fold a tree: ``leaf(node)``, ``unary(node, operand)``, ``binary(node, left, right)``."""
    spine = []  # left and unary operands are followed in a loop; only right operands recurse
    while isinstance(node, (BinaryOp, UnaryOp)):
        spine.append(node)
        node = node.left if isinstance(node, BinaryOp) else node.operand
    value = leaf(node)
    for op in reversed(spine):  # innermost first; each right operand just before its operation
        value = (binary(op, value, _walk(op.right, leaf, unary, binary))
                 if isinstance(op, BinaryOp) else unary(op, value))
    return value


def _eval(node: ExprNode, env: Mapping[str, Dual]) -> Dual:
    def leaf(node):
        if isinstance(node, Constant):
            return _as_dual(node.value)
        if not isinstance(node, Parameter):
            raise InputError(f"malformed AST node {node!r}")
        if node.name not in env:
            raise InputError(f"parameter {node.name!r} is not bound")
        return env[node.name]

    def binary(node, left, right):
        if node.op not in _BINARY:
            raise InputError(f"malformed AST node {node!r}")
        return _BINARY[node.op](left, right)

    return _walk(node, leaf, lambda n, x: -x if n.op == "neg" else _apply_function(n.op, x),
                 binary)


def evaluate(ast: ExprNode, values: Mapping[str, float]) -> float:
    """Evaluate the tree in IEEE doubles; domain errors raise, never NaN."""
    return evaluate_gradient(ast, {k: [v] for k, v in values.items()}, ())[0].item()


def evaluate_with_derivative(
    ast: ExprNode, values: Mapping[str, float], direction: str
) -> tuple[float, float]:
    """Value and exact partial derivative along ``direction``.

    Seeds the named parameter with dual part 1 and all others with 0.
    """
    value, partials = evaluate_gradient(ast, {k: [v] for k, v in values.items()}, (direction,))
    return value.item(), partials.item()


def evaluate_gradient(
    ast: ExprNode, columns: Mapping[str, np.ndarray], directions: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Values (*S) and partials (k, *S) at the points of shape S, from one walk of the tree.

    ``columns`` maps each parameter to an array of its values; the arrays
    broadcast together to the shape S of the points (N values each, or a
    product grid's axes such as (n, 1) and (1, m), or a scalar).  Partial
    row i is seeded with 1 on ``directions[i]``.  A domain error at any
    point raises, naming a failing value but not the point; a non-finite
    value is named before a non-finite partial.
    """
    columns = {name: np.asarray(c, dtype=float) for name, c in columns.items()}
    shape = np.broadcast_shapes(*(c.shape for c in columns.values()))
    seeds = (-1, *[1] * len(shape))  # one partial row per direction, over the points' shape
    env = {
        name: Dual(c, np.array([float(d == name) for d in directions]).reshape(seeds))
        for name, c in columns.items()
    }
    with np.errstate(all="ignore"):  # domain errors raise; nothing else warns
        result = _eval(ast, env)
    value = np.broadcast_to(result.value, shape).copy()
    partials = np.broadcast_to(result.deriv, (len(directions), *shape)).copy()
    _check(~np.isfinite(value), "expression evaluated to non-finite value {!r}", value)
    _check(~np.isfinite(partials), "derivative evaluated to non-finite value {!r}", partials)
    return value, partials


def parameters_used(ast: ExprNode) -> set[str]:
    """Names of all parameters appearing in the tree."""
    return _walk(ast, lambda n: {n.name} if isinstance(n, Parameter) else set(),
                 lambda n, names: names, lambda n, left, right: left | right)


def format_expression(ast: ExprNode) -> str:
    """Render a tree back to parseable text (fully parenthesized)."""
    return _walk(ast, lambda n: repr(n.value) if isinstance(n, Constant) else n.name,
                 lambda n, text: f"(-{text})" if n.op == "neg" else f"{n.op}({text})",
                 lambda n, left, right: f"({left} {n.op} {right})")
