"""Symbolic expression trees for scalar coefficient functions.

A deliberately small computer-algebra layer: immutable trees over a closed
grammar (constants, variables, sums, products, quotients, rational powers,
negation, sin/cos/exp/ln/abs/sqrt), exact differentiation, light
simplification and numeric evaluation over floats or numpy arrays.

Two extensions beyond the textual grammar core:

* ``sign(u)`` appears when ``abs`` is differentiated (d|u| = sign(u) du);
  evaluating ``sign`` at 0 is a domain error.
* ``intv(f, v0)`` denotes the running integral F(v) = int_{v0}^{v} f dt along
  the anisotropy coordinate ``v``; it differentiates exactly (fundamental
  theorem in v, differentiation under the integral sign in the other
  variables) and evaluates by adaptive quadrature.

Both are accepted by the parser so that every tree prints back to parseable
source.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

Number = Union[int, float]
Value = Union[float, np.ndarray]

V_NAME = "v"  # integration variable of intv(): the anisotropy coordinate

__all__ = [
    "Expr", "Const", "Var", "Sum", "Product", "Quot", "Pow", "Neg", "Func",
    "IntegralV", "ExprSyntaxError", "UnknownVariableError", "EvalError",
    "DivisionByZeroError", "DomainError", "UnboundVariableError",
    "as_expr", "const", "var", "add", "mul", "sub", "div", "neg", "pow_",
    "sin", "cos", "exp", "ln", "sqrt", "abs_", "sign", "intv",
    "parse", "to_str", "diff", "evaluate", "Program", "simplify", "same_tree",
    "free_vars", "has_integral", "ZERO", "ONE",
]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ExprSyntaxError(ValueError):
    """Malformed expression source; carries position and what was expected."""

    def __init__(self, message: str, position: int, expected: str = ""):
        self.position = position
        self.expected = expected
        tail = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{tail}")


class UnknownVariableError(ValueError):
    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        super().__init__(f"unknown variable {name!r}")


class EvalError(ArithmeticError):
    """Base class for evaluation failures. The layer that knows sets ``row``
    (first failing array element; 0 for scalars), ``node`` (the failing
    ``Program`` step) and ``point`` (the bindings at that row)."""

    row, node, point = 0, None, None

    def at(self, mask) -> "EvalError":
        self.row = int(np.argmax(mask))
        return self


class DivisionByZeroError(EvalError):
    pass


class DomainError(EvalError):
    pass


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not bound at evaluation point")


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

class Expr:
    """Immutable expression node. Subclasses carry the actual payload."""

    __slots__ = ("_fv", "_dcache")

    def __init__(self):
        self._fv = None
        self._dcache = None

    # -- sugar ---------------------------------------------------------
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, q):
        return pow_(self, q)

    def __neg__(self):
        return neg(self)

    def diff(self, name: str) -> "Expr":
        return diff(self, name)

    @property
    def free_vars(self) -> frozenset:
        if self._fv is None:
            self._fv = self._free_vars()
        return self._fv

    def _free_vars(self) -> frozenset:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {to_str(self)}>"

    def __str__(self):
        return to_str(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        super().__init__()
        self.value = float(value)

    def _free_vars(self):
        return frozenset()


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _free_vars(self):
        return frozenset((self.name,))


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        super().__init__()
        self.terms = terms

    def _free_vars(self):
        return frozenset().union(*(t.free_vars for t in self.terms))


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        super().__init__()
        self.factors = factors

    def _free_vars(self):
        return frozenset().union(*(f.free_vars for f in self.factors))


class Quot(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        super().__init__()
        self.num = num
        self.den = den

    def _free_vars(self):
        return self.num.free_vars | self.den.free_vars


class Pow(Expr):
    """base ** exponent with a fixed rational exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Fraction):
        super().__init__()
        self.base = base
        self.exponent = exponent

    def _free_vars(self):
        return self.base.free_vars


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        super().__init__()
        self.arg = arg

    def _free_vars(self):
        return self.arg.free_vars


_FUNCS = ("sin", "cos", "exp", "ln", "abs", "sqrt", "sign")


class Func(Expr):
    __slots__ = ("kind", "arg")

    def __init__(self, kind: str, arg: Expr):
        super().__init__()
        assert kind in _FUNCS
        self.kind = kind
        self.arg = arg

    def _free_vars(self):
        return self.arg.free_vars


class IntegralV(Expr):
    """Running integral int_{lower}^{v} integrand(..., t) dt.

    The integration variable is the fixed name ``v``; inside ``integrand`` the
    name ``v`` is bound to the dummy variable, outside it denotes the upper
    limit, so ``v`` is free in the node itself.
    """

    __slots__ = ("integrand", "lower")

    def __init__(self, integrand: Expr, lower: float):
        super().__init__()
        self.integrand = integrand
        self.lower = float(lower)

    def _free_vars(self):
        return self.integrand.free_vars | frozenset((V_NAME,))


ZERO = Const(0.0)
ONE = Const(1.0)

_var_cache: dict = {}


# ---------------------------------------------------------------------------
# smart constructors (these are the simplifier)
# ---------------------------------------------------------------------------

def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def const(value: Number) -> Const:
    v = float(value)
    if v == 0.0:
        return ZERO
    if v == 1.0:
        return ONE
    return Const(v)


def var(name: str) -> Var:
    got = _var_cache.get(name)
    if got is None:
        got = _var_cache[name] = Var(name)
    return got


def _is_const(e: Expr, value=None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def add(*terms) -> Expr:
    flat = []
    acc = 0.0
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            sub_terms = t.terms
        else:
            sub_terms = (t,)
        for s in sub_terms:
            if isinstance(s, Const):
                acc += s.value
            else:
                flat.append(s)
    if acc != 0.0 or not flat:
        flat.append(const(acc))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def sub(a, b) -> Expr:
    return add(as_expr(a), neg(as_expr(b)))


def mul(*factors) -> Expr:
    flat = []
    acc = 1.0
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Product):
            sub_f = f.factors
        else:
            sub_f = (f,)
        for s in sub_f:
            if isinstance(s, Const):
                acc *= s.value
            else:
                flat.append(s)
    if acc == 0.0:
        return ZERO
    if acc != 1.0 or not flat:
        flat.insert(0, const(acc))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def div(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return const(a.value / b.value)
    return Quot(a, b)


def neg(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def pow_(base, exponent) -> Expr:
    base = as_expr(base)
    q = exponent if isinstance(exponent, Fraction) else Fraction(exponent)
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Const):
        v = base.value
        if v >= 0.0 or q.denominator == 1:
            try:
                return const(v ** float(q))
            except (OverflowError, ZeroDivisionError):
                pass
    return Pow(base, q)


def _func(kind: str, arg) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Const):
        v = arg.value
        table = {
            "sin": math.sin, "cos": math.cos, "exp": math.exp,
            "abs": abs,
        }
        if kind in table:
            try:
                return const(table[kind](v))
            except (OverflowError, ValueError):  # exp overflow, sin(inf)
                pass
        elif kind == "ln" and v > 0.0:
            return const(math.log(v))
        elif kind == "sqrt" and v >= 0.0:
            return const(math.sqrt(v))
        elif kind == "sign" and v != 0.0:
            return const(math.copysign(1.0, v))
    if kind == "abs" and isinstance(arg, Func) and arg.kind == "abs":
        return arg
    return Func(kind, arg)


def sin(a):
    return _func("sin", a)


def cos(a):
    return _func("cos", a)


def exp(a):
    return _func("exp", a)


def ln(a):
    return _func("ln", a)


def sqrt(a):
    return _func("sqrt", a)


def abs_(a):
    return _func("abs", a)


def sign(a):
    return _func("sign", a)


def intv(integrand, lower: Number) -> Expr:
    """Running integral of ``integrand`` dv from ``lower`` to the point's v."""
    integrand = as_expr(integrand)
    if _is_const(integrand, 0.0):
        return ZERO
    return IntegralV(integrand, float(lower))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def diff(e: Expr, name: str) -> Expr:
    cache = e._dcache
    if cache is None:
        cache = e._dcache = {}
    got = cache.get(name)
    if got is None:
        got = cache[name] = _diff(e, name)
    return got


def _diff(e: Expr, x: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == x else ZERO
    if x not in e.free_vars:
        return ZERO
    if isinstance(e, Sum):
        return add(*(diff(t, x) for t in e.terms))
    if isinstance(e, Product):
        fs = e.factors
        terms = []
        for i, f in enumerate(fs):
            d = diff(f, x)
            if _is_const(d, 0.0):
                continue
            terms.append(mul(*fs[:i], d, *fs[i + 1:]))
        return add(*terms) if terms else ZERO
    if isinstance(e, Quot):
        du, dw = diff(e.num, x), diff(e.den, x)
        return div(sub(mul(du, e.den), mul(e.num, dw)), pow_(e.den, 2))
    if isinstance(e, Pow):
        q = e.exponent
        return mul(const(float(q)), pow_(e.base, q - 1), diff(e.base, x))
    if isinstance(e, Neg):
        return neg(diff(e.arg, x))
    if isinstance(e, Func):
        du = diff(e.arg, x)
        u = e.arg
        if e.kind == "sin":
            outer = cos(u)
        elif e.kind == "cos":
            outer = neg(sin(u))
        elif e.kind == "exp":
            outer = e
        elif e.kind == "ln":
            return div(du, u)
        elif e.kind == "sqrt":
            return div(du, mul(2, e))
        elif e.kind == "abs":
            outer = sign(u)
        elif e.kind == "sign":
            return ZERO  # piecewise constant away from the (excluded) zero locus
        else:  # pragma: no cover
            raise AssertionError(e.kind)
        return mul(outer, du)
    if isinstance(e, IntegralV):
        if x == V_NAME:
            return e.integrand
        return intv(diff(e.integrand, x), e.lower)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------

def simplify(e: Expr) -> Expr:
    """Rebuild the tree through the smart constructors (constant folding,
    identity elements, x^1 -> x, 0*x -> 0). Idempotent by construction.

    A tree built only by the smart constructors (the parser, diff and every
    builder in this package) comes back structurally identical, but as new
    objects, which loses the sharing that the derivative and evaluation memos
    key on. So the package never calls it internally; it is for trees
    assembled from raw nodes (``Sum((...))``, ``Product((...))``)."""
    return _simplify(e, {})


def _simplify(e: Expr, memo: dict) -> Expr:
    got = memo.get(id(e))
    if got is not None:
        return got
    if isinstance(e, (Const, Var)):
        out = const(e.value) if isinstance(e, Const) else e
    elif isinstance(e, Sum):
        out = add(*(_simplify(t, memo) for t in e.terms))
    elif isinstance(e, Product):
        out = mul(*(_simplify(f, memo) for f in e.factors))
    elif isinstance(e, Quot):
        out = div(_simplify(e.num, memo), _simplify(e.den, memo))
    elif isinstance(e, Pow):
        out = pow_(_simplify(e.base, memo), e.exponent)
    elif isinstance(e, Neg):
        out = neg(_simplify(e.arg, memo))
    elif isinstance(e, Func):
        out = _func(e.kind, _simplify(e.arg, memo))
    elif isinstance(e, IntegralV):
        out = intv(_simplify(e.integrand, memo), e.lower)
    else:  # pragma: no cover
        raise TypeError(type(e).__name__)
    memo[id(e)] = out
    return out


def is_zero(e: Expr) -> bool:
    """Structurally zero (sufficient, not necessary): the smart constructors
    fold every tree that simplifies to zero into the constant itself."""
    return _is_const(e, 0.0)


def same_tree(a: Expr, b: Expr) -> bool:
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Sum):
        return len(a.terms) == len(b.terms) and all(
            same_tree(x, y) for x, y in zip(a.terms, b.terms))
    if isinstance(a, Product):
        return len(a.factors) == len(b.factors) and all(
            same_tree(x, y) for x, y in zip(a.factors, b.factors))
    if isinstance(a, Quot):
        return same_tree(a.num, b.num) and same_tree(a.den, b.den)
    if isinstance(a, Pow):
        return a.exponent == b.exponent and same_tree(a.base, b.base)
    if isinstance(a, Neg):
        return same_tree(a.arg, b.arg)
    if isinstance(a, Func):
        return a.kind == b.kind and same_tree(a.arg, b.arg)
    if isinstance(a, IntegralV):
        return a.lower == b.lower and same_tree(a.integrand, b.integrand)
    raise TypeError(type(a).__name__)  # pragma: no cover


def free_vars(e: Expr) -> frozenset:
    return e.free_vars


def has_integral(e: Expr) -> bool:
    """Whether ``e`` holds an ``intv`` node (evaluating it runs quadrature)."""
    stack, seen = [e], set()
    while stack:
        n = stack.pop()
        if isinstance(n, IntegralV):
            return True
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(_kids(n))
    return False


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, point: Mapping[str, Value]) -> Value:
    """Evaluate at a point; values may be floats or aligned numpy arrays.

    Raises UnboundVariableError / DivisionByZeroError / DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _ev(e, point, {})
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def evaluate_many(exprs, point: Mapping[str, Value]) -> list:
    """Evaluate several expressions at one point with a shared subtree memo
    (the coefficient tables of a connection share most of their nodes)."""
    memo: dict = {}
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for e in exprs:
            v = _ev(e, point, memo)
            out.append(v if isinstance(v, np.ndarray) else float(v))
    return out


def _kids(e: Expr) -> tuple:
    """Operands that evaluation reads from the memo. An ``IntegralV`` has none:
    its integrand runs inside the quadrature, so the node is one step."""
    t = type(e)
    if t is Sum:
        return e.terms
    if t is Product:
        return e.factors
    if t is Quot:
        return (e.num, e.den)
    if t is Pow:
        return (e.base,)
    if t is Neg or t is Func:
        return (e.arg,)
    return ()


class Program:
    """Straight-line evaluation of several expressions over their union DAG.

    ``steps`` lists every distinct node (by object identity, as the
    evaluation memo keys them) in the order the recursive memo walk of
    ``evaluate_many`` first finishes them, so the same node fails first and
    every value is computed by the same per-node kernel. ``rows[i]`` are the
    output rows that receive step i's value and ``frees[i]`` the memo keys
    whose last use is step i: run() keeps only live values."""

    __slots__ = ("steps", "rows", "frees", "size")

    def __init__(self, exprs):
        exprs = list(exprs)
        index: dict = {}
        steps = []
        for root in exprs:
            if id(root) in index:
                continue
            stack = [(root, iter(_kids(root)))]
            while stack:
                node, kids = stack[-1]
                for c in kids:
                    if id(c) not in index:
                        stack.append((c, iter(_kids(c))))
                        break
                else:
                    stack.pop()
                    index[id(node)] = len(steps)
                    steps.append(node)
        last = list(range(len(steps)))
        for i, node in enumerate(steps):
            for c in _kids(node):
                last[index[id(c)]] = i
        rows: list = [() for _ in steps]
        for k, root in enumerate(exprs):
            i = index[id(root)]
            rows[i] += (k,)
        frees: list = [[] for _ in steps]
        for j, i in enumerate(last):
            frees[i].append(id(steps[j]))
        self.steps = tuple(steps)
        self.rows = tuple(rows)
        self.frees = tuple(map(tuple, frees))
        self.size = len(exprs)

    def run(self, env: Mapping[str, Value], out: np.ndarray) -> np.ndarray:
        """Write the value of expression k into ``out[k]`` (broadcast over
        the row) and return ``out``."""
        memo: dict = {}
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for node, rows, dead in zip(self.steps, self.rows, self.frees):
                    val = memo[id(node)] = _ev_node(node, env, memo)
                    for k in rows:
                        out[k] = val
                    for key in dead:
                        del memo[key]
            except EvalError as err:
                err.node = node
                raise
        return out


def _any(x) -> bool:
    return bool(np.any(x)) if isinstance(x, np.ndarray) else bool(x)


def _ev(e: Expr, env: Mapping[str, Value], memo: dict) -> Value:
    got = memo.get(id(e))
    if got is not None:
        return got
    out = _ev_node(e, env, memo)
    memo[id(e)] = out
    return out


def _ev_node(e: Expr, env, memo):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Sum):
        acc = _ev(e.terms[0], env, memo)
        for t in e.terms[1:]:
            acc = acc + _ev(t, env, memo)
        return acc
    if isinstance(e, Product):
        acc = _ev(e.factors[0], env, memo)
        for f in e.factors[1:]:
            acc = acc * _ev(f, env, memo)
        return acc
    if isinstance(e, Quot):
        num = _ev(e.num, env, memo)
        den = _ev(e.den, env, memo)
        if _any(den == 0.0):
            raise DivisionByZeroError("division by zero").at(den == 0.0)
        return num / den
    if isinstance(e, Pow):
        base = _ev(e.base, env, memo)
        q = e.exponent
        if q.denominator != 1 and _any(base < 0.0):
            raise DomainError(f"negative base for exponent {q}").at(base < 0.0)
        if q < 0 and _any(base == 0.0):
            raise DivisionByZeroError(f"zero base for exponent {q}").at(base == 0.0)
        if q.denominator == 1:
            return base ** int(q)
        return base ** float(q)
    if isinstance(e, Neg):
        return -_ev(e.arg, env, memo)
    if isinstance(e, Func):
        u = _ev(e.arg, env, memo)
        kind = e.kind
        if kind == "sin":
            return np.sin(u)
        if kind == "cos":
            return np.cos(u)
        if kind == "exp":
            return np.exp(u)
        if kind == "ln":
            if _any(u <= 0.0):
                raise DomainError("ln of nonpositive value").at(u <= 0.0)
            return np.log(u)
        if kind == "sqrt":
            if _any(u < 0.0):
                raise DomainError("sqrt of negative value").at(u < 0.0)
            return np.sqrt(u)
        if kind == "abs":
            return np.abs(u)
        if kind == "sign":
            if _any(u == 0.0):
                raise DomainError("sign(0) is undefined").at(u == 0.0)
            return np.sign(u)
        raise AssertionError(kind)  # pragma: no cover
    if isinstance(e, IntegralV):
        return _ev_integral(e, env, memo)
    raise TypeError(type(e).__name__)  # pragma: no cover


def _ev_integral(e: IntegralV, env, memo):
    from . import numerics  # deferred: numerics builds on this module

    if V_NAME not in env:
        raise UnboundVariableError(V_NAME)
    upper = env[V_NAME]
    # integrand variables other than v that the grid binds to arrays: each
    # distinct (v, x...) tuple gets its own scalar quadrature
    others = sorted(n for n in e.integrand.free_vars
                    if n != V_NAME and isinstance(env.get(n), np.ndarray))
    fixed = dict(env)

    def run(u: float, at: tuple) -> float:
        fixed.update(zip(others, at))

        def f(t: float) -> float:
            fixed[V_NAME] = t
            return float(_ev(e.integrand, fixed, {}))
        return numerics.adaptive_simpson(f, e.lower, u)

    if not others and not isinstance(upper, np.ndarray):
        return run(float(upper), ())
    cols = np.broadcast_arrays(upper, *(env[n] for n in others))
    seen: dict = {}
    out = []
    for key in zip(*(c.reshape(-1).tolist() for c in cols)):
        got = seen.get(key)
        if got is None:
            try:
                got = seen[key] = run(key[0], key[1:])
            except EvalError as err:
                err.row = len(out)
                raise
        out.append(got)
    return np.array(out, dtype=float).reshape(cols[0].shape)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_QUOT, _PREC_PROD, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5, 6
_INT_EXPONENT_END = re.compile(r"\^\d+$")


def _fmt_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_str(e: Expr) -> str:
    return _render(e)[0]


def _render(e: Expr):
    """Return (text, precedence-of-top-node); parenthesization keeps the
    printed form reparsing to a structurally identical tree."""
    if isinstance(e, Const):
        if e.value < 0:
            return _fmt_number(e.value), _PREC_NEG
        return _fmt_number(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            if i > 0 and isinstance(t, Neg):
                parts.append(" - " + _wrap(t.arg, _PREC_QUOT))
            elif i > 0 and isinstance(t, Const) and t.value < 0:
                parts.append(" - " + _fmt_number(-t.value))
            else:
                pre = " + " if i > 0 else ""
                parts.append(pre + _wrap(t, _PREC_SUM))
        return "".join(parts), _PREC_SUM
    if isinstance(e, Product):
        # quotient factors get parens so that a*(b/c) never rereads as a*b/c
        return "*".join(_wrap(f, _PREC_PROD) for f in e.factors), _PREC_PROD
    if isinstance(e, Quot):
        num = _wrap(e.num, _PREC_PROD)
        den = _wrap(e.den, _PREC_NEG)  # denominator binds: a/(b*c) needs parens
        if den.isdigit() and _INT_EXPONENT_END.search(num):
            num = f"({num})"  # v^2/3 would reread as v^(2/3)
        return f"{num}/{den}", _PREC_QUOT
    if isinstance(e, Pow):
        base = _wrap(e.base, _PREC_ATOM)
        q = e.exponent
        if q.denominator == 1 and q >= 0:
            return f"{base}^{q.numerator}", _PREC_POW
        return f"{base}^({q.numerator}/{q.denominator})" if q.denominator != 1 \
            else f"{base}^({q.numerator})", _PREC_POW
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG), _PREC_NEG
    if isinstance(e, Func):
        return f"{e.kind}({to_str(e.arg)})", _PREC_ATOM
    if isinstance(e, IntegralV):
        return f"intv({to_str(e.integrand)}, {_fmt_number(e.lower)})", _PREC_ATOM
    raise TypeError(type(e).__name__)  # pragma: no cover


def _wrap(e: Expr, need: int) -> str:
    text, prec = _render(e)
    if prec < need:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _finite(e: Expr, pos: int) -> Expr:
    """``e``, unless constant folding left a non-finite constant in it (the
    node itself, or the folded term of a sum or factor of a product)."""
    for c in (e, *_kids(e)):
        if isinstance(c, Const) and not math.isfinite(c.value):
            raise ExprSyntaxError(f"constant folds to {c.value!r}", pos,
                                  expected="a finite constant")
    return e


class _Parser:
    def __init__(self, src: str, allowed: frozenset):
        self.src = src
        self.allowed = allowed
        self.tokens = []
        pos = 0
        while pos < len(src):
            m = _TOKEN_RE.match(src, pos)
            if m is None or m.end() == pos:
                stripped = src[pos:].lstrip()
                if not stripped:
                    break
                at = len(src) - len(stripped)
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.src))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.next()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"got {text!r}" if text else "unexpected end of input",
                                  pos, expected=repr(op))

    # grammar: expr := term (('+'|'-') term)*
    #          term := unary (('*'|'/') unary)*
    #          unary := '-' unary | power
    #          power := atom ['^' exponent]        (exponent: rational literal)
    #          atom := number | name | name '(' ... ')' | '(' expr ')'
    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", pos, expected="end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                e = _finite(add(e, rhs) if text == "+" else sub(e, rhs), pos)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                e = _finite(mul(e, rhs) if text == "*" else div(e, rhs), pos)
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return pow_(base, self.exponent())
        return base

    def exponent(self) -> Fraction:
        negate = False
        kind, text, pos = self.peek()
        if kind == "op" and text == "(":
            self.next()
            q = self.exponent()
            self.expect_op(")")
            return q
        if kind == "op" and text == "-":
            self.next()
            negate = True
            kind, text, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError(f"got {text!r}" if text else "unexpected end of input",
                                  pos, expected="rational exponent")
        self.next()
        try:
            q = Fraction(text)
        except ValueError:
            raise ExprSyntaxError(f"bad exponent {text!r}", pos,
                                  expected="rational exponent") from None
        kind2, text2, _ = self.peek()
        if kind2 == "op" and text2 == "/":
            save = self.i
            self.next()
            kind3, text3, pos3 = self.peek()
            if kind3 == "num" and "." not in text3 and "e" not in text3.lower():
                self.next()
                if int(text3) == 0:
                    raise ExprSyntaxError("zero exponent denominator", pos3,
                                          expected="rational exponent")
                q = q / Fraction(text3)
            else:
                self.i = save  # the '/' belongs to an enclosing term: x^2/y
        return -q if negate else q

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            return _finite(const(float(text)), pos)
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                return self.call(text, pos)
            if text not in self.allowed:
                raise UnknownVariableError(text, pos)
            return var(text)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"got {text!r}" if text else "unexpected end of input",
                              pos, expected="number, name or '('")

    def call(self, fname: str, pos: int) -> Expr:
        self.expect_op("(")
        if fname == "intv":
            integrand = self.expr()
            self.expect_op(",")
            kind, text, p2 = self.next()
            negate = False
            if kind == "op" and text == "-":
                negate = True
                kind, text, p2 = self.next()
            if kind != "num":
                raise ExprSyntaxError(f"got {text!r}", p2, expected="numeric lower limit")
            self.expect_op(")")
            lower = -float(text) if negate else float(text)
            if not math.isfinite(lower):
                raise ExprSyntaxError("lower limit is not finite", p2,
                                      expected="numeric lower limit")
            return intv(integrand, lower)
        if fname not in _FUNCS:
            raise ExprSyntaxError(f"unknown function {fname!r}", pos,
                                  expected="one of " + ", ".join(_FUNCS) + ", intv")
        arg = self.expr()
        self.expect_op(")")
        return _func(fname, arg)


def parse(src: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse an expression whose variables are restricted to allowed_vars."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, expected="expression")
    try:
        return _Parser(src, frozenset(allowed_vars)).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None
