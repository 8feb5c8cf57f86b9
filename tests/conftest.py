"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from nhgeo import expr as ex


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_points(names, k=20, lo=0.5, hi=1.5, seed=1):
    """Deterministic sample points with coordinates in [lo, hi]."""
    gen = np.random.default_rng(seed)
    return [{nm: float(gen.uniform(lo, hi)) for nm in names} for _ in range(k)]


def expr_children(e):
    """The child nodes of an expression node, in field order."""
    if isinstance(e, ex.Sum):
        return e.terms
    if isinstance(e, ex.Product):
        return e.factors
    if isinstance(e, ex.Quot):
        return (e.num, e.den)
    if isinstance(e, ex.Pow):
        return (e.base,)
    if isinstance(e, (ex.Neg, ex.Func)):
        return (e.arg,)
    if isinstance(e, ex.IntegralV):
        return (e.integrand,)
    return ()


def max_abs_at(e, points):
    return max(abs(ex.evaluate(e, p)) for p in points)


class RandomExprs:
    """Deterministic random expression trees over a safe test grammar.

    Leaves are constants in [0.1, 2] or variables; unary/binary nodes keep
    evaluation well defined when |values| stay in [0.1, 2] (denominators and
    log/sqrt arguments are shifted away from zero).
    """

    def __init__(self, names=("v", "x2"), seed=7):
        self.names = tuple(names)
        self.rng = np.random.default_rng(seed)

    def leaf(self):
        if self.rng.random() < 0.5:
            return ex.const(float(self.rng.uniform(0.1, 2.0)))
        return ex.var(str(self.rng.choice(self.names)))

    def build(self, depth):
        if depth == 0:
            return self.leaf()
        pick = self.rng.integers(0, 9)
        a = self.build(depth - 1)
        b = self.build(depth - 1)
        if pick == 0:
            return ex.add(a, b)
        if pick == 1:
            return ex.sub(a, b)
        if pick == 2:
            return ex.mul(a, b)
        if pick == 3:
            return ex.div(a, ex.add(ex.mul(b, b), 0.5))
        if pick == 4:
            return ex.sin(a)
        if pick == 5:
            return ex.cos(a)
        if pick == 6:
            return ex.exp(ex.mul(0.3, a))
        if pick == 7:
            return ex.ln(ex.add(ex.mul(a, a), 0.5))
        return ex.pow_(ex.add(ex.mul(a, a), 0.5), self.rng.choice([2, 3, -1]))

    def sample(self, count, depth=3):
        return [self.build(depth) for _ in range(count)]

    def point(self):
        return {nm: float(self.rng.uniform(0.1, 2.0)) for nm in self.names}


def central_fd(e, name, point, h=1e-5):
    hi = dict(point)
    lo = dict(point)
    hi[name] = point[name] + h
    lo[name] = point[name] - h
    return (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2.0 * h)
