"""Shared test utilities: random raw expression trees, finite differences,
and zero-assertion helpers."""

import random
from fractions import Fraction

from semispray import expr as ex
from semispray.report import ZeroStatus

COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-1, 3), Fraction(3), Fraction(-2), Fraction(1, 4)]


def random_raw_tree(rng: random.Random, names, depth=3, allow_funcs=True):
    """A raw (not canonicalized) expression tree exercising every node kind."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ex.Const(rng.choice(COEFFS))
        return ex.Var(rng.choice(list(names)))
    kind = rng.randrange(6 if allow_funcs else 5)
    if kind == 0:
        return ex.Add(tuple(random_raw_tree(rng, names, depth - 1, allow_funcs)
                            for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return ex.Mul(tuple(random_raw_tree(rng, names, depth - 1, allow_funcs)
                            for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return ex.Pow(random_raw_tree(rng, names, depth - 1, allow_funcs),
                      Fraction(rng.choice([2, 3, -1, Fraction(1, 2)])))
    if kind == 3:
        return ex.Mul((ex.MINUS_ONE, random_raw_tree(rng, names, depth - 1, allow_funcs)))
    if kind == 4:
        den = ex.Add((ex.Const(Fraction(2)),
                      ex.Pow(ex.Var(rng.choice(list(names))), Fraction(2))))
        return ex.Div(random_raw_tree(rng, names, depth - 1, allow_funcs), den)
    return ex.Func(rng.choice(["sin", "cos", "exp"]),
                   random_raw_tree(rng, names, depth - 1, allow_funcs=False))


def random_polynomial(rng: random.Random, names, max_degree=3, terms=3):
    pieces = []
    for _ in range(terms):
        factors = [ex.Const(rng.choice(COEFFS))]
        for _ in range(rng.randint(0, max_degree)):
            factors.append(ex.Var(rng.choice(list(names))))
        pieces.append(ex.emul(*factors))
    return ex.eadd(*pieces)


def central_difference(e, name, env, step=1e-6):
    lo = dict(env)
    hi = dict(env)
    lo[name] -= step
    hi[name] += step
    return (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2.0 * step)


def assert_proven_zero(e):
    simplified = ex.simplify(e)
    assert ex.is_zero_literal(simplified), f"expected literal zero, got {ex.to_text(simplified)}"


def assert_certified_zero(e, tol=1e-9, seed=0, box=None, trials=64):
    result = ex.is_zero(e, box=box, trials=trials, tol=tol, seed=seed)
    assert result.status is not ZeroStatus.NONZERO, (
        f"nonzero: |{result.witness_value}| at {result.witness}")
    return result
