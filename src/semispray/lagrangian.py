"""Derived data of a regular Lagrangian on an algebroid chart.

``build`` computes the fiber Hessian ``M`` and the fiber derivative
coefficients.  The energy function ``E_L = y^k dL/dy^k - L`` is formed on
first read (``validate`` and ``bracket`` never read it), and so is the exact
inverse ``Minv`` (adjugate over determinant, ranks up to 4; above that None):
only the symbolic bracket reads it.  ``integrate`` and every check solve
with ``M`` pointwise.
A singular Hessian is always an error.  Regularity is certified on a sample
box, never globally: the probe set is the uniform sample plus the box center
and the fiber origin, so Hessians degenerating on the zero section are
caught deterministically.  A determinant that reads no sampled name has
the same value at every probe point, so it is probed once, at the center.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional

from . import expr as ex
from . import linalg
from .algebroid import AlgebroidChart
from .errors import SingularHessian

SYMBOLIC_INVERSE_MAX_RANK = 4


class LagrangianData:
    def __init__(self, chart: AlgebroidChart, lagrangian: ex.Expr,
                 hessian: linalg.Matrix, fiber_derivative: List[ex.Expr],
                 hessian_det: ex.Expr):
        self.chart = chart
        self.L = lagrangian
        self.M = hessian
        self.thetaL = fiber_derivative
        self.detM = hessian_det

    @functools.cached_property
    def EL(self) -> ex.Expr:
        """The energy ``E_L = y^k dL/dy^k - L``."""
        return ex.eadd(*(ex.emul(ex.Var(nm), self.thetaL[k])
                         for k, nm in enumerate(self.chart.fibers)), ex.eneg(self.L))

    @functools.cached_property
    def Minv(self) -> Optional[linalg.Matrix]:
        """The exact Hessian inverse, or None above ``SYMBOLIC_INVERSE_MAX_RANK``."""
        if self.chart.r > SYMBOLIC_INVERSE_MAX_RANK:
            return None
        return linalg.inverse(self.M, self.detM)

    def __repr__(self):
        return f"<LagrangianData {self.chart.name or 'chart'} r={self.chart.r}>"


def probe_determinant(chart: AlgebroidChart, det: ex.Expr, box: ex.Box,
                      trials: int, tol: float, seed: int,
                      params: dict) -> Optional[dict]:
    """Return a witness environment where ``|det| <= tol``, or None.

    The probe set is the box center, the same point moved to the fiber
    origin, and ``trials`` uniform samples; points where ``det`` leaves the
    real domain are skipped.  A ``det`` that reads no name outside
    ``params`` is the same at every point, so only the center is probed."""
    program = ex.Program([det])
    names = sorted({name for _, name in program.reads} - set(params))
    center = box.center(chart.alphabet)
    probes = [{n: center[n] for n in names}]
    if names:
        probes.append({n: 0.0 if n in chart.fibers else v for n, v in probes[0].items()})
        rng, spans = random.Random(seed), box.spans(names)
        probes += (box.draw(spans, rng) for _ in range(trials))
    for env in probes:
        env = dict(env)
        env.update(params)
        try:
            value = program.value(env)
        except ex.DomainError:
            continue
        if abs(value) <= tol:
            return {k: env[k] for k in sorted(env)}
    return None


def build(lagrangian, chart: AlgebroidChart, box: ex.Box = None, trials: int = 64,
          tol: float = 1e-9, seed: int = 0, params: dict = None) -> LagrangianData:
    """Derive Hessian and fiber derivative from ``L``; the energy ``EL`` is
    formed on first read.

    ``lagrangian`` is source text or a canonical tree (:func:`expr.simplify`
    is for a raw-node one).

    The Hessian determinant must stay away from zero on the probe set of
    :func:`probe_determinant`, else :class:`SingularHessian` carries the
    witness point.  A determinant free of sampled names (a constant Hessian)
    is probed at the center alone.  The Hessian inverse ``Minv`` is built on
    first use, exact for ranks up to ``SYMBOLIC_INVERSE_MAX_RANK`` and None
    above it.
    """
    if isinstance(lagrangian, str):
        lagrangian = chart.parse(lagrangian)

    fibers = chart.fibers
    theta = [ex.diff(lagrangian, nm) for nm in fibers]
    hessian = [[ex.diff(theta[i], fibers[j]) for j in range(chart.r)] for i in range(chart.r)]
    det = linalg.det(hessian)

    if ex.is_zero_literal(det):
        witness = {"detM": 0.0}
    else:
        witness = probe_determinant(chart, det, box or ex.Box(), trials, tol, seed,
                                    dict(params or {}))
    if witness is not None:
        raise SingularHessian(witness)

    return LagrangianData(chart, lagrangian, hessian, theta, det)
