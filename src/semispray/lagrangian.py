"""Derived data of a regular Lagrangian on an algebroid chart.

``build`` computes the fiber Hessian ``M``, its exact inverse (adjugate over
determinant, ranks up to 4; above that ``Minv`` is None, and ``integrate``
needs none, since it solves with ``M`` pointwise), the fiber derivative
coefficients, and the energy function ``E_L = y^k dL/dy^k - L``.
A singular Hessian is always an error.  Regularity is certified on a sample
box, never globally: the probe set is the uniform sample plus the box center
and the fiber origin, so Hessians degenerating on the zero section are
caught deterministically.
"""

from __future__ import annotations

import random
from typing import List, Optional

from . import expr as ex
from . import linalg
from .algebroid import AlgebroidChart
from .errors import SingularHessian

SYMBOLIC_INVERSE_MAX_RANK = 4


class LagrangianData:
    def __init__(self, chart: AlgebroidChart, lagrangian: ex.Expr,
                 hessian: linalg.Matrix, hessian_inv: Optional[linalg.Matrix],
                 fiber_derivative: List[ex.Expr], energy: ex.Expr,
                 hessian_det: ex.Expr):
        self.chart = chart
        self.L = lagrangian
        self.M = hessian
        self.Minv = hessian_inv
        self.thetaL = fiber_derivative
        self.EL = energy
        self.detM = hessian_det

    def __repr__(self):
        return f"<LagrangianData {self.chart.name or 'chart'} r={self.chart.r}>"


def probe_determinant(chart: AlgebroidChart, det: ex.Expr, box: ex.Box,
                      trials: int, tol: float, seed: int,
                      params: dict) -> Optional[dict]:
    """Return a witness environment where ``|det| <= tol``, or None.

    The probe set is the box center, the same point moved to the fiber
    origin, and ``trials`` uniform samples; points where ``det`` leaves the
    real domain are skipped."""
    rng = random.Random(seed)
    program = ex.Program([det])
    names = sorted({name for _, name in program.reads} - set(params))
    probes = []
    center = box.center(chart.alphabet)
    probes.append({n: center[n] for n in names})
    origin = dict(probes[0])
    for fiber in chart.fibers:
        if fiber in origin:
            origin[fiber] = 0.0
    probes.append(origin)
    for _ in range(trials):
        probes.append(box.sample(names, rng))
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
    """Derive Hessian, inverse, fiber derivative, and energy from ``L``.

    ``lagrangian`` is source text or a canonical tree (:func:`expr.simplify`
    is for a raw-node one).

    The Hessian determinant must stay away from zero on the probe set of
    :func:`probe_determinant`, else :class:`SingularHessian` carries the
    witness point.  The Hessian inverse is exact for ranks up to
    ``SYMBOLIC_INVERSE_MAX_RANK`` and None above it.
    """
    if isinstance(lagrangian, str):
        lagrangian = chart.parse(lagrangian)

    fibers = chart.fibers
    theta = [ex.diff(lagrangian, nm) for nm in fibers]
    hessian = [[ex.diff(theta[i], fibers[j]) for j in range(chart.r)] for i in range(chart.r)]
    energy = ex.eadd(*(ex.emul(ex.Var(nm), theta[k]) for k, nm in enumerate(fibers)),
                     ex.eneg(lagrangian))
    det = linalg.det(hessian)

    if ex.is_zero_literal(det):
        witness = {"detM": 0.0}
    else:
        witness = probe_determinant(chart, det, box or ex.Box(), trials, tol, seed,
                                    dict(params or {}))
    if witness is not None:
        raise SingularHessian(witness)

    inverse = None
    if chart.r <= SYMBOLIC_INVERSE_MAX_RANK:
        inverse = linalg.inverse(hessian, det)
    return LagrangianData(chart, lagrangian, hessian, inverse, theta, energy, det)
