"""Derived data of a regular Lagrangian on an algebroid chart.

``build`` computes the fiber Hessian ``M``, its exact inverse (adjugate over
determinant, ranks up to 4), the fiber derivative coefficients, and the
energy function ``E_L = y^k dL/dy^k - L``.  Regularity is certified on a
sample box, never globally: the probe set is the uniform sample plus the box
center and the fiber origin, so Hessians degenerating on the zero section are
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
                 hessian_det: ex.Expr, mode: str, regular: bool,
                 singular_witness: Optional[dict]):
        self.chart = chart
        self.L = lagrangian
        self.M = hessian
        self.Minv = hessian_inv
        self.thetaL = fiber_derivative
        self.EL = energy
        self.detM = hessian_det
        self.mode = mode
        self.regular = regular
        self.singular_witness = singular_witness

    def minv_at(self, env: dict) -> List[List[float]]:
        """Numeric Hessian inverse at a point (pointwise mode and oracles)."""
        m = linalg.eval_matrix(self.M, env)
        n = len(m)
        units = [[1.0 if i == j else 0.0 for i in range(n)] for j in range(n)]
        return linalg.transpose(linalg.solve(m, units))

    def __repr__(self):
        return f"<LagrangianData {self.chart.name or 'chart'} r={self.chart.r} mode={self.mode}>"


def probe_determinant(chart: AlgebroidChart, det: ex.Expr, box: ex.Box,
                      trials: int, tol: float, seed: int,
                      params: dict) -> Optional[dict]:
    """Return a witness environment where ``|det| <= tol``, or None.

    The probe set is the box center, the same point moved to the fiber
    origin, and ``trials`` uniform samples; points where ``det`` leaves the
    real domain are skipped."""
    rng = random.Random(seed)
    names = sorted(ex.free_symbols(det) - set(params))
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
            value = ex.evaluate(det, env)
        except ex.DomainError:
            continue
        if abs(value) <= tol:
            return {k: env[k] for k in sorted(env)}
    return None


def build(lagrangian, chart: AlgebroidChart, mode: str = "symbolic",
          box: ex.Box = None, trials: int = 64, tol: float = 1e-9,
          seed: int = 0, params: dict = None, strict: bool = True) -> LagrangianData:
    """Derive Hessian, inverse, fiber derivative, and energy from ``L``.

    In ``symbolic`` mode the Hessian inverse is exact (rank <= 4); in
    ``pointwise`` mode it is left to per-point factorization.  With
    ``strict`` the Hessian determinant must stay away from zero on the probe
    set, else :class:`SingularHessian` carries the witness point.
    """
    if mode not in ("symbolic", "pointwise"):
        raise ValueError("mode must be 'symbolic' or 'pointwise'")
    if isinstance(lagrangian, str):
        lagrangian = chart.parse(lagrangian)
    lagrangian = ex.simplify(lagrangian)

    fibers = chart.fibers
    theta = [ex.diff(lagrangian, nm) for nm in fibers]
    hessian = [[ex.diff(theta[i], fibers[j]) for j in range(chart.r)] for i in range(chart.r)]
    energy = ex.eadd(*(ex.emul(ex.Var(nm), theta[k]) for k, nm in enumerate(fibers)),
                     ex.eneg(lagrangian))
    det = ex.simplify(linalg.det(hessian))

    box = box or ex.Box()
    params = dict(params or {})
    if ex.is_zero_literal(det):
        witness = {"detM": 0.0}
    else:
        witness = probe_determinant(chart, det, box, trials, tol, seed, params)
    regular = witness is None
    if strict and not regular:
        raise SingularHessian(witness)

    inverse = None
    if mode == "symbolic" and regular:
        if chart.r > SYMBOLIC_INVERSE_MAX_RANK:
            mode = "pointwise"
        else:
            inverse = linalg.inverse(hessian, det)
    return LagrangianData(chart, lagrangian, hessian, inverse, theta, energy,
                          det, mode, regular, witness)


def legendre(data: LagrangianData, point: ex.ChartPoint) -> tuple:
    """Fiber derivative of L at a chart point: the covector (dL/dy^k)(p)."""
    env = point.env(data.chart.coords, data.chart.fibers)
    return tuple(ex.evaluate(component, env) for component in data.thetaL)
