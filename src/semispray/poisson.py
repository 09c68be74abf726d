"""The bracket family on the total space and its dynamical predicates.

The bracket coefficients are, in adapted coordinates,

    {x^i, x^j} = 0
    {x^i, y^k} = -rho^i_r M^{rk}
    {y^k, y^l} = -M^{kr} N_{rs} M^{sl}

and the Hamiltonian vector field convention is ``X_G(h) = {G, h}``, which is
the convention reproducing the known semispray displays on the tangent
fixtures (pinned by the acceptance suite).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from . import expr as ex
from . import linalg
from .algebroid import AlgebroidChart
from .lagrangian import LagrangianData
from .report import ValidationReport


@dataclass
class VectorFieldOnA:
    """Vector field on the total space in adapted components."""

    chart: AlgebroidChart
    vx: List[ex.Expr]
    vy: List[ex.Expr]

    def components(self) -> List[ex.Expr]:
        return list(self.vx) + list(self.vy)


class PoissonBivector:
    """Coefficient matrices of the bracket in adapted coordinates; the
    base-base block is identically zero."""

    def __init__(self, chart: AlgebroidChart, pxy: linalg.Matrix, pyy: linalg.Matrix):
        self.chart = chart
        self.pxy = pxy  # n x r, entries {x^i, y^k}
        self.pyy = pyy  # r x r, entries {y^k, y^l}

    def coordinate_names(self) -> List[str]:
        return list(self.chart.coords) + list(self.chart.fibers)

    def coefficient(self, a: int, b: int) -> ex.Expr:
        """Bracket of the a-th and b-th coordinate in the combined ordering
        (base coordinates first)."""
        n = self.chart.n
        if a < n and b < n:
            return ex.ZERO
        if a < n <= b:
            return self.pxy[a][b - n]
        if b < n <= a:
            return ex.eneg(self.pxy[b][a - n])
        return self.pyy[a - n][b - n]


def build_bracket(chart: AlgebroidChart, data: LagrangianData,
                  n_matrix: linalg.Matrix) -> PoissonBivector:
    """Assemble the bracket coefficient matrices from the Hessian inverse and
    the twisted skew matrix ``N`` (see :func:`~semispray.twoform.assemble_N`)."""
    if data.Minv is None:
        raise ValueError("building the bracket symbolically needs the exact Hessian inverse")
    minv = data.Minv
    pxy = [[ex.eneg(v) for v in row] for row in linalg.mat_mul(chart.rho, minv)]
    mnm = linalg.mat_mul(linalg.mat_mul(minv, n_matrix), minv)
    pyy = [[ex.eneg(v) for v in row] for row in mnm]
    return PoissonBivector(chart, pxy, pyy)


def bracket(p: PoissonBivector, f: ex.Expr, g: ex.Expr) -> ex.Expr:
    """Bilinear Leibniz extension ``sum P^{ab} da(F) db(G)`` over all
    coordinate pairs."""
    names = p.coordinate_names()
    df = [ex.diff(f, nm) for nm in names]
    dg = [ex.diff(g, nm) for nm in names]
    pieces = []
    for a in range(len(names)):
        if ex.is_zero_literal(df[a]):
            continue
        for b in range(len(names)):
            if a == b or ex.is_zero_literal(dg[b]):
                continue
            coeff = p.coefficient(a, b)
            if ex.is_zero_literal(coeff):
                continue
            pieces.append(ex.emul(coeff, df[a], dg[b]))
    return ex.eadd(*pieces)


def check_jacobi(p: PoissonBivector, box: ex.Box = None, trials: int = 64,
                 tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Tag the Jacobiator of every coordinate triple."""
    names = p.coordinate_names()
    v = [ex.Var(nm) for nm in names]
    return ex.certify("jacobi", ((f"({names[a]},{names[b]},{names[c]})",
                                  ex.eadd(bracket(p, v[a], bracket(p, v[b], v[c])),
                                          bracket(p, v[b], bracket(p, v[c], v[a])),
                                          bracket(p, v[c], bracket(p, v[a], v[b]))))
                                 for a, b, c in itertools.combinations(range(len(names)), 3)),
                      box, trials, tol, seed)


def hamiltonian_field(p: PoissonBivector, g: ex.Expr) -> VectorFieldOnA:
    """Hamiltonian vector field of ``g``: component a is ``{g, coordinate_a}``."""
    chart = p.chart
    vx = [bracket(p, g, ex.Var(nm)) for nm in chart.coords]
    vy = [bracket(p, g, ex.Var(nm)) for nm in chart.fibers]
    return VectorFieldOnA(chart, vx, vy)


def is_semispray(chart: AlgebroidChart, field: VectorFieldOnA, box: ex.Box = None,
                 trials: int = 64, tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals ``Vx^i - y^j rho^i_j`` of the base-projection condition."""
    expected = linalg.mat_vec(chart.rho, [ex.Var(nm) for nm in chart.fibers])
    return ex.certify("semispray", ((f"d/d{chart.coords[i]}",
                                     ex.eadd(field.vx[i], ex.eneg(expected[i])))
                                    for i in range(chart.n)),
                      box, trials, tol, seed)


def is_spray(field: VectorFieldOnA, box: ex.Box = None, trials: int = 64,
             tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals of ``[E, V] - V`` against the fiber dilation field
    ``E = y^k d/dy^k``: base components must be fiberwise homogeneous of
    degree 1 and fiber components of degree 2."""
    chart = field.chart

    def euler_degree(component: ex.Expr, degree: int) -> ex.Expr:
        radial = ex.eadd(*(ex.emul(ex.Var(nm), ex.diff(component, nm)) for nm in chart.fibers))
        return ex.eadd(radial, ex.emul(ex.Const(-degree), component))

    legs = [(name, component, 1) for name, component in zip(chart.coords, field.vx)]
    legs += [(name, component, 2) for name, component in zip(chart.fibers, field.vy)]
    return ex.certify("spray", ((f"d/d{name}", euler_degree(component, degree))
                                for name, component, degree in legs),
                      box, trials, tol, seed)
