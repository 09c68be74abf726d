"""Closed 2-sections and the skew matrix ``N`` they twist.

The closed 2-section ``Theta`` is the free parameter of the bracket family;
it is always user-supplied (or read off a catalog fixture) and checked,
never synthesized.  Its closedness residuals and ``N = d(theta_L) + Theta``
are both read off the chart's Koszul differential.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Tuple

from . import expr as ex
from . import linalg
from .algebroid import AForm, AlgebroidChart
from .lagrangian import LagrangianData
from .report import ValidationReport


class ThetaSection:
    """A degree-2 form on the chart, skew by storage, meant to be closed."""

    def __init__(self, form: AForm):
        if form.degree != 2:
            raise ValueError("a closed 2-section must have degree 2")
        self.form = form
        self.chart = form.chart

    @classmethod
    def zero(cls, chart: AlgebroidChart) -> "ThetaSection":
        return cls(AForm(chart, 2, {}))

    @classmethod
    def from_components(cls, chart: AlgebroidChart,
                        components: Mapping[Tuple[int, int], ex.Expr]) -> "ThetaSection":
        return cls(AForm(chart, 2, components))

    def coefficient(self, i: int, j: int) -> ex.Expr:
        return self.form.get((i, j))

    def closedness_residuals(self):
        """Yield ``(label, residual)`` per index triple ``i < j < k``: the
        coefficient ``(i, j, k)`` of the Koszul differential ``d(Theta)``."""
        d_theta = self.chart.d(self.form)
        for i, j, k in itertools.combinations(range(self.chart.r), 3):
            yield f"(i,j,k)=({i + 1},{j + 1},{k + 1})", d_theta.get((i, j, k))

    def check_closed(self, box: ex.Box = None, trials: int = 64,
                     tol: float = 1e-9, seed: int = 0) -> ValidationReport:
        """Tag every cyclic closedness residual with the zero test."""
        return ex.certify("theta-closed", self.closedness_residuals(), box, trials, tol, seed)


def assemble_N(data: LagrangianData, chart: AlgebroidChart,
               theta: Optional[ThetaSection] = None) -> linalg.Matrix:
    """The skew ``r x r`` matrix ``N = d(theta_L) + Theta``, where
    ``theta_L`` is the 1-form ``dL/dy^k``:
    ``N_{ij} = rho_i(dL/dy^j) - rho_j(dL/dy^i) - dL/dy^k C^k_{ij} + Theta_{ij}``."""
    if data.chart is not chart:
        raise ValueError("Lagrangian data belongs to a different chart")
    d_theta_l = chart.d(AForm(chart, 1, {(k,): v for k, v in enumerate(data.thetaL)}))
    n = [[ex.ZERO] * chart.r for _ in range(chart.r)]
    for i, j in itertools.combinations(range(chart.r), 2):
        value = d_theta_l.get((i, j))
        if theta is not None:
            value = ex.eadd(value, theta.coefficient(i, j))
        n[i][j], n[j][i] = value, ex.eneg(value)
    return n
