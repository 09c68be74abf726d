"""Calculus on the prolongation of an algebroid chart.

The prolongation of a rank-r chart over an n-dimensional base is itself a
Lie algebroid of rank 2r over the total space, with local frame
``{E_1..E_r, U_1..U_r}``:

* anchor:   ``E_j -> rho^i_j d/dx^i``,  ``U_k -> d/dy^k``
* brackets: ``[E_i, E_j] = C^k_{ij} E_k``, all brackets involving a vertical
  frame section vanish.

:func:`~semispray.algebroid.prolong_chart` models it as an
:class:`~semispray.algebroid.AlgebroidChart` over the coordinates ``(x, y)``
that holds these relations, so a form on the prolongation is a plain
:class:`~semispray.algebroid.AForm` over it, and its differential is the
prolonged chart's Koszul differential.  Indices ``0..r-1`` of the
prolongation frame are the ``E`` sections, ``r..2r-1`` the vertical ``U``
sections: a 2-form's frame-frame, (vertical, frame) and vertical-vertical
blocks are read with ``get`` at ``(i, j)``, ``(r+i, j)`` and ``(r+i, r+j)``,
and a coefficient's bidegree is read off its key.  On top of it: the Cartan
sections of a Lagrangian, the bidegree split of the differential, the
decomposition of 2-sections vanishing on vertical pairs, and the consistency
suite behind ``check prolongation``, which solves for the Hamiltonian sections
at points.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from . import expr as ex
from . import linalg, poisson, twoform
from .algebroid import AForm, prolong_chart
from .errors import DegreeError, NotClosed, NotVerticalVanishing
from .homotopy import bigrade, dprime_primitive, is_fiber_integral
from .lagrangian import LagrangianData
from .report import ValidationReport


# ---------------------------------------------------------------------------
# Cartan sections


def cartan_sections(data: LagrangianData) -> Tuple[AForm, AForm]:
    """The horizontal 1-section with fiber-derivative coefficients and its
    differential, the fundamental 2-section of the Lagrangian."""
    pchart = prolong_chart(data.chart)
    theta = AForm(pchart, 1, {(j,): value for j, value in enumerate(data.thetaL)})
    return theta, pchart.d(theta)


# ---------------------------------------------------------------------------
# Bigrading


def d_split(form: AForm) -> Tuple[AForm, AForm, AForm]:
    """Split the differential by bidegree: the (1,0), (0,1), and (2,-1)
    parts.  Their sum is the plain differential."""
    zero = AForm(form.chart, form.degree + 1, {})
    parts = {(1, 0): zero, (0, 1): zero, (2, -1): zero}
    for (p, q), block in bigrade(form).items():
        for (dp, dq), piece in bigrade(form.chart.d(block)).items():
            shift = (dp - p, dq - q)
            if shift not in parts:  # pragma: no cover - excluded by the bigrading algebra
                raise AssertionError(f"unexpected bidegree ({dp},{dq}) in d of ({p},{q})")
            parts[shift] += piece
    return parts[(1, 0)], parts[(0, 1)], parts[(2, -1)]


# ---------------------------------------------------------------------------
# Structure of 2-sections vanishing on vertical pairs


def decompose_symplectic(omega: AForm, box: ex.Box = None, trials: int = 32,
                         tol: float = 1e-9, seed: int = 0) -> Tuple[AForm, AForm]:
    """Split a closed 2-section vanishing on vertical pairs as a closed
    horizontal part plus an exact part, ``omega = Theta + d(zeta)``.

    ``zeta`` is horizontal and obtained from the mixed bidegree block by the
    constructive vertical primitive; ``Theta`` is the frame-frame block minus
    the (1,0)-part of ``d(zeta)`` and is certified closed.  A ``zeta`` with a
    fiber integral among its coefficients raises ``ValueError``.
    """
    pchart = omega.chart
    if omega.degree != 2:
        raise DegreeError("decomposition expects a degree-2 section")
    r = pchart.base.r
    for i in range(r):
        for j in range(i + 1, r):
            result = ex.is_zero(omega.get((r + i, r + j)), box=box, trials=trials, tol=tol, seed=seed)
            if not result.is_zero:
                raise NotVerticalVanishing(f"vertical-vertical block ({i + 1},{j + 1}) is nonzero")

    for tup, value in pchart.d(omega).coeffs.items():
        result = ex.is_zero(value, box=box, trials=trials, tol=tol, seed=seed)
        if not result.is_zero:
            raise NotClosed(f"d(omega) has nonzero coefficient at {tup}")

    blocks = bigrade(omega)
    mixed = blocks.get((1, 1))
    if mixed is None:
        zeta = AForm(pchart, 1, {})
    else:
        zeta = dprime_primitive(mixed, box=box, trials=trials, tol=tol, seed=seed)
    if any(is_fiber_integral(value) for value in zeta.coeffs.values()):
        raise ValueError("cannot rebuild a form from quadrature coefficients")
    d_prime_zeta, _, _ = d_split(zeta)
    theta = blocks.get((2, 0), AForm(pchart, 2, {})) - d_prime_zeta

    for tup, value in pchart.d(theta).coeffs.items():
        result = ex.is_zero(value, box=box, trials=trials, tol=tol, seed=seed)
        if not result.is_zero:
            raise NotClosed(f"recovered horizontal part is not closed at {tup}")
    return theta, zeta


# ---------------------------------------------------------------------------
# Cross-module consistency suite (CLI `check prolongation`)


def _coupled(m: linalg.Matrix) -> List[set]:
    """``blocks[j]``: the indices that entries of ``m`` other than the literal
    0 join to ``j``, so that ``m`` and its inverse are block diagonal by them."""
    blocks = [{j} for j in range(len(m))]
    for i, j in itertools.combinations(range(len(m)), 2):
        if not (ex.is_zero_literal(m[i][j]) and ex.is_zero_literal(m[j][i])):
            merged = blocks[i] | blocks[j]
            for k in merged:
                blocks[k] = merged
    return blocks


class _SectionResiduals:
    """The items of :func:`consistency_suite`: their labels, which are
    proven, and their values from one :class:`~semispray.expr.Program`."""

    def __init__(self, data: LagrangianData, theta: Optional[AForm],
                 base_potential: Optional[ex.Expr]):
        chart = data.chart
        n, r = self.n, self.r = chart.n, chart.r
        _, omega = cartan_sections(data)
        m_w = [[omega.get((r + i, j)) for j in range(r)] for i in range(r)]
        w = [[omega.get((i, j)) for j in range(r)] for i in range(r)]
        twist = twoform.assemble_N(data, chart, None if theta is None
                                   else twoform.ThetaSection(theta))
        horizontal = [[ex.ZERO if theta is None else theta.get((i, j)) for j in range(r)]
                      for i in range(r)]
        f = ex.ZERO if base_potential is None else ex.as_expr(base_potential)
        field = poisson.FactoredField(chart, data.M, twist, ex.eadd(data.EL, f))
        _, dgx, dgy, self.solved = field.gradient()
        fibers = [ex.Var(name) for name in chart.fibers]
        dey = [ex.diff(data.EL, name) for name in chart.fibers]

        linear = [d == v for d, v in zip(dey, linalg.mat_vec(m_w, fibers))]
        second_order = [all(linear[k] for k in block) for block in _coupled(m_w)]
        self.sode = all(second_order)
        pairs = list(itertools.product(range(r), repeat=2))
        blocks = [(m_w[i][j] == data.M[i][j], ex.eadd(w[i][j], horizontal[i][j]) == twist[i][j])
                  for i, j in pairs]
        anchored = all(pair[0] for pair in blocks) and dgy == dey
        vertical = (anchored and all(pair[1] for pair in blocks)
                    and all(data.M[i][j] == data.M[j][i] for i, j in pairs)
                    and (theta is None or not theta.coeffs or (self.sode and self.solved)))
        label = "energy-section" if theta is None and base_potential is None \
            else "corrected-section"
        self.labels = ([f"E-component {j + 1}" for j in range(r)]
                       + [f"fundamental-block {b}[{i + 1},{j + 1}]"
                          for i, j in pairs for b in "MN"]
                       + [f"{label} anchor d/d{name}" for name in chart.coords + chart.fibers])
        self.proven = (second_order + [p for pair in blocks for p in pair]
                       + [anchored] * n + [vertical] * r)
        self.outputs = ([v for block in (m_w, data.M, w, twist, horizontal, chart.rho)
                         for row in block for v in row]
                        + dgx + dgy + dey + [ex.diff(f, name) for name in chart.coords]
                        + fibers)

    def values(self, jets: list, field) -> list:
        """Every item's value from the jets of ``Program(self.outputs)``, in
        ``field``; a zero pivot raises :class:`~semispray.expr.DomainError`."""
        n, r, total = self.n, self.r, field.sum
        values = iter([v for v, _ in jets])

        def take(count: int) -> list:
            return [next(values) for _ in range(count)]

        m_w, m, w, twist, theta = [[take(r) for _ in range(r)] for _ in range(5)]
        rho = [take(r) for _ in range(n)]
        dgx, dgy, dey, dfx, y = take(n), take(r), take(r), take(n), take(r)

        a = y if self.sode else linalg.solver(m_w, field)(dey)
        b = linalg.solver(linalg.transpose(m_w), field)(  # dE_L/dx = dG/dx - df/dx
            [total([rho[i][j] * (dfx[i] - dgx[i]) for i in range(n)]
                   + [-a[i] * w[i][j] for i in range(r)]) for j in range(r)])
        solve = linalg.solver(m, field)
        z = solve([total([-rho[i][j] * dfx[i] for i in range(n)]
                         + [-y[i] * theta[i][j] for i in range(r)]) for j in range(r)])
        u = y if self.solved else solve(dgy)
        xy = solve([total([twist[k][l] * u[l] for l in range(r)]
                          + [-rho[i][k] * dgx[i] for i in range(n)]) for k in range(r)])
        return ([total([a[j], -y[j]]) for j in range(r)]
                + [total(terms) for i, j in itertools.product(range(r), repeat=2)
                   for terms in ([m_w[i][j], -m[i][j]], [w[i][j], -twist[i][j], theta[i][j]])]
                + [total([rho[i][k] * (a[k] - u[k]) for k in range(r)]) for i in range(n)]
                + [total([b[k], z[k], -xy[k]]) for k in range(r)])


def consistency_suite(data: LagrangianData, theta: Optional[AForm] = None,
                      base_potential: Optional[ex.Expr] = None, box: ex.Box = None,
                      trials: int = 32, tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """End-to-end checks tying the prolongation picture to the bracket,
    decided by :func:`~semispray.expr.decide` with no inverse, bracket
    or field tree, at any rank.  Two blocks are read off the symbolic
    ``omega_L = d(theta_L)`` on the prolonged chart: ``M_w`` at
    ``(r+i, j)`` and ``W`` at ``(i, j)``.  At a point, the energy
    Hamiltonian section ``a^j E_j + b^k U_k`` of ``omega_L``, the vertical
    correction ``z^k U_k`` for the twist ``Theta`` and the potential ``f``,
    and the factored field of ``G = E_L + f`` solve ``M_w a = dE_L/dy``,
    ``M_w^T b = -rho^T dE_L/dx - W^T a``, ``M z = -rho^T df/dx - Theta^T y``,
    ``M u = dG/dy`` and ``M X_y = N u - rho^T dG/dx``, with ``M`` the fiber
    Hessian and ``N = d(theta_L) + Theta``.  The items are ``a - y``,
    ``M_w - M``, ``W - (N - Theta)``, and the anchor of ``sigma + Z``
    against the field: ``rho (a - u)`` and ``b + z - X_y``.  Proven:

    * ``E-component j`` when ``dE_L/dy^k`` is ``(M_w y)_k`` term for term
      for every ``k`` that ``M_w`` couples to ``j`` (:func:`_coupled`):
      then ``a_j - y_j = (M_w^-1 (dE_L/dy - M_w y))_j = 0``;
    * a block entry when ``M_w`` and ``M``, or ``W + Theta`` and ``N``,
      are the same expression there;
    * the base anchor items when every ``M`` entry is, and ``dG/dy`` is
      ``dE_L/dy``: then ``a = u``;
    * the fiber anchor items when also every ``N`` entry is and ``M`` is
      literally symmetric.  Then ``M_w^T = M`` and ``W^T = Theta - N``
      give ``M b = -rho^T dE_L/dx + (N - Theta) u``, and as
      ``dG/dx = dE_L/dx + df/dx``,
      ``M (b + z - X_y) = -Theta u - Theta^T y = Theta (y - u)``.  So
      ``b + z - X_y = M^-1 Theta (y - u)``, which is 0 when ``Theta`` is
      absent, or when the E-components are proven and ``dG/dy`` is
      ``M y`` term for term (``solved`` of
      :meth:`~semispray.poisson.FactoredField.gradient`): then ``u = y``.
    """
    residuals = _SectionResiduals(data, theta, base_potential)
    return ex.decide("prolongation", residuals.labels, residuals.proven,
                     residuals.outputs, [], residuals.values, box, trials, tol, seed)
