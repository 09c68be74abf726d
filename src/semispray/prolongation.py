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
and a coefficient's bidegree is read off its key.  On top of it: sections
and their anchor, the interior product, the vertical endomorphism, Cartan
sections, exact Hamiltonian sections, the decomposition of 2-sections
vanishing on vertical pairs, and the consistency suite behind
``check prolongation``.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from . import expr as ex
from . import linalg
from .algebroid import AForm, AlgebroidChart, prolong_chart
from .errors import DegenerateForm, DegreeError, NotClosed, NotVerticalVanishing
from .homotopy import bigrade, dprime_primitive, is_fiber_integral
from .lagrangian import LagrangianData, probe_determinant
from .poisson import VectorFieldOnA
from .report import ValidationReport


class ProlongSection:
    """Section of the prolongation: ``a^j E_j + b^k U_k`` with coefficients
    on the total space."""

    def __init__(self, chart: AlgebroidChart, a: Sequence[ex.Expr], b: Sequence[ex.Expr]):
        if len(a) != chart.r or len(b) != chart.r:
            raise ValueError("component counts must equal the chart rank")
        self.chart = chart
        self.a = [ex.as_expr(v) for v in a]
        self.b = [ex.as_expr(v) for v in b]

    def coefficients(self) -> List[ex.Expr]:
        return list(self.a) + list(self.b)

    def __add__(self, other: "ProlongSection") -> "ProlongSection":
        return ProlongSection(self.chart,
                              [ex.eadd(p, q) for p, q in zip(self.a, other.a)],
                              [ex.eadd(p, q) for p, q in zip(self.b, other.b)])

    def __repr__(self):
        a = ", ".join(ex.to_text(v) for v in self.a)
        b = ", ".join(ex.to_text(v) for v in self.b)
        return f"<ProlongSection E:({a}) U:({b})>"


def liouville(chart: AlgebroidChart) -> ProlongSection:
    """The fiber-radial vertical section; its anchor image is the fiber
    dilation field."""
    return ProlongSection(chart, [ex.ZERO] * chart.r,
                          [ex.Var(nm) for nm in chart.fibers])


def anchor(section: ProlongSection) -> VectorFieldOnA:
    """Project to the vector field on the total space:
    ``Vx^i = a^j rho^i_j``, ``Vy^k = b^k``."""
    chart = section.chart
    return VectorFieldOnA(chart, linalg.mat_vec(chart.rho, section.a), list(section.b))


def insert_section(form: AForm, section: ProlongSection) -> AForm:
    """Interior product ``i_S F`` of a form on the prolongation."""
    if form.degree == 0:
        raise DegreeError("cannot insert into a degree-0 form")
    size = form.chart.r
    s = section.coefficients()
    coeffs = {}
    for rest in itertools.combinations(range(size), form.degree - 1):
        coeffs[rest] = ex.eadd(*(ex.emul(s[a], form.get((a,) + rest))
                                 for a in range(size) if not ex.is_zero_literal(s[a])))
    return AForm(form.chart, form.degree - 1, coeffs)


# ---------------------------------------------------------------------------
# Vertical endomorphism


def vertical_endomorphism(section: ProlongSection) -> ProlongSection:
    """The square-zero bundle map on sections: ``(a, b) -> (0, a)``."""
    return ProlongSection(section.chart, [ex.ZERO] * section.chart.r, list(section.a))


def j_dual(form: AForm) -> AForm:
    """Degree-zero derivation on forms dual to the vertical endomorphism:
    it annihilates functions and frame covectors and sends a vertical dual
    covector ``U^j`` to ``-E^j``."""
    r = form.chart.base.r
    if form.degree == 0:
        return AForm(form.chart, 0, {})
    coeffs = {}
    for tup in itertools.combinations(range(2 * r), form.degree):
        pieces = []
        for pos, a in enumerate(tup):
            if a < r:  # J maps the frame section E_a to the vertical U_a
                replaced = tup[:pos] + (r + a,) + tup[pos + 1:]
                pieces.append(form.get(replaced))
        if pieces:
            coeffs[tup] = ex.eneg(ex.eadd(*pieces))
    return AForm(form.chart, form.degree, coeffs)


def sode_residuals(section: ProlongSection):
    """Yield ``(label, residual)`` for the second-order condition ``a^j = y^j``."""
    for j, name in enumerate(section.chart.fibers):
        yield f"E-component {j + 1}", ex.eadd(section.a[j], ex.eneg(ex.Var(name)))


def is_sode(section: ProlongSection, box: ex.Box = None, trials: int = 64,
            tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals ``a^j - y^j`` of the second-order condition."""
    return ex.certify("sode", sode_residuals(section), box, trials, tol, seed)


# ---------------------------------------------------------------------------
# Cartan sections and Hamiltonian sections


def cartan_sections(data: LagrangianData) -> Tuple[AForm, AForm]:
    """The horizontal 1-section with fiber-derivative coefficients and its
    differential, the fundamental 2-section of the Lagrangian."""
    pchart = prolong_chart(data.chart)
    theta = AForm(pchart, 1, {(j,): value for j, value in enumerate(data.thetaL)})
    return theta, pchart.d(theta)


def hamiltonian_section(omega: AForm, hamiltonian: ex.Expr,
                        box: ex.Box = None, trials: int = 16, tol: float = 1e-9,
                        seed: int = 0, check: bool = True) -> ProlongSection:
    """The unique section ``s`` with ``i_s omega = -d(hamiltonian)``.

    ``omega`` must vanish on vertical pairs, as ``omega_L + pi*Theta`` does
    by construction; a vertical-vertical coefficient that is not the literal
    0 raises :class:`NotVerticalVanishing`.  The system then decouples, and
    it is solved exactly by inverting the (vertical, frame) block, whose size
    is the rank: a rank above 4 raises ``ValueError``.  Raises
    :class:`DegenerateForm` when the block's determinant vanishes on the
    probe set.
    """
    chart = omega.chart.base
    if omega.degree != 2:
        raise DegreeError("Hamiltonian sections need a degree-2 section")
    r = chart.r
    for i in range(r):
        for j in range(i + 1, r):
            if not ex.is_zero_literal(omega.get((r + i, r + j))):
                raise NotVerticalVanishing(f"vertical-vertical block ({i + 1},{j + 1}) is nonzero")
    if r > 4:
        raise ValueError("symbolic solve supports rank <= 4")
    g = ex.as_expr(hamiltonian)
    dg_e = [chart.anchor_derivative(j, g) for j in range(r)]
    dg_u = [ex.diff(g, nm) for nm in chart.fibers]
    matrix = [[omega.get((r + i, j)) for j in range(r)] for i in range(r)]
    det = linalg.det(matrix)
    if ex.is_zero_literal(det):
        raise DegenerateForm({"det": 0.0})
    if check:
        witness = probe_determinant(chart, det, box or ex.Box(), trials, tol, seed, {})
        if witness is not None:
            raise DegenerateForm(witness)
    inverse = linalg.inverse(matrix, det)
    a = linalg.mat_vec(inverse, dg_u)
    rhs = []
    for j in range(r):
        acc = [ex.eneg(dg_e[j])]
        for i in range(r):
            acc.append(ex.eneg(ex.emul(a[i], omega.get((i, j)))))
        rhs.append(ex.eadd(*acc))
    b = linalg.mat_vec(linalg.transpose(inverse), rhs)
    return ProlongSection(chart, a, b)


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


def pullback_horizontal(theta: AForm) -> AForm:
    """Pull a form on the base algebroid back through the frame projection:
    same coefficients, frame legs only."""
    return AForm(prolong_chart(theta.chart), theta.degree, theta.coeffs)


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


def vertical_correction(data: LagrangianData, horizontal: Optional[AForm],
                        base_potential: Optional[ex.Expr]) -> ProlongSection:
    """The vertical section correcting the energy Hamiltonian section when
    the 2-section is twisted by a closed horizontal part and the Hamiltonian
    by a basic potential.

    Solves ``i_Z omega_L = -d(potential) - i_{sigma} Theta`` for vertical
    ``Z``; with ``sigma`` the energy Hamiltonian section, ``Z + sigma`` is a
    second-order section and a Hamiltonian section of the twisted 2-section:
    ``i_{sigma+Z}(omega_L + Theta) + d(E_L + potential) = 0``.  The result is
    not checked; ``check prolongation`` compares its anchor with the
    bracket-side Hamiltonian field.
    """
    chart = data.chart
    if data.Minv is None:
        raise ValueError("the vertical correction needs the exact Hessian inverse")
    r = chart.r
    f = ex.ZERO if base_potential is None else ex.as_expr(base_potential)
    y = [ex.Var(nm) for nm in chart.fibers]
    rhs = []
    for j in range(r):
        pieces = [ex.eneg(chart.anchor_derivative(j, f))]
        if horizontal is not None:
            for a in range(r):
                pieces.append(ex.eneg(ex.emul(y[a], horizontal.get((a, j)))))
        rhs.append(ex.eadd(*pieces))
    return ProlongSection(chart, [ex.ZERO] * r, linalg.mat_vec(data.Minv, rhs))


# ---------------------------------------------------------------------------
# Cross-module consistency suite (CLI `check prolongation`)


def consistency_suite(data: LagrangianData, theta: Optional[AForm] = None,
                      base_potential: Optional[ex.Expr] = None, box: ex.Box = None,
                      trials: int = 32, tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """End-to-end checks tying the prolongation picture to the bracket:
    the energy Hamiltonian section is second order, its anchor equals the
    bracket-side Hamiltonian field, and the twisted correction matches the
    twisted field."""
    from . import poisson, twoform

    chart = data.chart

    def residuals():
        _, omega_l = cartan_sections(data)
        sigma = hamiltonian_section(omega_l, data.EL, box=box, trials=trials, tol=tol,
                                    seed=seed, check=False)
        yield from sode_residuals(sigma)

        n_plain = twoform.assemble_N(data, chart, None)
        for i in range(chart.r):
            for j in range(chart.r):
                yield (f"fundamental-block M[{i + 1},{j + 1}]",
                       ex.eadd(omega_l.get((chart.r + i, j)), ex.eneg(data.M[i][j])))
                yield (f"fundamental-block N[{i + 1},{j + 1}]",
                       ex.eadd(omega_l.get((i, j)), ex.eneg(n_plain[i][j])))

        theta_section = twoform.ThetaSection(theta) if theta is not None else None
        n_matrix = twoform.assemble_N(data, chart, theta_section)
        bivector = poisson.build_bracket(chart, data, n_matrix)
        g = data.EL if base_potential is None else ex.eadd(data.EL, base_potential)
        field = poisson.hamiltonian_field(bivector, g)

        if theta is None and base_potential is None:
            label, oracle = "energy-section", anchor(sigma)
        else:
            horizontal = pullback_horizontal(theta) if theta is not None else None
            correction = vertical_correction(data, horizontal, base_potential)
            label, oracle = "corrected-section", anchor(sigma + correction)

        for name, lhs, rhs in zip(chart.coords + chart.fibers,
                                  oracle.components(), field.components()):
            yield f"{label} anchor d/d{name}", ex.eadd(lhs, ex.eneg(rhs))

    return ex.certify("prolongation", residuals(), box, trials, tol, seed)
