"""Calculus on the prolongation of an algebroid chart.

The prolongation of a rank-r chart over an n-dimensional base is itself a
Lie algebroid of rank 2r over the total space, with local frame
``{E_1..E_r, U_1..U_r}``:

* anchor:   ``E_j -> rho^i_j d/dx^i``,  ``U_k -> d/dy^k``
* brackets: ``[E_i, E_j] = C^k_{ij} E_k``, all brackets involving a vertical
  frame section vanish.

We therefore model it as an :class:`~semispray.algebroid.AlgebroidChart`
over the coordinates ``(x, y)`` (:func:`prolong_chart`), which holds these
relations, and reuse its Koszul differential.  Indices ``0..r-1`` of the
prolongation frame are the ``E`` sections, ``r..2r-1`` the vertical ``U``
sections; a form's blocks, and its bigrading, follow that split.  On top of
it: sections and their anchor, the interior product, the vertical
endomorphism, Cartan sections, exact Hamiltonian sections, the decomposition
of 2-sections vanishing on vertical pairs, and the consistency suite behind
``check prolongation``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from . import linalg
from .algebroid import AForm, AlgebroidChart
from .errors import DegenerateForm, DegreeError, NotClosed, NotVerticalVanishing
from .homotopy import BigradedBlock, dprime_primitive, is_fiber_integral
from .lagrangian import LagrangianData, probe_determinant
from .poisson import VectorFieldOnA
from .report import ValidationReport

def prolong_chart(chart: AlgebroidChart) -> AlgebroidChart:
    """The prolongation of ``chart`` as a rank-2r algebroid over (x, y).

    Cached on the chart so every form built over it shares one instance.
    """
    cached = getattr(chart, "_prolonged", None)
    if cached is not None:
        return cached
    n, r = chart.n, chart.r
    coords = chart.coords + chart.fibers
    frame = [f"_e{j + 1}" for j in range(r)] + [f"_u{k + 1}" for k in range(r)]
    rho = [[ex.ZERO for _ in range(2 * r)] for _ in range(n + r)]
    for i in range(n):
        for j in range(r):
            rho[i][j] = chart.rho[i][j]
    for k in range(r):
        rho[n + k][r + k] = ex.ONE
    structure = dict(chart.structure)
    prolonged = AlgebroidChart(coords, frame, rho, structure, params=chart.params,
                               name=f"prolong({chart.name or 'chart'})")
    chart._prolonged = prolonged
    return prolonged


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

    def __sub__(self, other: "ProlongSection") -> "ProlongSection":
        return ProlongSection(self.chart,
                              [ex.eadd(p, ex.eneg(q)) for p, q in zip(self.a, other.a)],
                              [ex.eadd(p, ex.eneg(q)) for p, q in zip(self.b, other.b)])

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


class ProlongForm:
    """Form on the prolongation, stored as an :class:`AForm` over the
    prolonged chart.  Degree-2 blocks: ``ee(i, j)`` for two frame legs,
    ``ue(i, j)`` for (vertical, frame), ``uu(i, j)`` for two vertical legs."""

    def __init__(self, chart: AlgebroidChart, form: AForm):
        self.chart = chart
        self.pchart = prolong_chart(chart)
        if form.chart is not self.pchart:
            raise ValueError("underlying form must live on the prolonged chart")
        self.form = form

    @property
    def degree(self) -> int:
        return self.form.degree

    @classmethod
    def zero(cls, chart: AlgebroidChart, degree: int) -> "ProlongForm":
        return cls(chart, AForm(prolong_chart(chart), degree, {}))

    @classmethod
    def from_coeffs(cls, chart: AlgebroidChart, degree: int, coeffs) -> "ProlongForm":
        return cls(chart, AForm(prolong_chart(chart), degree, coeffs))

    @classmethod
    def one_form(cls, chart: AlgebroidChart, e_parts: Sequence[ex.Expr],
                 u_parts: Sequence[ex.Expr]) -> "ProlongForm":
        r = chart.r
        coeffs = {}
        for j, value in enumerate(e_parts):
            coeffs[(j,)] = value
        for k, value in enumerate(u_parts):
            coeffs[(r + k,)] = value
        return cls.from_coeffs(chart, 1, coeffs)

    def value(self, indices: Sequence[int]) -> ex.Expr:
        return self.form.get(indices)

    def ee(self, i: int, j: int) -> ex.Expr:
        return self.form.get((i, j))

    def ue(self, i: int, j: int) -> ex.Expr:
        return self.form.get((self.chart.r + i, j))

    def uu(self, i: int, j: int) -> ex.Expr:
        return self.form.get((self.chart.r + i, self.chart.r + j))

    def __add__(self, other: "ProlongForm") -> "ProlongForm":
        return ProlongForm(self.chart, self.form + other.form)

    def __sub__(self, other: "ProlongForm") -> "ProlongForm":
        return ProlongForm(self.chart, self.form - other.form)

    def scale(self, factor) -> "ProlongForm":
        return ProlongForm(self.chart, self.form.scale(factor))

    def is_structurally_zero(self) -> bool:
        return self.form.is_structurally_zero()

    def __repr__(self):
        return f"<ProlongForm deg {self.degree}, {len(self.form.coeffs)} coefficients>"


def d(form: ProlongForm) -> ProlongForm:
    """Koszul differential on the prolongation (input degree at most 2)."""
    return ProlongForm(form.chart, form.pchart.d(form.form))


def insert_section(form: ProlongForm, section: ProlongSection) -> ProlongForm:
    """Interior product ``i_S F``."""
    if form.degree == 0:
        raise DegreeError("cannot insert into a degree-0 form")
    chart = form.chart
    s = section.coefficients()
    coeffs = {}
    for rest in itertools.combinations(range(2 * chart.r), form.degree - 1):
        coeffs[rest] = ex.eadd(*(ex.emul(s[a], form.value((a,) + rest))
                                 for a in range(2 * chart.r) if not ex.is_zero_literal(s[a])))
    return ProlongForm.from_coeffs(chart, form.degree - 1, coeffs)


# ---------------------------------------------------------------------------
# Vertical endomorphism


def vertical_endomorphism(section: ProlongSection) -> ProlongSection:
    """The square-zero bundle map on sections: ``(a, b) -> (0, a)``."""
    return ProlongSection(section.chart, [ex.ZERO] * section.chart.r, list(section.a))


def j_dual(form: ProlongForm) -> ProlongForm:
    """Degree-zero derivation on forms dual to the vertical endomorphism:
    it annihilates functions and frame covectors and sends a vertical dual
    covector ``U^j`` to ``-E^j``."""
    chart = form.chart
    r = chart.r
    if form.degree == 0:
        return ProlongForm.zero(chart, 0)
    coeffs = {}
    for tup in itertools.combinations(range(2 * r), form.degree):
        pieces = []
        for pos, a in enumerate(tup):
            if a < r:  # J maps the frame section E_a to the vertical U_a
                replaced = tup[:pos] + (r + a,) + tup[pos + 1:]
                pieces.append(form.value(replaced))
        if pieces:
            coeffs[tup] = ex.eneg(ex.eadd(*pieces))
    return ProlongForm.from_coeffs(chart, form.degree, coeffs)


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


def cartan_sections(data: LagrangianData) -> Tuple[ProlongForm, ProlongForm]:
    """The horizontal 1-section with fiber-derivative coefficients and its
    differential, the fundamental 2-section of the Lagrangian."""
    chart = data.chart
    theta = ProlongForm.one_form(chart, data.thetaL, [ex.ZERO] * chart.r)
    return theta, d(theta)


def hamiltonian_section(omega: ProlongForm, hamiltonian: ex.Expr,
                        box: ex.Box = None, trials: int = 16, tol: float = 1e-9,
                        seed: int = 0, check: bool = True) -> ProlongSection:
    """The unique section ``s`` with ``i_s omega = -d(hamiltonian)``.

    Solved exactly: when the 2-section vanishes on vertical pairs the system
    decouples and only the (vertical, frame) block needs inverting (rank at
    most 4); otherwise the full 2r x 2r coefficient matrix is inverted
    (2r at most 4).  A larger matrix raises ``ValueError``.  Raises
    :class:`DegenerateForm` when the relevant determinant vanishes on the
    probe set.
    """
    chart = omega.chart
    if omega.degree != 2:
        raise DegreeError("Hamiltonian sections need a degree-2 section")
    r = chart.r
    g = ex.as_expr(hamiltonian)
    dg_e = [chart.anchor_derivative(j, g) for j in range(r)]
    dg_u = [ex.diff(g, nm) for nm in chart.fibers]

    uu_zero = all(ex.is_zero_literal(omega.uu(i, j)) for i in range(r) for j in range(i + 1, r))
    if uu_zero:
        matrix = [[omega.ue(i, j) for j in range(r)] for i in range(r)]
    else:
        matrix = [[omega.value((p, q)) for q in range(2 * r)] for p in range(2 * r)]
    if len(matrix) > 4:
        raise ValueError(f"symbolic solve supports {'rank' if uu_zero else 'total rank'} <= 4")
    det = linalg.det(matrix)
    if ex.is_zero_literal(det):
        raise DegenerateForm({"det": 0.0})
    if check:
        witness = probe_determinant(chart, det, box or ex.Box(), trials, tol, seed, {})
        if witness is not None:
            raise DegenerateForm(witness)
    inverse = linalg.inverse(matrix, det)
    if not uu_zero:
        solution = linalg.mat_vec(inverse, dg_e + dg_u)
        return ProlongSection(chart, solution[:r], solution[r:])
    a = linalg.mat_vec(inverse, dg_u)
    rhs = []
    for j in range(r):
        acc = [ex.eneg(dg_e[j])]
        for i in range(r):
            acc.append(ex.eneg(ex.emul(a[i], omega.ee(i, j))))
        rhs.append(ex.eadd(*acc))
    b = linalg.mat_vec(linalg.transpose(inverse), rhs)
    return ProlongSection(chart, a, b)


# ---------------------------------------------------------------------------
# Bigrading


def bigrade(form: ProlongForm) -> Dict[Tuple[int, int], BigradedBlock]:
    """Split a form into its bidegree components.

    A key's legs below ``r`` are frame covectors ``E^i`` (bidegree (1,0)),
    the rest vertical covectors ``U^j`` (bidegree (0,1)).  Sorted keys put
    every ``E`` leg first, so a key splits into the block key ``(I, J)``
    with no sign.
    """
    chart = form.chart
    r = chart.r
    blocks: Dict[Tuple[int, int], Dict] = {}
    for key, value in form.form.coeffs.items():
        idx_e = tuple(a for a in key if a < r)
        idx_u = tuple(a - r for a in key if a >= r)
        blocks.setdefault((len(idx_e), len(idx_u)), {})[(idx_e, idx_u)] = value
    return {(p, q): BigradedBlock(chart, p, q, coeffs) for (p, q), coeffs in blocks.items()}


def block_to_form(block: BigradedBlock) -> ProlongForm:
    """Rewrite a bigraded block as a form on the prolongation."""
    r = block.chart.r
    if any(is_fiber_integral(value) for value in block.coeffs.values()):
        raise ValueError("cannot rebuild a form from quadrature coefficients")
    return ProlongForm.from_coeffs(block.chart, block.p + block.q,
                                   {idx_e + tuple(r + j for j in idx_u): value
                                    for (idx_e, idx_u), value in block.coeffs.items()})


def d_split(form: ProlongForm) -> Tuple[ProlongForm, ProlongForm, ProlongForm]:
    """Split the differential by bidegree: the (1,0), (0,1), and (2,-1)
    parts.  Their sum is the plain differential."""
    chart = form.chart
    degree = form.degree
    parts = {"prime": ProlongForm.zero(chart, degree + 1),
             "second": ProlongForm.zero(chart, degree + 1),
             "lower": ProlongForm.zero(chart, degree + 1)}
    for (p, q), block in bigrade(form).items():
        differential = d(block_to_form(block))
        for (dp, dq), dblock in bigrade(differential).items():
            piece = block_to_form(dblock)
            if (dp, dq) == (p + 1, q):
                parts["prime"] += piece
            elif (dp, dq) == (p, q + 1):
                parts["second"] += piece
            elif (dp, dq) == (p + 2, q - 1):
                parts["lower"] += piece
            else:  # pragma: no cover - excluded by the bigrading algebra
                raise AssertionError(f"unexpected bidegree ({dp},{dq}) in d of ({p},{q})")
    return parts["prime"], parts["second"], parts["lower"]


# ---------------------------------------------------------------------------
# Structure of 2-sections vanishing on vertical pairs


def pullback_horizontal(theta: AForm) -> ProlongForm:
    """Pull a form on the base algebroid back through the frame projection:
    same coefficients, frame legs only."""
    chart = theta.chart
    return ProlongForm.from_coeffs(chart, theta.degree, dict(theta.coeffs))


def decompose_symplectic(omega: ProlongForm, box: ex.Box = None, trials: int = 32,
                         tol: float = 1e-9, seed: int = 0) -> Tuple[ProlongForm, ProlongForm]:
    """Split a closed 2-section vanishing on vertical pairs as a closed
    horizontal part plus an exact part, ``omega = Theta + d(zeta)``.

    ``zeta`` is horizontal and obtained from the mixed bidegree block by the
    constructive vertical primitive; ``Theta`` is the frame-frame block minus
    the (1,0)-part of ``d(zeta)`` and is certified closed.
    """
    chart = omega.chart
    if omega.degree != 2:
        raise DegreeError("decomposition expects a degree-2 section")
    r = chart.r
    for i in range(r):
        for j in range(i + 1, r):
            result = ex.is_zero(omega.uu(i, j), box=box, trials=trials, tol=tol, seed=seed)
            if not result.is_zero:
                raise NotVerticalVanishing(f"vertical-vertical block ({i + 1},{j + 1}) is nonzero")

    closure = d(omega)
    for tup, value in closure.form.coeffs.items():
        result = ex.is_zero(value, box=box, trials=trials, tol=tol, seed=seed)
        if not result.is_zero:
            raise NotClosed(f"d(omega) has nonzero coefficient at {tup}")

    blocks = bigrade(omega)
    mixed = blocks.get((1, 1))
    if mixed is None:
        zeta = ProlongForm.zero(chart, 1)
    else:
        primitive = dprime_primitive(mixed, box=box, trials=trials, tol=tol, seed=seed)
        zeta = block_to_form(primitive)
    horizontal = blocks.get((2, 0))
    theta = block_to_form(horizontal) if horizontal is not None else ProlongForm.zero(chart, 2)
    d_prime_zeta, _, _ = d_split(zeta)
    theta = theta - d_prime_zeta

    for tup, value in d(theta).form.coeffs.items():
        result = ex.is_zero(value, box=box, trials=trials, tol=tol, seed=seed)
        if not result.is_zero:
            raise NotClosed(f"recovered horizontal part is not closed at {tup}")
    return theta, zeta


def vertical_correction(data: LagrangianData, horizontal: Optional[ProlongForm],
                        base_potential: Optional[ex.Expr], box: ex.Box = None,
                        trials: int = 32, tol: float = 1e-9, seed: int = 0,
                        verify: bool = True) -> ProlongSection:
    """The vertical section correcting the energy Hamiltonian section when
    the 2-section is twisted by a closed horizontal part and the Hamiltonian
    by a basic potential.

    Solves ``i_Z omega_L = -d(potential) - i_{sigma} Theta`` for vertical
    ``Z``; with ``sigma`` the energy Hamiltonian section, ``Z + sigma`` is a
    second-order section and a Hamiltonian section of the twisted 2-section.
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
                pieces.append(ex.eneg(ex.emul(y[a], horizontal.ee(a, j))))
        rhs.append(ex.eadd(*pieces))
    z = linalg.mat_vec(data.Minv, rhs)
    correction = ProlongSection(chart, [ex.ZERO] * r, z)

    if verify:
        _, omega_l = cartan_sections(data)
        sigma = hamiltonian_section(omega_l, data.EL, box=box, trials=trials,
                                    tol=tol, seed=seed, check=False)
        total_omega = omega_l if horizontal is None else omega_l + horizontal
        total_h = ex.eadd(data.EL, f)
        residual = insert_section(total_omega, sigma + correction)
        differential = ProlongForm.one_form(
            chart,
            [chart.anchor_derivative(j, total_h) for j in range(r)],
            [ex.diff(total_h, nm) for nm in chart.fibers])
        total = residual + differential
        for tup, value in total.form.coeffs.items():
            result = ex.is_zero(value, box=box, trials=trials, tol=tol, seed=seed)
            if not result.is_zero:
                raise ValueError(f"correction failed verification at {tup}: "
                                 f"residual {result.max_residual:.3e}")
    return correction


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
                       ex.eadd(omega_l.ue(i, j), ex.eneg(data.M[i][j])))
                yield (f"fundamental-block N[{i + 1},{j + 1}]",
                       ex.eadd(omega_l.ee(i, j), ex.eneg(n_plain[i][j])))

        theta_section = twoform.ThetaSection(theta) if theta is not None else None
        n_matrix = twoform.assemble_N(data, chart, theta_section)
        bivector = poisson.build_bracket(chart, data, n_matrix)
        g = data.EL if base_potential is None else ex.eadd(data.EL, base_potential)
        field = poisson.hamiltonian_field(bivector, g)

        if theta is None and base_potential is None:
            label, oracle = "energy-section", anchor(sigma)
        else:
            horizontal = pullback_horizontal(theta) if theta is not None else None
            correction = vertical_correction(data, horizontal, base_potential, box=box,
                                             trials=trials, tol=tol, seed=seed, verify=False)
            label, oracle = "corrected-section", anchor(sigma + correction)

        for name, lhs, rhs in zip(chart.coords + chart.fibers,
                                  oracle.components(), field.components()):
            yield f"{label} anchor d/d{name}", ex.eadd(lhs, ex.eneg(rhs))

    return ex.certify("prolongation", residuals(), box, trials, tol, seed)
