"""Calculus on the prolongation of an algebroid chart.

The prolongation of a rank-r chart over an n-dimensional base is itself a
Lie algebroid of rank 2r over the total space, with local frame
``{E_1..E_r, U_1..U_r}``:

* anchor:   ``E_j -> rho^i_j d/dx^i``,  ``U_k -> d/dy^k``
* brackets: ``[E_i, E_j] = C^k_{ij} E_k``, all brackets involving a vertical
  frame section vanish.

We therefore model it as an :class:`~semispray.algebroid.AlgebroidChart`
over the coordinates ``(x, y)`` and reuse its Koszul differential.  Indices
``0..r-1`` of the prolongation frame are the ``E`` sections, ``r..2r-1`` the
vertical ``U`` sections; a form's blocks follow that split.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from . import expr as ex
from . import linalg
from .algebroid import AForm, AlgebroidChart, sort_with_sign
from .errors import (DegenerateForm, DegreeError, NotClosed,
                     NotVerticalVanishing, SingularHessian)
from .homotopy import BigradedBlock, FiberIntegral, dprime_primitive
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
        self.a = [ex.simplify(ex.as_expr(v)) for v in a]
        self.b = [ex.simplify(ex.as_expr(v)) for v in b]

    @property
    def is_vertical(self) -> bool:
        return all(ex.is_zero_literal(v) for v in self.a)

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
    vx = [ex.eadd(*(ex.emul(section.a[j], chart.rho[i][j]) for j in range(chart.r)))
          for i in range(chart.n)]
    return VectorFieldOnA(chart, vx, list(section.b))


def _section_derivative(section: ProlongSection, f: ex.Expr) -> ex.Expr:
    """Directional derivative of a function on the total space along the
    anchor image of the section."""
    chart = section.chart
    field = anchor(section)
    pieces = [ex.emul(field.vx[i], ex.diff(f, nm)) for i, nm in enumerate(chart.coords)]
    pieces += [ex.emul(field.vy[k], ex.diff(f, nm)) for k, nm in enumerate(chart.fibers)]
    return ex.eadd(*pieces)


def lie_bracket(s1: ProlongSection, s2: ProlongSection) -> ProlongSection:
    """Bracket of sections by bilinear Leibniz extension of the frame
    relations: structure terms from ``[E_i, E_j]`` plus anchor-directional
    derivatives of the coefficients."""
    chart = s1.chart
    r = chart.r
    a = []
    for k in range(r):
        pieces = []
        for i in range(r):
            for j in range(r):
                coeff = chart.c(k, i, j)
                if ex.is_zero_literal(coeff):
                    continue
                pieces.append(ex.emul(s1.a[i], s2.a[j], coeff))
        pieces.append(_section_derivative(s1, s2.a[k]))
        pieces.append(ex.eneg(_section_derivative(s2, s1.a[k])))
        a.append(ex.eadd(*pieces))
    b = [ex.eadd(_section_derivative(s1, s2.b[k]),
                 ex.eneg(_section_derivative(s2, s1.b[k]))) for k in range(r)]
    return ProlongSection(chart, a, b)


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
    def function(cls, chart: AlgebroidChart, value: ex.Expr) -> "ProlongForm":
        return cls.from_coeffs(chart, 0, {(): value})

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

    @classmethod
    def from_blocks(cls, chart: AlgebroidChart, ee=None, ue=None, uu=None) -> "ProlongForm":
        """Degree-2 form from block matrices: ``ee`` skew, ``ue`` arbitrary
        (value on a (vertical, frame) pair), ``uu`` skew."""
        r = chart.r
        coeffs = {}
        if ee is not None:
            for i in range(r):
                for j in range(i + 1, r):
                    coeffs[(i, j)] = ee[i][j]
        if ue is not None:
            for i in range(r):
                for j in range(r):
                    # Value on (U_i, E_j) stored on the sorted tuple (j, r+i).
                    coeffs[(j, r + i)] = ex.eadd(coeffs.get((j, r + i), ex.ZERO),
                                                 ex.eneg(ex.as_expr(ue[i][j])))
        if uu is not None:
            for i in range(r):
                for j in range(i + 1, r):
                    coeffs[(r + i, r + j)] = uu[i][j]
        return cls.from_coeffs(chart, 2, coeffs)

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


def is_sode(section: ProlongSection, box: ex.Box = None, trials: int = 64,
            tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals ``a^j - y^j`` of the second-order condition."""
    chart = section.chart
    report = ValidationReport(check="sode", seed=seed)
    for j in range(chart.r):
        residual = ex.eadd(section.a[j], ex.eneg(ex.Var(chart.fibers[j])))
        report.add(f"E-component {j + 1}",
                   ex.is_zero(residual, box=box, trials=trials, tol=tol, seed=seed))
    return report


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
    most 4); otherwise the full 2r x 2r coefficient matrix is inverted for
    2r <= 4.  :func:`hamiltonian_section_at` covers larger ranks pointwise.
    Raises :class:`DegenerateForm` when the relevant determinant vanishes on
    the probe set.
    """
    chart = omega.chart
    if omega.degree != 2:
        raise DegreeError("Hamiltonian sections need a degree-2 section")
    r = chart.r
    g = ex.simplify(ex.as_expr(hamiltonian))
    dg_e = [chart.anchor_derivative(j, g) for j in range(r)]
    dg_u = [ex.diff(g, nm) for nm in chart.fibers]

    uu_zero = all(ex.is_zero_literal(omega.uu(i, j)) for i in range(r) for j in range(i + 1, r))
    if uu_zero:
        matrix = [[omega.ue(i, j) for j in range(r)] for i in range(r)]
    else:
        matrix = [[omega.value((p, q)) for q in range(2 * r)] for p in range(2 * r)]
    if len(matrix) > 4:
        raise ValueError(f"symbolic solve supports {'rank' if uu_zero else 'total rank'} <= 4; "
                         "use hamiltonian_section_at")
    det = ex.simplify(linalg.det(matrix))
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


def hamiltonian_section_at(omega: ProlongForm, hamiltonian: ex.Expr,
                           point: ex.ChartPoint) -> Tuple[List[float], List[float]]:
    """Pointwise Hamiltonian section for ranks beyond the symbolic solver."""
    chart = omega.chart
    r = chart.r
    env = point.env(chart.coords, chart.fibers)
    g = ex.as_expr(hamiltonian)
    dg = [ex.evaluate(chart.anchor_derivative(j, g), env) for j in range(r)]
    dg += [ex.evaluate(ex.diff(g, nm), env) for nm in chart.fibers]
    k = [[ex.evaluate(omega.value((p, q)), env) for q in range(2 * r)] for p in range(2 * r)]
    try:
        solution, = linalg.solve(k, [dg])
    except ValueError:
        raise DegenerateForm(env) from None
    return solution[:r], solution[r:]


# ---------------------------------------------------------------------------
# Connection bigrading


class EhresmannConn:
    """Projection onto the vertical subbundle, determined in the frame by the
    matrix ``gamma[j][i]``: the horizontal lifts are ``E_i - gamma[j][i] U_j``
    and the horizontal annihilator is spanned by ``U^j + gamma[j][i] E^i``."""

    def __init__(self, chart: AlgebroidChart, gamma: Optional[Sequence[Sequence[ex.Expr]]] = None):
        self.chart = chart
        r = chart.r
        if gamma is None:
            gamma = [[ex.ZERO] * r for _ in range(r)]
        if len(gamma) != r or any(len(row) != r for row in gamma):
            raise ValueError("gamma must be an r x r matrix")
        self.gamma = [[ex.simplify(ex.as_expr(v)) for v in row] for row in gamma]


def _expand_letters(tup: Sequence[int], letter_lists) -> List[Tuple[Tuple, ex.Expr]]:
    """Expand a basis index tuple through per-index letter substitutions into
    (letter tuple, coefficient) pairs."""
    out = [((), ex.ONE)]
    for a in tup:
        new = []
        for letters, coeff in out:
            for letter, factor in letter_lists(a):
                new.append((letters + (letter,), ex.emul(coeff, factor)))
        out = new
    return out


def bigrade(form: ProlongForm, conn: Optional[EhresmannConn] = None) -> Dict[Tuple[int, int], BigradedBlock]:
    """Split a form into its bidegree components in the connection coframe.

    A letter ``(0, i)`` stands for the frame covector ``E^i`` (bidegree
    (1,0)), ``(1, j)`` for the horizontal annihilator ``U^j + gamma^j_i E^i``
    (bidegree (0,1)).
    """
    chart = form.chart
    conn = conn or EhresmannConn(chart)
    r = chart.r
    gamma = conn.gamma

    def letters(a: int):
        if a < r:
            return [((0, a), ex.ONE)]
        j = a - r
        out = [((1, j), ex.ONE)]
        for i in range(r):
            if not ex.is_zero_literal(gamma[j][i]):
                out.append(((0, i), ex.eneg(gamma[j][i])))
        return out

    accum: Dict[Tuple[int, int], Dict] = {}
    for tup, coeff in form.form.coeffs.items():
        for letter_tuple, factor in _expand_letters(tup, letters):
            sorted_letters, sign = sort_with_sign(letter_tuple)
            if sign == 0:
                continue
            idx_e = tuple(i for kind, i in sorted_letters if kind == 0)
            idx_n = tuple(j for kind, j in sorted_letters if kind == 1)
            value = ex.emul(coeff, factor)
            if sign < 0:
                value = ex.eneg(value)
            bucket = accum.setdefault((len(idx_e), len(idx_n)), {})
            key = (idx_e, idx_n)
            bucket[key] = ex.eadd(bucket.get(key, ex.ZERO), value)
    out = {}
    for (p, q), coeffs in accum.items():
        block = BigradedBlock(chart, p, q, coeffs)
        if not block.is_structurally_zero():
            out[(p, q)] = block
    return out


def block_to_form(block: BigradedBlock, conn: Optional[EhresmannConn] = None) -> ProlongForm:
    """Rewrite a bigraded block back in the frame coframe of the prolongation."""
    chart = block.chart
    conn = conn or EhresmannConn(chart)
    r = chart.r
    gamma = conn.gamma

    def letters(letter):
        kind, idx = letter
        if kind == 0:
            return [(idx, ex.ONE)]
        out = [(r + idx, ex.ONE)]
        for i in range(r):
            if not ex.is_zero_literal(gamma[idx][i]):
                out.append((i, gamma[idx][i]))
        return out

    coeffs: Dict[Tuple[int, ...], ex.Expr] = {}
    for (idx_e, idx_n), value in block.coeffs.items():
        if isinstance(value, FiberIntegral):
            raise ValueError("cannot rebuild a form from quadrature coefficients")
        letter_tuple = tuple((0, i) for i in idx_e) + tuple((1, j) for j in idx_n)
        for std_tuple, factor in _expand_letters(letter_tuple, letters):
            sorted_idx, sign = sort_with_sign(std_tuple)
            if sign == 0:
                continue
            piece = ex.emul(value, factor)
            if sign < 0:
                piece = ex.eneg(piece)
            coeffs[sorted_idx] = ex.eadd(coeffs.get(sorted_idx, ex.ZERO), piece)
    return ProlongForm.from_coeffs(chart, block.p + block.q, coeffs)


def d_split(form: ProlongForm, conn: Optional[EhresmannConn] = None
            ) -> Tuple[ProlongForm, ProlongForm, ProlongForm]:
    """Split the differential by bidegree: the (1,0), (0,1), and (2,-1)
    parts.  Their sum is the plain differential."""
    chart = form.chart
    conn = conn or EhresmannConn(chart)
    degree = form.degree
    parts = {"prime": ProlongForm.zero(chart, degree + 1),
             "second": ProlongForm.zero(chart, degree + 1),
             "lower": ProlongForm.zero(chart, degree + 1)}
    for (p, q), block in bigrade(form, conn).items():
        differential = d(block_to_form(block, conn))
        for (dp, dq), dblock in bigrade(differential, conn).items():
            piece = block_to_form(dblock, conn)
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


def decompose_symplectic(omega: ProlongForm, conn: Optional[EhresmannConn] = None,
                         box: ex.Box = None, trials: int = 32, tol: float = 1e-9,
                         seed: int = 0) -> Tuple[ProlongForm, ProlongForm]:
    """Split a closed 2-section vanishing on vertical pairs as a closed
    horizontal part plus an exact part, ``omega = Theta + d(zeta)``.

    ``zeta`` is horizontal and obtained from the mixed bidegree block by the
    constructive vertical primitive; ``Theta`` is the frame-frame block minus
    the (1,0)-part of ``d(zeta)`` and is certified closed.
    """
    chart = omega.chart
    if omega.degree != 2:
        raise DegreeError("decomposition expects a degree-2 section")
    conn = conn or EhresmannConn(chart)
    r = chart.r
    for i in range(r):
        for j in range(i + 1, r):
            if not ex.is_zero_literal(ex.simplify(omega.uu(i, j))):
                result = ex.is_zero(omega.uu(i, j), box=box, trials=trials, tol=tol, seed=seed)
                if not result.is_zero:
                    raise NotVerticalVanishing(f"vertical-vertical block ({i + 1},{j + 1}) is nonzero")

    closure = d(omega)
    for tup, value in closure.form.coeffs.items():
        result = ex.is_zero(value, box=box, trials=trials, tol=tol, seed=seed)
        if not result.is_zero:
            raise NotClosed(f"d(omega) has nonzero coefficient at {tup}")

    blocks = bigrade(omega, conn)
    mixed = blocks.get((1, 1))
    if mixed is None:
        zeta = ProlongForm.zero(chart, 1)
    else:
        primitive = dprime_primitive(mixed, box=box, trials=trials, tol=tol, seed=seed)
        zeta = block_to_form(primitive, conn)
    horizontal = blocks.get((2, 0))
    theta = block_to_form(horizontal, conn) if horizontal is not None else ProlongForm.zero(chart, 2)
    d_prime_zeta, _, _ = d_split(zeta, conn)
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
        raise SingularHessian(data.singular_witness)
    r = chart.r
    f = ex.ZERO if base_potential is None else ex.simplify(ex.as_expr(base_potential))
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


def coefficient_rank_at(form: ProlongForm, point: ex.ChartPoint, tol: float = 1e-9) -> int:
    """Numeric rank of the 2r x 2r coefficient matrix of a degree-2 form at
    a point.  Optional diagnostic: the exact part of a decomposed 2-section
    vanishing on vertical pairs is expected to have full rank."""
    if form.degree != 2:
        raise DegreeError("rank probe expects a degree-2 form")
    chart = form.chart
    env = point.env(chart.coords, chart.fibers)
    size = 2 * chart.r
    matrix = [[ex.evaluate(form.value((a, b)), env) for b in range(size)] for a in range(size)]
    return linalg.row_echelon(matrix, size, tol)


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
    report = ValidationReport(check="prolongation", seed=seed)
    theta_section = twoform.ThetaSection(theta) if theta is not None else None

    _, omega_l = cartan_sections(data)
    sigma = hamiltonian_section(omega_l, data.EL, box=box, trials=trials, tol=tol,
                                seed=seed, check=False)
    report.extend(is_sode(sigma, box=box, trials=trials, tol=tol, seed=seed))

    n_plain = twoform.assemble_N(data, chart, None)
    for i in range(chart.r):
        for j in range(chart.r):
            residual = ex.eadd(omega_l.ue(i, j), ex.eneg(data.M[i][j]))
            report.add(f"fundamental-block M[{i + 1},{j + 1}]",
                       ex.is_zero(residual, box=box, trials=trials, tol=tol, seed=seed))
            residual = ex.eadd(omega_l.ee(i, j), ex.eneg(n_plain.entry(i, j)))
            report.add(f"fundamental-block N[{i + 1},{j + 1}]",
                       ex.is_zero(residual, box=box, trials=trials, tol=tol, seed=seed))

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
        residual = ex.eadd(lhs, ex.eneg(rhs))
        report.add(f"{label} anchor d/d{name}",
                   ex.is_zero(residual, box=box, trials=trials, tol=tol, seed=seed))
    return report
