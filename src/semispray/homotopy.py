"""Radial homotopy operators for the vertical calculus.

Forms here are bigraded blocks: bidegree-(p, q) components of forms on the
prolongation, stored by skew coefficients over pairs of index tuples.  A
vertical q-form is the block with ``p = 0``; it lives on the vertical
subalgebroid in its pullback frame, where the canonical flat transport is the
identity on coefficients, and the base coordinates ride along as parameters.

The three operators:

* ``psi_star(w, t)``:    coefficientwise ``t^q * w(x, t y)``,
* ``dsecond``:           alternating fiber derivative on the vertical legs,
* ``radial_homotopy``:   ``(h w)_{J}(x,y) = int_0^1 t^(q-1) y^j w_{jJ}(x,ty) dt``,

satisfy ``h(dw) + d(hw) = w - psi_star_0(w)``, with the ``t -> 0`` limit
vanishing in positive degree and restricting to the fiber origin in degree
zero.  Integrands polynomial in the scaling parameter integrate exactly.
Any other integrand ``e`` is stored as itself and stands for
``int_0^1 e d_t``: a coefficient is a fiber integral exactly when the
reserved scaling parameter ``TVAR`` is free in it, and :func:`fiber_value`
evaluates it by adaptive Simpson quadrature.

Applied with the horizontal indices of a block treated as labels (and the
sign ``(-1)^p``), the same integral furnishes the constructive primitive for
the vertical part of the bigraded differential (``dprime_primitive``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import expr as ex
from .algebroid import AlgebroidChart, skew_coeffs, sort_with_sign, tangent
from .errors import NotClosed, QuadratureFailure
from .report import ValidationReport, ZeroResult, ZeroStatus

#: Reserved name of the scaling parameter inside fiber integrals.
TVAR = "_t"


# ---------------------------------------------------------------------------
# Coefficients: a tree free in ``TVAR`` stands for its unit-interval integral


def is_fiber_integral(e: ex.Expr) -> bool:
    return TVAR in ex.free_symbols(e)


def fiber_value(e: ex.Expr) -> Callable[[dict], float]:
    """``env -> float`` for the coefficient ``e``: adaptive Simpson
    quadrature over the scaling parameter for a fiber integral, else one run
    of the compiled tree.  The tree is compiled once, here."""
    value = ex.Program([e]).value
    if not is_fiber_integral(e):
        return value

    def integral(env: dict) -> float:
        local = dict(env)

        def f(t):
            local[TVAR] = t
            return value(local)

        return _adaptive_simpson(f, 0.0, 1.0, 1e-10)

    return integral


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 24) -> float:
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_refine(f, a, b, fa, fm, fb, whole, tol, 0, max_depth)


def _simpson_refine(f, a, b, fa, fm, fb, whole, tol, depth, max_depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= max_depth:
        raise QuadratureFailure(f"maximum refinement depth reached on [{a}, {b}]")
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_refine(f, a, m, fa, flm, fm, left, tol / 2.0, depth + 1, max_depth)
            + _simpson_refine(f, m, b, fm, frm, fb, right, tol / 2.0, depth + 1, max_depth))


def _integrate_unit(e: ex.Expr) -> Optional[ex.Expr]:
    """Exact ``int_0^1 e d_t`` for canonical ``e`` polynomial in the scaling
    parameter; ``None`` when the parameter appears non-polynomially."""

    def term(t: ex.Expr) -> Optional[ex.Expr]:
        if isinstance(t, ex.Div):
            if TVAR in ex.free_symbols(t.den):
                return None
            inner = _integrate_unit(t.num)
            return None if inner is None else ex.ediv(inner, t.den)
        factors = t.factors if isinstance(t, ex.Mul) else (t,)
        power = 0
        rest = []
        for f in factors:
            if isinstance(f, ex.Var) and f.name == TVAR:
                power += 1
            elif isinstance(f, ex.Pow) and isinstance(f.base, ex.Var) and f.base.name == TVAR:
                if f.exponent.denominator != 1 or f.exponent < 0:
                    return None
                power += int(f.exponent)
            elif TVAR in ex.free_symbols(f):
                return None
            else:
                rest.append(f)
        return ex.emul(ex.Const(Fraction(1, power + 1)), *rest)

    if isinstance(e, ex.Add):
        pieces = [term(t) for t in e.terms]
        if any(p is None for p in pieces):
            return None
        return ex.eadd(*pieces)
    return term(e)


# ---------------------------------------------------------------------------
# Bigraded blocks; a vertical q-form is the block of bidegree (0, q)


def _sort_pair(idx_i: Tuple[int, ...], idx_j: Tuple[int, ...]):
    si, sign_i = sort_with_sign(idx_i)
    sj, sign_j = sort_with_sign(idx_j)
    return (si, sj), sign_i * sign_j


class BigradedBlock:
    """One bidegree-(p, q) component of a form on the prolongation:
    coefficients over pairs (I, J) of strictly increasing index tuples, I
    for the p frame legs ``E^i`` and J for the q vertical legs ``U^j``.
    With ``p = 0`` the block is a vertical q-form in the pullback frame."""

    def __init__(self, chart: AlgebroidChart, p: int, q: int,
                 coeffs: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], ex.Expr]):
        self.chart = chart
        self.p = p
        self.q = q
        self.coeffs: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], ex.Expr] = skew_coeffs(
            coeffs.items(), self._canon)

    def _canon(self, key):
        idx_i, idx_j = tuple(key[0]), tuple(key[1])
        if len(idx_i) != self.p or len(idx_j) != self.q:
            raise ValueError(f"index pair {(idx_i, idx_j)} does not match bidegree ({self.p},{self.q})")
        return _sort_pair(idx_i, idx_j)

    def get(self, idx_i: Sequence[int], idx_j: Sequence[int]) -> ex.Expr:
        key, sign = _sort_pair(tuple(idx_i), tuple(idx_j))
        if sign == 0:
            return ex.ZERO
        value = self.coeffs.get(key, ex.ZERO)
        return value if sign > 0 else ex.eneg(value)

    def map_coeffs(self, fn) -> "BigradedBlock":
        return BigradedBlock(self.chart, self.p, self.q,
                             {key: fn(v) for key, v in self.coeffs.items()})

    def is_structurally_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        return f"<BigradedBlock ({self.p},{self.q}), {len(self.coeffs)} coefficients>"


def dsecond(block: BigradedBlock) -> BigradedBlock:
    """Vertical part of the bigraded differential on a pure block:
    ``(-1)^p`` times the alternating fiber derivative on the vertical legs.
    On a vertical form it is the differential of the vertical algebroid,
    whose bracket is trivial and whose anchor images are the coordinate
    fields."""
    chart = block.chart
    sign = -1 if block.p % 2 else 1
    coeffs = {}
    for idx_i in itertools.combinations(range(chart.r), block.p):
        for tup in itertools.combinations(range(chart.r), block.q + 1):
            pieces = []
            for pos, j in enumerate(tup):
                rest = tup[:pos] + tup[pos + 1:]
                value = ex.diff(block.get(idx_i, rest), chart.fibers[j])
                pieces.append(value if pos % 2 == 0 else ex.eneg(value))
            total = ex.eadd(*pieces)
            coeffs[(idx_i, tup)] = ex.eneg(total) if sign < 0 else total
    return BigradedBlock(chart, block.p, block.q + 1, coeffs)


def psi_star(form: BigradedBlock, t) -> BigradedBlock:
    """Pullback along the fiber scaling: ``t^q * w(x, t y)`` on coefficients
    (the canonical transport is the identity in the pullback frame)."""
    t = ex.as_expr(t)
    if not isinstance(t, ex.Const):
        raise ValueError("scaling parameter must be numeric")
    mapping = {nm: ex.emul(t, ex.Var(nm)) for nm in form.chart.fibers}
    factor = ex.epow(t, form.q) if form.q else ex.ONE
    return form.map_coeffs(lambda v: ex.emul(factor, ex.subs(v, mapping)))


def radial_homotopy(block: BigradedBlock) -> BigradedBlock:
    """The degree-lowering radial homotopy operator on the vertical legs.

    ``(h w)_{I, j1..j(q-1)}(x, y) = (-1)^p int_0^1 t^(q-1) y^j w_{I, j j1..j(q-1)}(x, ty) dt``
    with the horizontal legs ``I`` as labels; the q = 0 case is the zero map.
    Exact symbolic integration when the scaled coefficient is polynomial in
    the parameter, else the integrand is kept as a fiber integral.  The
    input is not checked for closure (see :func:`dprime_primitive`).
    """
    chart = block.chart
    q = block.q
    if q == 0:
        return BigradedBlock(chart, block.p, 0, {})
    mapping = {nm: ex.emul(ex.Var(TVAR), ex.Var(nm)) for nm in chart.fibers}
    t_power = ex.epow(ex.Var(TVAR), q - 1) if q > 1 else ex.ONE
    sign = -1 if block.p % 2 else 1
    coeffs = {}
    for idx_i in itertools.combinations(range(chart.r), block.p):
        for rest in itertools.combinations(range(chart.r), q - 1):
            pieces = []
            for j in range(chart.r):
                value = block.get(idx_i, (j,) + rest)
                if ex.is_zero_literal(value):
                    continue
                if is_fiber_integral(value):
                    raise ValueError("radial integral of an unevaluated fiber integral is not supported")
                pieces.append(ex.emul(ex.Var(chart.fibers[j]), ex.subs(value, mapping)))
            if not pieces:
                continue
            integrand = ex.emul(t_power, ex.eadd(*pieces))
            if sign < 0:
                integrand = ex.eneg(integrand)
            exact = _integrate_unit(integrand)
            coeffs[(idx_i, rest)] = exact if exact is not None else integrand
    return BigradedBlock(chart, block.p, q - 1, coeffs)


def _zero_test(values: Sequence[ex.Expr], chart: AlgebroidChart, box: Optional[ex.Box],
               trials: int, tol: float, seed: int) -> ZeroResult:
    """Zero test of the sum of ``values``: symbolic when none is a fiber
    integral (so exact cancellation is proven), else sampled on the box with
    each integral evaluated by quadrature."""
    if not any(is_fiber_integral(v) for v in values):
        return ex.is_zero(ex.eadd(*values), box=box, trials=trials, tol=tol, seed=seed)
    terms = [fiber_value(v) for v in values]
    return ex.sample_zero(lambda env: sum(term(env) for term in terms),
                          sorted(set(chart.coords) | set(chart.fibers)),
                          box=box, trials=trials, tol=tol, seed=seed)


def dprime_primitive(block: BigradedBlock, box: ex.Box = None, trials: int = 64,
                     tol: float = 1e-9, seed: int = 0) -> BigradedBlock:
    """Constructive primitive for the vertical differential.

    Given a bidegree-(p, q) block with vanishing vertical differential,
    ``q >= 1``, returns its :func:`radial_homotopy`, whose vertical
    differential reproduces the input.  Raises :class:`NotClosed` when the
    vertical differential fails the zero test on the box.
    """
    if block.q < 1:
        raise ValueError("primitive requires vertical degree q >= 1")
    for key, value in dsecond(block).coeffs.items():
        if not _zero_test([value], block.chart, box, trials, tol, seed).is_zero:
            raise NotClosed(f"vertical differential does not vanish at {key}")
    return radial_homotopy(block)


def homotopy_identity_check(form: BigradedBlock, box: ex.Box = None, trials: int = 64,
                            tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residual of ``h(dw) + d(hw) - w + psi_star(w, 0)`` per coefficient
    of a vertical form (a block with ``p = 0``), zero-tested by
    :func:`_zero_test`.
    """
    chart = form.chart
    parts = [radial_homotopy(dsecond(form)), dsecond(radial_homotopy(form)),
             form.map_coeffs(ex.eneg), psi_star(form, 0)]
    report = ValidationReport(check="homotopy-identity", seed=seed)
    for tup in itertools.combinations(range(chart.r), form.q):
        values = [part.get((), tup) for part in parts]
        report.add(f"coeff{tuple(i + 1 for i in tup)}",
                   _zero_test(values, chart, box, trials, tol, seed))
    return report


# ---------------------------------------------------------------------------
# Randomized self-check suite (shared by the CLI and the acceptance tests)


_COEFF_POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3))


def random_polynomial(rng: random.Random, names: Sequence[str],
                      max_degree: int = 3, terms: int = 3) -> ex.Expr:
    """Random exact-coefficient polynomial: a small sum of monomials."""
    pieces = []
    for _ in range(terms):
        coeff = ex.Const(rng.choice(_COEFF_POOL))
        factors = [coeff]
        for _ in range(rng.randint(0, max_degree)):
            factors.append(ex.Var(rng.choice(list(names))))
        pieces.append(ex.emul(*factors))
    return ex.eadd(*pieces)


def random_vertical_form(rng: random.Random, chart: AlgebroidChart, degree: int,
                         max_degree: int = 3, terms: int = 2) -> BigradedBlock:
    names = chart.coords + chart.fibers
    coeffs = {}
    for tup in itertools.combinations(range(chart.r), degree):
        coeffs[((), tup)] = random_polynomial(rng, names, max_degree, terms)
    return BigradedBlock(chart, 0, degree, coeffs)


def identity_suite(ranks: Sequence[int] = (1, 2, 3), degrees: Sequence[int] = (0, 1, 2, 3),
                   forms_per_case: int = 50, seed: int = 0, tol: float = 1e-9,
                   box: ex.Box = None, trials: int = 16) -> ValidationReport:
    """Randomized homotopy-identity suite over small ranks and degrees.

    Polynomial cases must cancel exactly; one non-polynomial coefficient case
    per rank exercises the quadrature path.
    """
    report = ValidationReport(check="homotopy-suite", seed=seed)

    def add(label: str, sub: ValidationReport, ran: int):
        status = ZeroStatus.PROVEN_ZERO if sub.all_proven else (
            ZeroStatus.LIKELY_ZERO if sub.passed else ZeroStatus.NONZERO)
        failure = sub.first_failure
        report.add(label, ZeroResult(status, sub.max_residual, seed=seed, trials=ran,
                                     witness=None if failure is None else failure.result.witness))

    rng = random.Random(seed)
    for r in ranks:
        chart = tangent(r).chart
        for k in degrees:
            # Degrees above the rank carry the zero form; the identity is
            # checked vacuously so every (k, r) pair is exercised.
            for form_index in range(forms_per_case):
                form = random_vertical_form(rng, chart, k)
                add(f"r={r},k={k},form={form_index}",
                    homotopy_identity_check(form, box=box, trials=trials, tol=tol, seed=seed),
                    trials)
        # Its coefficients are fiber integrals, sampled, so never proven zero.
        fiber = ex.Var(chart.fibers[0])
        form = BigradedBlock(chart, 0, 1, {((), (j,)): ex.emul(ex.efunc("exp", fiber), fiber)
                                           for j in range(r)})
        ran = max(trials, 8)
        add(f"r={r},nonpolynomial",
            homotopy_identity_check(form, box=box, trials=ran, tol=1e-8, seed=seed), ran)
    return report
