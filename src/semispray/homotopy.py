"""Radial homotopy operators for the vertical calculus.

Forms here are plain :class:`~semispray.algebroid.AForm` s over a prolonged
chart (:func:`~semispray.algebroid.prolong_chart`).  A key's legs below the
base rank ``r`` are frame covectors ``E^i``, the rest vertical covectors
``U^j``, so each coefficient carries its bidegree ``(p, q)``.  A vertical
q-form has only vertical legs; it lives on the vertical subalgebroid in its
pullback frame, where the canonical flat transport is the identity on
coefficients, and the base coordinates ride along as parameters.

The three operators:

* ``psi_star(w, t)``:    coefficientwise ``t^q * w(x, t y)``,
* ``dsecond``:           alternating fiber derivative on the vertical legs,
* ``radial_homotopy``:   ``(h w)_{J}(x,y) = int_0^1 t^(q-1) y^j w_{jJ}(x,ty) dt``,

satisfy ``h(dw) + d(hw) = w - psi_star_0(w)``, with the ``t -> 0`` limit
vanishing in positive degree and restricting to the fiber origin in degree
zero.  Coefficients polynomial in the fibers integrate exactly by fiber
degree: the part ``w^(d)`` of degree ``d`` of ``w_{jJ}`` gives
``y^j w^(d) / (q + d)``.  The operators act on a sum of monomials as exponent
maps; a float coefficient, a quotient, a root, a negative power or a function of
a fiber takes the tree way, to the same node.  Any other integrand ``e``, where the scaling
parameter is left non-polynomial, is stored as itself and stands for
``int_0^1 e d_t``: a coefficient is a fiber integral exactly when the
reserved scaling parameter ``TVAR`` is free in it, and :func:`fiber_value`
evaluates it by adaptive Gauss–Kronrod (7/15) quadrature.

Applied with the frame legs of a coefficient treated as labels (and the
sign ``(-1)^p``), the same integral furnishes the constructive primitive for
the vertical part of the bigraded differential (``dprime_primitive``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import expr as ex
from .algebroid import AForm, AlgebroidChart, prolong_chart, tangent
from .errors import NotClosed, QuadratureFailure
from .report import ValidationReport, ZeroResult, ZeroStatus

#: Reserved name of the scaling parameter inside fiber integrals.
TVAR = "_t"

#: Halvings of the unit interval before adaptive quadrature gives up.
QUADRATURE_MAX_DEPTH = 24

#: QUADPACK ``qk15`` (Piessens et al. 1983) on ``[-1, 1]``: abscissae ``±_XGK[j]``, their
#: Kronrod weights, and the Gauss weights of ``_XGK[1]``, ``[3]``, ``[5]`` and ``[7] = 0``.
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
        0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)


# ---------------------------------------------------------------------------
# Coefficients: a tree free in ``TVAR`` stands for its unit-interval integral


def is_fiber_integral(e: ex.Expr) -> bool:
    return TVAR in ex.free_symbols(e)


def fiber_value(e: ex.Expr) -> Callable[[dict], float]:
    """``env -> float`` for the coefficient ``e``, compiled once, here: one run
    of the tree, or for a fiber integral adaptive Gauss–Kronrod (7/15) over
    ``_t``, which runs the ops that do not read ``_t`` once per ``env`` and
    the others at each node (:meth:`~semispray.expr.Program.curry`)."""
    program = ex.Program([e])
    if not is_fiber_integral(e):
        return program.value
    along = program.curry(TVAR)
    return lambda env: _adaptive_quadrature(along(env), 0.0, 1.0, 1e-10)


def _adaptive_quadrature(f, a: float, b: float, tol: float, depth: int = 0) -> float:
    """``int_a^b f`` by adaptive Gauss–Kronrod (7/15): the 15-point Kronrod
    value once the 7-point Gauss value is within ``tol`` of it, else the sum
    over the two halves, each to ``tol / 2``.  No endpoint is evaluated."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f0 = f(centre)
    kronrod, gauss = _WGK[7] * f0, _WG[3] * f0
    for j in range(7):
        pair = f(centre - half * _XGK[j]) + f(centre + half * _XGK[j])
        kronrod += _WGK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    if abs(kronrod - gauss) * half <= tol:
        return kronrod * half
    if depth >= QUADRATURE_MAX_DEPTH:
        raise QuadratureFailure(f"maximum refinement depth reached on [{a}, {b}]")
    return (_adaptive_quadrature(f, a, centre, tol / 2.0, depth + 1)
            + _adaptive_quadrature(f, centre, b, tol / 2.0, depth + 1))


def _by_degree(e: ex.Expr, names: frozenset, offset: int, keep: bool) -> Optional[ex.Expr]:
    """``sum_T T / (offset + deg T)`` over the terms ``T`` of canonical ``e``
    (of a quotient's numerator, over its denominator), ``deg T`` the degree
    of ``T`` in ``names``, whose powers are dropped from ``T`` unless
    ``keep``; None where ``T`` is not polynomial in them or the sum is < 1."""
    if isinstance(e, ex.Add):
        pieces = [_by_degree(t, names, offset, keep) for t in e.terms]
        return None if any(p is None for p in pieces) else ex.eadd(*pieces)
    if isinstance(e, ex.Div):
        if not names.isdisjoint(ex.free_symbols(e.den)):
            return None
        inner = _by_degree(e.num, names, offset, keep)
        return None if inner is None else ex.ediv(inner, e.den)
    degree, rest = offset, []
    for f in e.factors if isinstance(e, ex.Mul) else (e,):
        base, power = (f.base, f.exponent) if isinstance(f, ex.Pow) else (f, 1)
        if isinstance(base, ex.Var) and base.name in names:
            if power.denominator != 1 or power < 0:
                return None
            degree += int(power)
            if keep:
                rest.append(f)
        elif isinstance(base, (ex.Var, ex.Const)) or names.isdisjoint(ex.free_symbols(f)):
            rest.append(f)
        else:
            return None
    return ex.emul(ex.Const(Fraction(1, degree)), *rest) if degree >= 1 else None


# ---------------------------------------------------------------------------
# Operators on forms over a prolonged chart, one bidegree component at a time


def bigrade(form: AForm) -> Dict[Tuple[int, int], AForm]:
    """Split a form on the prolongation into its bidegree components.

    A key's legs below ``r`` are frame covectors ``E^i`` (bidegree (1,0)),
    the rest vertical covectors ``U^j`` (bidegree (0,1)).
    """
    r = form.chart.base.r
    blocks: Dict[Tuple[int, int], Dict] = {}
    for key, value in form.coeffs.items():
        p = sum(a < r for a in key)
        blocks.setdefault((p, form.degree - p), {})[key] = value
    return {pq: AForm(form.chart, form.degree, coeffs) for pq, coeffs in blocks.items()}


def _monomial_reader(chart: AlgebroidChart) -> Callable[[ex.Expr], Optional[list]]:
    """``read(e)``, memoized: the ``expr._factor_map`` pairs ``(coefficient, {base:
    exponent})`` of the terms of ``e`` where each is a monomial, an exact coefficient
    times positive integer powers of ``Var``s and of ``Func``s that read no fiber; else None."""
    barred = frozenset(chart.fibers) | {TVAR}
    memo: dict = {}

    def read(e: ex.Expr) -> Optional[list]:
        if e not in memo:
            pairs = [ex._factor_map(t) for t in (e.terms if isinstance(e, ex.Add) else (e,))]
            memo[e] = pairs if all(not isinstance(c, float) and all(
                type(k) is int and k > 0 and (base.name != TVAR if isinstance(base, ex.Var) else
                                              isinstance(base, ex.Func)
                                              and barred.isdisjoint(ex.free_symbols(base)))
                for base, k in powers.items()) for c, powers in pairs) else None
        return memo[e]

    return read


def dsecond(form: AForm) -> AForm:
    """Vertical part of the bigraded differential: on each bidegree-(p, q)
    component, ``(-1)^p`` times the alternating fiber derivative on the
    vertical legs.  On a vertical form it is the differential of the vertical
    algebroid, whose bracket is trivial and whose anchor images are the
    coordinate fields.  An output whose inputs are sums of monomials
    (:func:`_monomial_reader`) is derived on their exponent maps, else by ``diff``."""
    chart = form.chart.base
    r = chart.r
    ys = [ex.Var(y) for y in chart.fibers]
    read = _monomial_reader(chart)
    coeffs = {}
    for (p, q), block in bigrade(form).items():
        for idx_i in itertools.combinations(range(r), p):
            for tup in itertools.combinations(range(r, 2 * r), q + 1):
                legs = [(ys[j - r], block.get(idx_i + tup[:pos] + tup[pos + 1:]))
                        for pos, j in enumerate(tup)]
                monomials = []
                for pos, (y, v) in enumerate(legs):
                    if (pairs := read(v)) is None:
                        break
                    sign = -1 if (p + pos) % 2 else 1
                    monomials += [(sign * k * c, {b: e - (b is y) for b, e in m.items()
                                                  if b is not y or e > 1})
                                  for c, m in pairs if (k := m.get(y))]
                else:
                    coeffs[idx_i + tup] = ex._assemble(monomials)
                    continue
                total = ex.eadd(*[ex.eneg(ex.diff(v, y)) if pos % 2 else ex.diff(v, y)
                                  for pos, (y, v) in enumerate(legs)])
                coeffs[idx_i + tup] = ex.eneg(total) if p % 2 else total
    return AForm(form.chart, form.degree + 1, coeffs)


def psi_star(form: AForm, t) -> AForm:
    """Pullback along the fiber scaling: ``t^q * w(x, t y)`` on each
    coefficient with ``q`` vertical legs (the canonical transport is the
    identity in the pullback frame).  At ``t = 0`` a sum of monomials is read, not
    substituted: 0 if ``q >= 1``, else its fiber-free terms; ``1/y1`` still raises."""
    t = ex.as_expr(t)
    if not isinstance(t, ex.Const):
        raise ValueError("scaling parameter must be numeric")
    mapping = {nm: ex.emul(t, ex.Var(nm)) for nm in form.chart.base.fibers}
    fibers = {ex.Var(y) for y in form.chart.base.fibers}
    read = _monomial_reader(form.chart.base)
    coeffs = {}
    for (_, q), block in bigrade(form).items():
        factor = ex.epow(t, q) if q else ex.ONE
        for key, v in block.coeffs.items():
            if (pairs := read(v) if t.value == 0 else None) is None:
                coeffs[key] = ex.emul(factor, ex.subs(v, mapping))
            elif not q:
                coeffs[key] = ex._assemble([(c, m) for c, m in pairs if fibers.isdisjoint(m)])
    return AForm(form.chart, form.degree, coeffs)


def radial_homotopy(form: AForm) -> AForm:
    """The degree-lowering radial homotopy operator on the vertical legs.

    ``(h w)_{I, j1..j(q-1)}(x, y) = (-1)^p int_0^1 t^(q-1) y^j w_{I, j j1..j(q-1)}(x, ty) dt``
    on each bidegree-(p, q) component, with the frame legs ``I`` as labels;
    it is the zero map on components with q = 0.  Where ``(-1)^p y^j w`` is polynomial
    in the fibers (none under a root or in a denominator), the part ``w^(d)`` of
    degree ``d`` of ``w`` gives ``(-1)^p y^j w^(d) / (q + d)``, with no substitution:
    on exponent maps where each ``w`` is a sum of monomials (:func:`_monomial_reader`).
    Any other output is built from its integrand (``y -> ty``, times ``t^(q-1)``),
    integrated term by term where the parameter is left polynomial in it, else
    kept as a fiber integral.  The input is not checked for closure.
    """
    chart = form.chart.base
    r = chart.r
    fibers = frozenset(chart.fibers)
    ys = [ex.Var(y) for y in chart.fibers]
    read = _monomial_reader(chart)
    coeffs = {}
    for (p, q), block in bigrade(form).items():
        if q == 0:
            continue
        sign = ex.eneg if p % 2 else (lambda e: e)
        for idx_i in itertools.combinations(range(r), p):
            for rest in itertools.combinations(range(r, 2 * r), q - 1):
                values = [(y, v) for j, y in enumerate(ys)
                          if not ex.is_zero_literal(v := block.get(idx_i + (r + j,) + rest))]
                if not values:
                    continue
                monomials = []  # (-1)^p y^j w_j, a term of fiber degree D over q - 1 + D
                for y, v in values:
                    if (pairs := read(v)) is None:
                        break
                    monomials += [(Fraction(-c if p % 2 else c, q + sum(m.get(f, 0) for f in ys)),
                                   {**m, y: m.get(y, 0) + 1}) for c, m in pairs]
                else:
                    coeffs[idx_i + rest] = ex._assemble(monomials)
                    continue
                # A fiber under a root or in a denominator takes the integrand way:
                # y*y^(1/2) and y*(2/y) merge in the contraction, not in the integrand.
                apart = False
                for node in ex.distinct_nodes(*(v for _, v in values)):
                    if isinstance(node, ex.Var) and node.name == TVAR:
                        raise ValueError("radial integral of an unevaluated fiber integral is not supported")
                    if isinstance(node, ex.Pow) and node.exponent.denominator != 1:
                        apart = apart or not fibers.isdisjoint(ex.free_symbols(node.base))
                    elif isinstance(node, ex.Div):
                        apart = apart or not fibers.isdisjoint(ex.free_symbols(node.den))
                exact = None if apart else _by_degree(
                    sign(ex.eadd(*[ex.emul(y, v) for y, v in values])), fibers, q - 1, True)
                if exact is None:
                    mapping = {nm: ex.emul(ex.Var(TVAR), ex.Var(nm)) for nm in chart.fibers}
                    integrand = sign(ex.emul(ex.epow(ex.Var(TVAR), q - 1), ex.eadd(
                        *[ex.emul(y, ex.subs(v, mapping)) for y, v in values])))
                    exact = _by_degree(integrand, frozenset((TVAR,)), 1, False)
                coeffs[idx_i + rest] = integrand if exact is None else exact
    return AForm(form.chart, form.degree - 1, coeffs)


def _zero_test(values: Sequence[ex.Expr], chart: AlgebroidChart, box: Optional[ex.Box],
               trials: int, tol: float, seed: int) -> ZeroResult:
    """Zero test of ``total``, the sum of ``values``; it stands for the sum of
    their integrals.  Symbolic when the scaling parameter is not free in
    ``total``, so cancellation, of integrands too, is proven; else ``total`` is
    compiled once and sampled on the box over the chart's coordinates and
    parameters, with one quadrature per point."""
    total = ex.eadd(*values)
    if not is_fiber_integral(total):
        return ex.is_zero(total, box=box, trials=trials, tol=tol, seed=seed)
    return ex.sample_zero(fiber_value(total), sorted(set(chart.coords) | set(chart.params)),
                          box=box, trials=trials, tol=tol, seed=seed)


def dprime_primitive(form: AForm, box: ex.Box = None, trials: int = 64,
                     tol: float = 1e-9, seed: int = 0) -> AForm:
    """Constructive primitive for the vertical differential.

    Given a form with vanishing vertical differential and at least one
    vertical leg in every coefficient, returns its :func:`radial_homotopy`,
    whose vertical differential reproduces the input.  Raises
    :class:`NotClosed` when the vertical differential fails the zero test on
    the box.
    """
    if form.degree < 1 or any(q == 0 for _, q in bigrade(form)):
        raise ValueError("primitive requires vertical degree q >= 1")
    for key, value in dsecond(form).coeffs.items():
        if not _zero_test([value], form.chart, box, trials, tol, seed).is_zero:
            raise NotClosed(f"vertical differential does not vanish at {key}")
    return radial_homotopy(form)


def homotopy_identity_check(form: AForm, box: ex.Box = None, trials: int = 64,
                            tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residual of ``h(dw) + d(hw) - w + psi_star(w, 0)`` per coefficient
    of a vertical form (every leg vertical), zero-tested by
    :func:`_zero_test`.
    """
    r = form.chart.base.r
    parts = [radial_homotopy(dsecond(form)), dsecond(radial_homotopy(form)),
             form.map_coeffs(ex.eneg), psi_star(form, 0)]
    report = ValidationReport(check="homotopy-identity", seed=seed)
    for tup in itertools.combinations(range(r, 2 * r), form.degree):
        values = [part.get(tup) for part in parts]
        report.add(f"coeff{tuple(j - r + 1 for j in tup)}",
                   _zero_test(values, form.chart, box, trials, tol, seed))
    return report


# ---------------------------------------------------------------------------
# Randomized self-check suite (shared by the CLI and the acceptance tests)


_COEFF_POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(3))


def random_polynomial(rng: random.Random, names: Sequence[str]) -> ex.Expr:
    """Random exact-coefficient polynomial: a sum of two monomials of
    degree at most 3."""
    pieces = []
    for _ in range(2):
        coeff = ex.Const(rng.choice(_COEFF_POOL))
        factors = [coeff]
        for _ in range(rng.randint(0, 3)):
            factors.append(ex.Var(rng.choice(list(names))))
        pieces.append(ex.emul(*factors))
    return ex.eadd(*pieces)


def random_vertical_form(rng: random.Random, chart: AlgebroidChart, degree: int) -> AForm:
    """A random vertical ``degree``-form on the prolongation of ``chart``."""
    names = chart.coords + chart.fibers
    coeffs = {}
    for tup in itertools.combinations(range(chart.r, 2 * chart.r), degree):
        coeffs[tup] = random_polynomial(rng, names)
    return AForm(prolong_chart(chart), degree, coeffs)


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
        form = AForm(prolong_chart(chart), 1, {(r + j,): ex.emul(ex.efunc("exp", fiber), fiber)
                                               for j in range(r)})
        ran = max(trials, 8)
        add(f"r={r},nonpolynomial",
            homotopy_identity_check(form, box=box, trials=ran, tol=1e-8, seed=seed), ran)
    return report
