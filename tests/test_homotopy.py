import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semispray import expr as ex
from semispray import homotopy as ho
from semispray.algebroid import AForm, AlgebroidChart, prolong_chart, tangent
from semispray.errors import DomainError, NotClosed, QuadratureFailure
from semispray.report import ZeroStatus

from helpers import (assert_proven_zero, random_polynomial, reference_dsecond, reference_psi_star,
                     reference_radial_homotopy, reference_value)


def prolong_key(chart, idx_i, idx_j):
    """The key of the prolongation frame with frame legs ``idx_i`` and
    vertical legs ``idx_j`` (each counted from 0)."""
    return tuple(idx_i) + tuple(chart.r + j for j in idx_j)


def vertical_form(chart, degree, coeffs):
    """A vertical form on the prolongation of ``chart``: every leg vertical."""
    return AForm(prolong_chart(chart), degree,
                 {prolong_key(chart, (), idx): v for idx, v in coeffs.items()})


def vget(form, idx):
    """The coefficient of a form on the prolongation at vertical legs ``idx``."""
    return form.get(prolong_key(form.chart.base, (), idx))


def vertical_tuples(form):
    return itertools.combinations(range(form.chart.base.r), form.degree)


def ceval(value, env):
    """A coefficient's value: a fiber integral by quadrature, else the expression's."""
    if ho.is_fiber_integral(value):
        return ho.fiber_value(value)(env)
    return reference_value(value, env)


@pytest.fixture(scope="module")
def rank1():
    return tangent(1).chart


@pytest.fixture(scope="module")
def rank2():
    return tangent(2).chart


@pytest.fixture(scope="module")
def rank3():
    return tangent(3).chart


class TestSkewStore:
    def test_cancelling_duplicate_index_leaves_no_coefficient(self, rank2):
        # (0,1) and (1,0) carry the same value, so the form is zero.
        y1 = ex.Var("y1")
        vertical = vertical_form(rank2, 2, {(0, 1): y1, (1, 0): y1})
        horizontal = AForm(prolong_chart(rank2), 2, {(0, 1): y1, (1, 0): y1})
        base = AForm(rank2, 2, {(0, 1): y1, (1, 0): y1})
        assert vertical.coeffs == horizontal.coeffs == base.coeffs == {}

    def test_fiber_integrals_are_stored_with_their_sign(self, rank2):
        value = ex.parse("exp(_t*y1)", ("_t", "y1"))
        block = vertical_form(rank2, 2, {(1, 0): value})
        env = {"y1": 0.5}
        assert ceval(block.coeffs[prolong_key(rank2, (), (0, 1))], env) == -ceval(value, env)
        assert ceval(vget(block, (1, 0)), env) == ceval(value, env)

    def test_fiber_integral_compiles_its_integrand_once(self, monkeypatch):
        # A check evaluates the same integral at every sample point.
        built = []
        build = ex.Program.__init__
        monkeypatch.setattr(ex.Program, "__init__",
                            lambda self, exprs: built.append(exprs) or build(self, exprs))
        value = ho.fiber_value(ex.parse("exp(_t*y1)", ("_t", "y1")))
        got = [value({"y1": y}) for y in (0.5, 1.0)]
        assert len(built) == 1
        assert got == [pytest.approx(math.expm1(y) / y, rel=1e-9) for y in (0.5, 1.0)]

    def test_coefficient_free_of_the_parameter_is_its_own_value(self, rank2, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("a t-free coefficient went through quadrature")

        monkeypatch.setattr(ho, "_adaptive_quadrature", no_quadrature)
        value = ex.parse("x1*exp(y1) + y2^2/3", rank2.alphabet)
        env = {"x1": 0.3, "x2": -0.4, "y1": 0.7, "y2": -1.1}
        assert not ho.is_fiber_integral(value)
        assert ho.fiber_value(value)(env) == ex.evaluate(value, env)


class TestQuadrature:
    @pytest.mark.parametrize("y", [-1.0, -0.73, -1e-9, 0.0, 1e-12, 0.31, 0.5, 1.0])
    def test_one_panel_integrates_an_exponential_to_roundoff(self, y):
        # int_0^1 y * exp(t*y) dt = expm1(y), accepted on the first panel.
        calls = []

        def f(t):
            calls.append(t)
            return y * math.exp(t * y)

        assert ho._adaptive_quadrature(f, 0.0, 1.0, 1e-10) == pytest.approx(math.expm1(y),
                                                                              rel=1e-15)
        assert len(calls) == 15
        assert 0.0 not in calls and 1.0 not in calls

    def test_polynomial_of_degree_twelve(self):
        value = ho.fiber_value(ex.parse("_t^12*y1", ("_t", "y1")))
        for y in (-2.5, -0.3, 0.7, 3.0):
            assert value({"y1": y}) == pytest.approx(y / 13, rel=1e-15)

    def test_endpoint_singularity_exhausts_the_depth(self):
        value = ho.fiber_value(ex.parse("x1/_t", ("_t", "x1")))
        with pytest.raises(QuadratureFailure, match="maximum refinement depth"):
            value({"x1": 0.5})

    def test_zero_test_compiles_the_summed_integrand_once(self, rank1, monkeypatch):
        built = []
        build = ex.Program.__init__
        monkeypatch.setattr(ex.Program, "__init__",
                            lambda self, exprs: built.append(exprs) or build(self, exprs))
        alphabet = ("_t",) + rank1.alphabet
        values = [ex.parse(text, alphabet) for text in
                  ("exp(_t*y1)*y1", "-exp(y1) + 1", "_t*x1*sin(y1)", "-x1*sin(y1)/2")]
        result = ho._zero_test(values, prolong_chart(rank1), None, 16, 1e-9, 0)
        assert result.status is ZeroStatus.LIKELY_ZERO
        assert result.max_residual < 1e-14
        assert len(built) == 1

    def test_cancelling_integrands_are_proven_zero(self, rank1):
        integral = ex.parse("exp(_t*y1)*y1", ("_t",) + rank1.alphabet)
        result = ho._zero_test([integral, ex.eneg(integral)], prolong_chart(rank1),
                               None, 16, 1e-9, 0)
        assert result.status is ZeroStatus.PROVEN_ZERO


class TestPsiStar:
    def test_degree_zero_rescales_fibers(self, rank2):
        phi = vertical_form(rank2, 0, {(): ex.parse("x1*y1 + y2^2", rank2.alphabet)})
        scaled = ho.psi_star(phi, Fraction(1, 2))
        expected = ex.parse("1/2*x1*y1 + 1/4*y2^2", rank2.alphabet)
        assert scaled.coeffs[()] == expected

    def test_degree_one_picks_up_weight(self, rank1):
        w = vertical_form(rank1, 1, {(0,): ex.parse("y1^2", rank1.alphabet)})
        scaled = ho.psi_star(w, Fraction(1, 2))
        assert vget(scaled, (0,)) == ex.parse("1/8*y1^2", rank1.alphabet)

    def test_unit_parameter_is_identity(self, rank2):
        rng = random.Random(1)
        w = ho.random_vertical_form(rng, rank2, 2)
        scaled = ho.psi_star(w, 1)
        assert scaled.coeffs == w.coeffs

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_zero_parameter_restricts_to_the_fiber_origin(self, rank):
        # The t -> 0 limit: the restriction to the fiber origin in degree 0,
        # the zero form in every positive degree.
        chart = tangent(rank).chart
        origin = {nm: ex.ZERO for nm in chart.fibers}
        rng = random.Random(rank)
        for degree in range(rank + 1):
            for _ in range(10):
                w = ho.random_vertical_form(rng, chart, degree)
                limit = ho.psi_star(w, 0)
                if degree:
                    assert limit.coeffs == {}
                else:
                    restricted = ex.subs(vget(w, ()), origin)
                    assert vget(limit, ()) == restricted
                    assert limit.coeffs == ({} if ex.is_zero_literal(restricted)
                                            else {(): restricted})


class TestHOperator:
    def test_weighted_radial_integral_on_line(self, rank1):
        w = vertical_form(rank1, 1, {(0,): ex.parse("y1^2", rank1.alphabet)})
        hw = ho.radial_homotopy(w)
        assert vget(hw, ()) == ex.parse("y1^3/3", rank1.alphabet)

    def test_constant_area_form(self, rank2):
        w = vertical_form(rank2, 2, {(0, 1): ex.ONE})
        hw = ho.radial_homotopy(w)
        assert vget(hw, (0,)) == ex.parse("-1/2*y2", rank2.alphabet)
        assert vget(hw, (1,)) == ex.parse("1/2*y1", rank2.alphabet)

    def test_quotient_with_a_basic_denominator_integrates_exactly(self, rank1):
        w = vertical_form(rank1, 1, {(0,): ex.parse("y1/(1 + x1^2)", rank1.alphabet)})
        hw = ho.radial_homotopy(w)
        assert vget(hw, ()) == ex.parse("1/2*y1^2/(1 + x1^2)", rank1.alphabet)

    def test_quotient_with_a_fiber_denominator_stays_an_integral(self, rank1):
        # int_0^1 t*y^2/(1 + t^2*y^2) dt = log(1 + y^2)/2
        w = vertical_form(rank1, 1, {(0,): ex.parse("y1/(1 + y1^2)", rank1.alphabet)})
        hw = vget(ho.radial_homotopy(w), ())
        assert ho.is_fiber_integral(hw)
        assert ceval(hw, {"x1": 0.2, "y1": 0.7}) == pytest.approx(math.log1p(0.49) / 2,
                                                                  rel=1e-9)

    def test_degree_zero_is_zero_map(self, rank2):
        w = vertical_form(rank2, 0, {(): ex.Var("y1")})
        assert ho.radial_homotopy(w).coeffs == {}

    def test_fiber_integral_input_is_refused(self, rank1):
        # The radial integral of an integral would need a second parameter.
        integral = ex.parse("exp(_t*y1)", ("_t", "y1"))
        w = vertical_form(rank1, 1, {(0,): integral})
        with pytest.raises(ValueError, match="fiber integral"):
            ho.radial_homotopy(w)

    def test_inverts_differential_on_closed_one_forms(self, rank3):
        rng = random.Random(2)
        for _ in range(10):
            phi = vertical_form(rank3, 0, {(): random_polynomial(rng, rank3.alphabet)})
            closed = ho.dsecond(phi)  # exact, hence closed
            again = ho.dsecond(ho.radial_homotopy(closed))
            for tup in vertical_tuples(closed):
                assert_proven_zero(ex.eadd(vget(again, tup), ex.eneg(vget(closed, tup))))


class TestHomotopyIdentity:
    @pytest.mark.parametrize("rank,degree", [(r, k) for r in (1, 2, 3) for k in range(r + 1)])
    def test_polynomial_cases_cancel_exactly(self, rank, degree):
        chart = tangent(rank).chart
        rng = random.Random(rank * 10 + degree)
        for _ in range(5):
            w = ho.random_vertical_form(rng, chart, degree)
            report = ho.homotopy_identity_check(w)
            assert report.passed and report.all_proven

    def test_degree_zero_case(self, rank2):
        # h(d phi) recovers phi minus its restriction to the fiber origin.
        phi_expr = ex.parse("x1*y1^2 + y2 + x2", rank2.alphabet)
        phi = vertical_form(rank2, 0, {(): phi_expr})
        recovered = ho.radial_homotopy(ho.dsecond(phi))
        expected = ex.eadd(phi_expr, ex.eneg(ex.subs(phi_expr, {"y1": ex.ZERO, "y2": ex.ZERO})))
        assert vget(recovered, ()) == expected

    def test_nonpolynomial_coefficient_via_quadrature(self, rank1):
        w = vertical_form(rank1, 1,
                            {(0,): ex.parse("exp(y1)*y1", rank1.alphabet)})
        report = ho.homotopy_identity_check(w, tol=1e-8)
        assert report.passed
        assert report.max_residual < 1e-8

    def test_chart_parameters_are_sampled(self):
        # A fiber integral whose integrand holds a chart parameter is sampled
        # over the parameter too, as the exact branch is.
        chart = AlgebroidChart(["x1"], ["y1"], [[1]], {}, params=["a"])
        for text in ("a*y1", "a*exp(y1)"):
            w = vertical_form(chart, 1, {(0,): chart.parse(text)})
            report = ho.homotopy_identity_check(w, tol=1e-8)
            assert report.passed, text

    def test_quadrature_value_matches_closed_form(self, rank1):
        # int_0^1 y * exp(t*y) dt = exp(y) - 1.
        w = vertical_form(rank1, 1, {(0,): ex.parse("exp(y1)", rank1.alphabet)})
        hw = ho.radial_homotopy(w)
        value = ceval(vget(hw, ()), {"y1": 0.7})
        assert value == pytest.approx(math.exp(0.7) - 1.0, abs=1e-10)


class TestVanishingCohomology:
    def test_every_closed_positive_degree_form_has_primitive(self, rank3):
        rng = random.Random(4)
        for degree in (1, 2):
            for _ in range(10):
                seed_form = ho.random_vertical_form(rng, rank3, degree - 1)
                closed = ho.dsecond(seed_form)
                primitive = ho.radial_homotopy(closed)
                reproduced = ho.dsecond(primitive)
                for tup in vertical_tuples(closed):
                    assert_proven_zero(ex.eadd(vget(reproduced, tup), ex.eneg(vget(closed, tup))))


class TestPullbackFrameSpecialization:
    def test_scaling_needs_the_pullback_frame(self, rank2):
        # The trivial-transport formula t^k * w(x, ty) computes the canonical
        # scaling operator only on pullback-frame coefficients.  Expressing
        # the same 1-form in a fiber-dependent frame and scaling its raw
        # coefficients gives a different (wrong) answer; a constant frame
        # change commutes with the formula.
        w = vertical_form(rank2, 1, {(0,): ex.parse("y2", rank2.alphabet),
                                       (1,): ex.parse("y1*y2", rank2.alphabet)})
        t = Fraction(1, 2)
        canonical = ho.psi_star(w, t)

        def to_frame(form, shear_expr):
            # Coefficients on the frame (U1, U2 + shear * U1).
            return {(0,): vget(form, (0,)),
                    (1,): ex.eadd(vget(form, (1,)), ex.emul(shear_expr, vget(form, (0,))))}

        shear = ex.parse("y2^2", rank2.alphabet)
        sheared = vertical_form(rank2, 1, to_frame(w, shear))
        naive = ho.psi_star(sheared, t)
        expected = to_frame(canonical, shear)  # frame change at the base point
        mismatch = ex.eadd(vget(naive, (1,)), ex.eneg(expected[(1,)]))
        assert ex.is_zero(mismatch, seed=5).status is ZeroStatus.NONZERO

        constant = ex.Const(Fraction(3))
        sheared_const = vertical_form(rank2, 1, to_frame(w, constant))
        naive_const = ho.psi_star(sheared_const, t)
        expected_const = to_frame(canonical, constant)
        for tup in ((0,), (1,)):
            assert_proven_zero(ex.eadd(vget(naive_const, tup), ex.eneg(expected_const[tup])))


class TestBigradedPrimitive:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_roundtrip_on_random_closed_blocks(self, rank):
        chart = tangent(rank).chart
        rng = random.Random(rank)
        cases = 0
        while cases < 20:
            p = rng.randint(0, min(2, rank))
            q = rng.randint(1, min(2, rank))
            if p + q > 3:
                continue
            coeffs = {}
            for idx_i in itertools.combinations(range(rank), p):
                for idx_j in itertools.combinations(range(rank), q - 1):
                    coeffs[prolong_key(chart, idx_i, idx_j)] = random_polynomial(rng, chart.alphabet)
            seed_block = AForm(prolong_chart(chart), p + q - 1, coeffs)
            closed = ho.dsecond(seed_block)
            primitive = ho.dprime_primitive(closed)
            reproduced = ho.dsecond(primitive)
            for key in set(reproduced.coeffs) | set(closed.coeffs):
                assert_proven_zero(ex.eadd(reproduced.get(key), ex.eneg(closed.get(key))))
            cases += 1

    def test_m_block_of_line_kinetic_energy(self, rank1):
        # The mixed block of the fundamental 2-section of L = y^2/2 has the
        # single constant coefficient -1 in the (E, nu) ordering; its
        # primitive is the fiber coordinate on the frame leg.
        block = AForm(prolong_chart(rank1), 2, {prolong_key(rank1, (0,), (0,)): ex.MINUS_ONE})
        primitive = ho.dprime_primitive(block)
        assert primitive.get((0,)) == ex.Var("y1")

    def test_zero_block(self, rank2):
        block = AForm(prolong_chart(rank2), 2, {})
        assert ho.dprime_primitive(block).coeffs == {}

    def test_basic_coefficient_block(self, rank2):
        # Constant-in-fiber coefficients integrate against t^0 only.
        block = vertical_form(rank2, 1, {(0,): ex.Var("x1")})
        primitive = ho.dprime_primitive(block)
        assert vget(primitive, ()) == ex.parse("x1*y1", rank2.alphabet)

    def test_non_closed_block_rejected(self, rank2):
        block = vertical_form(rank2, 1, {(0,): ex.Var("y2")})
        with pytest.raises(NotClosed):
            ho.dprime_primitive(block)

    def test_requires_positive_vertical_degree(self, rank2):
        block = AForm(prolong_chart(rank2), 1, {(0,): ex.ONE})
        with pytest.raises(ValueError):
            ho.dprime_primitive(block)


class TestIdentitySuite:
    def test_small_suite_passes(self):
        report = ho.identity_suite(ranks=(1, 2), degrees=(0, 1, 2), forms_per_case=3, seed=9)
        assert report.passed
        polynomial_items = [i for i in report.items if "nonpolynomial" not in i.label]
        assert all(i.result.status is ZeroStatus.PROVEN_ZERO for i in polynomial_items)

    def test_reports_the_trials_that_ran(self):
        # The nonpolynomial items sample at least 8 points whatever ``trials`` is.
        report = ho.identity_suite(ranks=(1,), degrees=(0,), forms_per_case=1, seed=2, trials=3)
        trials = {i.label: i.result.trials for i in report.items}
        assert trials == {"r=1,k=0,form=0": 3, "r=1,nonpolynomial": 8}


# ---------------------------------------------------------------------------
# Radial integral by fiber degree against the substitution operator


_COEFFS = (Fraction(1), Fraction(-1), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-1, 3))


def _factors(chart):
    """Every kind of factor a coefficient is drawn from: coordinates, their
    squares, ``exp``/``sin``, roots and negative powers, of base coordinates
    and of fibers."""
    out = []
    for name in chart.coords + chart.fibers:
        v = ex.Var(name)
        out += [v, ex.epow(v, 2), ex.efunc("exp", v), ex.efunc("sin", v),
                ex.epow(v, Fraction(1, 2)), ex.epow(v, -1)]
    return out


def _denominators(chart):
    """Base denominators, and fiber ones: a fiber, a fiber monomial, a sum."""
    out = []
    for x, y in zip(chart.coords, chart.fibers):
        out += [ex.parse(text, chart.alphabet) for text in
                (x, f"1 + {x}^2", f"{x}*{chart.coords[0]} + 2", y, f"{x}*{y}", f"1 + {y}^2")]
    return out


def _monomial_factors(chart):
    """The factors of a fiber-polynomial monomial: coordinates and their
    squares, ``exp``/``sin`` of base coordinates."""
    out = []
    for x, y in zip(chart.coords, chart.fibers):
        out += [ex.Var(x), ex.Var(y), ex.epow(ex.Var(y), 2), ex.efunc("exp", ex.Var(x)),
                ex.efunc("sin", ex.emul(ex.Const(2), ex.Var(x)))]
    return out


@st.composite
def coefficients(draw, chart, monomials=False):
    """A sum of one to three terms, each a monomial or a quotient of a sum
    of monomials; all coefficients exact, or all their float twins.  With
    ``monomials``, half the sums hold only exact fiber-polynomial monomials."""
    if monomials and draw(st.booleans()):
        factors = _monomial_factors(chart)
        return ex.eadd(*[ex.emul(ex.Const(draw(st.sampled_from(_COEFFS))),
                                 *draw(st.lists(st.sampled_from(factors), max_size=4)))
                         for _ in range(draw(st.integers(1, 4)))])
    twin = draw(st.booleans())
    factors, dens = _factors(chart), _denominators(chart)

    def monomial():
        c = draw(st.sampled_from(_COEFFS))
        return ex.emul(ex.Const(float(c) if twin else c),
                       *draw(st.lists(st.sampled_from(factors), max_size=3)))

    def term():
        if draw(st.booleans()):
            return monomial()
        num = ex.eadd(*[monomial() for _ in range(draw(st.integers(1, 3)))])
        return ex.ediv(num, draw(st.sampled_from(dens)))

    return ex.eadd(*[term() for _ in range(draw(st.integers(1, 3)))])


@st.composite
def prolonged_forms(draw, monomials=False, min_degree=1):
    """A form on the prolongation of ``tangent(r)``: any legs, frame ones
    included, with a coefficient on some keys; now and then one is a fiber
    integral, which the radial operator refuses."""
    r = draw(st.integers(1, 3))
    chart = tangent(r).chart
    degree = draw(st.integers(min_degree, min(3, 2 * r)))
    keys = list(itertools.combinations(range(2 * r), degree))
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    coeffs = {key: draw(coefficients(chart, monomials)) for key in chosen}
    if draw(st.integers(0, 19)) == 0:
        scaled = ex.efunc("exp", ex.emul(ex.Var(ho.TVAR), ex.Var(chart.fibers[0])))
        coeffs[chosen[0]] = ex.emul(coeffs[chosen[0]], scaled)
    return AForm(prolong_chart(chart), degree, coeffs)


def _outcome(call):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call()
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


class TestRadialByDegree:
    @settings(max_examples=300, deadline=None)
    @given(prolonged_forms())
    def test_same_node_as_the_substitution_operator(self, form):
        want = _outcome(lambda: reference_radial_homotopy(form))
        got = _outcome(lambda: ho.radial_homotopy(form))
        if isinstance(want, AForm):
            assert isinstance(got, AForm) and got.coeffs.keys() == want.coeffs.keys()
            for key, value in want.coeffs.items():
                assert got.coeffs[key] is value, key
        else:
            assert got == want

    @pytest.mark.parametrize("text,want", [
        # The sign applies before the 1/(q + d) scaling: 3.0/3 = 1.0 is a
        # float factor the product keeps, -(1.0) would not be.
        ("3.0*y1^2", "-1.0*y1^3"),
        ("-3.0*y1^2", "y1^3"),
        ("y1*x1/(1 + x1^2)", "-1/2*x1*y1^2/(1 + x1^2)"),
    ])
    def test_frame_leg_sign_before_scaling(self, rank1, text, want):
        form = AForm(prolong_chart(rank1), 2, {(0, 1): ex.parse(text, rank1.alphabet)})
        got = ho.radial_homotopy(form).get((0,))
        assert got is reference_radial_homotopy(form).get((0,))
        assert ex.to_text(got) == ex.to_text(ex.parse(want, rank1.alphabet))

    @pytest.mark.parametrize("text", ["y2/y1", "y1^-1*y2^2", "x1*y2/(y1*x2)"])
    def test_parameter_cancelling_fiber_powers_still_integrate_exactly(self, rank2, text):
        # The scaling parameter cancels out of these quotients and negative
        # powers, so the substitution operator integrated them exactly.
        form = vertical_form(rank2, 1, {(0,): ex.parse(text, rank2.alphabet)})
        got = vget(ho.radial_homotopy(form), ())
        assert not ho.is_fiber_integral(got)
        assert got is vget(reference_radial_homotopy(form), ())

    @pytest.mark.parametrize("coeffs", [
        # y1*y2^(1/2) - y2*y1*y2^(-1/2) cancels, but its scaled form
        # t*y1*(t*y2)^(1/2) - t^2*y1*y2*(t*y2)^(-1/2) does not.
        {(0, 2): "y2^(1/2) + y1", (1, 2): "-y1*y2^(-1/2)"},
        # y1*(1 - 2/y1 + 2/y1) is y1, but -2/t and 2/t are distinct terms.
        {(0,): "1 - 2/y1 + 2/y1"},
    ])
    def test_what_cancels_only_unscaled_stays_an_integral(self, rank3, coeffs):
        form = vertical_form(rank3, len(next(iter(coeffs))),
                             {idx: ex.parse(text, rank3.alphabet) for idx, text in coeffs.items()})
        got, want = ho.radial_homotopy(form).coeffs, reference_radial_homotopy(form).coeffs
        assert got.keys() == want.keys()
        assert all(got[key] is value for key, value in want.items())
        assert any(ho.is_fiber_integral(value) for value in got.values())

    def test_fiber_polynomial_form_builds_no_scaling_parameter(self, rank2, monkeypatch):
        def refuse(*args):
            raise AssertionError("a fiber-polynomial coefficient went through subs")

        built = []
        new = ex.Var.__new__

        def spy(cls, name):
            built.append(name)
            return new(cls, name)

        mixed = ex.parse("x1*y1^2 + y2/(1 + x2^2) - 1/2*sin(x1)*y1*y2", rank2.alphabet)
        form = AForm(prolong_chart(rank2), 2, {
            prolong_key(rank2, (0,), (0,)): ex.emul(ex.Const(3.0), mixed),
            prolong_key(rank2, (1,), (1,)): mixed,
            prolong_key(rank2, (), (0, 1)): ex.parse("y1^3 - x1", rank2.alphabet)})
        want = reference_radial_homotopy(form)
        monkeypatch.setattr(ex, "subs", refuse)
        monkeypatch.setattr(ex.Var, "__new__", spy)
        got = ho.radial_homotopy(form)
        monkeypatch.undo()
        assert ho.TVAR not in built
        assert got.coeffs.keys() == want.coeffs.keys()
        assert all(got.coeffs[k] is v for k, v in want.coeffs.items())


# ---------------------------------------------------------------------------
# The monomial path of the three operators against their tree references


def _assert_same_outcome(got, want):
    """``got`` is ``want``'s form key for key, node for node, or the same error."""
    if isinstance(want, AForm):
        assert isinstance(got, AForm) and got.degree == want.degree
        assert got.coeffs.keys() == want.coeffs.keys()
        for key, value in want.coeffs.items():
            assert got.coeffs[key] is value, key
    else:
        assert got == want


def _operator_pairs(t):
    return ((ho.dsecond, reference_dsecond), (ho.radial_homotopy, reference_radial_homotopy),
            (lambda f: ho.psi_star(f, t), lambda f: reference_psi_star(f, t)))


class TestMonomialPath:
    @settings(max_examples=300, deadline=None)
    @given(prolonged_forms(monomials=True, min_degree=0),
           st.sampled_from([0, 0.0, -0.0, Fraction(1, 2)]))
    def test_same_node_as_the_tree_operators(self, form, t):
        for op, reference in _operator_pairs(t):
            _assert_same_outcome(_outcome(lambda: op(form)), _outcome(lambda: reference(form)))

    @pytest.mark.parametrize("text", [
        "3*x1*y1^2 + y2 - 2", "1/2*y1*y2 - 1/3*x2*y2^3", "x1^2*y1 + 1/2*x1^2*y1",
        "2.0*y1^2 + y2", "1.0*y1", "exp(x1)*y1 + sin(2*x2)*y2^2", "y1/(1 + x1^2)",
        "x2*y1^-1", "y1^(1/2)*y2", "1/y1", "exp(y1)*y2", "sqrt(x1)*y2", "x1^-1*y2 + y1",
        "exp(x1*y2)", "x1", "_t*y1 + x2", "exp(_t)*y2"])
    def test_cases_on_every_leg_pattern(self, rank2, text):
        # Int, rational and float coefficients, functions and quotients of
        # base coordinates, negative and fractional fiber powers, fiber
        # integrals, on the 0-form and on every key of degrees 1 and 2,
        # frame legs included.
        value = ex.parse(text, rank2.alphabet + (ho.TVAR,))
        forms = [AForm(prolong_chart(rank2), k, {key: value})
                 for k in (0, 1, 2) for key in itertools.combinations(range(4), k)]
        forms.append(AForm(prolong_chart(rank2), 2, {(2, 3): value, (0, 3): ex.eneg(value),
                                                     (1, 2): ex.emul(ex.Var("y2"), value)}))
        for form in forms:
            for op, reference in _operator_pairs(0):
                _assert_same_outcome(_outcome(lambda: op(form)), _outcome(lambda: reference(form)))

    def test_restriction_of_a_fiber_pole_still_raises(self, rank1):
        form = vertical_form(rank1, 1, {(0,): ex.parse("1/y1", rank1.alphabet)})
        with pytest.raises(DomainError):
            ho.psi_star(form, 0)

    def test_vertical_calculus_of_random_forms_builds_no_tree(self, monkeypatch):
        # The suite's random forms are sums of monomials: no diff, no
        # integration by degree, no substitution for the limit at 0.
        rng = random.Random(7)
        forms = [ho.random_vertical_form(rng, tangent(r).chart, k)
                 for r in (1, 2, 3) for k in range(r + 1) for _ in range(4)]
        want = [(reference_dsecond(f), reference_radial_homotopy(f), reference_psi_star(f, 0))
                for f in forms]

        def refuse(*args):
            raise AssertionError("a tree operator ran on a sum of monomials")

        monkeypatch.setattr(ex, "diff", refuse)
        monkeypatch.setattr(ho, "_by_degree", refuse)
        monkeypatch.setattr(ex, "subs", refuse)
        got = [(ho.dsecond(f), ho.radial_homotopy(f), ho.psi_star(f, 0)) for f in forms]
        monkeypatch.undo()
        for pair_got, pair_want in zip(got, want):
            for g, w in zip(pair_got, pair_want):
                _assert_same_outcome(g, w)


# ---------------------------------------------------------------------------
# Quadrature: the parameter-free ops run once per point


def reference_fiber_value(e):
    """The quadrature that runs the whole program at every node."""
    value = ex.Program([e]).value
    if not ho.is_fiber_integral(e):
        return value

    def integral(env):
        local = dict(env)

        def f(t):
            local[ho.TVAR] = t
            return value(local)

        return ho._adaptive_quadrature(f, 0.0, 1.0, 1e-10)

    return integral


_INTEGRAND_NAMES = ("_t", "x1", "y1")
_INTEGRAND_FACTORS = tuple(ex.parse(text, _INTEGRAND_NAMES) for text in (
    "_t", "_t^3", "y1", "x1^2", "exp(x1)", "exp(_t*y1)", "sin(x1*_t + y1)", "cos(y1)",
    "1/(1 + _t^2*y1^2)", "sqrt(1 + _t*x1^2)", "log(x1)", "sqrt(y1)", "sqrt(_t - 1/2)",
    "x1/_t", "1/(x1 - y1)", "(x1 + _t)^(1/3)"))


@st.composite
def integrands(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = ex.Const(draw(st.sampled_from(_COEFFS + (0.5, -2.25))))
        terms.append(ex.emul(c, *draw(st.lists(st.sampled_from(_INTEGRAND_FACTORS), max_size=3))))
    return ex.eadd(*terms)


class TestCurriedQuadrature:
    @settings(max_examples=200, deadline=None)
    @given(integrands(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_same_bits_as_running_the_whole_program_at_every_node(self, e, x1, y1):
        env = {"x1": x1, "y1": y1}
        errors = (DomainError, QuadratureFailure)

        def run(value):
            try:
                return value(env).hex()
            except errors as err:
                return type(err)

        assert run(ho.fiber_value(e)) == run(reference_fiber_value(e))

    def test_parameter_free_factor_runs_once_per_point(self, monkeypatch):
        e = ex.parse("exp(x1)*_t*y1", _INTEGRAND_NAMES)
        value = ho.fiber_value(e)
        want = reference_fiber_value(e)({"x1": 0.3, "y1": 0.5})
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        assert value({"x1": 0.3, "y1": 0.5}) == want
        assert calls == [0.3]
