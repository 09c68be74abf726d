import itertools
import math
import random
from fractions import Fraction

import pytest

from semispray import expr as ex
from semispray import homotopy as ho
from semispray.algebroid import AForm, tangent
from semispray.errors import NotClosed
from semispray.report import ZeroStatus

from helpers import assert_proven_zero, random_polynomial, reference_value


def vertical_form(chart, degree, coeffs):
    """A vertical form: the bigraded block of bidegree (0, degree)."""
    return ho.BigradedBlock(chart, 0, degree, {((), idx): v for idx, v in coeffs.items()})


def vertical_tuples(form):
    return itertools.combinations(range(form.chart.r), form.q)


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
        vertical = ho.BigradedBlock(rank2, 0, 2, {((), (0, 1)): y1, ((), (1, 0)): y1})
        horizontal = ho.BigradedBlock(rank2, 2, 0, {((0, 1), ()): y1, ((1, 0), ()): y1})
        base = AForm(rank2, 2, {(0, 1): y1, (1, 0): y1})
        assert vertical.coeffs == horizontal.coeffs == base.coeffs == {}

    def test_fiber_integrals_are_stored_with_their_sign(self, rank2):
        value = ex.parse("exp(_t*y1)", ("_t", "y1"))
        block = ho.BigradedBlock(rank2, 0, 2, {((), (1, 0)): value})
        env = {"y1": 0.5}
        assert ceval(block.coeffs[((), (0, 1))], env) == -ceval(value, env)
        assert ceval(block.get((), (1, 0)), env) == ceval(value, env)

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

        monkeypatch.setattr(ho, "_adaptive_simpson", no_quadrature)
        value = ex.parse("x1*exp(y1) + y2^2/3", rank2.alphabet)
        env = {"x1": 0.3, "x2": -0.4, "y1": 0.7, "y2": -1.1}
        assert not ho.is_fiber_integral(value)
        assert ho.fiber_value(value)(env) == ex.evaluate(value, env)


class TestPsiStar:
    def test_degree_zero_rescales_fibers(self, rank2):
        phi = vertical_form(rank2, 0, {(): ex.parse("x1*y1 + y2^2", rank2.alphabet)})
        scaled = ho.psi_star(phi, Fraction(1, 2))
        expected = ex.parse("1/2*x1*y1 + 1/4*y2^2", rank2.alphabet)
        assert scaled.coeffs[((), ())] == expected

    def test_degree_one_picks_up_weight(self, rank1):
        w = vertical_form(rank1, 1, {(0,): ex.parse("y1^2", rank1.alphabet)})
        scaled = ho.psi_star(w, Fraction(1, 2))
        assert scaled.get((), (0,)) == ex.parse("1/8*y1^2", rank1.alphabet)

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
                    restricted = ex.subs(w.get((), ()), origin)
                    assert limit.get((), ()) == restricted
                    assert limit.coeffs == ({} if ex.is_zero_literal(restricted)
                                            else {((), ()): restricted})


class TestHOperator:
    def test_weighted_radial_integral_on_line(self, rank1):
        w = vertical_form(rank1, 1, {(0,): ex.parse("y1^2", rank1.alphabet)})
        hw = ho.radial_homotopy(w)
        assert hw.get((), ()) == ex.parse("y1^3/3", rank1.alphabet)

    def test_constant_area_form(self, rank2):
        w = vertical_form(rank2, 2, {(0, 1): ex.ONE})
        hw = ho.radial_homotopy(w)
        assert hw.get((), (0,)) == ex.parse("-1/2*y2", rank2.alphabet)
        assert hw.get((), (1,)) == ex.parse("1/2*y1", rank2.alphabet)

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
                assert_proven_zero(ex.eadd(again.get((), tup), ex.eneg(closed.get((), tup))))


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
        assert recovered.get((), ()) == expected

    def test_nonpolynomial_coefficient_via_quadrature(self, rank1):
        w = vertical_form(rank1, 1,
                            {(0,): ex.parse("exp(y1)*y1", rank1.alphabet)})
        report = ho.homotopy_identity_check(w, tol=1e-8)
        assert report.passed
        assert report.max_residual < 1e-8

    def test_quadrature_value_matches_closed_form(self, rank1):
        # int_0^1 y * exp(t*y) dt = exp(y) - 1.
        w = vertical_form(rank1, 1, {(0,): ex.parse("exp(y1)", rank1.alphabet)})
        hw = ho.radial_homotopy(w)
        value = ceval(hw.get((), ()), {"y1": 0.7})
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
                    assert_proven_zero(ex.eadd(reproduced.get((), tup), ex.eneg(closed.get((), tup))))


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
            return {(0,): form.get((), (0,)),
                    (1,): ex.eadd(form.get((), (1,)), ex.emul(shear_expr, form.get((), (0,))))}

        shear = ex.parse("y2^2", rank2.alphabet)
        sheared = vertical_form(rank2, 1, to_frame(w, shear))
        naive = ho.psi_star(sheared, t)
        expected = to_frame(canonical, shear)  # frame change at the base point
        mismatch = ex.eadd(naive.get((), (1,)), ex.eneg(expected[(1,)]))
        assert ex.is_zero(mismatch, seed=5).status is ZeroStatus.NONZERO

        constant = ex.Const(Fraction(3))
        sheared_const = vertical_form(rank2, 1, to_frame(w, constant))
        naive_const = ho.psi_star(sheared_const, t)
        expected_const = to_frame(canonical, constant)
        for tup in ((0,), (1,)):
            assert_proven_zero(ex.eadd(naive_const.get((), tup), ex.eneg(expected_const[tup])))


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
                    coeffs[(idx_i, idx_j)] = random_polynomial(rng, chart.alphabet)
            seed_block = ho.BigradedBlock(chart, p, q - 1, coeffs)
            closed = ho.dsecond(seed_block)
            primitive = ho.dprime_primitive(closed)
            reproduced = ho.dsecond(primitive)
            for key in set(reproduced.coeffs) | set(closed.coeffs):
                assert_proven_zero(ex.eadd(reproduced.get(*key), ex.eneg(closed.get(*key))))
            cases += 1

    def test_m_block_of_line_kinetic_energy(self, rank1):
        # The mixed block of the fundamental 2-section of L = y^2/2 has the
        # single constant coefficient -1 in the (E, nu) ordering; its
        # primitive is the fiber coordinate on the frame leg.
        block = ho.BigradedBlock(rank1, 1, 1, {((0,), (0,)): ex.MINUS_ONE})
        primitive = ho.dprime_primitive(block)
        assert primitive.get((0,), ()) == ex.Var("y1")

    def test_zero_block(self, rank2):
        block = ho.BigradedBlock(rank2, 1, 1, {})
        assert ho.dprime_primitive(block).coeffs == {}

    def test_basic_coefficient_block(self, rank2):
        # Constant-in-fiber coefficients integrate against t^0 only.
        block = ho.BigradedBlock(rank2, 0, 1, {((), (0,)): ex.Var("x1")})
        primitive = ho.dprime_primitive(block)
        assert primitive.get((), ()) == ex.parse("x1*y1", rank2.alphabet)

    def test_non_closed_block_rejected(self, rank2):
        block = ho.BigradedBlock(rank2, 0, 1, {((), (0,)): ex.Var("y2")})
        with pytest.raises(NotClosed):
            ho.dprime_primitive(block)

    def test_requires_positive_vertical_degree(self, rank2):
        block = ho.BigradedBlock(rank2, 1, 0, {((0,), ()): ex.ONE})
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
