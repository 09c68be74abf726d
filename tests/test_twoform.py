import random

import pytest

from semispray import algebroid as alg
from semispray import expr as ex
from semispray import lagrangian, twoform

from helpers import assert_proven_zero, random_polynomial, reference_value


class TestCheckClosed:
    def test_zero_section_proven(self, so3):
        theta = twoform.ThetaSection.zero(so3.chart)
        report = theta.check_closed()
        assert report.passed and report.all_proven

    def test_rank_two_has_no_condition(self, cotangent):
        theta = twoform.ThetaSection(cotangent.theta)
        report = theta.check_closed()
        assert report.passed and not report.items

    def test_so3_catalog_section_closed(self, so3):
        theta = twoform.ThetaSection(so3.theta)
        report = theta.check_closed()
        assert report.passed

    def test_so3_residual_matches_pointwise_expansion(self, so3):
        # Brute-force oracle: evaluate the cyclic sum numerically at sample
        # points, independently of the symbolic pipeline.
        chart = so3.chart
        theta = twoform.ThetaSection(so3.theta)
        rng = random.Random(23)
        residuals = dict(theta.closedness_residuals())
        for _ in range(16):
            env = {nm: rng.uniform(-1, 1) for nm in chart.coords}
            brute = 0.0
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                for rr in range(3):
                    step = 1e-6
                    hi, lo = dict(env), dict(env)
                    hi[chart.coords[rr]] += step
                    lo[chart.coords[rr]] -= step
                    d_theta = (reference_value(theta.coefficient(a, b), hi)
                               - reference_value(theta.coefficient(a, b), lo)) / (2 * step)
                    brute += reference_value(chart.rho[rr][c], env) * d_theta
                    brute -= (reference_value(chart.c(rr, b, c), env)
                              * reference_value(theta.coefficient(rr, a), env))
            symbolic = reference_value(residuals["(i,j,k)=(1,2,3)"], env)
            assert brute == pytest.approx(symbolic, abs=1e-5)

    def test_non_closed_section_detected(self, so3):
        chart = so3.chart
        theta = twoform.ThetaSection.from_components(
            chart, {(0, 1): ex.parse("x1^2", chart.alphabet)})
        report = theta.check_closed()
        assert not report.passed

    def test_residuals_match_differential_coefficients(self, so3):
        # The per-triple residual is exactly the degree-3 coefficient of the
        # Koszul differential, symbol for symbol.
        chart = so3.chart
        rng = random.Random(31)
        coeffs = {(i, j): random_polynomial(rng, chart.coords)
                  for i in range(3) for j in range(i + 1, 3)}
        theta = twoform.ThetaSection.from_components(chart, coeffs)
        d_theta = chart.d(theta.form)
        residuals = dict(theta.closedness_residuals())
        assert residuals["(i,j,k)=(1,2,3)"] == d_theta.get((0, 1, 2))

    def test_wrong_degree_rejected(self, so3):
        with pytest.raises(ValueError):
            twoform.ThetaSection(alg.AForm(so3.chart, 1, {(0,): ex.ONE}))


class TestAssembleN:
    def test_tangent_line_vanishes(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        n = twoform.assemble_N(data, tangent1.chart, None)
        assert n == [[ex.ZERO]]

    def test_metric_case_matches_display(self, so3, curved_metric):
        # For a fiberwise-quadratic metric Lagrangian the coefficients are
        # (rho_j dg_sk - rho_k dg_sj - g_is C^i_jk) y^s, assembled here
        # independently from the metric matrix.
        for fixture in (so3, curved_metric):
            chart = fixture.chart
            data = lagrangian.build(fixture.lagrangian, chart)
            metric = data.M  # fiberwise-quadratic: Hessian equals the metric
            n = twoform.assemble_N(data, chart, None)
            y = [ex.Var(nm) for nm in chart.fibers]
            for j in range(chart.r):
                for k in range(chart.r):
                    pieces = []
                    for s in range(chart.r):
                        term = ex.eadd(
                            chart.anchor_derivative(j, metric[s][k]),
                            ex.eneg(chart.anchor_derivative(k, metric[s][j])),
                            ex.eneg(ex.eadd(*(ex.emul(metric[i][s], chart.c(i, j, k))
                                              for i in range(chart.r)))))
                        pieces.append(ex.emul(term, y[s]))
                    assert_proven_zero(ex.eadd(n[j][k], ex.eneg(ex.eadd(*pieces))))

    def test_cotangent_constant_case_reduces_to_theta(self, cotangent):
        data = lagrangian.build(cotangent.lagrangian, cotangent.chart)
        theta = twoform.ThetaSection(cotangent.theta)
        n = twoform.assemble_N(data, cotangent.chart, theta)
        for i in range(2):
            for j in range(2):
                assert n[i][j] == theta.coefficient(i, j)

    def test_skewness(self, so3):
        data = lagrangian.build(so3.lagrangian, so3.chart)
        theta = twoform.ThetaSection(so3.theta)
        n = twoform.assemble_N(data, so3.chart, theta)
        for i in range(3):
            for j in range(3):
                assert_proven_zero(ex.eadd(n[i][j], n[j][i]))

    def test_quadratic_lagrangian_gives_fiber_linear_coefficients(self, so3, curved_metric):
        for fixture in (so3, curved_metric):
            chart = fixture.chart
            data = lagrangian.build(fixture.lagrangian, chart)
            n = twoform.assemble_N(data, chart, None)
            for i in range(chart.r):
                for j in range(chart.r):
                    for u in chart.fibers:
                        for v in chart.fibers:
                            assert_proven_zero(ex.diff(ex.diff(n[i][j], u), v))

    def test_chart_mismatch_rejected(self, tangent1, tangent2):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        with pytest.raises(ValueError):
            twoform.assemble_N(data, tangent2.chart, None)
