import json
import math
import random

import pytest

from semispray import dynamics, expr as ex, lagrangian, poisson, twoform
from semispray.errors import BlowUp, StepCollapse


def hamiltonian_flow(fixture, theta=None, potential=None, data=None):
    data = data or lagrangian.build(fixture.lagrangian, fixture.chart)
    section = twoform.ThetaSection(theta) if theta is not None else None
    n = twoform.assemble_N(data, fixture.chart, section)
    bivector = poisson.build_bracket(fixture.chart, data, n)
    g = data.EL if potential is None else ex.eadd(data.EL, potential)
    return g, poisson.hamiltonian_field(bivector, g)


class TestIntegrate:
    def test_linear_flow_is_exact_for_rk4(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=1e-3)
        assert traj.final_state().x[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_force_parabola(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.MINUS_ONE])
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (0.0,)), T=1.0, h=1e-3)
        assert traj.final_state().x[0] == pytest.approx(-0.5, abs=1e-9)

    def test_cotangent_flow_conserves_energy(self, cotangent):
        g, field = hamiltonian_flow(cotangent, theta=cotangent.theta)
        rng = random.Random(13)
        p0 = ex.ChartPoint((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        traj = dynamics.integrate(field, p0, T=1.0, h=1e-3, invariant=g)
        assert traj.max_drift < 1e-8

    def test_blowup_detected(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")],
                                       [ex.parse("y1^2", ("y1",))])
        with pytest.raises(BlowUp):
            dynamics.integrate(field, ex.ChartPoint((0.0,), (2.0,)), T=1.0, h=1e-3)

    def test_adaptive_step_collapse(self, tangent1):
        # x'' = 4 x^3 blows up near t = 0.75; with the norm bound out of the
        # way the adaptive step shrinks with the time left and collapses.
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")],
                                       [ex.parse("4*x1^3", ("x1",))])
        with pytest.raises(StepCollapse) as err:
            dynamics.integrate(field, ex.ChartPoint((1.0,), (1.0,)), T=10.0, h=1e-2,
                               method="rk45", blowup_bound=1e300)
        assert err.value.dt < 1e-14 and 0.7 < err.value.t < 0.8

    def test_rejects_bad_steps(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        with pytest.raises(ValueError):
            dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=-0.1)

    def test_rejects_infinite_step_count(self, tangent1):
        # T and h are finite and positive, but T/h overflows to inf.
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        with pytest.raises(ValueError, match="step count"):
            dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1e308, h=1e-3)

    def test_adaptive_matches_fixed_step(self, curved_metric):
        g, field = hamiltonian_flow(curved_metric)
        p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
        fixed = dynamics.integrate(field, p0, T=1.0, h=1e-3, invariant=g)
        adaptive = dynamics.integrate(field, p0, T=1.0, h=1e-2, method="rk45", invariant=g)
        assert adaptive.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert adaptive.final_state().x[0] == pytest.approx(fixed.final_state().x[0], abs=1e-7)
        assert len(adaptive.times) < len(fixed.times)

    def test_times_strictly_increase(self, curved_metric):
        g, field = hamiltonian_flow(curved_metric)
        traj = dynamics.integrate(field, ex.ChartPoint((0.1, 0.0), (1.0, 0.5)),
                                  T=0.5, h=1e-2, method="rk45", invariant=g)
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        assert len(traj.times) == len(traj.states) == len(traj.invariant_drift)


@pytest.mark.parametrize("state,norm", [
    ([1e308, 1e308], 1e308),
    ([-1e308, 1e308, -1e308], 1e308),
    ([0.5, -2.0], 2.0),
    ([1.0, math.inf], math.inf),
    ([-math.inf, 1.0], math.inf),
    ([math.nan, 1.0], math.inf),
    ([1.0, math.nan], math.inf),
])
def test_sup_norm(state, norm):
    # A finite state whose sum overflows keeps its finite norm.
    assert dynamics._sup_norm(state) == norm


class TestFieldCalls:
    """The integrators call the field through the evaluator that
    ``expr.compile_evaluator`` returns at call time, once per stage: the
    bench's tracer wraps that name and derives RK steps from the count."""

    @pytest.fixture
    def field_calls(self, monkeypatch):
        calls = []
        compile_evaluator = ex.compile_evaluator

        def counting(exprs, names):
            evaluator = compile_evaluator(exprs, names)
            if len(exprs) == 1:  # the invariant
                return evaluator

            def field(values):
                calls.append(1)
                return evaluator(values)
            return field

        monkeypatch.setattr(ex, "compile_evaluator", counting)
        return calls

    def test_rk4_calls_the_field_four_times_per_step(self, curved_metric, field_calls):
        g, field = hamiltonian_flow(curved_metric)
        traj = dynamics.integrate(field, ex.ChartPoint((0.3, 0.4), (1.0, 1.2)),
                                  T=0.1, h=1e-2, invariant=g)
        assert len(traj.times) == 11
        assert len(field_calls) == 4 * 10

    def test_dormand_prince_calls_the_field_once_then_six_times_per_try(self, tangent1,
                                                                        field_calls):
        # The free line is exact at every order, so every try is accepted.
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=1e-2,
                                  method="rk45")
        assert len(traj.times) > 2
        assert len(field_calls) == 1 + 6 * (len(traj.times) - 1)


class TestBaseProjection:
    def test_free_line_passes(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=1e-3)
        report = dynamics.base_projection_check(tangent1.chart, field, traj, tol=1e-6)
        assert report.passed

    def test_corrupted_base_component_fails(self, tangent1):
        honest = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        corrupted = poisson.VectorFieldOnA(
            tangent1.chart, [ex.eadd(ex.Var("y1"), ex.Const(0.1))], [ex.ZERO])
        traj = dynamics.integrate(corrupted, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=1e-3)
        report = dynamics.base_projection_check(tangent1.chart, honest, traj, tol=1e-6)
        assert not report.passed
        # Injected error 0.1 at unit speed: normalized residual 0.1/(1+1).
        assert report.max_residual == pytest.approx(0.05, rel=0.2)

    def test_curved_spray_passes(self, curved_metric):
        g, field = hamiltonian_flow(curved_metric)
        traj = dynamics.integrate(field, ex.ChartPoint((0.3, 0.4), (1.0, 1.2)),
                                  T=1.0, h=1e-3, invariant=g)
        report = dynamics.base_projection_check(curved_metric.chart, field, traj, tol=1e-5)
        assert report.passed


class TestOrderAndHomogeneity:
    def test_step_halving_reduces_drift_sixteenfold(self, curved_metric):
        g, field = hamiltonian_flow(curved_metric)
        p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
        coarse = dynamics.integrate(field, p0, T=1.0, h=0.05, invariant=g).max_drift
        fine = dynamics.integrate(field, p0, T=1.0, h=0.025, invariant=g).max_drift
        assert 8.0 <= coarse / fine <= 32.0

    @pytest.mark.parametrize("lam", [2.0, 4.0])
    def test_flow_level_homogeneity(self, curved_metric, lam):
        # Scaling the fiber by lambda and the time by 1/lambda reaches the
        # same base point; asserted only because the field passed is_spray.
        g, field = hamiltonian_flow(curved_metric)
        assert poisson.is_spray(field).passed
        p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
        reference = dynamics.integrate(field, p0, T=1.0, h=1e-3)
        scaled_start = ex.ChartPoint(p0.x, tuple(lam * v for v in p0.y))
        scaled = dynamics.integrate(field, scaled_start, T=1.0 / lam, h=1e-3)
        for a, b in zip(reference.final_state().x, scaled.final_state().x):
            assert a == pytest.approx(b, abs=1e-6)


class TestExport:
    def test_csv_layout(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=0.01, h=1e-3)
        lines = traj.to_csv().strip().splitlines()
        assert lines[0] == "t,x1,y1,drift"
        assert len(lines) == len(traj.times) + 1

    def test_json_roundtrip(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")], [ex.ZERO])
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=0.01, h=1e-3)
        payload = json.loads(json.dumps(traj.to_dict()))
        assert payload["coords"] == ["x1"]
        assert len(payload["states"]) == len(traj.times)
