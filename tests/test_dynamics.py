import json
import math
import random

import pytest

from semispray import dynamics, expr as ex, lagrangian, poisson, twoform
from semispray.errors import BlowUp, DomainError, StepCollapse
from semispray.model import load_model

from helpers import generated_solve
from test_golden_cli import FLOW_MODELS, MODELS


def hamiltonian_flow(fixture, theta=None, potential=None, data=None):
    """``G`` (``E_L`` plus the potential) and its factored field."""
    data = data or lagrangian.build(fixture.lagrangian, fixture.chart)
    section = twoform.ThetaSection(theta) if theta is not None else None
    n = twoform.assemble_N(data, fixture.chart, section)
    g = data.EL if potential is None else ex.eadd(data.EL, potential)
    return g, poisson.FactoredField(fixture.chart, data.M, n, g)


def line_field(chart, potential="0"):
    """The factored field of ``G = 1/2 y1^2 + V(x1)`` on the tangent line,
    ``M = [[1]]`` and ``N = [[0]]``: ``x1' = y1``, ``y1' = -V'(x1)``."""
    g = ex.parse(f"1/2*y1^2 + {potential}", chart.alphabet)
    return poisson.FactoredField(chart, [[ex.ONE]], [[ex.ZERO]], g)


class TestIntegrate:
    def test_linear_flow_is_exact_for_rk4(self, tangent1):
        field = line_field(tangent1.chart)
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=1e-3)
        assert traj.states[-1].x[0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_force_parabola(self, tangent1):
        field = line_field(tangent1.chart, "x1")
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (0.0,)), T=1.0, h=1e-3)
        assert traj.states[-1].x[0] == pytest.approx(-0.5, abs=1e-9)

    def test_cotangent_flow_conserves_energy(self, cotangent):
        g, field = hamiltonian_flow(cotangent, theta=cotangent.theta)
        rng = random.Random(13)
        p0 = ex.ChartPoint((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                           (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        traj = dynamics.integrate(field, p0, T=1.0, h=1e-3, invariant=g)
        assert traj.max_drift < 1e-8

    def test_blowup_detected(self, tangent1):
        # x'' = 4 x^3 from (1, 1) blows up near t = 0.75.
        field = line_field(tangent1.chart, "-x1^4")
        with pytest.raises(BlowUp):
            dynamics.integrate(field, ex.ChartPoint((1.0,), (1.0,)), T=1.0, h=1e-3)

    def test_adaptive_step_collapse(self, tangent1):
        # x'' = 4 x^3 blows up near t = 0.75; with the norm bound out of the
        # way the adaptive step shrinks with the time left and collapses.
        field = line_field(tangent1.chart, "-x1^4")
        with pytest.raises(StepCollapse) as err:
            dynamics.integrate(field, ex.ChartPoint((1.0,), (1.0,)), T=10.0, h=1e-2,
                               method="rk45", blowup_bound=1e300)
        assert err.value.dt < 1e-14 and 0.7 < err.value.t < 0.8

    def test_rejects_bad_steps(self, tangent1):
        field = line_field(tangent1.chart)
        with pytest.raises(ValueError):
            dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=-0.1)

    def test_rejects_infinite_step_count(self, tangent1):
        # T and h are finite and positive, but T/h overflows to inf.
        field = line_field(tangent1.chart)
        with pytest.raises(ValueError, match="step count"):
            dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1e308, h=1e-3)

    def test_adaptive_matches_fixed_step(self, curved_metric):
        g, field = hamiltonian_flow(curved_metric)
        p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
        fixed = dynamics.integrate(field, p0, T=1.0, h=1e-3, invariant=g)
        adaptive = dynamics.integrate(field, p0, T=1.0, h=1e-2, method="rk45", invariant=g)
        assert adaptive.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert adaptive.states[-1].x[0] == pytest.approx(fixed.states[-1].x[0], abs=1e-7)
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
        field = line_field(tangent1.chart)
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=1.0, h=1e-2,
                                  method="rk45")
        assert len(traj.times) > 2
        assert len(field_calls) == 1 + 6 * (len(traj.times) - 1)


def tree_flow(tree, p0, T, h, params=None):
    """The states of fixed-step RK4 on the compiled components of the
    bracket-built field ``tree``, with the float operations of the
    generated loop of :func:`dynamics.integrate`."""
    values = {k: ex.Const(v) for k, v in (params or {}).items()}
    f = ex.compile_evaluator([ex.subs(c, values) for c in tree.components()],
                             [*tree.chart.coords, *tree.chart.fibers])
    steps = max(1, round(T / h))
    dt = T / steps
    hh, h6 = 0.5 * dt, dt / 6.0
    s = list(p0.x) + list(p0.y)
    states = [s]
    for _ in range(steps):
        a = f(s)
        b = f([v + hh * k for v, k in zip(s, a)])
        c = f([v + hh * k for v, k in zip(s, b)])
        d = f([v + dt * k for v, k in zip(s, c)])
        s = [v + h6 * (ka + 2.0 * kb + 2.0 * kc + kd) for v, ka, kb, kc, kd in zip(s, a, b, c, d)]
        states.append(s)
    return states


def model_fields(doc):
    """The factored field of a model document and the Hamiltonian field
    built from its bracket, both of ``E_L`` plus the potential."""
    model = load_model(doc)
    data = lagrangian.build(model.lagrangian, model.chart, params=model.params)
    theta = twoform.ThetaSection(model.theta) if model.theta is not None else None
    n = twoform.assemble_N(data, model.chart, theta)
    g = data.EL if model.potential is None else ex.eadd(data.EL, model.potential)
    tree = poisson.hamiltonian_field(poisson.build_bracket(model.chart, data, n), g)
    return poisson.FactoredField(model.chart, data.M, n, g), tree


def right_hand_side(field):
    """The right-hand side the integrators call, as a function of the state."""
    f, stage = dynamics._compiled(field, lambda e: e)
    return dynamics._rhs_function(f, stage, field.chart.n + field.chart.r)


PLANE = {"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]]}


class TestFactoredField:
    """The flow's field, solved pointwise from ``M``, ``N``, ``rho`` and
    ``dG``, against the compiled components of the bracket's field."""

    @pytest.mark.parametrize("name", sorted({**MODELS, **FLOW_MODELS}))
    def test_matches_the_hamiltonian_field(self, name):
        factored, tree = model_fields({**MODELS, **FLOW_MODELS}[name])
        rhs = right_hand_side(factored)
        names = [*tree.chart.coords, *tree.chart.fibers]
        components = ex.compile_evaluator(tree.components(), names)
        rng = random.Random(5)
        # Within [-0.5, 0.5] the stress Hessian det e^x1 (e^2x1 - x2^2) stays
        # away from 0; near its zero set the tree's cancellations cost digits.
        for _ in range(50):
            state = [rng.uniform(-0.5, 0.5) for _ in names]
            expected = components(state)
            scale = max(map(abs, expected))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(rhs(state), expected))

    @pytest.mark.parametrize("name", ["stress", "curved_cotangent", "trig2"])
    def test_any_function_matches_its_hamiltonian_field(self, name):
        # E_L plus a potential has dG/dy = M y, which skips the first solve;
        # a function of the fibers beyond that takes it.
        doc = {**MODELS, **FLOW_MODELS}[name]
        model = load_model(doc)
        data = lagrangian.build(model.lagrangian, model.chart)
        theta = twoform.ThetaSection(model.theta) if model.theta is not None else None
        n = twoform.assemble_N(data, model.chart, theta)
        fibers = model.chart.fibers
        g = ex.parse(f"x1*{fibers[0]}*{fibers[1]} + sin({fibers[1]}) + {fibers[0]}^3",
                     model.chart.alphabet)
        tree = poisson.hamiltonian_field(poisson.build_bracket(model.chart, data, n), g)
        momentum = [ex.eadd(*(ex.emul(e, ex.Var(y)) for e, y in zip(row, fibers)))
                    for row in data.M]
        assert [ex.diff(g, y) for y in fibers] != momentum
        factored = poisson.FactoredField(model.chart, data.M, n, g)
        names = [*model.chart.coords, *fibers]
        rhs = right_hand_side(factored)
        components = ex.compile_evaluator(tree.components(), names)
        rng = random.Random(7)
        for _ in range(50):
            state = [rng.uniform(-0.5, 0.5) for _ in names]
            expected = components(state)
            scale = max(map(abs, expected))
            assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(rhs(state), expected))

    @pytest.mark.parametrize("lagrangian_text", ["y1*y2 + 1/2*x2*y1^2", "y1*y2 + x1*y1"])
    def test_zero_leading_hessian_entry_pivots(self, lagrangian_text):
        # M = [[x2, 1], [1, 0]] and [[0, 1], [1, 0]]: det -1, so the field is
        # regular, but elimination without a row swap divides by M_11 = 0
        # (at x2 = 0 in the first, which the runtime pivot choice swaps).
        factored, tree = model_fields({**PLANE, "L": lagrangian_text})
        rhs = right_hand_side(factored)
        components = ex.compile_evaluator(tree.components(), ["x1", "x2", "y1", "y2"])
        for state in ([0.3, 0.0, 0.5, -0.2], [0.1, 1e-300, 1.0, 2.0], [-0.4, 0.7, 0.2, 0.1]):
            assert rhs(state) == pytest.approx(components(state), rel=1e-12, abs=1e-15)
        p0 = ex.ChartPoint((0.3, 0.0), (0.5, -0.2))
        flow = dynamics.integrate(factored, p0, T=0.5, h=1e-2, invariant=factored.G)
        reference = tree_flow(tree, p0, T=0.5, h=1e-2)
        assert len(flow.states) == len(reference)
        for a, b in zip(flow.states, reference):
            assert list(a.x + a.y) == pytest.approx(b, rel=1e-12, abs=1e-14)

    def test_singular_hessian_raises_domain_error(self):
        # M = diag(x1, 1) is singular on x1 = 0, and only there.
        x1 = ex.Var("x1")
        chart = load_model({**PLANE, "L": "1/2*(y1^2 + y2^2)"}).chart
        g = ex.parse("1/2*x1*y1^2 + 1/2*y2^2", chart.alphabet)
        field = poisson.FactoredField(chart, [[x1, ex.ZERO], [ex.ZERO, ex.ONE]],
                                      [[ex.ZERO, ex.ZERO], [ex.ZERO, ex.ZERO]], g)
        rhs = right_hand_side(field)
        assert rhs([0.5, 0.0, 2.0, 1.0]) == pytest.approx([2.0, 1.0, -4.0, 0.0])
        with pytest.raises(DomainError, match="division by zero"):
            rhs([0.0, 0.0, 2.0, 1.0])
        with pytest.raises(DomainError, match="division by zero"):
            dynamics.integrate(field, ex.ChartPoint((0.0, 0.0), (2.0, 1.0)), T=0.1, h=1e-2)

    def test_constant_hessian_writes_no_elimination(self):
        # so3_magnetic has M = I: every pivot and factor folds while writing.
        factored, _ = model_fields(FLOW_MODELS["so3_magnetic"])
        _, stage = dynamics._factored_stage(factored, lambda e: e)
        lines, _ = stage([f"_s{i}" for i in range(6)], "_a")
        assert not any("/" in line or "abs(" in line for line in lines)

    def test_parameters_are_bound(self):
        doc = {**PLANE, "L": "1/2*(a*y1^2 + y2^2) + b*x2*y1", "f": "a*x1^2",
               "params": {"a": 2.0, "b": -0.5}}
        factored, tree = model_fields(doc)
        p0 = ex.ChartPoint((0.3, 0.1), (0.5, -0.2))
        params = {"a": 2.0, "b": -0.5}
        flow = dynamics.integrate(factored, p0, T=0.2, h=1e-2, invariant=factored.G,
                                  params=params)
        reference = tree_flow(tree, p0, T=0.2, h=1e-2, params=params)
        assert flow.max_drift < 1e-9
        assert len(flow.states) == len(reference)
        for a, b in zip(flow.states, reference):
            assert list(a.x + a.y) == pytest.approx(b, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("matrix,rhs,expected", [
    ([[0, 1], [1, 0]], [2, 3], [3, 2]),
    # Without the row swap the factor 1/1e-20 wipes out the second row.
    ([[1e-20, 1], [1, 1]], [1, 2], [1, 1]),
    ([[0, 0, 2], [0, 3, 0], [4, 0, 0]], [2, 3, 4], [1, 1, 1]),
    ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [4, 8, 8], [1, 2, 3]),
])
def test_generated_elimination_pivots(matrix, rhs, expected, literal):
    assert generated_solve(matrix, rhs, literal) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("matrix", [[[0, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 1], [0, 1]]])
def test_generated_elimination_raises_on_a_singular_matrix(matrix, literal):
    with pytest.raises(DomainError, match="division by zero"):
        generated_solve(matrix, [1, 1], literal)


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
        _, field = hamiltonian_flow(curved_metric)
        assert poisson.is_spray(field).passed
        p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
        reference = dynamics.integrate(field, p0, T=1.0, h=1e-3)
        scaled_start = ex.ChartPoint(p0.x, tuple(lam * v for v in p0.y))
        scaled = dynamics.integrate(field, scaled_start, T=1.0 / lam, h=1e-3)
        for a, b in zip(reference.states[-1].x, scaled.states[-1].x):
            assert a == pytest.approx(b, abs=1e-6)


class TestExport:
    def test_csv_layout(self, tangent1):
        # With no invariant, every row's drift column is 0.0, for both methods.
        field = line_field(tangent1.chart)
        for method in ("rk4", "rk45"):
            traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=0.01, h=1e-3,
                                      method=method)
            lines = traj.to_csv().strip().splitlines()
            assert lines[0] == "t,x1,y1,drift"
            assert len(lines) == len(traj.times) + 1
            assert all(line.endswith(",0.0") for line in lines[1:])

    def test_json_roundtrip(self, tangent1):
        field = line_field(tangent1.chart)
        traj = dynamics.integrate(field, ex.ChartPoint((0.0,), (1.0,)), T=0.01, h=1e-3)
        payload = json.loads(json.dumps(traj.to_dict()))
        assert payload["coords"] == ["x1"]
        assert len(payload["states"]) == len(traj.times)
