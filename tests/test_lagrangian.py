import contextlib
import io
import json
import random

import pytest

from semispray import cli, expr as ex
from semispray import lagrangian, linalg
from semispray.errors import SingularHessian

from helpers import assert_proven_zero, generated_inverse, point_env, reference_value


class TestBuild:
    def test_kinetic_line(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        assert data.M == [[ex.ONE]]
        assert data.Minv == [[ex.ONE]]
        assert data.EL == ex.parse("1/2*y1^2", tangent1.chart.alphabet)

    def test_flat_cotangent_metric(self, cotangent):
        # Quadratic momentum Lagrangian with the identity coefficient matrix:
        # unit Hessian and the energy coincides with the Lagrangian.
        data = lagrangian.build(cotangent.lagrangian, cotangent.chart)
        assert data.M == [[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]]
        assert data.EL == data.L

    def test_cubic_is_singular_on_zero_section(self, tangent1):
        with pytest.raises(SingularHessian) as err:
            lagrangian.build("y1^3/6", tangent1.chart)
        assert err.value.witness["y1"] == 0.0

    def test_identically_singular(self, tangent2):
        with pytest.raises(SingularHessian) as err:
            lagrangian.build("1/2*y1^2", tangent2.chart)
        assert err.value.witness == {"detM": 0.0}  # no y2 dependence: det M = 0 everywhere

    def test_inverse_is_built_on_first_use(self, curved_metric, monkeypatch, tmp_path):
        # Only the bracket and the vertical correction read the inverse, so
        # neither ``build`` nor the commands that never build the bracket
        # pay for the adjugate.
        calls = []
        inverse = linalg.inverse

        def counting(m, det):
            calls.append(m)
            return inverse(m, det)

        monkeypatch.setattr(lagrangian.linalg, "inverse", counting)
        data = lagrangian.build(curved_metric.lagrangian, curved_metric.chart)
        assert calls == []
        assert data.Minv == inverse(data.M, data.detM)
        assert data.Minv is data.Minv and len(calls) == 1

        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]],
                                    "L": "1/2*(y1^2 + (1 + x1^2)*y2^2)"}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", str(path)]) == 0
            assert cli.main(["integrate", str(path), "--p0", "0.1,0.2,0.3,0.4", "--T", "0.01"]) == 0
            assert len(calls) == 1
            assert cli.main(["bracket", str(path)]) == 0
        assert len(calls) == 2

    def test_energy_is_formed_on_first_read(self, curved_metric, tmp_path, monkeypatch):
        # validate and bracket never read E_L, so they do not form it;
        # hamiltonian does.
        built = []
        build = cli.build_lagrangian
        monkeypatch.setattr(cli, "build_lagrangian", lambda *a, **k: built.append(build(*a, **k))
                            or built[-1])
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"n": 2, "r": 2, "rho": [["1", "0"], ["0", "1"]],
                                    "L": "1/2*(y1^2 + (1 + x1^2)*y2^2)"}))
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("validate", "bracket", "hamiltonian"):
                assert cli.main([command, str(path)]) == 0
        assert ["EL" in data.__dict__ for data in built] == [False, False, True]

    def test_name_free_determinant_is_probed_once(self, tangent2, monkeypatch):
        # A constant Hessian, or one that reads only bound parameters, has
        # the same determinant at every probe point: one evaluation, at the
        # center, decides it.
        calls = []
        value = ex.Program.value
        monkeypatch.setattr(ex.Program, "value", lambda self, env: calls.append(env)
                            or value(self, env))
        lagrangian.build("1/2*(y1^2 + y2^2)", tangent2.chart)
        assert calls == [{}]
        chart = tangent2.chart
        det = ex.parse("a - 2", ("a",))
        assert lagrangian.probe_determinant(chart, det, ex.Box(), 64, 1e-9, 0,
                                            {"a": 3.0}) is None
        assert lagrangian.probe_determinant(chart, det, ex.Box(), 64, 1e-9, 0,
                                            {"a": 2.0}) == {"a": 2.0}
        assert len(calls) == 3

    def test_energy_formula(self, curved_metric):
        data = lagrangian.build(curved_metric.lagrangian, curved_metric.chart)
        fibers = curved_metric.chart.fibers
        expected = ex.eadd(*(ex.emul(ex.Var(nm), ex.diff(data.L, nm)) for nm in fibers),
                           ex.eneg(data.L))
        assert data.EL == expected

    # The flow solves with the Hessian pointwise; these pin its elimination,
    # on named and on literal entries, against the exact inverse and at a
    # rank the exact inverse skips.
    def test_pointwise_mode_matches_symbolic(self, curved_metric):
        data = lagrangian.build(curved_metric.lagrangian, curved_metric.chart)
        env = {"x1": 0.4, "x2": -0.3, "y1": 1.0, "y2": 0.5}
        for literal in (False, True):
            numeric = generated_inverse([[reference_value(v, env) for v in row] for row in data.M],
                                        literal)
            for i in range(2):
                for j in range(2):
                    assert numeric[i][j] == pytest.approx(reference_value(data.Minv[i][j], env),
                                                          rel=1e-12)

    def test_large_rank_forces_pointwise(self):
        from semispray.algebroid import tangent

        fx = tangent(5)
        data = lagrangian.build(fx.lagrangian, fx.chart)
        assert data.Minv is None
        env = {nm: 0.0 for nm in fx.chart.coords}
        env.update({nm: 1.0 for nm in fx.chart.fibers})
        for literal in (False, True):
            inverse = generated_inverse([[reference_value(v, env) for v in row] for row in data.M],
                                        literal)
            assert inverse[2][2] == pytest.approx(1.0)


class TestLegendre:
    # The Legendre map is the fiber derivative dL/dy^k at a point.

    def test_line(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        assert [reference_value(v, {"x1": 0.0, "y1": 3.0}) for v in data.thetaL] == [3.0]

    def test_shifted_plane(self, tangent2):
        data = lagrangian.build("1/2*(y1^2 + y2^2) + x1*y1", tangent2.chart)
        env = {"x1": 2.0, "x2": 0.0, "y1": 1.0, "y2": 1.0}
        assert [reference_value(v, env) for v in data.thetaL] == [3.0, 1.0]

    def test_metric_case_is_hessian_contraction(self, curved_metric):
        data = lagrangian.build(curved_metric.lagrangian, curved_metric.chart)
        rng = random.Random(4)
        for _ in range(10):
            point = ex.ChartPoint((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                                  (rng.uniform(-1, 1), rng.uniform(-1, 1)))
            env = point_env(point, curved_metric.chart)
            covector = [reference_value(v, env) for v in data.thetaL]
            hessian = [[reference_value(v, env) for v in row] for row in data.M]
            expected = [sum(hessian[i][j] * point.y[j] for j in range(2)) for i in range(2)]
            assert covector == pytest.approx(expected, abs=1e-12)


class TestInvariants:
    def test_hessian_symmetric(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            r = fixture.chart.r
            for i in range(r):
                for j in range(r):
                    assert_proven_zero(ex.eadd(data.M[i][j], ex.eneg(data.M[j][i])))

    def test_quadratic_energy_equals_lagrangian(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            assert_proven_zero(ex.eadd(data.EL, ex.eneg(data.L)))

    def test_inverse_recovers_fiber_coordinates(self, curved_metric):
        data = lagrangian.build(curved_metric.lagrangian, curved_metric.chart)
        rng = random.Random(11)
        chart = curved_metric.chart
        for _ in range(10):
            point = ex.ChartPoint((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                                  (rng.uniform(-1, 1), rng.uniform(-1, 1)))
            env = point_env(point, chart)
            covector = [reference_value(v, env) for v in data.thetaL]
            inverse = [[reference_value(v, env) for v in row] for row in data.Minv]
            recovered = [sum(inverse[i][j] * covector[j] for j in range(2)) for i in range(2)]
            assert recovered == pytest.approx(list(point.y), abs=1e-10)

    def test_hessian_inverse_certified(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            product = linalg.mat_mul(data.M, data.Minv)
            for i in range(fixture.chart.r):
                for j in range(fixture.chart.r):
                    expected = ex.ONE if i == j else ex.ZERO
                    assert_proven_zero(ex.eadd(product[i][j], ex.eneg(expected)))
