import collections
import contextlib
import inspect
import io
import itertools
import json
import random
import types
from fractions import Fraction

import pytest

from semispray import algebroid, cli, expr as ex
from semispray import homotopy, lagrangian, poisson, twoform
from semispray.report import ZeroStatus

from helpers import assert_proven_zero, cyclic_garbage, random_polynomial


def bracket_bundle(fixture, theta=None, data=None):
    data = data or lagrangian.build(fixture.lagrangian, fixture.chart)
    section = twoform.ThetaSection(theta) if theta is not None else None
    n = twoform.assemble_N(data, fixture.chart, section)
    return data, poisson.build_bracket(fixture.chart, data, n)


class TestBuildBracket:
    def test_tangent_line(self, tangent1):
        _, p = bracket_bundle(tangent1)
        assert p.pxy == [[ex.MINUS_ONE]]
        assert p.pyy == [[ex.ZERO]]

    def test_cotangent_constant(self, cotangent):
        # With a unit Hessian the mixed block reproduces the bivector matrix
        # and the fiber block is its negative.
        _, p = bracket_bundle(cotangent, theta=cotangent.theta)
        pi = [[ex.ZERO, ex.ONE], [ex.MINUS_ONE, ex.ZERO]]
        for i in range(2):
            for k in range(2):
                assert p.pxy[i][k] == pi[i][k]
                assert p.pyy[i][k] == ex.eneg(cotangent.theta.get((i, k)))

    def test_so3_fiber_block_linear_in_fibers(self, so3):
        _, p = bracket_bundle(so3)
        for row in p.pyy:
            for entry in row:
                for u in so3.chart.fibers:
                    for v in so3.chart.fibers:
                        assert_proven_zero(ex.diff(ex.diff(entry, u), v))

    def test_base_block_is_zero(self, so3):
        _, p = bracket_bundle(so3)
        for a in range(so3.chart.n):
            for b in range(so3.chart.n):
                assert p.coefficient(a, b) == ex.ZERO


class TestBracketOperation:
    def test_coordinate_pair(self, tangent1):
        _, p = bracket_bundle(tangent1)
        value = poisson.bracket(p, ex.Var("x1"), ex.Var("y1"))
        assert value == ex.MINUS_ONE

    @pytest.mark.parametrize("seed", range(6))
    def test_self_bracket_vanishes(self, so3, seed):
        _, p = bracket_bundle(so3, theta=so3.theta)
        rng = random.Random(400 + seed)
        f = random_polynomial(rng, so3.chart.alphabet)
        assert_proven_zero(poisson.bracket(p, f, f))

    @pytest.mark.parametrize("seed", range(6))
    def test_antisymmetry(self, so3, seed):
        _, p = bracket_bundle(so3, theta=so3.theta)
        rng = random.Random(500 + seed)
        f = random_polynomial(rng, so3.chart.alphabet)
        g = random_polynomial(rng, so3.chart.alphabet)
        assert_proven_zero(ex.eadd(poisson.bracket(p, f, g), poisson.bracket(p, g, f)))

    @pytest.mark.parametrize("seed", range(4))
    def test_leibniz(self, cotangent, seed):
        _, p = bracket_bundle(cotangent, theta=cotangent.theta)
        rng = random.Random(600 + seed)
        names = cotangent.chart.alphabet
        f, g, h = (random_polynomial(rng, names, max_degree=2, terms=2) for _ in range(3))
        lhs = poisson.bracket(p, f, ex.emul(g, h))
        rhs = ex.eadd(ex.emul(poisson.bracket(p, f, g), h),
                      ex.emul(g, poisson.bracket(p, f, h)))
        assert_proven_zero(ex.eadd(lhs, ex.eneg(rhs)))


class TestJacobi:
    def test_tangent_line_proven(self, tangent1):
        _, p = bracket_bundle(tangent1)
        report = poisson.check_jacobi(p)
        assert report.passed and report.all_proven

    def test_cotangent_with_twist(self, cotangent):
        _, p = bracket_bundle(cotangent, theta=cotangent.theta)
        report = poisson.check_jacobi(p, tol=1e-9)
        assert report.passed and report.max_residual < 1e-9

    def test_position_dependent_structure_functions(self, curved_cotangent, lagrangian_data):
        # x-dependent anchor AND bracket coefficients at once: the Jacobi
        # identity still cancels exactly, and the field stays a semispray.
        fixture = curved_cotangent
        data = lagrangian_data(fixture)
        _, p = bracket_bundle(fixture, theta=fixture.theta, data=data)
        report = poisson.check_jacobi(p)
        assert report.passed and report.all_proven
        field = poisson.hamiltonian_field(p, data.EL)
        assert poisson.is_semispray(fixture.chart, field, tol=1e-10).passed

    def test_non_closed_twist_detected(self, so3, lagrangian_data):
        # The Jacobi checker doubles as a detector for invalid twists: a
        # non-closed 2-section breaks the identity.
        data = lagrangian_data(so3)
        chart = so3.chart
        open_theta = twoform.ThetaSection(
            algebroid.AForm(chart, 2, {(0, 1): ex.parse("x1^2", chart.alphabet)}))
        assert not open_theta.check_closed().passed
        n = twoform.assemble_N(data, chart, open_theta)
        bivector = poisson.build_bracket(chart, data, n)
        assert not poisson.check_jacobi(bivector).passed

    def test_corrupted_bivector_fails_with_witness(self, so3):
        _, p = bracket_bundle(so3, theta=so3.theta)
        p.pyy[0][1] = ex.eadd(p.pyy[0][1], ex.Var("x1"))
        p.pyy[1][0] = ex.eneg(p.pyy[0][1])
        report = poisson.check_jacobi(p)
        assert not report.passed
        failure = report.first_failure
        assert failure is not None and failure.result.witness is not None


class TestHamiltonianField:
    def test_free_motion_on_line(self, tangent1):
        data, p = bracket_bundle(tangent1)
        field = poisson.hamiltonian_field(p, data.EL)
        assert field.vx == [ex.Var("y1")]
        assert field.vy == [ex.ZERO]

    def test_constant_force(self, tangent1):
        data, p = bracket_bundle(tangent1)
        field = poisson.hamiltonian_field(p, ex.eadd(data.EL, ex.Var("x1")))
        assert field.vx == [ex.Var("y1")]
        assert field.vy == [ex.MINUS_ONE]

    def test_cotangent_base_velocity_from_bivector(self, cotangent):
        # Base components contract the momenta with the bivector.
        data, p = bracket_bundle(cotangent, theta=cotangent.theta)
        field = poisson.hamiltonian_field(p, data.EL)
        pi = {(0, 1): 1, (1, 0): -1}
        fibers = [ex.Var(nm) for nm in cotangent.chart.fibers]
        for i in range(2):
            expected = ex.eadd(*(ex.emul(fibers[j], ex.Const(pi.get((j, i), 0)))
                                 for j in range(2)))
            assert field.vx[i] == expected


class TestSemisprayPredicate:
    def test_energy_fields_are_semisprays_on_fixtures(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            for theta in (None, fixture.theta):
                _, p = bracket_bundle(fixture, theta=theta, data=data)
                field = poisson.hamiltonian_field(p, data.EL)
                report = poisson.is_semispray(fixture.chart, field, tol=1e-10)
                assert report.passed, f"{fixture.label} theta={theta is not None}"

    def test_wrong_base_component(self, tangent1):
        bad = poisson.VectorFieldOnA(tangent1.chart, [ex.parse("y1^2", ("y1",))], [ex.ZERO])
        report = poisson.is_semispray(tangent1.chart, bad)
        assert not report.passed


class TestSprayPredicate:
    def test_metric_flow_is_spray(self, so3, curved_metric):
        for fixture in (so3, curved_metric):
            data, p = bracket_bundle(fixture)
            field = poisson.hamiltonian_field(p, data.EL)
            assert poisson.is_spray(field).passed

    def test_potential_breaks_homogeneity(self, tangent1):
        data, p = bracket_bundle(tangent1)
        field = poisson.hamiltonian_field(p, ex.eadd(data.EL, ex.Var("x1")))
        report = poisson.is_spray(field)
        assert not report.passed
        # The fiber residual of the dilation bracket is the constant 2.
        fiber_item = report.items[-1]
        assert fiber_item.result.status is ZeroStatus.NONZERO
        assert fiber_item.result.max_residual == pytest.approx(2.0)

    def test_quadratic_fiber_coefficient(self, tangent1):
        field = poisson.VectorFieldOnA(tangent1.chart, [ex.Var("y1")],
                                       [ex.parse("y1^2", ("y1",))])
        assert poisson.is_spray(field).passed


def reference_bracket(p, f, g):
    """The all-pairs bracket: every partial of F and G along every
    coordinate, then every pair with a nonzero coefficient, in (a, b) order.
    The lazy bracket must give structurally equal trees."""
    names = p.coordinate_names()
    df = [ex.diff(f, nm) for nm in names]
    dg = [ex.diff(g, nm) for nm in names]
    pieces = []
    for a in range(len(names)):
        if ex.is_zero_literal(df[a]):
            continue
        for b in range(len(names)):
            if a == b or ex.is_zero_literal(dg[b]):
                continue
            coeff = p.coefficient(a, b)
            if ex.is_zero_literal(coeff):
                continue
            pieces.append(ex.emul(coeff, df[a], dg[b]))
    return ex.eadd(*pieces)


def reference_jacobi_residuals(p):
    names = p.coordinate_names()
    v = [ex.Var(nm) for nm in names]
    br = reference_bracket
    for a, b, c in itertools.combinations(range(len(names)), 3):
        yield (f"({names[a]},{names[b]},{names[c]})",
               ex.eadd(br(p, v[a], br(p, v[b], v[c])),
                       br(p, v[b], br(p, v[c], v[a])),
                       br(p, v[c], br(p, v[a], v[b]))))


STRESS_L = "1/2*exp(x1)*(y1^2+y2^2+y3^2) + x2*y1*y2"


@pytest.fixture(scope="module")
def stress(so3):
    """The action chart of so(3) with a Hessian det e^x1 (e^2x1 - x2^2):
    quotient rules in every partial."""
    return algebroid.Fixture("stress", so3.chart, ex.parse(STRESS_L, so3.chart.alphabet),
                             so3.theta)


def test_expression_kernel_keeps_no_cache(stress):
    # ``subs``, ``simplify`` and ``diff`` memoize within one call only: a
    # cache kept across calls would grow with every residual a check builds.
    _, p = bracket_bundle(stress, theta=stress.theta)
    residual = max((r for _, r in poisson.jacobi_residuals(p)),
                   key=lambda r: len(ex.to_text(r)))

    def container_sizes():
        return {name: len(v) if isinstance(v, (dict, list, set)) else v.cache_info().currsize
                for name, v in vars(ex).items()
                if isinstance(v, (dict, list, set)) or hasattr(v, "cache_info")}

    before = container_sizes()
    ex.simplify(residual)
    ex.subs(residual, {"x1": ex.Const(0.5), "y2": ex.Var("y3")})
    ex.diff(residual, "y1")
    assert container_sizes() == before
    assert {f.__name__: list(inspect.signature(f).parameters)
            for f in (ex.subs, ex.simplify, ex.diff)} == {
        "subs": ["e", "mapping"], "simplify": ["e"], "diff": ["e", "var"]}


def test_intern_table_holds_only_live_nodes(stress):
    # The table holds its nodes weakly: once the residuals of a check are
    # dropped, so are their entries.
    before = len(ex._INTERNED)
    residuals = [r for _, r in poisson.jacobi_residuals(bracket_bundle(stress, stress.theta)[1])]
    assert len(ex._INTERNED) > before + 1000
    del residuals
    assert len(ex._INTERNED) == before


def test_expression_kernel_leaves_no_cyclic_garbage(stress, tmp_path):
    # Everything a kernel call allocates is freed by reference counting, so
    # the cyclic collector never has to trace the trees a check builds.
    # What remains is the CLI's argparse parser, which is not the kernel's.
    doc = {"n": 3, "r": 3, "rho": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
           "C": {"3,1,2": "1", "2,1,3": "-1", "1,2,3": "1"}, "L": STRESS_L,
           "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"}}
    path = tmp_path / "stress.json"
    path.write_text(json.dumps(doc))
    x1, y1 = ex.Var("x1"), ex.Var("y1")
    integrand = ex.efunc("exp", ex.emul(ex.Var(homotopy.TVAR), x1))
    with cyclic_garbage() as found:
        e = ex.emul(ex.eadd(x1, ex.Const(2.0), y1), ex.ediv(ex.Const(3), ex.eadd(x1, y1)), x1)
        ex.simplify(ex.eadd(e, ex.diff(e, "x1"), stress.lagrangian))
        _, p = bracket_bundle(stress, theta=stress.theta)
        poisson.check_jacobi(p, trials=4, seed=1)
        homotopy.fiber_value(integrand)({"x1": 0.5})
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", "semispray", str(path), "--seed", "1"]) == 0
    kernel = collections.Counter(
        o.__qualname__ if isinstance(o, types.FunctionType) else type(o).__name__
        for o in found
        if isinstance(o, (ex.Expr, Fraction))
        or isinstance(o, types.FunctionType) and o.__module__.startswith("semispray"))
    assert kernel == {}


@pytest.fixture(scope="module", params=[("so3", True), ("cotangent", True),
                                        ("curved_metric", False), ("stress", True)],
                ids=["so3-theta", "cotangent-theta", "curved_metric", "stress-theta"])
def bundle(request):
    name, with_theta = request.param
    fixture = request.getfixturevalue(name)
    data, p = bracket_bundle(fixture, theta=fixture.theta if with_theta else None)
    return fixture, data, p


class TestLazyPartialsAreExact:
    """The lazy bracket, field and Jacobi residuals are structurally equal to
    the all-pairs ones, so every float and verdict downstream is unchanged."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bracket(self, bundle, seed):
        fixture, _, p = bundle
        rng = random.Random(700 + seed)
        f = random_polynomial(rng, fixture.chart.alphabet)
        g = random_polynomial(rng, fixture.chart.alphabet)
        assert poisson.bracket(p, f, g) == reference_bracket(p, f, g)

    def test_hamiltonian_field(self, bundle):
        _, data, p = bundle
        field = poisson.hamiltonian_field(p, data.EL)
        assert field.components() == [reference_bracket(p, data.EL, ex.Var(nm))
                                      for nm in p.coordinate_names()]

    def test_jacobi_residuals(self, bundle):
        _, _, p = bundle
        assert list(poisson.jacobi_residuals(p)) == list(reference_jacobi_residuals(p))

    @pytest.mark.parametrize("block", ["pxy", "pyy"])
    def test_edits_after_build_are_seen(self, so3, block):
        _, p = bracket_bundle(so3, theta=so3.theta)
        assert poisson.check_jacobi(p).passed
        matrix = getattr(p, block)
        matrix[0][1] = ex.eadd(matrix[0][1], ex.Var("x1"))
        if block == "pyy":
            matrix[1][0] = ex.eneg(matrix[0][1])
        report = poisson.check_jacobi(p)
        assert not report.passed and report.first_failure.result.witness is not None


class TestDerivativeCounts:
    @pytest.fixture()
    def differentiated(self, monkeypatch):
        """Every non-``Var`` expression handed to ``ex.diff``, in call order."""
        seen = []
        original = poisson.ex.diff

        def counting(e, var):
            if not isinstance(e, ex.Var):
                seen.append(e)
            return original(e, var)

        monkeypatch.setattr(poisson.ex, "diff", counting)
        return seen

    def test_field_takes_each_partial_of_g_once(self, so3, differentiated):
        data, p = bracket_bundle(so3, theta=so3.theta)
        differentiated.clear()
        poisson.hamiltonian_field(p, data.EL)
        # All n + r partials of G for each of the n + r components would be 36.
        assert len(differentiated) <= so3.chart.n + so3.chart.r

    def test_jacobi_differentiates_where_a_coefficient_needs_it(self, so3, differentiated):
        _, p = bracket_bundle(so3, theta=so3.theta)
        differentiated.clear()
        poisson.check_jacobi(p)
        # Each inner bracket differentiated once along each coordinate that
        # has a nonzero coefficient in the outer row; along every coordinate
        # in every nested bracket it is 288.
        assert len(differentiated) == 87
