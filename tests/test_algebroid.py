import ast
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semispray import algebroid as alg
from semispray import expr as ex
from semispray.errors import DegreeError, InvalidFixtureParam
from conftest import cotangent_poisson, epsilon3
from helpers import (assert_certified_zero, assert_proven_zero, random_polynomial,
                     reference_d, reference_value)


def _eval_rho(chart, env):
    return [[reference_value(chart.rho[i][j], env) for j in range(chart.r)]
            for i in range(chart.n)]


def _fd_structure_equation_one(chart, env, k, j, l, step=1e-6):
    """Independent numeric oracle for the anchor compatibility equation,
    using central differences instead of symbolic derivatives."""
    def rho_at(delta_coord=None, delta=0.0):
        local = dict(env)
        if delta_coord is not None:
            local[delta_coord] += delta
        return _eval_rho(chart, local)

    base = rho_at()
    lhs = 0.0
    for i, coord in enumerate(chart.coords):
        d_kl = (rho_at(coord, step)[k][l] - rho_at(coord, -step)[k][l]) / (2 * step)
        d_kj = (rho_at(coord, step)[k][j] - rho_at(coord, -step)[k][j]) / (2 * step)
        lhs += base[i][j] * d_kl - base[i][l] * d_kj
    rhs = sum(base[k][i] * reference_value(chart.c(i, j, l), env) for i in range(chart.r))
    return lhs - rhs


class TestValidateStructure:
    def test_tangent_line_all_proven(self, tangent1):
        report = tangent1.chart.validate_structure()
        assert report.passed and report.all_proven

    def test_so3_passes_and_matches_fd_oracle(self, so3):
        chart = so3.chart
        rng = random.Random(17)
        for _ in range(20):
            env = {nm: rng.uniform(-1, 1) for nm in chart.coords}
            for k in range(chart.n):
                for j in range(chart.r):
                    for l in range(j + 1, chart.r):
                        residual = _fd_structure_equation_one(chart, env, k, j, l)
                        assert abs(residual) < 1e-5
        report = chart.validate_structure()
        assert report.passed

    def test_perturbed_so3_fails_with_witness(self, so3):
        structure = dict(so3.chart.structure)
        structure[(2, 0, 1)] = ex.Const(Fraction(11, 10))
        broken = alg.AlgebroidChart(so3.chart.coords, so3.chart.fibers,
                                    so3.chart.rho, structure)
        report = broken.validate_structure()
        assert not report.passed
        failure = report.first_failure
        assert failure is not None and failure.result.witness is not None
        # The witness point really violates the residual.
        assert failure.result.max_residual > 1e-9

    @pytest.mark.parametrize("entry", list(itertools.product(range(3), range(3))))
    def test_any_rho_perturbation_fails(self, so3, entry):
        i, j = entry
        rho = [row[:] for row in so3.chart.rho]
        rho[i][j] = ex.eadd(rho[i][j], ex.Const(Fraction(1, 10)))
        broken = alg.AlgebroidChart(so3.chart.coords, so3.chart.fibers,
                                    rho, so3.chart.structure)
        assert not broken.validate_structure().passed

    @pytest.mark.parametrize("key", [(k, i, j) for k in range(3)
                                     for i in range(3) for j in range(i + 1, 3)])
    def test_any_structure_perturbation_fails(self, so3, key):
        structure = dict(so3.chart.structure)
        structure[key] = ex.eadd(structure.get(key, ex.ZERO), ex.Const(Fraction(1, 10)))
        broken = alg.AlgebroidChart(so3.chart.coords, so3.chart.fibers,
                                    so3.chart.rho, structure)
        assert not broken.validate_structure().passed

    def test_cotangent_constant_passes(self, cotangent):
        report = cotangent.chart.validate_structure()
        assert report.passed and report.all_proven

    def test_nonconstant_poisson_structure_passes(self):
        x1 = ex.Var("x1")
        entry = ex.eadd(ex.ONE, ex.emul(x1, x1))
        pi = [[ex.ZERO, entry], [ex.eneg(entry), ex.ZERO]]
        fixture = cotangent_poisson(pi)
        assert fixture.chart.validate_structure().passed


class TestDifferential:
    def test_function_on_tangent_plane(self, tangent2):
        chart = tangent2.chart
        f = alg.AForm(chart, 0, {(): ex.Var("x1")})
        df = chart.d(f)
        assert df.get((0,)) == ex.ONE
        assert df.get((1,)) == ex.ZERO

    @pytest.mark.parametrize("seed", range(6))
    def test_d_squared_vanishes_on_functions_and_one_forms(self, so3, cotangent, seed):
        rng = random.Random(300 + seed)
        for fixture in (so3, cotangent):
            chart = fixture.chart
            f = alg.AForm(chart, 0, {(): random_polynomial(rng, chart.coords)})
            for value in chart.d(chart.d(f)).coeffs.values():
                assert_certified_zero(value, seed=seed)
            one = alg.AForm(chart, 1, {(i,): random_polynomial(rng, chart.coords)
                                       for i in range(chart.r)})
            for value in chart.d(chart.d(one)).coeffs.values():
                assert_certified_zero(value, seed=seed)

    def test_exact_two_form_closes(self, so3):
        # d(d zeta) = 0 holds structurally for the rotation chart.
        chart = so3.chart
        rng = random.Random(8)
        zeta = alg.AForm(chart, 1, {(i,): random_polynomial(rng, chart.coords)
                                    for i in range(chart.r)})
        two = chart.d(zeta)
        three = chart.d(two)
        for value in three.coeffs.values():
            assert_proven_zero(value)

    def test_constant_two_form_on_rank_two_closes(self, cotangent):
        chart = cotangent.chart
        theta = alg.AForm(chart, 2, {(0, 1): ex.ONE})
        d_theta = chart.d(theta)
        assert d_theta.degree == 3 and d_theta.is_structurally_zero()

    def test_degree_cap(self, tangent3):
        chart = tangent3.chart
        three = alg.AForm(chart, 3, {(0, 1, 2): ex.ONE})
        with pytest.raises(DegreeError):
            chart.d(three)


def _entry(rng, names, polynomial_share):
    """A coefficient over ``names``: a polynomial, else an exact or float
    constant (signed zeros among them, and 1e200, whose products overflow),
    a float multiple or a quotient."""
    if rng.random() < polynomial_share:
        return random_polynomial(rng, names, max_degree=2, terms=rng.randint(1, 3))
    x, y = ex.Var(names[0]), ex.Var(names[-1])
    return rng.choice([
        ex.ZERO, ex.Const(0.0), ex.Const(-0.0), ex.ONE, ex.Const(-2), ex.Const(Fraction(1, 3)),
        ex.Const(0.5), ex.Const(1e200), ex.Const(-1e200), ex.emul(ex.Const(1e200), x),
        ex.emul(ex.Const(-0.5), x, y), ex.ediv(x, ex.eadd(ex.ONE, ex.emul(y, y))),
        ex.ediv(ex.ONE, ex.eadd(ex.Const(2), x)), ex.efunc("exp", x)])


def _random_chart(rng):
    """A chart of rank 1-4 with sparse anchor and bracket entries."""
    n, r = rng.randint(1, 3), rng.randint(1, 4)
    coords = [f"x{i + 1}" for i in range(n)]
    rho = [[_entry(rng, coords, 0.5) if rng.random() < 0.4 else ex.ZERO for _ in range(r)]
           for _ in range(n)]
    structure = {(c, a, b): _entry(rng, coords, 0.5)
                 for c in range(r) for a, b in itertools.combinations(range(r), 2)
                 if rng.random() < 0.3}
    return alg.AlgebroidChart(coords, [f"y{j + 1}" for j in range(r)], rho, structure,
                              name="random")


@st.composite
def charts_and_forms(draw, degrees=(0, 1, 2)):
    """A catalog or random sparse chart, or its prolongation, and a form on
    it of one of ``degrees``, some keys left out."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    kind = draw(st.sampled_from(["tangent1", "tangent3", "so3", "cotangent", "random"]))
    if kind == "random":
        chart = _random_chart(rng)
    elif kind == "so3":
        chart = alg.action_so3().chart
    elif kind == "cotangent":
        chart = cotangent_poisson().chart
    else:
        chart = alg.tangent(int(kind[-1])).chart
    if draw(st.booleans()):
        chart = alg.prolong_chart(chart)
    degree = draw(st.sampled_from(degrees))
    keys = [key for key in itertools.combinations(range(chart.r), degree) if rng.random() < 0.6]
    return alg.AForm(chart, degree, {key: _entry(rng, chart.coords, 0.6) for key in keys})


class TestSparseDifferential:
    """``d`` visits only nonzero data and builds the dense formula's nodes."""

    @settings(max_examples=400, deadline=None)
    @given(charts_and_forms())
    def test_same_nodes_as_the_dense_formula(self, form):
        chart = form.chart
        assert list(chart.d(form).coeffs.items()) == list(reference_d(chart, form).coeffs.items())

    def test_float_sums_follow_the_dense_order(self):
        # Float sums do not associate: (1e200 + -1e200) + 1.0 is 1.0, while
        # (1.0 + -1e200) + 1e200 is 0.  The first form pins the bracket terms
        # to c ascending, the second the anchor pieces before the bracket's.
        x = ex.Var("x1")
        terms = alg.AlgebroidChart(["x1"], ["y1", "y2", "y3"], [[ex.ZERO] * 3],
                                   {(0, 0, 1): ex.Const(1e200), (1, 0, 1): ex.Const(-1e200),
                                    (2, 0, 1): ex.Const(1.0)})
        pieces = alg.AlgebroidChart(["x1"], ["y1", "y2"], [[x, x]], {(0, 0, 1): ex.Const(-1e200)})
        cases = ((alg.AForm(terms, 1, {(c,): x for c in range(3)}), True),
                 (alg.AForm(pieces, 1, {(0,): ex.emul(ex.Const(-1.0), x),
                                        (1,): ex.emul(ex.Const(1e200), x)}), False))
        for form, kept in cases:  # in the other order, the x1 term is kept where it cancels
            dense = reference_d(form.chart, form)
            assert list(form.chart.d(form).coeffs.items()) == list(dense.coeffs.items())
            assert ((0, 1) in dense.coeffs) is kept

    @settings(max_examples=20, deadline=None)
    @given(charts_and_forms(degrees=(1, 3)))
    def test_same_errors_as_the_dense_formula(self, form):
        cases = [(alg.tangent(1).chart, ValueError)]
        if form.degree == 3:
            cases.append((form.chart, DegreeError))
        for chart, error in cases:
            with pytest.raises(error) as new:
                chart.d(form)
            with pytest.raises(error) as old:
                reference_d(chart, form)
            assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("fixture", ["tangent3", "so3", "cotangent"])
    def test_each_partial_is_taken_once_along_an_anchor(self, fixture, request, monkeypatch):
        chart = alg.prolong_chart(request.getfixturevalue(fixture).chart)
        names = chart.coords
        one = alg.AForm(chart, 1, {(a,): ex.eadd(ex.Const(a + 1), *(
            ex.emul(ex.Const(i + a + 1), ex.Var(x), ex.Var(names[-1 - i]))
            for i, x in enumerate(names))) for a in range(chart.r - 1)})  # one key left out
        calls = []
        original = ex.diff

        def counting(e, var):
            calls.append((e, var))
            return original(e, var)

        monkeypatch.setattr(ex, "diff", counting)
        result = chart.d(one)
        monkeypatch.undo()
        assert list(result.coeffs.items()) == list(reference_d(chart, one).coeffs.items())
        assert calls and len(set(calls)) == len(calls)
        key_of = {value: key for key, value in one.coeffs.items()}
        for e, var in calls:  # a coefficient of the form, never a literal 0
            key = key_of[e]
            assert any(not ex.is_zero_literal(chart.rho[names.index(var)][a])
                       for a in range(chart.r) if a not in key)


class TestAForm:
    def test_skew_storage(self, tangent3):
        chart = tangent3.chart
        form = alg.AForm(chart, 2, {(1, 0): ex.Var("x1")})
        assert form.get((0, 1)) == ex.eneg(ex.Var("x1"))
        assert form.get((1, 0)) == ex.Var("x1")
        assert form.get((1, 1)) == ex.ZERO

    def test_degree_mismatch_rejected(self, tangent2):
        with pytest.raises(ValueError):
            alg.AForm(tangent2.chart, 1, {(0, 1): ex.ONE})

    def test_addition_and_scaling(self, tangent2):
        chart = tangent2.chart
        a = alg.AForm(chart, 2, {(0, 1): ex.Var("x1")})
        b = alg.AForm(chart, 2, {(0, 1): ex.Var("x2")})
        total = a + b.scale(ex.Const(2))
        assert total.get((0, 1)) == ex.parse("x1 + 2*x2", chart.alphabet)

    def test_only_algebroid_reaches_the_skew_store(self):
        # AForm is the one class that holds skew coefficients, on the base
        # chart and on its prolongation alike; no other module sorts keys
        # with a sign or builds a store of its own.
        package = pathlib.Path(alg.__file__).parent
        uses = []
        for path in sorted(package.glob("*.py")):
            if path.name == "algebroid.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname")}
                if names & {"sort_with_sign", "skew_coeffs"}:
                    uses.append(f"{path.name}:{node.lineno}")
        assert uses == []


class TestCatalog:
    def test_tangent_line(self):
        fx = alg.catalog("tangent", n=1)
        assert fx.chart.n == 1 and fx.chart.r == 1
        assert fx.chart.rho == [[ex.ONE]]
        assert fx.chart.structure == {}

    def test_cotangent_constant_bivector(self, cotangent):
        chart = cotangent.chart
        expected = [[ex.ZERO, ex.MINUS_ONE], [ex.ONE, ex.ZERO]]
        assert chart.rho == expected
        assert chart.structure == {}
        assert cotangent.theta.get((0, 1)) == ex.ONE

    def test_so3_structure_constants(self, so3):
        chart = so3.chart
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert chart.c(k, i, j) == ex.Const(epsilon3(i, j, k))

    def test_so3_skew_reconstruction(self, so3):
        chart = so3.chart
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    assert_proven_zero(ex.eadd(chart.c(k, i, j), chart.c(k, j, i)))

    def test_cotangent_rejects_non_skew(self):
        with pytest.raises(InvalidFixtureParam):
            cotangent_poisson([[ex.ZERO, ex.ONE], [ex.ONE, ex.ZERO]],
                                  [[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]])

    def test_cotangent_rejects_asymmetric_metric(self):
        with pytest.raises(InvalidFixtureParam):
            cotangent_poisson([[ex.ZERO, ex.ONE], [ex.MINUS_ONE, ex.ZERO]],
                                  [[ex.ONE, ex.ONE], [ex.ZERO, ex.ONE]])

    def test_unknown_name(self):
        with pytest.raises(InvalidFixtureParam):
            alg.catalog("moebius")

    def test_rho_must_be_basic(self):
        with pytest.raises(ValueError):
            alg.AlgebroidChart(("x1",), ("y1",), [[ex.Var("y1")]], {})
