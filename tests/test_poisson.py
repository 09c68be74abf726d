import collections
import contextlib
import inspect
import io
import itertools
import json
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semispray import algebroid, cli, expr as ex
from semispray import homotopy, lagrangian, linalg, poisson, twoform
from semispray.model import load_model
from semispray.report import ZeroStatus

from helpers import assert_proven_zero, cyclic_garbage, random_polynomial
from test_golden_cli import GOLDEN, MODELS as GOLDEN_MODELS, run_case


def bracket_bundle(fixture, theta=None, data=None):
    data = data or lagrangian.build(fixture.lagrangian, fixture.chart)
    section = twoform.ThetaSection(theta) if theta is not None else None
    n = twoform.assemble_N(data, fixture.chart, section)
    return data, poisson.build_bracket(fixture.chart, data, n)


def factored_field(fixture, theta=None, data=None, g=None):
    """The factored Hamiltonian field of ``g`` (default ``E_L``)."""
    data = data or lagrangian.build(fixture.lagrangian, fixture.chart)
    section = twoform.ThetaSection(theta) if theta is not None else None
    n = twoform.assemble_N(data, fixture.chart, section)
    return poisson.FactoredField(fixture.chart, data.M, n, data.EL if g is None else g)


def corrupt_twist(field, term):
    """``field`` with ``term`` subtracted from ``N[0][1]`` (and added to
    ``N[1][0]``): where ``M = I``, ``P^{yy} = -N`` gains ``term`` at [0][1]."""
    field.N[0][1] = ex.eadd(field.N[0][1], ex.eneg(term))
    field.N[1][0] = ex.eneg(field.N[0][1])
    return field


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
        report = poisson.check_jacobi(factored_field(tangent1))
        assert report.passed and report.all_proven

    def test_cotangent_with_twist(self, cotangent):
        field = factored_field(cotangent, theta=cotangent.theta)
        report = poisson.check_jacobi(field, tol=1e-9)
        assert report.passed and report.max_residual < 1e-9

    def test_position_dependent_structure_functions(self, curved_cotangent, lagrangian_data):
        # x-dependent anchor AND bracket coefficients at once: the Jacobi
        # identity still cancels exactly, and the field stays a semispray.
        fixture = curved_cotangent
        field = factored_field(fixture, theta=fixture.theta, data=lagrangian_data(fixture))
        report = poisson.check_jacobi(field)
        assert report.passed and report.all_proven
        assert poisson.is_semispray(field, tol=1e-10).passed

    def test_non_closed_twist_detected(self, so3, lagrangian_data):
        # The Jacobi checker doubles as a detector for invalid twists: a
        # non-closed 2-section breaks the identity.
        data = lagrangian_data(so3)
        chart = so3.chart
        open_theta = twoform.ThetaSection(
            algebroid.AForm(chart, 2, {(0, 1): ex.parse("x1^2", chart.alphabet)}))
        assert not open_theta.check_closed().passed
        n = twoform.assemble_N(data, chart, open_theta)
        field = poisson.FactoredField(chart, data.M, n, data.EL)
        assert not poisson.check_jacobi(field).passed

    def test_corrupted_bivector_fails_with_witness(self, so3):
        field = corrupt_twist(factored_field(so3, theta=so3.theta), ex.Var("x1"))
        report = poisson.check_jacobi(field)
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
                field = factored_field(fixture, theta=theta, data=data)
                report = poisson.is_semispray(field, tol=1e-10)
                assert report.passed and report.all_proven, \
                    f"{fixture.label} theta={theta is not None}"

    def test_wrong_base_component(self, tangent1, lagrangian_data):
        # G = E_L + y1^3 breaks dG/dy = M y: X_x - y1 = 3 y1^2 is nonzero
        # mod p and then at a float witness.
        data = lagrangian_data(tangent1)
        g = ex.eadd(data.EL, ex.parse("y1^3", ("y1",)))
        report = poisson.is_semispray(factored_field(tangent1, data=data, g=g))
        assert not report.passed
        result = report.items[0].result
        assert result.status is ZeroStatus.NONZERO and result.method == "float"
        assert result.witness_value == pytest.approx(3 * result.witness["y1"] ** 2)


class TestSprayPredicate:
    def test_metric_flow_is_spray(self, so3, curved_metric):
        for fixture in (so3, curved_metric):
            assert poisson.is_spray(factored_field(fixture)).passed

    def test_potential_breaks_homogeneity(self, tangent1, lagrangian_data):
        data = lagrangian_data(tangent1)
        field = factored_field(tangent1, data=data, g=ex.eadd(data.EL, ex.Var("x1")))
        report = poisson.is_spray(field)
        assert not report.passed
        # The fiber residual of the dilation bracket is the constant 2.
        fiber_item = report.items[-1]
        assert fiber_item.result.status is ZeroStatus.NONZERO
        assert fiber_item.result.max_residual == pytest.approx(2.0)

    def test_quadratic_fiber_coefficient(self, tangent1):
        # G = y1^2/2 - x1*y1^2 with M = 1 gives X = ((1 - 2 x1) y1, y1^2):
        # degree 1 on the base and 2 on the fiber, though no semispray.
        g = ex.parse("1/2*y1^2 - x1*y1^2", tangent1.chart.alphabet)
        field = factored_field(tangent1, g=g)
        assert poisson.is_spray(field).passed
        assert not poisson.is_semispray(field).passed


#: Two models of the bench's ``certify_exact`` workload with a constant
#: Hessian and a twist, copied here: the spray fiber items that the zero
#: pattern of the solves proves, by label.
SPRAY_PATTERN_MODELS = {
    "tangent4": ({"n": 4, "r": 4, "rho": [["1" if i == j else "0" for j in range(4)]
                                          for i in range(4)],
                  "L": "1/2*(y1^2+y2^2+y3^2+y4^2)", "Theta": {"1,2": "1"}},
                 ["d/dy3", "d/dy4"]),
    "lie_poisson4": ({"n": 4, "r": 4, "fibers": ["p1", "p2", "p3", "p4"],
                      "rho": [["0", "-x3", "x2", "0"], ["x3", "0", "-x1", "0"],
                              ["-x2", "x1", "0", "0"], ["0", "0", "0", "0"]],
                      "C": {"3,1,2": "1", "2,1,3": "-1", "1,2,3": "1"},
                      "L": "1/2*(p1^2+p2^2+p3^2+p4^2)",
                      "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"}, "f": "x4^2"},
                     ["d/dp4"]),
}


@pytest.mark.parametrize("name", sorted(SPRAY_PATTERN_MODELS))
def test_spray_fiber_items_proven_from_the_zero_pattern(name):
    # The fiber items that no twist or potential term reaches are the literal
    # 0 in the pattern arithmetic of the solves, and so are the bracket-built
    # field's residual trees.
    doc, labels = SPRAY_PATTERN_MODELS[name]
    model = load_model(doc)
    data = lagrangian.build(model.lagrangian, model.chart)
    n = twoform.assemble_N(data, model.chart, twoform.ThetaSection(model.theta))
    g = ex.eadd(data.EL, model.potential) if model.potential is not None else data.EL
    report = poisson.is_spray(poisson.FactoredField(model.chart, data.M, n, g))
    fibers = report.items[model.chart.n:]
    assert [item.label for item in fibers if item.result.proven] == labels
    tree = poisson.hamiltonian_field(poisson.build_bracket(model.chart, data, n), g)
    trees = tree_residuals(model.chart, tree, True)[model.chart.n:]
    assert [ex.is_zero_literal(r) for r in trees] == [item.result.proven for item in fibers]


def tree_residuals(chart, field, spray):
    """The residuals of the bracket-built field ``field``: ``X_x - rho y``,
    or ``E(X) - deg X`` with ``E = y^k d/dy^k``, degree 1 on the base and 2
    on the fiber."""
    fibers = [ex.Var(name) for name in chart.fibers]
    if not spray:
        expected = linalg.mat_vec(chart.rho, fibers)
        return [ex.eadd(v, ex.eneg(e)) for v, e in zip(field.vx, expected)]

    def euler(component, degree):
        radial = ex.eadd(*(ex.emul(y, ex.diff(component, y.name)) for y in fibers))
        return ex.eadd(radial, ex.emul(ex.Const(-degree), component))

    return [euler(c, 1) for c in field.vx] + [euler(c, 2) for c in field.vy]


def factored_residuals(field, spray):
    """``env -> residuals``: the residuals :func:`poisson.is_semispray` or
    :func:`poisson.is_spray` decide, at a float point."""
    residuals = poisson._FactoredResiduals(field, spray)
    program = ex.Program(residuals.outputs)
    return lambda env: residuals.values(program.jets(env, residuals.along, ex.FLOAT), ex.FLOAT)


def optional(value):
    return [None] if value is None else [None, value]


def assert_tree_path_is_honest(chart, data, thetas, potentials, seed):
    """The tree residuals of the bracket's field equal the factored ones at
    20 float points, for every 2-section in ``thetas`` and ``G`` = ``E_L``
    plus each potential, and plus ``y1^3``, which takes the solves."""
    y1 = ex.Var(chart.fibers[0])
    rng = random.Random(seed)
    for theta in thetas:
        n = twoform.assemble_N(data, chart,
                               None if theta is None else twoform.ThetaSection(theta))
        bivector = poisson.build_bracket(chart, data, n)
        for extra in [*potentials, ex.epow(y1, 3)]:
            g = data.EL if extra is None else ex.eadd(data.EL, extra)
            tree = poisson.hamiltonian_field(bivector, g)
            field = poisson.FactoredField(chart, data.M, n, g)
            for spray in (False, True):
                programs = [ex.Program([r]) for r in tree_residuals(chart, tree, spray)]
                factored = factored_residuals(field, spray)
                for _ in range(20):
                    env = {name: rng.uniform(-0.5, 0.5) for name in chart.alphabet}
                    got = factored(env)
                    want = [program.value(env) for program in programs]
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (g, spray, env)


class TestTreePathHonesty:
    """The semispray and spray checks decide the factored residuals; the
    bracket-built field, which ``hamiltonian`` prints, must have the same
    ones.  Within [-0.5, 0.5] the stress Hessian stays regular."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_golden_models(self, name):
        model = load_model(GOLDEN_MODELS[name])
        data = lagrangian.build(model.lagrangian, model.chart)
        assert_tree_path_is_honest(model.chart, data, optional(model.theta),
                                   optional(model.potential), seed=len(name))

    def test_a_hessian_that_depends_on_the_fibers(self, tangent2):
        # Every model above has a quadratic L, so E M = 0 there.  Here
        # M = [[1 + y1^2 + 2 x1 y2, 2 x1 y1], [2 x1 y1, 1]], regular on the box.
        chart = tangent2.chart
        lag = ex.parse("1/2*(y1^2 + y2^2) + y1^4/12 + x1*y1^2*y2", chart.alphabet)
        theta = algebroid.AForm(chart, 2, {(0, 1): ex.Var("x2")})
        assert_tree_path_is_honest(chart, lagrangian.build(lag, chart), [None, theta],
                                   [None, ex.Var("x1")], seed=2)

    def test_acceptance_fixtures(self, catalog_fixtures, curved_metric, lagrangian_data):
        for fixture in [*catalog_fixtures, curved_metric]:
            chart = fixture.chart
            potentials = [None, ex.Var(chart.coords[0])]
            if chart.n >= 2:
                potentials.append(ex.emul(ex.Var(chart.coords[0]), ex.Var(chart.coords[1])))
            assert_tree_path_is_honest(chart, lagrangian_data(fixture), optional(fixture.theta),
                                       potentials, seed=chart.n)


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
STRESS_DOC = {"n": 3, "r": 3, "rho": [["0", "-x3", "x2"], ["x3", "0", "-x1"], ["-x2", "x1", "0"]],
              "C": {"3,1,2": "1", "2,1,3": "-1", "1,2,3": "1"}, "L": STRESS_L,
              "Theta": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"}}


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
    residual = max((r for _, r in reference_jacobi_residuals(p)),
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
    residuals = [r for _, r in reference_jacobi_residuals(bracket_bundle(stress, stress.theta)[1])]
    assert len(ex._INTERNED) > before + 1000
    del residuals
    assert len(ex._INTERNED) == before


def test_expression_kernel_leaves_no_cyclic_garbage(stress, tmp_path):
    # Everything a kernel call allocates is freed by reference counting, so
    # the cyclic collector never has to trace the trees a check builds.
    # What remains is the CLI's argparse parser, which is not the kernel's.
    path = tmp_path / "stress.json"
    path.write_text(json.dumps(STRESS_DOC))
    x1, y1 = ex.Var("x1"), ex.Var("y1")
    integrand = ex.efunc("exp", ex.emul(ex.Var(homotopy.TVAR), x1))
    with cyclic_garbage() as found:
        e = ex.emul(ex.eadd(x1, ex.Const(2.0), y1), ex.ediv(ex.Const(3), ex.eadd(x1, y1)), x1)
        ex.simplify(ex.eadd(e, ex.diff(e, "x1"), stress.lagrangian))
        poisson.check_jacobi(factored_field(stress, theta=stress.theta), trials=4, seed=1)
        homotopy.fiber_value(integrand)({"x1": 0.5})
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", "semispray", str(path), "--seed", "1"]) == 0
            assert cli.main(["check", "spray", str(path), "--seed", "1"]) == 1
    kernel = collections.Counter(
        o.__qualname__ if isinstance(o, types.FunctionType) else type(o).__name__
        for o in found
        if isinstance(o, (ex.Expr, Fraction))
        or isinstance(o, types.FunctionType) and o.__module__.startswith("semispray"))
    assert kernel == {}


@pytest.fixture(scope="module")
def stress_perturbed(so3):
    """The stress model with the anchor entry ``rho[0][1]`` moved by 1e-6:
    the structure equations fail, so the bracket is not Poisson."""
    rho = [row[:] for row in so3.chart.rho]
    rho[0][1] = ex.eadd(rho[0][1], ex.Const(Fraction(1, 10 ** 6)))
    chart = algebroid.AlgebroidChart(so3.chart.coords, so3.chart.fibers, rho,
                                     so3.chart.structure)
    theta = algebroid.AForm(chart, 2, {(0, 1): ex.Var("x3"), (0, 2): ex.eneg(ex.Var("x2")),
                                       (1, 2): ex.Var("x1")})
    return algebroid.Fixture("stress_perturbed", chart, ex.parse(STRESS_L, chart.alphabet),
                             theta)


@pytest.fixture()
def no_residual_trees(monkeypatch):
    """``check_jacobi`` must build no nested bracket and certify no tree."""
    def refuse(*args, **kwargs):
        raise AssertionError("a residual tree was built or certified")

    monkeypatch.setattr(poisson, "_contract", refuse)
    monkeypatch.setattr(ex, "certify", refuse)


def symbolic_term_sums(p):
    """``(label, sum)`` of every triple none of whose terms reads an entry
    holding a quotient: the symbolic sum of its terms that
    :func:`poisson.check_jacobi` proves a triple from."""
    names = p.coordinate_names()
    pairs = list(itertools.combinations(range(len(names)), 2))
    entries = [p.coefficient(a, b) for a, b in pairs]
    symbolic = [(e, poisson._Partials(e, names)) for e in entries]
    for label, terms in poisson._jacobi_terms(names, pairs, ex.Pattern.jets(entries, names)):
        if not any(isinstance(node, ex.Div)
                   for _, k, l, _ in terms for node in ex.distinct_nodes(entries[k], entries[l])):
            yield label, ex.eadd(*[ex.emul(ex.as_expr(sign), symbolic[k][0], symbolic[l][1][d])
                                   for sign, k, l, d in terms])


def golden_field(name):
    model = load_model(GOLDEN_MODELS[name])
    data = lagrangian.build(model.lagrangian, model.chart)
    theta = twoform.ThetaSection(model.theta) if model.theta is not None else None
    return poisson.FactoredField(model.chart, data.M,
                                 twoform.assemble_N(data, model.chart, theta), data.EL)


def reference_bivector(field):
    """The symbolic bracket of ``field``, through the exact Hessian inverse."""
    minv = linalg.inverse(field.M, linalg.det(field.M))
    pxy = [[ex.eneg(v) for v in row] for row in linalg.mat_mul(field.chart.rho, minv)]
    pyy = [[ex.eneg(v) for v in row]
           for row in linalg.mat_mul(linalg.mat_mul(minv, field.N), minv)]
    return poisson.PoissonBivector(field.chart, pxy, pyy)


class TestJacobiFromJets:
    """Every bracket is checked from jets of its entries."""

    @pytest.mark.parametrize("name", ["action_so3", "stress"])
    def test_one_path_builds_no_residual_tree(self, name, no_residual_trees, tmp_path):
        # A bracket without a quotient (action_so3) and one with (stress)
        # print their golden bytes with no nested bracket and no certify.
        stdout, code = run_case(name, "check_jacobi", tmp_path)
        assert code == 0
        assert stdout.encode() == (GOLDEN / f"{name}__check_jacobi.out").read_bytes()

    def test_stress_passes_at_every_seed(self, tmp_path, no_residual_trees):
        # The bracket is Poisson (Theta is closed), so no seed may report a
        # NONZERO; the residual trees gave false ones from roundoff near the
        # curve det M = 0.
        path = tmp_path / "stress.json"
        path.write_text(json.dumps(STRESS_DOC))
        for seed in range(40):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", "jacobi", str(path), "--seed", str(seed)])
            report = json.loads(out.getvalue())
            assert (code, report["status"]) == (0, "pass"), seed
            assert {item.get("method") for item in report["items"]} == {None, "modular"}

    def test_corrupted_entry_rejected_with_witness(self, stress, no_residual_trees):
        field = corrupt_twist(factored_field(stress, theta=stress.theta), ex.Var("x1"))
        report = poisson.check_jacobi(field, trials=64, tol=1e-8)
        failure = report.first_failure
        assert not report.passed and failure.result.witness is not None
        assert failure.result.method == "float"
        assert abs(failure.result.witness_value) > 1e-8

    def test_root_in_an_entry_is_sampled_in_floats(self, stress, no_residual_trees, monkeypatch):
        # |x1| - x1, written with a root, is 0 mod p at half the points, where
        # the root of x1^2 mod p is x1; so a bracket with a root gets no
        # modular point, and the entry's true -2 x1 for x1 < 0 is found.
        def refuse(*args, **kwargs):
            raise AssertionError("a bracket with a root drew a modular point")

        monkeypatch.setattr(ex, "Modular", refuse)
        field = corrupt_twist(factored_field(stress, theta=stress.theta),
                              ex.parse("(x1^2)^(1/2) - x1", ("x1",)))
        report = poisson.check_jacobi(field, seed=0)
        failure = report.first_failure
        assert not report.passed and failure.result.method == "float"
        assert failure.result.witness["x1"] < 0

    def test_perturbed_anchor_rejected_with_witness(self, stress_perturbed, no_residual_trees):
        field = factored_field(stress_perturbed, theta=stress_perturbed.theta)
        report = poisson.check_jacobi(field, seed=13)
        nonzero = [i.label for i in report.items if i.result.status is ZeroStatus.NONZERO]
        assert nonzero == ["(x1,y1,y3)", "(x1,y2,y3)", "(x2,y1,y3)", "(x2,y2,y3)", "(y1,y2,y3)"]
        assert report.first_failure.result.witness is not None

    @pytest.mark.parametrize("name", ["stress", "stress_perturbed"])
    def test_float_jacobiator_matches_residual_tree(self, name, request):
        # Away from the curve det M = 0 (x1 >= 0.25 keeps e^x1 above |x2|),
        # the Jacobiator summed from the float jets the factored field's
        # solves give is the residual tree's value, to 1e-9 of the
        # Jacobiator's own scale, the sum of its terms' sizes.
        fixture = request.getfixturevalue(name)
        _, p = bracket_bundle(fixture, theta=fixture.theta)
        bracket = poisson._BracketJets(factored_field(fixture, theta=fixture.theta))
        names, pairs = bracket.names, bracket.pairs
        entries = [p.coefficient(a, b) for a, b in pairs]
        triples = list(poisson._jacobi_terms(names, pairs, ex.Pattern.jets(entries, names)))
        program = ex.Program(bracket.outputs)
        trees = [ex.Program([r]) for _, r in reference_jacobi_residuals(p)]
        box = ex.Box(ranges={"x1": (0.25, 1.0)})
        rng = random.Random(2024)
        spans = box.spans(names)
        for _ in range(20):
            env = box.draw(spans, rng)
            jets = bracket(program.jets(env, names, ex.FLOAT), ex.FLOAT)
            for tree, (_, terms) in zip(trees, triples):
                want = tree.value(env)
                got = poisson._jacobiator(terms, jets, math.fsum)
                scale = poisson._jacobiator([(1, k, l, d) for _, k, l, d in terms],
                                            [(abs(v), [abs(g) for g in grad]) for v, grad in jets],
                                            math.fsum)
                assert abs(got - want) <= 1e-9 * scale

    def test_structural_zeros_are_the_literal_zeros_of_the_trees(self, request):
        # On every golden model and every field of the ``bundle`` fixture,
        # with and without a quotient, the Jacobi check proves exactly the
        # triples whose all-pairs residual trees over the symbolic bracket
        # cancel to the literal 0.
        fields = [golden_field(name) for name in sorted(GOLDEN_MODELS)]
        for name, with_theta in BUNDLES:
            fixture = request.getfixturevalue(name)
            fields.append(factored_field(fixture, fixture.theta if with_theta else None))
        for field in fields:
            report = poisson.check_jacobi(field)
            proven = [item.result.proven for item in report.items]
            trees = reference_jacobi_residuals(reference_bivector(field))
            assert proven == [ex.is_zero_literal(r) for _, r in trees]

    def test_jets_leave_no_cyclic_garbage(self, stress_perturbed):
        # The float path caches jets per point in a closure; all of it is
        # freed by reference counting.
        field = factored_field(stress_perturbed, theta=stress_perturbed.theta)
        with cyclic_garbage() as found:
            assert not poisson.check_jacobi(field, seed=3).passed
        assert [o for o in found if isinstance(o, (ex.Expr, Fraction, types.FunctionType))] == []


PATTERN_ENTRIES = ["0", "0", "0", "1", "-1", "2", "1/3", "x1", "x2", "y1", "y3", "x1*y2",
                   "x2^2", "x1*x2*y1"]
BASE_ENTRIES = [e for e in PATTERN_ENTRIES if "y" not in e]
PATTERN_CHART = algebroid.AlgebroidChart(("x1", "x2"), ("y1", "y2", "y3"),
                                         [[ex.ZERO] * 3] * 2, {})


def pattern_field(m, n, rho):
    """The factored field on ``PATTERN_CHART`` with the symmetric ``M`` of
    upper triangle ``m``, the skew ``N`` of strict upper triangle ``n`` and
    the anchor rows ``rho``, each given as source text."""
    def entry(text):
        return ex.parse(text, PATTERN_CHART.alphabet)

    upper = dict(zip(itertools.combinations_with_replacement(range(3), 2), m))
    strict = dict(zip(itertools.combinations(range(3), 2), n))
    hessian = [[entry(upper[min(i, j), max(i, j)]) for j in range(3)] for i in range(3)]
    twist = [[ex.ZERO if i == j else entry(strict[i, j]) if i < j
              else ex.eneg(entry(strict[j, i])) for j in range(3)] for i in range(3)]
    chart = algebroid.AlgebroidChart(PATTERN_CHART.coords, PATTERN_CHART.fibers,
                                     [[entry(v) for v in row] for row in rho], {})
    return poisson.FactoredField(chart, hessian, twist, ex.ZERO)


def assert_pattern_zeros_are_zeros(field, point):
    """Every value and partial of the bracket's entries that
    :class:`expr.Pattern` calls the literal 0 is 0 exactly mod p, and within
    roundoff in floats at ``point``; False, checking nothing, where ``M`` is
    near singular at ``point``."""
    bracket = poisson._BracketJets(field)
    names = bracket.names
    env = dict(zip(names, point))
    if abs(ex.Program([linalg.det(field.M)]).value(env)) <= 1e-2:
        return False
    pattern = bracket(ex.Pattern.jets(bracket.outputs, names), ex.Pattern)
    assert all(isinstance(x, ex.Pattern) for value, grad in pattern for x in (value, *grad))
    program = ex.Program(bracket.outputs)
    floats = bracket(program.jets(env, names, ex.FLOAT), ex.FLOAT)
    modular = ex.Modular(random.Random(len(names)))
    exact = bracket(program.jets(modular.point(names), names, modular), modular)
    scale = 1.0 + max(abs(v) for value, grad in floats for v in (value, *grad))
    for (p, p_grad), (f, f_grad), (e, e_grad) in zip(pattern, floats, exact):
        for maybe, float_value, exact_value in zip((p, *p_grad), (f, *f_grad), (e, *e_grad)):
            if not maybe:
                assert exact_value % ex.MODULUS == 0
                assert abs(float_value) <= 1e-9 * scale
    return True


class TestZeroPattern:
    """The zero-pattern arithmetic that proves Jacobi triples is sound."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.lists(st.sampled_from(PATTERN_ENTRIES), min_size=6, max_size=6),
           n=st.lists(st.sampled_from(PATTERN_ENTRIES), min_size=3, max_size=3),
           rho=st.lists(st.lists(st.sampled_from(BASE_ENTRIES), min_size=3, max_size=3),
                        min_size=2, max_size=2),
           point=st.lists(st.floats(-2, 2), min_size=5, max_size=5))
    def test_literal_zeros_are_zeros(self, m, n, rho, point):
        assume(assert_pattern_zeros_are_zeros(pattern_field(m, n, rho), point))

    def test_a_pivot_that_cancels_exactly(self):
        # M = [[1,1,0],[1,1,1],[0,1,1]]: after the first elimination the
        # second pivot the pattern takes, 1 - 1*1, is 0 in exact arithmetic.
        field = pattern_field(["1", "1", "0", "1", "1", "1"], ["x1", "0", "y2"],
                              [["1", "0", "x2"], ["0", "x1", "0"]])
        for point in ([0.5, -0.25, 1.0, 0.0, -1.5], [1.0, 1.0, 1.0, 1.0, 1.0]):
            assert assert_pattern_zeros_are_zeros(field, point)

    def test_pattern_values_are_not_bools(self):
        # With bools, True - True would be a false literal 0.
        maybe = ex.Pattern.one
        assert bool(maybe - maybe) and bool(maybe + -maybe)
        assert not (maybe * ex.Pattern.zero) and not ex.Pattern.sum([ex.Pattern.zero] * 2)
        with pytest.raises(ex.DomainError):
            linalg.solver([[ex.Pattern.zero]], ex.Pattern)


BUNDLES = [("so3", True), ("cotangent", True), ("curved_metric", False), ("stress", True)]


@pytest.fixture(scope="module", params=BUNDLES,
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
        # The term sum of a triple without a quotient is its all-pairs tree.
        _, _, p = bundle
        trees = dict(reference_jacobi_residuals(p))
        sums = list(symbolic_term_sums(p))
        assert sums and sums == [(label, trees[label]) for label, _ in sums]

    @pytest.mark.parametrize("block", ["pxy", "pyy"])
    def test_edits_after_build_are_seen(self, so3, block):
        # With M = I, P^{xy} = -rho and P^{yy} = -N: the edit of rho or N
        # is the old edit of the bracket's block.
        chart = so3.chart
        chart = algebroid.AlgebroidChart(chart.coords, chart.fibers,
                                         [row[:] for row in chart.rho], chart.structure)
        field = factored_field(algebroid.Fixture("so3", chart, so3.lagrangian, so3.theta),
                               theta=so3.theta)
        assert poisson.check_jacobi(field).passed
        if block == "pxy":
            chart.rho[0][1] = ex.eadd(chart.rho[0][1], ex.eneg(ex.Var("x1")))
        else:
            corrupt_twist(field, ex.Var("x1"))
        report = poisson.check_jacobi(field)
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
        field = factored_field(so3, theta=so3.theta)
        names = p.coordinate_names()
        pairs = list(itertools.combinations(range(len(names)), 2))
        entries = [p.coefficient(a, b) for a, b in pairs]
        needed = {(l, d) for _, terms in poisson._jacobi_terms(names, pairs,
                                                               ex.Pattern.jets(entries, names))
                  for _, _, l, d in terms if not isinstance(entries[l], ex.Var)}
        differentiated.clear()
        poisson.check_jacobi(field)
        # Each entry differentiated once along each coordinate that a term
        # needs; the nested brackets of the residual trees took 87.
        assert len(differentiated) == len(needed) == 6
