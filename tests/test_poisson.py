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
        field = factored_field(fixture, theta=fixture.theta, data=data)
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
        _, p = bracket_bundle(stress, theta=stress.theta)
        poisson.check_jacobi(p, trials=4, seed=1)
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
    for label, terms in poisson._jacobi_terms(names, pairs, entries):
        if not any(isinstance(node, ex.Div)
                   for _, k, l, _ in terms for node in ex.distinct_nodes(entries[k], entries[l])):
            yield label, poisson._jacobiator(terms, symbolic, lambda ts: ex.eadd(*ts),
                                             lambda fs: ex.emul(*map(ex.as_expr, fs)))


def golden_bracket(name):
    model = load_model(GOLDEN_MODELS[name])
    data = lagrangian.build(model.lagrangian, model.chart)
    theta = twoform.ThetaSection(model.theta) if model.theta is not None else None
    return poisson.build_bracket(model.chart, data, twoform.assemble_N(data, model.chart, theta))


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
        _, p = bracket_bundle(stress, theta=stress.theta)
        p.pyy[0][1] = ex.eadd(p.pyy[0][1], ex.Var("x1"))
        p.pyy[1][0] = ex.eneg(p.pyy[0][1])
        report = poisson.check_jacobi(p, trials=64, tol=1e-8)
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
        _, p = bracket_bundle(stress, theta=stress.theta)
        p.pyy[0][1] = ex.eadd(p.pyy[0][1], ex.parse("(x1^2)^(1/2) - x1", ("x1",)))
        p.pyy[1][0] = ex.eneg(p.pyy[0][1])
        report = poisson.check_jacobi(p, seed=0)
        failure = report.first_failure
        assert not report.passed and failure.result.method == "float"
        assert failure.result.witness["x1"] < 0

    def test_perturbed_anchor_rejected_with_witness(self, stress_perturbed, no_residual_trees):
        _, p = bracket_bundle(stress_perturbed, theta=stress_perturbed.theta)
        report = poisson.check_jacobi(p, seed=13)
        nonzero = [i.label for i in report.items if i.result.status is ZeroStatus.NONZERO]
        assert nonzero == ["(x1,y1,y3)", "(x1,y2,y3)", "(x2,y1,y3)", "(x2,y2,y3)", "(y1,y2,y3)"]
        assert report.first_failure.result.witness is not None

    @pytest.mark.parametrize("name", ["stress", "stress_perturbed"])
    def test_float_jacobiator_matches_residual_tree(self, name, request):
        # Away from the curve det M = 0 (x1 >= 0.25 keeps e^x1 above |x2|),
        # the Jacobiator summed from float jets is the residual tree's value,
        # to 1e-9 of the Jacobiator's own scale, the sum of its terms' sizes.
        fixture = request.getfixturevalue(name)
        _, p = bracket_bundle(fixture, theta=fixture.theta)
        names = p.coordinate_names()
        pairs = list(itertools.combinations(range(len(names)), 2))
        entries = [p.coefficient(a, b) for a, b in pairs]
        program = ex.Program(entries)
        trees = [ex.Program([r]) for _, r in reference_jacobi_residuals(p)]
        box = ex.Box(ranges={"x1": (0.25, 1.0)})
        rng = random.Random(2024)
        for _ in range(20):
            env = box.sample(names, rng)
            jets = program.jets(env, names, ex.FLOAT)
            for tree, (_, terms) in zip(trees, poisson._jacobi_terms(names, pairs, entries)):
                want = tree.value(env)
                got = poisson._jacobiator(terms, jets, math.fsum)
                scale = poisson._jacobiator([(1, k, l, d) for _, k, l, d in terms],
                                            [(abs(v), [abs(g) for g in grad]) for v, grad in jets],
                                            math.fsum)
                assert abs(got - want) <= 1e-9 * scale

    def test_structural_zeros_are_the_literal_zeros_of_the_trees(self, request):
        # On every golden model and every bracket of the ``bundle`` fixture,
        # with and without a quotient, the Jacobi check proves exactly the
        # triples whose all-pairs residual trees cancel to the literal 0.
        brackets = [golden_bracket(name) for name in sorted(GOLDEN_MODELS)]
        for name, with_theta in BUNDLES:
            fixture = request.getfixturevalue(name)
            brackets.append(bracket_bundle(fixture, fixture.theta if with_theta else None)[1])
        for p in brackets:
            report = poisson.check_jacobi(p)
            proven = [item.result.proven for item in report.items]
            assert proven == [ex.is_zero_literal(r) for _, r in reference_jacobi_residuals(p)]

    def test_jets_leave_no_cyclic_garbage(self, stress_perturbed):
        # The float path caches jets per point in a closure; all of it is
        # freed by reference counting.
        _, p = bracket_bundle(stress_perturbed, theta=stress_perturbed.theta)
        with cyclic_garbage() as found:
            assert not poisson.check_jacobi(p, seed=3).passed
        assert [o for o in found if isinstance(o, (ex.Expr, Fraction, types.FunctionType))] == []


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
        names = p.coordinate_names()
        pairs = list(itertools.combinations(range(len(names)), 2))
        entries = [p.coefficient(a, b) for a, b in pairs]
        needed = {(l, d) for _, terms in poisson._jacobi_terms(names, pairs, entries)
                  for _, _, l, d in terms if not isinstance(entries[l], ex.Var)}
        differentiated.clear()
        poisson.check_jacobi(p)
        # Each entry differentiated once along each coordinate that a term
        # needs; the nested brackets of the residual trees took 87.
        assert len(differentiated) == len(needed) == 6
