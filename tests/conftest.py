import pytest

from semispray import algebroid, catalog, expr as ex, lagrangian
from semispray.errors import InvalidFixtureParam

# The alternating symbol, kept apart from ``algebroid``'s own table so that
# the ``action_so3`` structure constants are checked against an independent
# reference.
_EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
         (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}


def epsilon3(i: int, j: int, k: int) -> int:
    """The alternating symbol on ``{0, 1, 2}``."""
    return _EPS3.get((i, j, k), 0)


def cotangent_poisson(pi=None, metric=None) -> algebroid.Fixture:
    """Cotangent algebroid of a Poisson structure with a kinetic Lagrangian.

    ``pi`` is the skew coefficient matrix of the bivector (by default the
    constant plane bivector ``d1 ^ d2``), ``metric`` the symmetric
    coefficient matrix of the fiberwise-quadratic Lagrangian
    ``L = 1/2 metric^{ij} y_i y_j`` (by default the identity).  The anchor
    is ``rho^i_j = -pi^{ij}``, the bracket coefficients are
    ``C^k_{ij} = d(pi^{ij})/dx^k``, and the companion closed 2-section has
    coefficients ``pi^{ij}`` themselves.
    """
    if pi is None:
        pi = [[ex.ZERO, ex.ONE], [ex.MINUS_ONE, ex.ZERO]]
    n = len(pi)
    if metric is None:
        metric = [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]
    coords = [f"x{i + 1}" for i in range(n)]
    fibers = [f"p{i + 1}" for i in range(n)]
    pi = [[ex.as_expr(v) for v in row] for row in pi]
    metric = [[ex.as_expr(v) for v in row] for row in metric]
    if len(metric) != n or any(len(row) != n for row in pi + metric):
        raise InvalidFixtureParam("pi and metric must be square of equal size")
    for i in range(n):
        for j in range(n):
            if ex.eadd(pi[i][j], pi[j][i]) != ex.ZERO:
                raise InvalidFixtureParam(f"pi is not skew at ({i + 1},{j + 1})")
            if ex.eadd(metric[i][j], ex.eneg(metric[j][i])) != ex.ZERO:
                raise InvalidFixtureParam(f"metric is not symmetric at ({i + 1},{j + 1})")
    rho = [[ex.eneg(pi[i][j]) for j in range(n)] for i in range(n)]
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                value = ex.diff(pi[i][j], coords[k])
                if not ex.is_zero_literal(value):
                    structure[(k, i, j)] = value
    chart = algebroid.AlgebroidChart(coords, fibers, rho, structure, name="cotangent_poisson")
    lagrangian = algebroid._quadratic_l(chart, metric)
    theta = algebroid.AForm(chart, 2, {(i, j): pi[i][j] for i in range(n) for j in range(i + 1, n)})
    return algebroid.Fixture("cotangent_poisson", chart, lagrangian, theta)


@pytest.fixture(scope="session")
def tangent1():
    return catalog("tangent", n=1)


@pytest.fixture(scope="session")
def tangent2():
    return catalog("tangent", n=2)


@pytest.fixture(scope="session")
def tangent3():
    return catalog("tangent", n=3)


@pytest.fixture(scope="session")
def so3():
    return catalog("action_so3")


@pytest.fixture(scope="session")
def cotangent():
    return cotangent_poisson()


@pytest.fixture(scope="session")
def curved_metric():
    """Kinetic Lagrangian of the metric diag(1, 1 + x1^2) on tangent(2):
    genuinely curved, so numeric flows show honest energy drift."""
    fx = catalog("tangent", n=2)
    L = ex.parse("1/2*(y1^2 + (1 + x1^2)*y2^2)", fx.chart.alphabet)
    return algebroid.Fixture("curved_metric", fx.chart, L, None)


@pytest.fixture(scope="session")
def curved_cotangent():
    """Cotangent chart of the position-dependent plane bivector
    (1 + x1^2) d1 ^ d2: nonzero, x-dependent structure functions."""
    x1 = ex.Var("x1")
    entry = ex.eadd(ex.ONE, ex.emul(x1, x1))
    pi = [[ex.ZERO, entry], [ex.eneg(entry), ex.ZERO]]
    return cotangent_poisson(pi)


@pytest.fixture(scope="session")
def catalog_fixtures(tangent1, tangent2, tangent3, so3, cotangent):
    return [tangent1, tangent2, tangent3, so3, cotangent]


def build_data(fixture, **kwargs):
    return lagrangian.build(fixture.lagrangian, fixture.chart, **kwargs)


@pytest.fixture(scope="session")
def lagrangian_data():
    cache = {}

    def get(fixture):
        key = id(fixture)
        if key not in cache:
            cache[key] = build_data(fixture)
        return cache[key]

    return get
