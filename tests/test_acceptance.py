"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and runtime budgets are pinned here, not configurable.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from semispray import algebroid as alg
from semispray import dynamics, expr as ex
from semispray import homotopy as ho
from semispray import lagrangian, poisson, prolongation as pr, twoform
from semispray.report import ZeroStatus

from conftest import cotangent_poisson
from helpers import (add_sections, anchor, pullback_horizontal, random_polynomial,
                     vertical_correction)


def _report_line(name, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fixtures():
    return [alg.catalog("tangent", n=1), alg.catalog("tangent", n=2),
            alg.catalog("tangent", n=3), alg.catalog("action_so3"),
            cotangent_poisson()]


@pytest.fixture(scope="module")
def curved():
    fx = alg.catalog("tangent", n=2)
    L = ex.parse("1/2*(y1^2 + (1 + x1^2)*y2^2)", fx.chart.alphabet)
    return alg.Fixture("curved_metric", fx.chart, L, None)


@pytest.fixture(scope="module")
def built(fixtures, curved):
    out = {}
    for fixture in fixtures + [curved]:
        out[fixture.label] = lagrangian.build(fixture.lagrangian, fixture.chart)
    return out


def _twist(fixture, data, theta):
    section = twoform.ThetaSection(theta) if theta is not None else None
    return twoform.assemble_N(data, fixture.chart, section)


def _bivector(fixture, data, theta):
    return poisson.build_bracket(fixture.chart, data, _twist(fixture, data, theta))


def _factored(fixture, data, theta, g):
    return poisson.FactoredField(fixture.chart, data.M, _twist(fixture, data, theta), g)


def _potentials(chart):
    pool = [None, ex.Var(chart.coords[0])]
    if chart.n >= 2:
        pool.append(ex.emul(ex.Var(chart.coords[0]), ex.Var(chart.coords[1])))
    return pool


def test_criterion_01_structure_equation_gate(fixtures):
    start = time.perf_counter()
    ok = True
    details = []
    for fixture in fixtures:
        report = fixture.chart.validate_structure(trials=64, tol=1e-9)
        if not report.passed:
            ok = False
            details.append(f"{fixture.label} fails structure equations")
    so3 = alg.catalog("action_so3").chart
    structure = dict(so3.structure)
    structure[(2, 0, 1)] = ex.Const(Fraction(11, 10))
    perturbed = alg.AlgebroidChart(so3.coords, so3.fibers, so3.rho, structure)
    broken = perturbed.validate_structure(trials=64, tol=1e-9)
    if broken.passed or broken.first_failure.result.witness is None:
        ok = False
        details.append("perturbed rotation chart was not rejected with a witness")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        ok = False
        details.append(f"runtime {elapsed:.2f}s >= 5s")
    _report_line("criterion 1: structure-equation gate", ok,
                 "; ".join(details) or f"{elapsed:.2f}s")


def test_criterion_02_semispray_family(fixtures, built):
    start = time.perf_counter()
    ok = True
    details = []
    for fixture in fixtures:
        data = built[fixture.label]
        twists = [None] + ([fixture.theta] if fixture.theta is not None else [])
        for theta in twists:
            for potential in _potentials(fixture.chart):
                g = data.EL if potential is None else ex.eadd(data.EL, potential)
                report = poisson.is_semispray(_factored(fixture, data, theta, g),
                                              trials=64, tol=1e-10)
                if not report.passed:
                    ok = False
                    details.append(f"{fixture.label} theta={theta is not None} "
                                   f"f={potential}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        ok = False
        details.append(f"runtime {elapsed:.2f}s >= 10s")
    _report_line("criterion 2: Hamiltonian fields are semisprays", ok,
                 "; ".join(details) or f"{elapsed:.2f}s")


def test_criterion_03_jacobi_suite(fixtures, built):
    start = time.perf_counter()
    ok = True
    details = []
    for fixture in fixtures:
        data = built[fixture.label]
        field = _factored(fixture, data, fixture.theta, data.EL)
        report = poisson.check_jacobi(field, trials=64, tol=1e-8)
        if not report.passed or report.max_residual >= 1e-8:
            ok = False
            details.append(f"{fixture.label} jacobi residual {report.max_residual:.2e}")
    so3 = next(f for f in fixtures if f.label == "action_so3")
    data = built[so3.label]
    # With M = I, P^{yy} = -N: this is the bracket with x1 added to P^{yy}[0][1].
    corrupted = _factored(so3, data, so3.theta, data.EL)
    corrupted.N[0][1] = ex.eadd(corrupted.N[0][1], ex.eneg(ex.Var("x1")))
    corrupted.N[1][0] = ex.eneg(corrupted.N[0][1])
    report = poisson.check_jacobi(corrupted, trials=64, tol=1e-8)
    if report.passed or report.first_failure.result.witness is None:
        ok = False
        details.append("corrupted bivector was not rejected with a witness")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        ok = False
        details.append(f"runtime {elapsed:.2f}s >= 10s")
    _report_line("criterion 3: Jacobi identity suite", ok,
                 "; ".join(details) or f"{elapsed:.2f}s")


def test_criterion_04_prolongation_oracle_equivalence(fixtures, built):
    ok = True
    details = []
    for fixture in fixtures:
        data = built[fixture.label]
        chart = fixture.chart
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, data.EL, check=False)
        plain_field = poisson.hamiltonian_field(_bivector(fixture, data, None), data.EL)
        anchored = anchor(sigma)
        for lhs, rhs in zip(anchored.components(), plain_field.components()):
            result = ex.is_zero(ex.eadd(lhs, ex.eneg(rhs)), trials=64, tol=1e-10)
            if result.status is ZeroStatus.NONZERO:
                ok = False
                details.append(f"{fixture.label} untwisted anchor mismatch")
        if fixture.theta is None:
            continue
        potential = ex.Var(chart.coords[0])
        horizontal = pullback_horizontal(fixture.theta)
        correction = vertical_correction(data, horizontal, potential)
        twisted = anchor(add_sections(sigma, correction))
        g = ex.eadd(data.EL, potential)
        field = poisson.hamiltonian_field(_bivector(fixture, data, fixture.theta), g)
        for lhs, rhs in zip(twisted.components(), field.components()):
            result = ex.is_zero(ex.eadd(lhs, ex.eneg(rhs)), trials=64, tol=1e-10)
            if result.status is ZeroStatus.NONZERO:
                ok = False
                details.append(f"{fixture.label} twisted anchor mismatch")
    _report_line("criterion 4: prolongation oracle equivalence", ok, "; ".join(details))


def test_criterion_05_second_order_property(fixtures, built):
    ok = True
    details = []
    for fixture in fixtures:
        data = built[fixture.label]
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, data.EL, check=False)
        if not pr.is_sode(sigma).passed:
            ok = False
            details.append(f"{fixture.label} energy section is not second order")
    if pr.is_sode(pr.liouville(alg.catalog("action_so3").chart)).passed:
        ok = False
        details.append("the fiber-radial section must fail the check")
    _report_line("criterion 5: second-order property of the energy section", ok,
                 "; ".join(details))


def test_criterion_06_fundamental_block_identity(fixtures, built, curved):
    ok = True
    details = []
    for fixture in fixtures + [curved]:
        data = built[fixture.label]
        chart = fixture.chart
        r = chart.r
        _, omega = pr.cartan_sections(data)
        n_plain = twoform.assemble_N(data, chart, None)
        for i in range(chart.r):
            for j in range(chart.r):
                if omega.get((r + i, j)) != data.M[i][j] or \
                        omega.get((i, j)) != n_plain[i][j] or \
                        omega.get((r + i, r + j)) != ex.ZERO:
                    ok = False
                    details.append(f"{fixture.label} block ({i},{j})")
    _report_line("criterion 6: coordinate blocks of the fundamental 2-section",
                 ok, "; ".join(details))


def test_criterion_07_homotopy_identities():
    start = time.perf_counter()
    report = ho.identity_suite(ranks=(1, 2, 3), degrees=(0, 1, 2, 3),
                               forms_per_case=50, seed=2024, tol=1e-9)
    ok = report.passed
    details = []
    polynomial = [i for i in report.items if "nonpolynomial" not in i.label]
    if not all(i.result.status is ZeroStatus.PROVEN_ZERO for i in polynomial):
        ok = False
        details.append("a polynomial case did not cancel exactly")
    quadrature = [i for i in report.items if "nonpolynomial" in i.label]
    if not quadrature or any(i.result.max_residual >= 1e-8 for i in quadrature):
        ok = False
        details.append("quadrature case exceeded 1e-8")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        ok = False
        details.append(f"runtime {elapsed:.2f}s >= 30s")
    _report_line("criterion 7: homotopy operator identities", ok,
                 "; ".join(details) or f"{elapsed:.2f}s cases={len(report.items)}")


def test_criterion_08_vertical_poincare():
    ok = True
    details = []
    for rank in (1, 2, 3):
        chart = alg.tangent(rank).chart
        rng = random.Random(rank * 7)
        cases = 0
        while cases < 20:
            p = rng.randint(0, min(2, rank))
            q = rng.randint(1, min(2, rank))
            if p + q > 3:
                continue
            coeffs = {}
            for idx_i in itertools.combinations(range(rank), p):
                for idx_j in itertools.combinations(range(rank), q - 1):
                    coeffs[idx_i + tuple(rank + j for j in idx_j)] = \
                        random_polynomial(rng, chart.alphabet)
            closed = ho.dsecond(alg.AForm(alg.prolong_chart(chart), p + q - 1, coeffs))
            primitive = ho.dprime_primitive(closed)
            reproduced = ho.dsecond(primitive)
            for key in set(reproduced.coeffs) | set(closed.coeffs):
                delta = ex.simplify(ex.eadd(reproduced.get(key), ex.eneg(closed.get(key))))
                if not ex.is_zero_literal(delta):
                    ok = False
                    details.append(f"rank {rank} bidegree ({p},{q}) residual")
            cases += 1
    _report_line("criterion 8: constructive vertical primitive", ok, "; ".join(details))


def test_criterion_09_spray_criteria(curved, built):
    ok = True
    details = []
    data = built[curved.label]
    field = _factored(curved, data, None, data.EL)
    if not poisson.is_spray(field).passed:
        ok = False
        details.append("metric flow failed the homogeneity residuals")
    p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
    reference = dynamics.integrate(field, p0, T=1.0, h=1e-3)
    for lam in (2.0, 4.0):
        scaled_start = ex.ChartPoint(p0.x, tuple(lam * v for v in p0.y))
        scaled = dynamics.integrate(field, scaled_start, T=1.0 / lam, h=1e-3)
        for a, b in zip(reference.states[-1].x, scaled.states[-1].x):
            if abs(a - b) > 1e-6:
                ok = False
                details.append(f"flow homogeneity broken at lambda={lam}")
    forced = _factored(curved, data, None, ex.eadd(data.EL, ex.Var("x1")))
    if poisson.is_spray(forced).passed:
        ok = False
        details.append("potential-forced flow must fail the spray check")
    _report_line("criterion 9: spray criteria", ok, "; ".join(details))


def test_criterion_10_conservation_and_order(fixtures, built, curved):
    ok = True
    details = []
    rng = random.Random(99)
    for fixture in fixtures + [curved]:
        data = built[fixture.label]
        potential = ex.Var(fixture.chart.coords[0])
        for use_potential in (False, True):
            g = ex.eadd(data.EL, potential) if use_potential else data.EL
            field = _factored(fixture, data, fixture.theta, g)
            dims = fixture.chart.n + fixture.chart.r
            values = [rng.uniform(-0.8, 0.8) for _ in range(dims)]
            p0 = ex.ChartPoint(tuple(values[:fixture.chart.n]),
                               tuple(values[fixture.chart.n:]))
            traj = dynamics.integrate(field, p0, T=1.0, h=1e-3, invariant=g)
            if traj.max_drift >= 1e-8:
                ok = False
                details.append(f"{fixture.label} drift {traj.max_drift:.2e}")
    data = built[curved.label]
    field = _factored(curved, data, None, data.EL)
    p0 = ex.ChartPoint((0.3, 0.4), (1.0, 1.2))
    coarse = dynamics.integrate(field, p0, T=1.0, h=0.05, invariant=data.EL).max_drift
    fine = dynamics.integrate(field, p0, T=1.0, h=0.025, invariant=data.EL).max_drift
    ratio = coarse / fine
    if not 8.0 <= ratio <= 32.0:
        ok = False
        details.append(f"step-halving ratio {ratio:.1f} outside [8, 32]")
    _report_line("criterion 10: conservation and fourth-order convergence", ok,
                 "; ".join(details) or f"ratio={ratio:.1f}")


def test_criterion_11_decomposition_roundtrip(fixtures, built):
    ok = True
    details = []
    for fixture in fixtures:
        if fixture.theta is None:
            continue
        data = built[fixture.label]
        _, omega_l = pr.cartan_sections(data)
        total = omega_l + pullback_horizontal(fixture.theta)
        if not pr.j_dual(total).is_structurally_zero():
            ok = False
            details.append(f"{fixture.label} dual endomorphism image not zero")
        horizontal, exact_part = pr.decompose_symplectic(total)
        residual = horizontal + exact_part.chart.d(exact_part) - total
        if not residual.is_structurally_zero():
            ok = False
            details.append(f"{fixture.label} reassembly not exact")
    _report_line("criterion 11: decomposition round trip", ok, "; ".join(details))
