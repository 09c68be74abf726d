import random

import pytest

from semispray import algebroid as alg
from semispray import expr as ex
from semispray import homotopy as ho
from semispray import lagrangian, poisson, prolongation as pr, twoform
from semispray.errors import DegenerateForm, DegreeError, NotClosed, NotVerticalVanishing
from semispray.model import load_model
from semispray.report import ZeroStatus

from helpers import (ProlongSection, add_sections, anchor, assert_certified_zero,
                     assert_proven_zero, generated_inverse, hamiltonian_section, insert_section,
                     is_sode, j_dual, liouville, point_env, pullback_horizontal, random_polynomial,
                     reference_value, vertical_correction, vertical_endomorphism)
from test_golden_cli import MODELS as GOLDEN_MODELS
from test_poisson import optional


def zero_section(chart):
    return ProlongSection(chart, [ex.ZERO] * chart.r, [ex.ZERO] * chart.r)


def random_section(rng, chart, vertical=False):
    a = [ex.ZERO if vertical else random_polynomial(rng, chart.alphabet, 2, 2)
         for _ in range(chart.r)]
    b = [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(chart.r)]
    return ProlongSection(chart, a, b)


def assert_sections_equal(s1, s2):
    for lhs, rhs in zip(s1.coefficients(), s2.coefficients()):
        assert_proven_zero(ex.eadd(lhs, ex.eneg(rhs)))


class TestAnchor:
    def test_liouville_projects_to_dilation(self, so3):
        field = anchor(liouville(so3.chart))
        assert field.vx == [ex.ZERO] * 3
        assert field.vy == [ex.Var(nm) for nm in so3.chart.fibers]

    def test_fiber_weighted_frame_sections(self, tangent1):
        chart = tangent1.chart
        section = ProlongSection(chart, [ex.Var("y1")], [ex.ZERO])
        field = anchor(section)
        assert field.vx == [ex.Var("y1")] and field.vy == [ex.ZERO]

    def test_energy_section_on_line(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        _, omega = pr.cartan_sections(data)
        sigma = hamiltonian_section(omega, data.EL)
        field = anchor(sigma)
        assert field.vx == [ex.Var("y1")] and field.vy == [ex.ZERO]


def prolong_form(chart, degree, coeffs):
    """A form on the prolongation of ``chart``."""
    return alg.AForm(pr.prolong_chart(chart), degree, coeffs)


def one_form(chart, e_parts, u_parts):
    """The 1-form ``e_j E^j + u_k U^k`` on the prolongation of ``chart``."""
    return prolong_form(chart, 1, {(a,): v for a, v in enumerate(list(e_parts) + list(u_parts))})


def ue(form, i, j):
    """Entry ``(i, j)`` of the (vertical, frame) block of a 2-form on the prolongation."""
    return form.get((form.chart.base.r + i, j))


def uu(form, i, j):
    """Entry ``(i, j)`` of the vertical-vertical block of a 2-form on the prolongation."""
    r = form.chart.base.r
    return form.get((r + i, r + j))


def d(form):
    """Koszul differential of the chart the form lives on."""
    return form.chart.d(form)


def coframe(chart, k):
    """The covector ``E^k`` (``k < r``) or ``U^(k-r)`` of the prolongation."""
    unit = [ex.ONE if a == k else ex.ZERO for a in range(2 * chart.r)]
    return one_form(chart, unit[:chart.r], unit[chart.r:])


class TestLieBracket:
    # The prolonged chart holds the frame relations; its Koszul differential
    # reads them back: for a covector with constant values on the sections,
    # d(alpha)(s1, s2) = -alpha([s1, s2]).

    def test_frame_relations_on_rotations(self, so3):
        # [E_1, E_2] = E_3.
        for k in range(3):
            expected = ex.MINUS_ONE if k == 2 else ex.ZERO
            assert d(coframe(so3.chart, k)).get((0, 1)) == expected

    def test_vertical_frame_sections_commute(self, so3):
        for k in range(6):
            dalpha = d(coframe(so3.chart, k))
            for i in range(3):
                for j in range(3):
                    assert uu(dalpha, i, j) == ex.ZERO

    @pytest.mark.parametrize("seed", range(4))
    def test_vertical_sections_form_a_subalgebra(self, so3, seed):
        # Each E^k vanishes on vertical sections, so E^k([V1, V2]) is
        # -d(E^k)(V1, V2).
        rng = random.Random(700 + seed)
        v1 = random_section(rng, so3.chart, vertical=True)
        v2 = random_section(rng, so3.chart, vertical=True)
        for k in range(3):
            paired = insert_section(insert_section(d(coframe(so3.chart, k)), v1), v2)
            assert paired.is_structurally_zero()


class TestDifferential:
    def test_energy_differential_display(self, catalog_fixtures, lagrangian_data):
        # dE_L = M_ia y^a U^i + rho^k_j dE_L/dx^k E^j, per frame leg.
        for fixture in catalog_fixtures:
            chart = fixture.chart
            data = lagrangian_data(fixture)
            d_el = d(prolong_form(chart, 0, {(): data.EL}))
            y = [ex.Var(nm) for nm in chart.fibers]
            for j in range(chart.r):
                expected_e = chart.anchor_derivative(j, data.EL)
                assert_proven_zero(ex.eadd(d_el.get((j,)), ex.eneg(expected_e)))
                expected_u = ex.eadd(*(ex.emul(data.M[j][a], y[a]) for a in range(chart.r)))
                assert_proven_zero(ex.eadd(d_el.get((chart.r + j,)), ex.eneg(expected_u)))

    def test_fundamental_two_section_blocks(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            chart = fixture.chart
            data = lagrangian_data(fixture)
            _, omega = pr.cartan_sections(data)
            n_plain = twoform.assemble_N(data, chart, None)
            for i in range(chart.r):
                for j in range(chart.r):
                    assert ue(omega, i, j) == data.M[i][j]
                    assert omega.get((i, j)) == n_plain[i][j]
                    assert uu(omega, i, j) == ex.ZERO

    @pytest.mark.parametrize("seed", range(4))
    def test_d_squared_vanishes(self, so3, seed):
        chart = so3.chart
        rng = random.Random(800 + seed)
        f = prolong_form(chart, 0, {(): random_polynomial(rng, chart.alphabet)})
        for value in d(d(f)).coeffs.values():
            assert_certified_zero(value, seed=seed)
        one = one_form(
            chart,
            [random_polynomial(rng, chart.alphabet) for _ in range(3)],
            [random_polynomial(rng, chart.alphabet) for _ in range(3)])
        for value in d(d(one)).coeffs.values():
            assert_certified_zero(value, seed=seed)

    def test_degree_cap(self, tangent2):
        form = prolong_form(tangent2.chart, 3, {(0, 1, 2): ex.ONE})
        with pytest.raises(DegreeError):
            d(form)


class TestVerticalEndomorphism:
    def test_second_order_sections_map_to_liouville(self, so3):
        chart = so3.chart
        rng = random.Random(5)
        sode = ProlongSection(chart, [ex.Var(nm) for nm in chart.fibers],
                              [random_polynomial(rng, chart.alphabet) for _ in range(3)])
        assert_sections_equal(vertical_endomorphism(sode), liouville(chart))

    @pytest.mark.parametrize("seed", range(4))
    def test_squares_to_zero_with_matching_kernel_and_image(self, so3, seed):
        rng = random.Random(900 + seed)
        section = random_section(rng, so3.chart)
        once = vertical_endomorphism(section)
        assert once.a == [ex.ZERO] * 3  # image inside the vertical subbundle
        twice = vertical_endomorphism(once)
        assert_sections_equal(twice, zero_section(so3.chart))

    def test_dual_annihilates_fundamental_section(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            _, omega = pr.cartan_sections(data)
            assert j_dual(omega).is_structurally_zero()

    def test_dual_on_coframe(self, tangent1):
        chart = tangent1.chart
        e_cov = one_form(chart, [ex.ONE], [ex.ZERO])
        u_cov = one_form(chart, [ex.ZERO], [ex.ONE])
        assert j_dual(e_cov).is_structurally_zero()
        got = j_dual(u_cov)
        assert got.get((0,)) == ex.MINUS_ONE and got.get((1,)) == ex.ZERO


class TestCartanSections:
    def test_line_kinetic_energy(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        theta, omega = pr.cartan_sections(data)
        assert theta.get((0,)) == ex.Var("y1")
        assert theta.get((1,)) == ex.ZERO
        assert ue(omega, 0, 0) == ex.ONE
        assert omega.get((0, 0)) == ex.ZERO

    def test_vertical_pairs_vanish_even_for_transcendental_lagrangians(self, tangent2):
        chart = tangent2.chart
        data = lagrangian.build("1/2*exp(x1)*y1^2 + 1/2*y2^2 + cos(x2)*y1",
                                chart, box=ex.Box(default=(0.1, 1.0)))
        _, omega = pr.cartan_sections(data)
        for i in range(2):
            for j in range(2):
                assert uu(omega, i, j) == ex.ZERO


class TestHamiltonianSection:
    def test_line_energy(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        _, omega = pr.cartan_sections(data)
        sigma = hamiltonian_section(omega, data.EL)
        assert sigma.a == [ex.Var("y1")] and sigma.b == [ex.ZERO]

    def test_line_energy_with_potential(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        _, omega = pr.cartan_sections(data)
        sigma = hamiltonian_section(omega, ex.eadd(data.EL, ex.Var("x1")))
        assert sigma.a == [ex.Var("y1")] and sigma.b == [ex.MINUS_ONE]

    def test_degenerate_form_rejected(self, tangent1):
        chart = tangent1.chart
        omega = prolong_form(chart, 2, {})
        with pytest.raises(DegenerateForm):
            hamiltonian_section(omega, ex.Var("x1"))

    def test_block_vanishing_on_the_box_rejected(self, tangent1):
        # det = x1 is not literally zero but vanishes at the box center.
        omega = prolong_form(tangent1.chart, 2, {(1, 0): ex.Var("x1")})
        with pytest.raises(DegenerateForm):
            hamiltonian_section(omega, ex.Var("x1"))

    def test_rank_above_four_rejected(self):
        three = alg.tangent(3)
        _, omega = pr.cartan_sections(lagrangian.build(three.lagrangian, three.chart))
        # A vertical-vertical entry is refused before any solve.
        omega += prolong_form(three.chart, 2, {(3, 4): ex.ONE})
        with pytest.raises(NotVerticalVanishing):
            hamiltonian_section(omega, ex.ZERO)
        five = alg.tangent(5)
        _, omega = pr.cartan_sections(lagrangian.build(five.lagrangian, five.chart))
        with pytest.raises(ValueError, match=r"^symbolic solve supports rank <= 4$"):
            hamiltonian_section(omega, ex.ZERO)

    def test_vertical_pair_block_rejected(self, tangent2):
        # Only 2-sections vanishing on vertical pairs have a solve.
        chart = tangent2.chart
        _, omega = pr.cartan_sections(lagrangian.build("1/2*(y1^2 + y2^2)", chart))
        omega += prolong_form(chart, 2, {(2, 3): ex.Var("x1")})
        with pytest.raises(NotVerticalVanishing, match=r"block \(1,2\) is nonzero"):
            hamiltonian_section(omega, ex.ZERO)

    def test_closed_form_coefficients(self, curved_metric):
        # sigma = y^a E_a - M^{rl} (rho^b_l dE_L/dx^b + N_sl y^s) U_r, checked
        # on a chart with an x-dependent Hessian.
        chart = curved_metric.chart
        data = lagrangian.build(curved_metric.lagrangian, chart)
        _, omega = pr.cartan_sections(data)
        sigma = hamiltonian_section(omega, data.EL)
        n_plain = twoform.assemble_N(data, chart, None)
        y = [ex.Var(nm) for nm in chart.fibers]
        for r_ in range(chart.r):
            assert_certified_zero(ex.eadd(sigma.a[r_], ex.eneg(y[r_])), tol=1e-10)
            pieces = []
            for l in range(chart.r):
                inner = ex.eadd(chart.anchor_derivative(l, data.EL),
                                ex.eadd(*(ex.emul(n_plain[s][l], y[s])
                                          for s in range(chart.r))))
                pieces.append(ex.emul(data.Minv[r_][l], inner))
            expected = ex.eneg(ex.eadd(*pieces))
            assert_certified_zero(ex.eadd(sigma.b[r_], ex.eneg(expected)), tol=1e-10)

    def test_energy_section_is_second_order_everywhere(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            _, omega = pr.cartan_sections(data)
            sigma = hamiltonian_section(omega, data.EL, check=False)
            assert is_sode(sigma).passed, fixture.label

    def test_liouville_is_not_second_order(self, so3):
        report = is_sode(liouville(so3.chart))
        assert not report.passed

    def test_second_order_modulo_vertical(self, so3):
        chart = so3.chart
        rng = random.Random(6)
        section = ProlongSection(chart, [ex.Var(nm) for nm in chart.fibers],
                                 [random_polynomial(rng, chart.alphabet) for _ in range(3)])
        assert is_sode(section).passed


class TestBigrading:
    def test_vertical_derivative_block_at_zero_connection(self, tangent2):
        chart = tangent2.chart
        rng = random.Random(7)
        zeta = [random_polynomial(rng, chart.alphabet) for _ in range(2)]
        form = one_form(chart, zeta, [ex.ZERO, ex.ZERO])
        _, dsec, _ = pr.d_split(form)
        for i in range(2):
            for j in range(2):
                assert ue(dsec, i, j) == ex.diff(zeta[j], chart.fibers[i])

    @pytest.mark.parametrize("seed", range(3))
    def test_split_reassembles_differential(self, so3, seed):
        chart = so3.chart
        rng = random.Random(1000 + seed)
        form = one_form(
            chart,
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)],
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)])
        dp, dsec, dl = pr.d_split(form)
        total = dp + dsec + dl - d(form)
        assert total.is_structurally_zero()

    @pytest.mark.parametrize("seed", range(3))
    def test_vertical_part_squares_to_zero(self, so3, seed):
        chart = so3.chart
        rng = random.Random(1100 + seed)
        form = one_form(
            chart,
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)],
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)])
        _, dsec, _ = pr.d_split(form)
        _, dsec2, _ = pr.d_split(dsec)
        for value in dsec2.coeffs.values():
            assert_certified_zero(value, seed=seed)

    def test_bigrade_roundtrip(self, so3):
        chart = so3.chart
        data = lagrangian.build(so3.lagrangian, chart)
        _, omega = pr.cartan_sections(data)
        rebuilt = prolong_form(chart, 2, {})
        for block in pr.bigrade(omega).values():
            rebuilt += block
        assert (rebuilt - omega).is_structurally_zero()

    def test_block_with_a_fiber_integral_is_not_rebuilt(self, tangent1):
        # The radial primitive of a non-polynomial block keeps its integrand
        # as a fiber integral, which has no place in the exact part of a
        # decomposition.
        chart = tangent1.chart
        value = ex.parse("exp(y1)", chart.alphabet)
        primitive = ho.radial_homotopy(prolong_form(chart, 1, {(1,): value}))
        assert ho.is_fiber_integral(primitive.get(()))
        with pytest.raises(ValueError, match="quadrature"):
            pr.decompose_symplectic(prolong_form(chart, 2, {(0, 1): value}))


class TestDecomposition:
    def test_line_kinetic_energy_splits_exactly(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        theta_l, omega = pr.cartan_sections(data)
        horizontal, exact_part = pr.decompose_symplectic(omega)
        assert horizontal.is_structurally_zero()
        assert (exact_part - theta_l).is_structurally_zero()

    def test_twisted_section_recovers_horizontal_part(self, so3, lagrangian_data):
        data = lagrangian_data(so3)
        _, omega = pr.cartan_sections(data)
        pulled = pullback_horizontal(so3.theta)
        total = omega + pulled
        horizontal, exact_part = pr.decompose_symplectic(total)
        for i in range(3):
            for j in range(3):
                assert uu(horizontal, i, j) == ex.ZERO
                assert ue(horizontal, i, j) == ex.ZERO
        reassembled = horizontal + d(exact_part) - total
        assert reassembled.is_structurally_zero()

    def test_curved_chart_roundtrip(self, curved_cotangent, lagrangian_data):
        data = lagrangian_data(curved_cotangent)
        _, omega = pr.cartan_sections(data)
        total = omega + pullback_horizontal(curved_cotangent.theta)
        horizontal, exact_part = pr.decompose_symplectic(total)
        residual = horizontal + d(exact_part) - total
        assert residual.is_structurally_zero()

    def test_vertical_block_rejected(self, tangent2):
        chart = tangent2.chart
        # The (vertical, frame) block is the identity, and U^1 ^ U^2 is not 0.
        bad = prolong_form(chart, 2, {(2, 0): ex.ONE, (3, 1): ex.ONE,
                                                    (2, 3): ex.ONE})
        with pytest.raises(NotVerticalVanishing):
            pr.decompose_symplectic(bad)

    def test_non_closed_twist_rejected(self, so3, lagrangian_data):
        _, omega = pr.cartan_sections(lagrangian_data(so3))
        twist = alg.AForm(so3.chart, 2, {(1, 2): ex.Var("x2")})
        with pytest.raises(NotClosed):
            pr.decompose_symplectic(omega + pullback_horizontal(twist))

    def test_non_polynomial_mixed_block_rejected(self, tangent2):
        # The mixed block holds exp(y1), so the primitive zeta is a fiber
        # integral and cannot enter d(zeta).
        chart = tangent2.chart
        data = lagrangian.build("1/2*(y1^2 + y2^2) + exp(y1)/8", chart)
        _, omega = pr.cartan_sections(data)
        total = omega + pullback_horizontal(alg.AForm(chart, 2, {(0, 1): ex.ONE}))
        with pytest.raises(ValueError, match="^cannot rebuild a form from quadrature coefficients$"):
            pr.decompose_symplectic(total)

    def test_exact_part_has_full_rank_pointwise(self, so3, lagrangian_data):
        data = lagrangian_data(so3)
        _, omega = pr.cartan_sections(data)
        _, exact_part = pr.decompose_symplectic(omega)
        env = point_env(ex.ChartPoint((0.3, -0.2, 0.5), (0.7, 0.4, -0.6)), so3.chart)
        size = 2 * so3.chart.r
        exact = d(exact_part)
        a = [[reference_value(exact.get((p, q)), env) for q in range(size)]
             for p in range(size)]
        inverse = generated_inverse(a)  # a zero pivot raises DomainError
        for i in range(size):
            row = [sum(a[i][k] * inverse[k][j] for k in range(size)) for j in range(size)]
            assert row == pytest.approx([float(i == j) for j in range(size)], abs=1e-9)


class TestPullback:
    def test_zero(self, so3):
        assert pullback_horizontal(alg.AForm(so3.chart, 2, {})).is_structurally_zero()

    def test_cotangent_bivector_coefficients(self, cotangent):
        pulled = pullback_horizontal(cotangent.theta)
        assert pulled.get((0, 1)) == ex.ONE
        for i in range(2):
            for j in range(2):
                assert ue(pulled, i, j) == ex.ZERO
                assert uu(pulled, i, j) == ex.ZERO

    def test_commutes_with_differentials_on_closed_sections(self, so3):
        pulled = pullback_horizontal(so3.theta)
        for value in d(pulled).coeffs.values():
            assert_certified_zero(value)


class TestVerticalCorrection:
    def test_trivial_inputs_give_zero(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        z = vertical_correction(data, None, None)
        assert_sections_equal(z, zero_section(tangent1.chart))

    def test_line_with_potential(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        z = vertical_correction(data, None, ex.Var("x1"))
        assert z.a == [ex.ZERO] and z.b == [ex.MINUS_ONE]

    def test_matches_bracket_side_field(self, cotangent, lagrangian_data):
        data = lagrangian_data(cotangent)
        pulled = pullback_horizontal(cotangent.theta)
        z = vertical_correction(data, pulled, None)
        _, omega = pr.cartan_sections(data)
        sigma = hamiltonian_section(omega, data.EL)
        via_sections = anchor(add_sections(sigma, z))
        n = twoform.assemble_N(data, cotangent.chart, twoform.ThetaSection(cotangent.theta))
        bivector = poisson.build_bracket(cotangent.chart, data, n)
        via_bracket = poisson.hamiltonian_field(bivector, data.EL)
        for lhs, rhs in zip(via_sections.components(), via_bracket.components()):
            assert_proven_zero(ex.eadd(lhs, ex.eneg(rhs)))

    @pytest.mark.parametrize("fixture_name, potential", [
        ("tangent1", None), ("tangent1", "x1"), ("cotangent", None)])
    def test_corrected_section_is_hamiltonian(self, fixture_name, potential, request,
                                              lagrangian_data):
        # i_{sigma+Z}(omega_L + pi*Theta) + d(E_L + f) = 0, on the inputs above.
        fixture = request.getfixturevalue(fixture_name)
        data = lagrangian_data(fixture)
        f = None if potential is None else ex.Var(potential)
        horizontal = None if fixture.theta is None else pullback_horizontal(fixture.theta)
        z = vertical_correction(data, horizontal, f)
        _, omega = pr.cartan_sections(data)
        sigma = hamiltonian_section(omega, data.EL)
        total = omega if horizontal is None else omega + horizontal
        energy = alg.AForm(omega.chart, 0, {(): ex.eadd(data.EL, f or ex.ZERO)})
        residual = insert_section(total, add_sections(sigma, z)) + d(energy)
        for value in residual.coeffs.values():
            assert_certified_zero(value)


class TestInducedBracket:
    @pytest.mark.parametrize("fixture_name", ["tangent2", "cotangent"])
    def test_two_section_of_hamiltonian_sections_reproduces_bracket(
            self, fixture_name, request, lagrangian_data):
        # Pairing the twisted 2-section on Hamiltonian sections of coordinate
        # functions reproduces the bracket coefficient matrices.
        fixture = request.getfixturevalue(fixture_name)
        data = lagrangian_data(fixture)
        chart = fixture.chart
        _, omega_l = pr.cartan_sections(data)
        omega = omega_l + pullback_horizontal(fixture.theta)
        n = twoform.assemble_N(data, chart, twoform.ThetaSection(fixture.theta))
        bivector = poisson.build_bracket(chart, data, n)
        names = list(chart.coords) + list(chart.fibers)
        sections = {nm: hamiltonian_section(omega, ex.Var(nm), check=False)
                    for nm in names}
        for a, na in enumerate(names):
            for b, nb in enumerate(names):
                paired = insert_section(insert_section(omega, sections[na]),
                                        sections[nb])
                expected = bivector.coefficient(a, b)
                assert_certified_zero(
                    ex.eadd(paired.get(()), ex.eneg(expected)), tol=1e-9)


def reference_items(data, theta, potential):
    """``(label, residual tree)`` of every ``check prolongation`` item, built
    the symbolic way: the energy Hamiltonian section through the exact
    inverse of ``omega_L``'s (vertical, frame) block, the vertical
    correction through the Hessian inverse, and the bracket-built field."""
    chart = data.chart
    r = chart.r
    _, omega = pr.cartan_sections(data)
    sigma = hamiltonian_section(omega, data.EL, check=False)
    items = [(f"E-component {j + 1}", ex.eadd(sigma.a[j], ex.eneg(ex.Var(name))))
             for j, name in enumerate(chart.fibers)]
    n_plain = twoform.assemble_N(data, chart, None)
    for i in range(r):
        for j in range(r):
            items += [(f"fundamental-block M[{i + 1},{j + 1}]",
                       ex.eadd(ue(omega, i, j), ex.eneg(data.M[i][j]))),
                      (f"fundamental-block N[{i + 1},{j + 1}]",
                       ex.eadd(omega.get((i, j)), ex.eneg(n_plain[i][j])))]
    n = twoform.assemble_N(data, chart, None if theta is None else twoform.ThetaSection(theta))
    g = data.EL if potential is None else ex.eadd(data.EL, potential)
    field = poisson.hamiltonian_field(poisson.build_bracket(chart, data, n), g)
    if theta is None and potential is None:
        label, oracle = "energy-section", anchor(sigma)
    else:
        horizontal = None if theta is None else pullback_horizontal(theta)
        correction = vertical_correction(data, horizontal, potential)
        label, oracle = "corrected-section", anchor(add_sections(sigma, correction))
    for name, lhs, rhs in zip(chart.coords + chart.fibers, oracle.components(),
                              field.components()):
        items.append((f"{label} anchor d/d{name}", ex.eadd(lhs, ex.eneg(rhs))))
    return items


def assert_items_are_honest(chart, data, thetas, potentials, seed):
    """For every 2-section in ``thetas`` and potential in ``potentials``,
    the items ``check prolongation`` decides have the labels and, at 20
    float points, the values of :func:`reference_items`, and every item
    whose reference tree is the literal 0 is proven."""
    rng = random.Random(seed)
    for theta in thetas:
        for potential in potentials:
            reference = reference_items(data, theta, potential)
            residuals = pr._SectionResiduals(data, theta, potential)
            assert residuals.labels == [label for label, _ in reference]
            for (label, tree), proven in zip(reference, residuals.proven):
                assert proven or not ex.is_zero_literal(tree), label
            program = ex.Program(residuals.outputs)
            trees = [ex.Program([tree]) for _, tree in reference]
            for _ in range(20):
                env = {name: rng.uniform(-0.5, 0.5) for name in chart.alphabet}
                got = residuals.values(program.jets(env, [], ex.FLOAT), ex.FLOAT)
                want = [tree.value(env) for tree in trees]
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (theta, potential, env)


class TestSectionResidualsHonesty:
    """``check prolongation`` solves for the sections and the field at
    points and proves items from the construction; the symbolic tree path
    must agree with it.  Within [-0.5, 0.5] every Hessian below stays
    regular."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_golden_models(self, name):
        model = load_model(GOLDEN_MODELS[name])
        data = lagrangian.build(model.lagrangian, model.chart)
        assert_items_are_honest(model.chart, data, optional(model.theta),
                                optional(model.potential), seed=len(name))

    def test_acceptance_fixtures(self, catalog_fixtures, curved_metric, lagrangian_data):
        for fixture in [*catalog_fixtures, curved_metric]:
            chart = fixture.chart
            potentials = [None, ex.Var(chart.coords[0])]
            if chart.n >= 2:
                potentials.append(ex.emul(ex.Var(chart.coords[0]), ex.Var(chart.coords[1])))
            assert_items_are_honest(chart, lagrangian_data(fixture), optional(fixture.theta),
                                    potentials, seed=chart.n)

    @pytest.mark.parametrize("rank, text, theta", [
        # Not quadratic in the fibers; its fiber anchor item is proven.
        (1, "sqrt(1+y1^2) + x1*y1", None),
        # A Hessian that depends on the fibers, with a twist.
        (2, "1/2*(y1^2+y2^2) + exp(y1)/8 + y1^4/12", {(0, 1): "x1"}),
        # A quotient in the Hessian: dE_L/dy1 is not M y1 term for term.
        (2, "1/2*y1^2/(1+x1^2) + 1/2*y2^2 + x2*y1", {(0, 1): "x2"}),
    ])
    def test_lagrangians_beyond_the_fixtures(self, rank, text, theta):
        chart = alg.tangent(rank).chart
        data = lagrangian.build(text, chart)
        form = None if theta is None else alg.AForm(
            chart, 2, {key: chart.parse(value) for key, value in theta.items()})
        assert_items_are_honest(chart, data, optional(form), [None, ex.Var("x1")], seed=3)

    def test_unproven_items_are_decided_mod_p(self, tangent2):
        # With the quotient Hessian above, E-component 1 is not proven, and
        # with a twist neither are the fiber anchor items.
        chart = tangent2.chart
        data = lagrangian.build("1/2*y1^2/(1+x1^2) + 1/2*y2^2 + x2*y1", chart)
        theta = alg.AForm(chart, 2, {(0, 1): ex.Var("x2")})
        report = pr.consistency_suite(data, theta)
        unproven = [(item.label, item.result.status, item.result.method)
                    for item in report.items if item.result.status is not ZeroStatus.PROVEN_ZERO]
        assert report.passed
        assert unproven == [(label, ZeroStatus.LIKELY_ZERO, "modular") for label in (
            "E-component 1", "corrected-section anchor d/dy1", "corrected-section anchor d/dy2")]

    def test_a_potential_on_the_fibers_is_caught(self, tangent2):
        # dG/dy is no longer dE_L/dy, so no anchor item is proven, and the
        # base items are nonzero: the section solves with dE_L/dy alone.
        data = lagrangian.build(tangent2.lagrangian, tangent2.chart)
        report = pr.consistency_suite(data, None, ex.parse("y1^3", tangent2.chart.alphabet))
        statuses = {item.label: item.result.status for item in report.items}
        assert not report.passed
        assert statuses["corrected-section anchor d/dx1"] is ZeroStatus.NONZERO
        assert statuses["E-component 1"] is ZeroStatus.PROVEN_ZERO
