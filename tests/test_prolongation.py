import random

import pytest

from semispray import algebroid as alg
from semispray import expr as ex
from semispray import homotopy as ho
from semispray import lagrangian, poisson, prolongation as pr, twoform
from semispray.errors import DegenerateForm, DegreeError, NotVerticalVanishing

from helpers import (assert_certified_zero, assert_proven_zero, generated_inverse,
                     random_polynomial, reference_value)


def zero_section(chart):
    return pr.ProlongSection(chart, [ex.ZERO] * chart.r, [ex.ZERO] * chart.r)


def random_section(rng, chart, vertical=False):
    a = [ex.ZERO if vertical else random_polynomial(rng, chart.alphabet, 2, 2)
         for _ in range(chart.r)]
    b = [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(chart.r)]
    return pr.ProlongSection(chart, a, b)


def assert_sections_equal(s1, s2):
    for lhs, rhs in zip(s1.coefficients(), s2.coefficients()):
        assert_proven_zero(ex.eadd(lhs, ex.eneg(rhs)))


class TestAnchor:
    def test_liouville_projects_to_dilation(self, so3):
        field = pr.anchor(pr.liouville(so3.chart))
        assert field.vx == [ex.ZERO] * 3
        assert field.vy == [ex.Var(nm) for nm in so3.chart.fibers]

    def test_fiber_weighted_frame_sections(self, tangent1):
        chart = tangent1.chart
        section = pr.ProlongSection(chart, [ex.Var("y1")], [ex.ZERO])
        field = pr.anchor(section)
        assert field.vx == [ex.Var("y1")] and field.vy == [ex.ZERO]

    def test_energy_section_on_line(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, data.EL)
        field = pr.anchor(sigma)
        assert field.vx == [ex.Var("y1")] and field.vy == [ex.ZERO]


def coframe(chart, k):
    """The covector ``E^k`` (``k < r``) or ``U^(k-r)`` of the prolongation."""
    unit = [ex.ONE if a == k else ex.ZERO for a in range(2 * chart.r)]
    return pr.ProlongForm.one_form(chart, unit[:chart.r], unit[chart.r:])


class TestLieBracket:
    # The prolonged chart holds the frame relations; its Koszul differential
    # reads them back: for a covector with constant values on the sections,
    # d(alpha)(s1, s2) = -alpha([s1, s2]).

    def test_frame_relations_on_rotations(self, so3):
        # [E_1, E_2] = E_3.
        for k in range(3):
            expected = ex.MINUS_ONE if k == 2 else ex.ZERO
            assert pr.d(coframe(so3.chart, k)).ee(0, 1) == expected

    def test_vertical_frame_sections_commute(self, so3):
        for k in range(6):
            dalpha = pr.d(coframe(so3.chart, k))
            for i in range(3):
                for j in range(3):
                    assert dalpha.uu(i, j) == ex.ZERO

    @pytest.mark.parametrize("seed", range(4))
    def test_vertical_sections_form_a_subalgebra(self, so3, seed):
        # Each E^k vanishes on vertical sections, so E^k([V1, V2]) is
        # -d(E^k)(V1, V2).
        rng = random.Random(700 + seed)
        v1 = random_section(rng, so3.chart, vertical=True)
        v2 = random_section(rng, so3.chart, vertical=True)
        for k in range(3):
            paired = pr.insert_section(pr.insert_section(pr.d(coframe(so3.chart, k)), v1), v2)
            assert paired.is_structurally_zero()


class TestDifferential:
    def test_energy_differential_display(self, catalog_fixtures, lagrangian_data):
        # dE_L = M_ia y^a U^i + rho^k_j dE_L/dx^k E^j, per frame leg.
        for fixture in catalog_fixtures:
            chart = fixture.chart
            data = lagrangian_data(fixture)
            d_el = pr.d(pr.ProlongForm.from_coeffs(chart, 0, {(): data.EL}))
            y = [ex.Var(nm) for nm in chart.fibers]
            for j in range(chart.r):
                expected_e = chart.anchor_derivative(j, data.EL)
                assert_proven_zero(ex.eadd(d_el.value((j,)), ex.eneg(expected_e)))
                expected_u = ex.eadd(*(ex.emul(data.M[j][a], y[a]) for a in range(chart.r)))
                assert_proven_zero(ex.eadd(d_el.value((chart.r + j,)), ex.eneg(expected_u)))

    def test_fundamental_two_section_blocks(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            chart = fixture.chart
            data = lagrangian_data(fixture)
            _, omega = pr.cartan_sections(data)
            n_plain = twoform.assemble_N(data, chart, None)
            for i in range(chart.r):
                for j in range(chart.r):
                    assert omega.ue(i, j) == data.M[i][j]
                    assert omega.ee(i, j) == n_plain[i][j]
                    assert omega.uu(i, j) == ex.ZERO

    @pytest.mark.parametrize("seed", range(4))
    def test_d_squared_vanishes(self, so3, seed):
        chart = so3.chart
        rng = random.Random(800 + seed)
        f = pr.ProlongForm.from_coeffs(chart, 0, {(): random_polynomial(rng, chart.alphabet)})
        for value in pr.d(pr.d(f)).form.coeffs.values():
            assert_certified_zero(value, seed=seed)
        one = pr.ProlongForm.one_form(
            chart,
            [random_polynomial(rng, chart.alphabet) for _ in range(3)],
            [random_polynomial(rng, chart.alphabet) for _ in range(3)])
        for value in pr.d(pr.d(one)).form.coeffs.values():
            assert_certified_zero(value, seed=seed)

    def test_degree_cap(self, tangent2):
        form = pr.ProlongForm.from_coeffs(tangent2.chart, 3, {(0, 1, 2): ex.ONE})
        with pytest.raises(DegreeError):
            pr.d(form)


class TestVerticalEndomorphism:
    def test_second_order_sections_map_to_liouville(self, so3):
        chart = so3.chart
        rng = random.Random(5)
        sode = pr.ProlongSection(chart, [ex.Var(nm) for nm in chart.fibers],
                                 [random_polynomial(rng, chart.alphabet) for _ in range(3)])
        assert_sections_equal(pr.vertical_endomorphism(sode), pr.liouville(chart))

    @pytest.mark.parametrize("seed", range(4))
    def test_squares_to_zero_with_matching_kernel_and_image(self, so3, seed):
        rng = random.Random(900 + seed)
        section = random_section(rng, so3.chart)
        once = pr.vertical_endomorphism(section)
        assert once.a == [ex.ZERO] * 3  # image inside the vertical subbundle
        twice = pr.vertical_endomorphism(once)
        assert_sections_equal(twice, zero_section(so3.chart))

    def test_dual_annihilates_fundamental_section(self, catalog_fixtures, lagrangian_data):
        for fixture in catalog_fixtures:
            data = lagrangian_data(fixture)
            _, omega = pr.cartan_sections(data)
            assert pr.j_dual(omega).is_structurally_zero()

    def test_dual_on_coframe(self, tangent1):
        chart = tangent1.chart
        e_cov = pr.ProlongForm.one_form(chart, [ex.ONE], [ex.ZERO])
        u_cov = pr.ProlongForm.one_form(chart, [ex.ZERO], [ex.ONE])
        assert pr.j_dual(e_cov).is_structurally_zero()
        got = pr.j_dual(u_cov)
        assert got.value((0,)) == ex.MINUS_ONE and got.value((1,)) == ex.ZERO


class TestCartanSections:
    def test_line_kinetic_energy(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        theta, omega = pr.cartan_sections(data)
        assert theta.value((0,)) == ex.Var("y1")
        assert theta.value((1,)) == ex.ZERO
        assert omega.ue(0, 0) == ex.ONE
        assert omega.ee(0, 0) == ex.ZERO

    def test_vertical_pairs_vanish_even_for_transcendental_lagrangians(self, tangent2):
        chart = tangent2.chart
        data = lagrangian.build("1/2*exp(x1)*y1^2 + 1/2*y2^2 + cos(x2)*y1",
                                chart, box=ex.Box(default=(0.1, 1.0)))
        _, omega = pr.cartan_sections(data)
        for i in range(2):
            for j in range(2):
                assert omega.uu(i, j) == ex.ZERO


class TestHamiltonianSection:
    def test_line_energy(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, data.EL)
        assert sigma.a == [ex.Var("y1")] and sigma.b == [ex.ZERO]

    def test_line_energy_with_potential(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, ex.eadd(data.EL, ex.Var("x1")))
        assert sigma.a == [ex.Var("y1")] and sigma.b == [ex.MINUS_ONE]

    def test_degenerate_form_rejected(self, tangent1):
        chart = tangent1.chart
        omega = pr.ProlongForm.from_coeffs(chart, 2, {})
        with pytest.raises(DegenerateForm):
            pr.hamiltonian_section(omega, ex.Var("x1"))

    def test_block_vanishing_on_the_box_rejected(self, tangent1):
        # det = x1 is not literally zero but vanishes at the box center.
        omega = pr.ProlongForm.from_coeffs(tangent1.chart, 2, {(1, 0): ex.Var("x1")})
        with pytest.raises(DegenerateForm):
            pr.hamiltonian_section(omega, ex.Var("x1"))

    def test_rank_above_four_rejected(self):
        three = alg.tangent(3)
        _, omega = pr.cartan_sections(lagrangian.build(three.lagrangian, three.chart))
        # A vertical-vertical entry needs the full 6 x 6 coefficient matrix.
        omega += pr.ProlongForm.from_coeffs(three.chart, 2, {(3, 4): ex.ONE})
        with pytest.raises(ValueError, match=r"^symbolic solve supports total rank <= 4$"):
            pr.hamiltonian_section(omega, ex.ZERO)
        five = alg.tangent(5)
        _, omega = pr.cartan_sections(lagrangian.build(five.lagrangian, five.chart))
        with pytest.raises(ValueError, match=r"^symbolic solve supports rank <= 4$"):
            pr.hamiltonian_section(omega, ex.ZERO)

    def test_full_solve_with_vertical_block(self, tangent1):
        # A vertical-vertical block forces the full coefficient-matrix solve.
        chart = tangent1.chart
        data = lagrangian.build("1/2*y1^2", chart)
        _, omega = pr.cartan_sections(data)
        sigma_block = pr.hamiltonian_section(omega, data.EL)
        omega_dict = dict(omega.form.coeffs)
        full = pr.ProlongForm(chart, alg.AForm(pr.prolong_chart(chart), 2, omega_dict))
        sigma_full = pr.hamiltonian_section(full, data.EL)
        assert_sections_equal(sigma_block, sigma_full)

    def test_closed_form_coefficients(self, curved_metric):
        # sigma = y^a E_a - M^{rl} (rho^b_l dE_L/dx^b + N_sl y^s) U_r, checked
        # on a chart with an x-dependent Hessian.
        chart = curved_metric.chart
        data = lagrangian.build(curved_metric.lagrangian, chart)
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, data.EL)
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
            sigma = pr.hamiltonian_section(omega, data.EL, check=False)
            assert pr.is_sode(sigma).passed, fixture.label

    def test_liouville_is_not_second_order(self, so3):
        report = pr.is_sode(pr.liouville(so3.chart))
        assert not report.passed

    def test_second_order_modulo_vertical(self, so3):
        chart = so3.chart
        rng = random.Random(6)
        section = pr.ProlongSection(chart, [ex.Var(nm) for nm in chart.fibers],
                                    [random_polynomial(rng, chart.alphabet) for _ in range(3)])
        assert pr.is_sode(section).passed


class TestBigrading:
    def test_vertical_derivative_block_at_zero_connection(self, tangent2):
        chart = tangent2.chart
        rng = random.Random(7)
        zeta = [random_polynomial(rng, chart.alphabet) for _ in range(2)]
        form = pr.ProlongForm.one_form(chart, zeta, [ex.ZERO, ex.ZERO])
        _, dsec, _ = pr.d_split(form)
        for i in range(2):
            for j in range(2):
                assert dsec.ue(i, j) == ex.diff(zeta[j], chart.fibers[i])

    @pytest.mark.parametrize("seed", range(3))
    def test_split_reassembles_differential(self, so3, seed):
        chart = so3.chart
        rng = random.Random(1000 + seed)
        form = pr.ProlongForm.one_form(
            chart,
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)],
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)])
        dp, dsec, dl = pr.d_split(form)
        total = dp + dsec + dl - pr.d(form)
        assert total.is_structurally_zero()

    @pytest.mark.parametrize("seed", range(3))
    def test_vertical_part_squares_to_zero(self, so3, seed):
        chart = so3.chart
        rng = random.Random(1100 + seed)
        form = pr.ProlongForm.one_form(
            chart,
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)],
            [random_polynomial(rng, chart.alphabet, 2, 2) for _ in range(3)])
        _, dsec, _ = pr.d_split(form)
        _, dsec2, _ = pr.d_split(dsec)
        for value in dsec2.form.coeffs.values():
            assert_certified_zero(value, seed=seed)

    def test_bigrade_roundtrip(self, so3):
        chart = so3.chart
        data = lagrangian.build(so3.lagrangian, chart)
        _, omega = pr.cartan_sections(data)
        rebuilt = pr.ProlongForm.zero(chart, 2)
        for block in pr.bigrade(omega).values():
            rebuilt += pr.block_to_form(block)
        assert (rebuilt - omega).is_structurally_zero()

    def test_block_with_a_fiber_integral_is_not_rebuilt(self, tangent1):
        # The radial primitive of a non-polynomial block keeps its integrand
        # as a fiber integral, which has no place in a prolongation form.
        chart = tangent1.chart
        block = ho.BigradedBlock(chart, 0, 1, {((), (0,)): ex.parse("exp(y1)", chart.alphabet)})
        primitive = ho.radial_homotopy(block)
        assert ho.is_fiber_integral(primitive.get((), ()))
        with pytest.raises(ValueError, match="quadrature"):
            pr.block_to_form(primitive)


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
        pulled = pr.pullback_horizontal(so3.theta)
        total = omega + pulled
        horizontal, exact_part = pr.decompose_symplectic(total)
        for i in range(3):
            for j in range(3):
                assert horizontal.uu(i, j) == ex.ZERO
                assert horizontal.ue(i, j) == ex.ZERO
        reassembled = horizontal + pr.d(exact_part) - total
        assert reassembled.is_structurally_zero()

    def test_curved_chart_roundtrip(self, curved_cotangent, lagrangian_data):
        data = lagrangian_data(curved_cotangent)
        _, omega = pr.cartan_sections(data)
        total = omega + pr.pullback_horizontal(curved_cotangent.theta)
        horizontal, exact_part = pr.decompose_symplectic(total)
        residual = horizontal + pr.d(exact_part) - total
        assert residual.is_structurally_zero()

    def test_vertical_block_rejected(self, tangent2):
        chart = tangent2.chart
        # The (vertical, frame) block is the identity, and U^1 ^ U^2 is not 0.
        bad = pr.ProlongForm.from_coeffs(chart, 2, {(2, 0): ex.ONE, (3, 1): ex.ONE,
                                                    (2, 3): ex.ONE})
        with pytest.raises(NotVerticalVanishing):
            pr.decompose_symplectic(bad)

    def test_exact_part_has_full_rank_pointwise(self, so3, lagrangian_data):
        data = lagrangian_data(so3)
        _, omega = pr.cartan_sections(data)
        _, exact_part = pr.decompose_symplectic(omega)
        env = ex.ChartPoint((0.3, -0.2, 0.5), (0.7, 0.4, -0.6)).env(so3.chart.coords,
                                                                    so3.chart.fibers)
        size = 2 * so3.chart.r
        exact = pr.d(exact_part)
        a = [[reference_value(exact.value((p, q)), env) for q in range(size)]
             for p in range(size)]
        inverse = generated_inverse(a)  # a zero pivot raises DomainError
        for i in range(size):
            row = [sum(a[i][k] * inverse[k][j] for k in range(size)) for j in range(size)]
            assert row == pytest.approx([float(i == j) for j in range(size)], abs=1e-9)


class TestPullback:
    def test_zero(self, so3):
        assert pr.pullback_horizontal(alg.AForm(so3.chart, 2, {})).is_structurally_zero()

    def test_cotangent_bivector_coefficients(self, cotangent):
        pulled = pr.pullback_horizontal(cotangent.theta)
        assert pulled.ee(0, 1) == ex.ONE
        for i in range(2):
            for j in range(2):
                assert pulled.ue(i, j) == ex.ZERO
                assert pulled.uu(i, j) == ex.ZERO

    def test_commutes_with_differentials_on_closed_sections(self, so3):
        pulled = pr.pullback_horizontal(so3.theta)
        for value in pr.d(pulled).form.coeffs.values():
            assert_certified_zero(value)


class TestVerticalCorrection:
    def test_trivial_inputs_give_zero(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        z = pr.vertical_correction(data, None, None)
        assert_sections_equal(z, zero_section(tangent1.chart))

    def test_line_with_potential(self, tangent1):
        data = lagrangian.build("1/2*y1^2", tangent1.chart)
        z = pr.vertical_correction(data, None, ex.Var("x1"))
        assert z.a == [ex.ZERO] and z.b == [ex.MINUS_ONE]

    def test_matches_bracket_side_field(self, cotangent, lagrangian_data):
        data = lagrangian_data(cotangent)
        pulled = pr.pullback_horizontal(cotangent.theta)
        z = pr.vertical_correction(data, pulled, None)
        _, omega = pr.cartan_sections(data)
        sigma = pr.hamiltonian_section(omega, data.EL)
        via_sections = pr.anchor(sigma + z)
        n = twoform.assemble_N(data, cotangent.chart, twoform.ThetaSection(cotangent.theta))
        bivector = poisson.build_bracket(cotangent.chart, data, n)
        via_bracket = poisson.hamiltonian_field(bivector, data.EL)
        for lhs, rhs in zip(via_sections.components(), via_bracket.components()):
            assert_proven_zero(ex.eadd(lhs, ex.eneg(rhs)))


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
        omega = omega_l + pr.pullback_horizontal(fixture.theta)
        n = twoform.assemble_N(data, chart, twoform.ThetaSection(fixture.theta))
        bivector = poisson.build_bracket(chart, data, n)
        names = list(chart.coords) + list(chart.fibers)
        sections = {nm: pr.hamiltonian_section(omega, ex.Var(nm), check=False)
                    for nm in names}
        for a, na in enumerate(names):
            for b, nb in enumerate(names):
                paired = pr.insert_section(pr.insert_section(omega, sections[na]),
                                           sections[nb])
                expected = bivector.coefficient(a, b)
                assert_certified_zero(
                    ex.eadd(paired.value(()), ex.eneg(expected)), tol=1e-9)
