import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semispray import expr as ex
from semispray.errors import DomainError, UnknownSymbol
from semispray.report import ZeroStatus

from helpers import assert_certified_zero, central_difference, random_raw_tree

ALPHABET = ("x1", "x2", "y1", "y2")


class TestParse:
    def test_half_square(self):
        got = ex.parse("y1^2/2", ("x1", "y1"))
        want = ex.emul(ex.Const(Fraction(1, 2)), ex.epow(ex.Var("y1"), 2))
        assert got == want

    def test_truncated_input_position(self):
        with pytest.raises(SyntaxError) as err:
            ex.parse("x1*", ("x1",))
        assert err.value.offset == 3

    def test_undeclared_name(self):
        with pytest.raises(UnknownSymbol) as err:
            ex.parse("rho*y1", ("y1",))
        assert err.value.name == "rho"

    def test_decimal_literals_are_exact(self):
        got = ex.parse("0.25*x1", ("x1",))
        assert got == ex.emul(ex.Const(Fraction(1, 4)), ex.Var("x1"))

    def test_power_right_associative(self):
        assert ex.parse("x1^2^3", ("x1",)) == ex.epow(ex.Var("x1"), 8)

    def test_unary_minus(self):
        assert ex.parse("-x1 + x1", ("x1",)) == ex.ZERO

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(SyntaxError):
            ex.parse("x1^y1", ("x1", "y1"))

    def test_function_call(self):
        got = ex.parse("sin(x1)*cos(x2)", ("x1", "x2"))
        assert got == ex.emul(ex.efunc("sin", ex.Var("x1")), ex.efunc("cos", ex.Var("x2")))


class TestDiff:
    def test_power_rule(self):
        e = ex.parse("y1^2/2", ("y1",))
        assert ex.diff(e, "y1") == ex.Var("y1")

    def test_product_rule(self):
        e = ex.parse("sin(x1)*y1", ("x1", "y1"))
        assert ex.diff(e, "x1") == ex.emul(ex.efunc("cos", ex.Var("x1")), ex.Var("y1"))

    def test_chain_rule(self):
        e = ex.parse("exp(x1*y1)", ("x1", "y1"))
        want = ex.emul(ex.Var("x1"), ex.efunc("exp", ex.emul(ex.Var("x1"), ex.Var("y1"))))
        assert ex.diff(e, "y1") == want

    def test_quotient_rule_matches_numerics(self):
        e = ex.parse("x1/(1 + y1^2)", ("x1", "y1"))
        d = ex.diff(e, "y1")
        env = {"x1": 0.7, "y1": 0.3}
        assert ex.evaluate(d, env) == pytest.approx(central_difference(e, "y1", env), rel=1e-6)


class TestEval:
    def test_simple(self):
        assert ex.evaluate(ex.parse("y1^2/2", ("y1",)), {"y1": 2.0}) == 2.0

    def test_log_domain(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("log(x1)", ("x1",)), {"x1": -1.0})

    def test_cos(self):
        assert ex.evaluate(ex.parse("cos(x1)", ("x1",)), {"x1": 0.0}) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse("x1/y1", ("x1", "y1")), {"x1": 1.0, "y1": 0.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            ex.evaluate(ex.Pow(ex.Var("x1"), Fraction(-2)), {"x1": 0.0})

    def test_unbound_symbol(self):
        with pytest.raises(UnknownSymbol):
            ex.evaluate(ex.Var("x1"), {})


class TestIsZero:
    def test_proven(self):
        e = ex.Add((ex.Var("y1"), ex.Mul((ex.MINUS_ONE, ex.Var("y1")))))
        assert ex.is_zero(ex.simplify(e)).status is ZeroStatus.PROVEN_ZERO

    def test_pythagorean_identity_likely(self):
        e = ex.parse("sin(x1)^2 + cos(x1)^2 - 1", ("x1",))
        result = ex.is_zero(e, trials=64, tol=1e-9)
        assert result.status is ZeroStatus.LIKELY_ZERO

    def test_nonzero_witness(self):
        e = ex.parse("x1*y1", ("x1", "y1"))
        result = ex.is_zero(e, trials=64, tol=1e-9)
        assert result.status is ZeroStatus.NONZERO
        assert abs(result.witness["x1"] * result.witness["y1"]) > 1e-9

    def test_seed_reported_and_deterministic(self):
        e = ex.parse("x1*y1", ("x1", "y1"))
        a = ex.is_zero(e, seed=42)
        b = ex.is_zero(e, seed=42)
        assert a.seed == 42 and a.witness == b.witness

    def test_all_singular_raises(self):
        e = ex.parse("log(-1 - x1^2)", ("x1",))
        with pytest.raises(DomainError):
            ex.is_zero(e, trials=8)


class TestCanonical:
    def test_like_terms_collect(self):
        e = ex.parse("x1*y1 + y1*x1 - 2*y1*x1", ALPHABET)
        assert e == ex.ZERO

    def test_products_expand(self):
        e = ex.parse("(x1 + y1)^2 - x1^2 - 2*x1*y1 - y1^2", ALPHABET)
        assert e == ex.ZERO

    def test_expansion_cap_preserves_value(self):
        big = ex.eadd(*(ex.Var(v) for v in ALPHABET))
        capped = ex.epow(big, 8)  # 4^8 = 65536 > cap, stays a Pow node
        assert isinstance(capped, ex.Pow)
        env = {v: 0.5 for v in ALPHABET}
        assert ex.evaluate(capped, env) == pytest.approx(2.0 ** 8)

    def test_division_constant_folds(self):
        assert ex.parse("x1/4", ("x1",)) == ex.emul(ex.Const(Fraction(1, 4)), ex.Var("x1"))

    def test_structural_cancellation_in_div(self):
        e = ex.ediv(ex.emul(ex.Var("x1"), ex.Var("y1")), ex.Var("y1"))
        assert e == ex.Var("x1")

    def test_rationals_stay_exact(self):
        e = ex.parse("1/3 + 1/6", ())
        assert e == ex.Const(Fraction(1, 2))


def _seeded_cases(n, seed=0, **kwargs):
    rng = random.Random(seed)
    return [random_raw_tree(rng, ALPHABET, **kwargs) for _ in range(n)]


class TestProperties:
    @pytest.mark.parametrize("tree", _seeded_cases(40, seed=5))
    def test_simplify_idempotent(self, tree):
        once = ex.simplify(tree)
        assert ex.simplify(once) == once

    @pytest.mark.parametrize("tree", _seeded_cases(40, seed=6))
    def test_print_parse_roundtrip(self, tree):
        canonical = ex.simplify(tree)
        assert ex.parse(ex.to_text(canonical), ALPHABET) == canonical

    @pytest.mark.parametrize("seed", range(20))
    def test_diff_linear(self, seed):
        rng = random.Random(100 + seed)
        e1 = random_raw_tree(rng, ALPHABET)
        e2 = random_raw_tree(rng, ALPHABET)
        a = ex.Const(rng.choice([Fraction(2), Fraction(-1, 2), Fraction(3)]))
        v = rng.choice(ALPHABET)
        combined = ex.diff(ex.eadd(ex.emul(a, ex.simplify(e1)), ex.simplify(e2)), v)
        split = ex.eadd(ex.emul(a, ex.diff(ex.simplify(e1), v)), ex.diff(ex.simplify(e2), v))
        assert combined == split

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_partials_commute(self, seed):
        rng = random.Random(200 + seed)
        e = ex.simplify(random_raw_tree(rng, ALPHABET))
        u, v = rng.sample(ALPHABET, 2)
        duv = ex.diff(ex.diff(e, u), v)
        dvu = ex.diff(ex.diff(e, v), u)
        assert_certified_zero(ex.eadd(duv, ex.eneg(dvu)), tol=1e-9, trials=64, seed=seed)

    @pytest.mark.parametrize("seed", range(40))
    def test_canonicalization_preserves_value(self, seed):
        # The strongest guard on expansion and collection: raw tree and
        # canonical form evaluate identically wherever both are defined.
        rng = random.Random(3000 + seed)
        raw = random_raw_tree(rng, ALPHABET, depth=4)
        canonical = ex.simplify(raw)
        tried = 0
        for attempt in range(40):
            env = {nm: rng.uniform(-1.5, 1.5) for nm in ALPHABET}
            try:
                before = ex.evaluate(raw, env)
            except DomainError:
                continue
            after = ex.evaluate(canonical, env)
            assert after == pytest.approx(before, rel=1e-9, abs=1e-9)
            tried += 1
            if tried >= 8:
                break

    def test_derivative_matches_finite_differences(self):
        rng = random.Random(37)
        checked = 0
        while checked < 32:
            e = ex.simplify(random_raw_tree(rng, ALPHABET, depth=3))
            v = rng.choice(sorted(ex.free_symbols(e)) or ALPHABET)
            env = {nm: rng.uniform(0.2, 0.9) for nm in ALPHABET}
            try:
                exact = ex.evaluate(ex.diff(e, v), env)
                approx = central_difference(e, v, env)
            except DomainError:
                continue
            if abs(exact) > 1e4:  # steep spots make the FD stencil unreliable
                continue
            assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact))
            checked += 1


@st.composite
def polynomials(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    from helpers import random_polynomial

    return random_polynomial(rng, ALPHABET)


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(polynomials(), polynomials())
    def test_polynomial_product_expands_to_zero_difference(self, p, q):
        direct = ex.emul(p, q)
        via_binomial = ex.emul(q, p)
        assert direct == via_binomial

    @settings(max_examples=60, deadline=None)
    @given(polynomials())
    def test_second_derivative_of_linear_substitution(self, p):
        # d/dv is stable under canonicalization: differentiating twice equals
        # differentiating the canonical first derivative.
        d1 = ex.diff(p, "x1")
        assert ex.diff(d1, "x1") == ex.diff(ex.simplify(d1), "x1")


class TestCompile:
    def test_matches_tree_walker(self):
        rng = random.Random(9)
        exprs = [ex.simplify(random_raw_tree(rng, ALPHABET)) for _ in range(10)]
        fn = ex.compile_evaluator(exprs, ALPHABET)
        for _ in range(20):
            values = [rng.uniform(0.2, 0.8) for _ in ALPHABET]
            env = dict(zip(ALPHABET, values))
            try:
                expected = [ex.evaluate(e, env) for e in exprs]
            except DomainError:
                with pytest.raises(DomainError):
                    fn(values)
                continue
            got = fn(values)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_guards_raise_domain_error(self):
        fn = ex.compile_evaluator([ex.parse("log(x1)", ("x1",))], ("x1",))
        with pytest.raises(DomainError):
            fn([-1.0])


def test_point_env_mismatch():
    p = ex.ChartPoint((1.0,), (2.0,))
    with pytest.raises(ValueError):
        p.env(("x1", "x2"), ("y1",))
    assert p.env(("x1",), ("y1",)) == {"x1": 1.0, "y1": 2.0}


def test_box_rejects_empty_interval():
    box = ex.Box(ranges={"x1": (1.0, 1.0)})
    with pytest.raises(ValueError):
        box.interval("x1")
