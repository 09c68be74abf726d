import ast
import copy
import inspect
import math
import os
import pathlib
import pickle
import random
import re
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semispray import expr as ex
from semispray.errors import DomainError, UnknownSymbol
from semispray.report import ZeroStatus

from helpers import (COEFFS, ReferenceProgram, assert_certified_zero, central_difference,
                     compiled_source, constant_types, precise_value, random_raw_tree,
                     reference_diff, reference_nodes, reference_subs, reference_to_text,
                     reference_value)

ALPHABET = ("x1", "x2", "y1", "y2")


#: Tokens for the ``parse`` property: names inside and outside the alphabet,
#: short numbers, operators, parentheses and characters that are digits or
#: letters outside ASCII.
PARSE_TOKENS = ("x1", "y2", "w", "_t", "sin", "exp", "log", "sqrt", "0", "2", "7", "12", "99",
                "1.5e-3", "0.25", "+", "-", "*", "/", "^", "(", ")", "²", "٣", "α", "①")


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

    @pytest.mark.parametrize("src,value", [("1e-12*x1", Fraction(1, 10 ** 12)),
                                           ("2.5E3*x1", Fraction(2500)),
                                           ("1.5e+2*x1", Fraction(150)),
                                           (".5e1*x1", Fraction(5))])
    def test_exponent_notation_is_exact(self, src, value):
        assert ex.parse(src, ("x1",)) == ex.emul(ex.Const(value), ex.Var("x1"))

    @pytest.mark.parametrize("src", ["2e", "2e+", "2e-x1"])
    def test_incomplete_exponent_rejected(self, src):
        with pytest.raises(SyntaxError):
            ex.parse(src, ("x1",))

    @pytest.mark.parametrize("value", [1e-12, -2.5e-7, 3.0e20, 1.5e+2, 0.1, 5e-324])
    def test_float_constants_roundtrip_through_printer(self, value):
        # ``to_text`` prints a float constant with ``repr``; ``parse`` reads
        # the text back exactly, and that rational rounds to the same float.
        e = ex.emul(ex.Const(value), ex.Var("x1"))
        back = ex.parse(ex.to_text(e), ("x1",))
        assert reference_value(back, {"x1": 1.0}) == value

    @pytest.mark.parametrize("build", [
        lambda: ex.emul(ex.Const(math.inf), ex.Var("x1")),
        lambda: ex.eadd(ex.Const(math.inf), ex.Const(-math.inf)),
        lambda: ex.Const(-math.inf),
    ], ids=["inf*x1", "nan", "-inf"])
    def test_non_finite_constants_have_no_text(self, build):
        # ``parse`` has no literal for them, so printing ``inf*x1`` or ``nan``
        # would write text it rejects.
        with pytest.raises(DomainError, match="no text"):
            ex.to_text(build())

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

    @pytest.mark.parametrize("src,offset", [("y1^²", 3), ("2²*x1", 1), ("①*x1", 0)])
    def test_non_decimal_digits_are_syntax_errors(self, src, offset):
        # ``²`` and ``①`` are digits to ``str.isdigit`` but not decimals,
        # so no number can start or go on with them.
        with pytest.raises(SyntaxError) as err:
            ex.parse(src, ("x1", "y1"))
        assert err.value.offset == offset

    def test_other_decimal_digits_read_as_numbers(self):
        assert ex.parse("٣*x1", ("x1",)) == ex.emul(ex.Const(3), ex.Var("x1"))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(PARSE_TOKENS), st.sampled_from(["", " "])),
                    min_size=1, max_size=8))
    def test_parse_returns_a_tree_or_an_input_error(self, pieces):
        text = "".join(token + space for token, space in pieces)
        # Keep every literal and exponent small: ``9^99999999`` is exact
        # arithmetic on a 10^8-bit integer, not a parse failure.
        assume(text.count("^") <= 1 and not re.search(r"\d{3}", text))
        try:
            got = ex.parse(text, ALPHABET)
        except (SyntaxError, UnknownSymbol, DomainError):
            return
        assert isinstance(got, ex.Expr)


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
        assert reference_value(d, env) == pytest.approx(central_difference(e, "y1", env), rel=1e-6)

    @pytest.mark.parametrize("text,want", [("log(x1^2 + x2)", "2*x1/(x2 + x1^2)"),
                                           ("sqrt(x1^2 + x2)", "x1/sqrt(x2 + x1^2)")])
    def test_log_and_sqrt_rules_match_numerics(self, text, want):
        e = ex.parse(text, ("x1", "x2"))
        d = ex.diff(e, "x1")
        assert d == reference_diff(e, "x1") and ex.to_text(d) == want
        env = {"x1": 0.7, "x2": 0.3}
        assert reference_value(d, env) == pytest.approx(central_difference(e, "x1", env), rel=1e-6)


class TestEval:
    def test_sqrt_at_a_valid_point(self):
        e = ex.parse("sqrt(x1^2 + x2)", ("x1", "x2"))
        env = {"x1": 0.7, "x2": 0.3}
        want = reference_value(e, env)
        assert ex.Program([e]).run(env) == [want]
        assert ex.compile_evaluator([e], ("x1", "x2"))([0.7, 0.3]) == [want]

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # A nan or inf tolerance would pass every residual, x1 included.
        with pytest.raises(ValueError, match="tol must be"):
            ex.is_zero(ex.parse("x1", ("x1",)), tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_sampler_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            ex.sample_zero(lambda env: env["x1"], ["x1"], box=None, trials=4, tol=tol, seed=0)


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
        assert reference_value(capped, env) == pytest.approx(2.0 ** 8)

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
                before = reference_value(raw, env)
            except DomainError:
                continue
            after = reference_value(canonical, env)
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
                exact = reference_value(ex.diff(e, v), env)
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


JET_NAMES = ("x1", "x2")


def _built(make, *args):
    """``make(*args)``, or 1 where a constructor refuses (0 to a negative
    power, a literal zero denominator, the root of a negative constant)."""
    try:
        return make(*args)
    except DomainError:
        return ex.ONE


def _jet_trees(roots: bool = True):
    """Canonical trees over ``JET_NAMES``: rational constants, sums,
    products, quotients, integer powers, fractional ones unless ``roots`` is
    false, and all five functions."""
    leaves = st.one_of(st.sampled_from([ex.Var(nm) for nm in JET_NAMES]),
                       st.sampled_from([-2, Fraction(-1, 2), Fraction(1, 3), 1, 3]).map(ex.Const))
    fractional = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(-2, 3)]
    exponents = st.sampled_from([-2, -1, 2, 3] + (fractional if roots else []))

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ts: ex.eadd(*ts)),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: ex.emul(*fs)),
            st.tuples(children, children).map(lambda nd: _built(ex.ediv, *nd)),
            st.tuples(children, exponents).map(lambda be: _built(ex.epow, *be)),
            st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(
                lambda fa: _built(ex.efunc, *fa)))
    return st.recursive(leaves, extend, max_leaves=8)


class TestJets:
    @settings(max_examples=300, deadline=None)
    @given(_jet_trees(roots=False), st.integers(min_value=0, max_value=2 ** 32))
    def test_modular_jet_is_the_residue_of_the_derivative(self, e, seed):
        # With the same residues, the forward-mode partial mod p is the value
        # mod p of the canonical derivative: the rules read the residues the
        # derivative's own nodes get.
        field = ex.Modular(random.Random(seed))
        derivative = ex.diff(e, "x1")
        for _ in range(100):  # singular points are skipped
            env = field.point(JET_NAMES)
            try:
                (_, gradient), = ex.Program([e]).jets(env, ["x1"], field)
                (value, _), = ex.Program([derivative]).jets(env, [], field)
            except DomainError:
                continue
            assert value == gradient[0]
            return
        assume(False)

    @settings(max_examples=300, deadline=None)
    @given(_jet_trees(), st.floats(min_value=0.3, max_value=1.7),
           st.floats(min_value=0.3, max_value=1.7))
    def test_float_jet_matches_the_derivative(self, e, a, b):
        # The derivative tree is evaluated in mpmath: in floats its expanded
        # powers of sums round off near a pole (4 - 8 x1 + 4 x1^2 at x1 near
        # 1) by more than the jet does.  The jet's own roundoff is allowed as
        # far as the exact derivative moves between neighbouring floats of
        # the point: sin(log(x1)^(-2)) at x1 = 0.984375 has a derivative of
        # -78167.8 that moves by 3.0e-5 per ulp of x1, and a jet 3.4e-7 off.
        env = {"x1": a, "x2": b}
        derivative = ex.diff(e, "x1")
        try:
            ex.evaluate(derivative, env)
            (value, gradient), = ex.Program([e]).jets(env, ["x1", "x2"], ex.FLOAT)
            want = precise_value(derivative, env)
            moved = sum(max(abs(precise_value(derivative, {**env, name: step}) - want)
                            for step in (math.nextafter(x, 0.0), math.nextafter(x, 2.0)))
                        for name, x in env.items())
        except (DomainError, TypeError, ZeroDivisionError):  # a singular point or neighbour
            assume(False)
        assert value == ex.evaluate(e, env)
        assert abs(gradient[0] - want) <= max(1e-12 * abs(want), 1e-12) + moved

    @pytest.mark.parametrize("text", ["x1^(1/2)", "(x1^2 + 1)^(-2/3)"])
    def test_a_root_has_no_modular_value(self, text):
        # A d-th root mod p need not be on the real branch, so it raises
        # rather than being taken as an integer power.
        field = ex.Modular(random.Random(0))
        with pytest.raises(DomainError, match="root"):
            ex.Program([ex.parse(text, JET_NAMES)]).jets(field.point(JET_NAMES), ["x1"], field)

    def test_functions_are_independent_residues(self):
        # sin(u)^2 + cos(u)^2 - 1 is zero, but its lift is not: a modular
        # nonzero proves nothing, and the Jacobi check then samples floats.
        e = ex.parse("sin(x1)^2 + cos(x1)^2 - 1", JET_NAMES)
        field = ex.Modular(random.Random(0))
        (value, _), = ex.Program([e]).jets(field.point(JET_NAMES), [], field)
        assert value != 0
        assert ex.evaluate(e, {"x1": 0.3, "x2": 0.0}) == pytest.approx(0.0, abs=1e-15)

    def test_zero_denominator_is_a_domain_error(self):
        field = ex.Modular(random.Random(0))
        e = ex.parse("1/(x1 - x2)", JET_NAMES)
        with pytest.raises(DomainError):
            ex.Program([e]).jets({"x1": 5, "x2": 5}, ["x1"], field)
        with pytest.raises(DomainError):
            ex.Program([e]).jets({"x1": 0.5, "x2": 0.5}, ["x1"], ex.FLOAT)


class TestModularFirst:
    """``is_zero`` decides a residual with no root at one point of F_p
    first, and samples floats only where the lift is not 0."""

    NAMES = ("x1", "x2", "x3")
    # (E^2 - X^2)/(E - X) - E - X with E = exp(x1), X = x2: zero, but the
    # canonical form does not factor the numerator.  The denominator is the
    # stress model's factor e^x1 - x2 of det M, and the box hugs the curve
    # where it vanishes, so float roundoff in the numerator is magnified.
    QUOTIENT = "(exp(x1)^2 - x2^2)/(exp(x1) - x2) - exp(x1) - x2"
    NEAR_CURVE = ex.Box(ranges={"x1": (0.5, 0.5 + 1e-12),
                                "x2": (math.exp(0.5), math.exp(0.5) + 1e-12),
                                "x3": (-1.0, 1.0)})
    # Zero, with a quotient and a negative power of the same denominator.
    RECIPROCALS = "x1/x2 - x1*x2^(-1)"

    def test_zero_quotient_near_the_singular_curve_is_modular(self):
        e = ex.parse(self.QUOTIENT, self.NAMES)
        names = sorted(ex.free_symbols(e))
        floats = ex.sample_zero(ex.Program([e]).value, names, box=self.NEAR_CURVE,
                                trials=64, tol=1e-9, seed=0)
        # Floats alone give a false witness here: its true value is roundoff.
        assert floats.status is ZeroStatus.NONZERO
        assert abs(precise_value(e, floats.witness)) < 1e-9
        result = ex.is_zero(e, box=self.NEAR_CURVE, seed=0)
        assert (result.status, result.method, result.max_residual, result.trials) == \
            (ZeroStatus.LIKELY_ZERO, "modular", 0.0, 1)

    def test_perturbed_quotient_is_nonzero_at_a_float_witness(self):
        # A true 1e-6 term, the size of the stress_perturbed anchor's, is
        # not hidden by the modular point: the lift is not 0, so floats decide.
        e = ex.parse(f"{self.QUOTIENT} + x3/1000000", self.NAMES)
        result = ex.is_zero(e, seed=0)
        assert (result.status, result.method) == (ZeroStatus.NONZERO, "float")
        assert abs(result.witness_value) > 1e-9
        assert result.witness_value == pytest.approx(result.witness["x3"] / 1e6, rel=1e-6)

    def test_lifted_nonzero_falls_back_to_floats(self):
        e = ex.parse("sin(x1)^2 + cos(x1)^2 - 1", self.NAMES)
        result = ex.is_zero(e)
        assert (result.status, result.method, result.trials) == \
            (ZeroStatus.LIKELY_ZERO, "float", 64)
        assert result.max_residual <= 1e-15

    def test_singular_points_mod_p_are_redrawn(self, monkeypatch):
        # A point where a denominator is 0 mod p is skipped, and ``trials``
        # counts every point drawn.
        e = ex.parse(self.RECIPROCALS, self.NAMES)
        draws = iter([{"x1": 3, "x2": 0}, {"x1": 3, "x2": 0}, {"x1": 3, "x2": 5}])
        monkeypatch.setattr(ex.Modular, "point", lambda self, names: dict(next(draws)))
        result = ex.is_zero(e, seed=0)
        assert (result.status, result.method, result.trials) == \
            (ZeroStatus.LIKELY_ZERO, "modular", 3)

    def test_every_point_singular_falls_back_to_floats(self, monkeypatch):
        e = ex.parse(self.RECIPROCALS, self.NAMES)
        monkeypatch.setattr(ex.Modular, "point", lambda self, names: {"x1": 3, "x2": 0})
        assert ex.modular_jets(ex.Program([e]), ["x1", "x2"], (), trials=8, seed=0) == (None, 8)
        result = ex.is_zero(e, trials=8, seed=0)
        assert (result.status, result.method, result.trials) == (ZeroStatus.LIKELY_ZERO, "float", 8)

    def test_a_point_the_finish_finds_singular_is_drawn_past(self):
        # The finish runs inside the same guard as the jets: a DomainError
        # from it (a zero pivot, say) draws the next point.
        program = ex.Program([ex.parse("x1 + x2", self.NAMES)])
        calls = []

        def finish(jets, field):
            calls.append(jets[0][0])
            if len(calls) == 1:
                raise ex.DomainError("singular")
            return [jets[0][0] * 2 % ex.MODULUS]

        got, drawn = ex.modular_jets(program, ["x1", "x2"], (), trials=8, seed=0,
                                     finish=finish)
        assert drawn == 2 and got == [calls[1] * 2 % ex.MODULUS]
        assert calls[0] != calls[1]

    # Nonzero on the default box, but 0 mod p wherever the root mod p is on
    # the wrong branch: the square root of x1^2 mod p is -x1 at half the
    # points, and a cube root of x1^3 can be x1 times a cube root of unity w,
    # where 1 + w + w^2 = 0.
    ROOTS = ["(x1^2)^(1/2) - x1",
             "x1^2 + x1*(x1^3)^(1/3) + (x1^3)^(2/3)",
             "(x1^2*x2)^(1/2) - x1*x2^(1/2)"]

    @pytest.mark.parametrize("text", ROOTS)
    def test_roots_draw_no_modular_point(self, text, monkeypatch):
        e = ex.parse(text, self.NAMES)
        names = sorted(ex.free_symbols(e))
        results = [ex.is_zero(e, seed=seed) for seed in range(40)]
        assert {(r.status, r.method) for r in results} == {(ZeroStatus.NONZERO, "float")}

        def refuse(*args, **kwargs):
            raise AssertionError("a residual with a root drew a modular point")

        monkeypatch.setattr(ex, "Modular", refuse)
        assert ex.modular_jets(ex.Program([e]), names, (), trials=8, seed=0) == (None, 0)

    def test_params_are_bound_exactly_mod_p(self):
        # With a = 2 bound, x1/(a - x2) - x1/(2 - x2) is zero; a modular point
        # reads the parameter's exact value, not a draw.
        names = self.NAMES + ("a",)
        e = ex.parse("x1/(a - x2) - x1/(2 - x2)", names)
        result = ex.is_zero(e, params={"a": 2.0})
        assert (result.status, result.method) == (ZeroStatus.LIKELY_ZERO, "modular")
        assert ex.is_zero(e, params={"a": 3.0}).status is ZeroStatus.NONZERO

    POLYNOMIALS = ["x1^2 - x2^2 + 1/3*x1*x3", "(x1 + x2)^3 - x1^3"]

    @pytest.mark.parametrize("text", POLYNOMIALS)
    def test_polynomials_draw_one_modular_point(self, text):
        # A polynomial that is not the literal 0 is nonzero at its one
        # modular point, and falls to the float samples.
        e = ex.parse(text, self.NAMES)
        names = sorted(ex.free_symbols(e))
        exact, drawn = ex.modular_jets(ex.Program([e]), names, (), trials=64, seed=3)
        assert drawn == 1 and exact[0][0] != 0
        result = ex.is_zero(e, seed=3)
        assert (result.status, result.method, result.trials) == (ZeroStatus.NONZERO, "float", 64)

    def test_same_result_as_floats_alone_on_polynomials(self):
        for text in self.POLYNOMIALS:
            e = ex.parse(text, self.NAMES)
            floats = ex.sample_zero(ex.Program([e]).value, sorted(ex.free_symbols(e)),
                                    box=None, trials=64, tol=1e-9, seed=3)
            result = ex.is_zero(e, seed=3)
            assert (result.status, result.witness, result.witness_value, result.trials) == \
                (floats.status, floats.witness, floats.witness_value, floats.trials)
            assert result.method == "float"


class TestOneVerdictLoop:
    """``is_zero`` is the one item of a ``decide`` call, and ``certify`` calls
    it on each of its residuals."""

    NAMES = ("x1", "x2", "x3", "a")

    @pytest.mark.parametrize("text,params", [
        ("0", None),
        ("x1^2 - x2^2 + 1/3*x1*x3", None),
        (TestModularFirst.QUOTIENT, None),
        ("(x1^2)^(1/2) - x1", None),
        ("x1/(a - x2) - x1/(2 - x2)", {"a": 2.0}),
    ])
    def test_is_zero_is_the_one_item_of_certify(self, text, params):
        e = ex.parse(text, self.NAMES)
        for seed in (0, 5):
            report = ex.certify("one", [("item", e)], None, 64, 1e-9, seed, params=params)
            assert [item.label for item in report.items] == ["item"]
            assert ex.is_zero(e, seed=seed, params=params) == report.items[0].result

    def test_certify_decides_each_residual_on_its_own(self):
        # ``(x1^2)^(1/2) - x1`` is nonzero only where ``sqrt(x1)`` is
        # singular: had the points singular for the first residual been
        # skipped for the second, it would pass.
        rooted = ex.parse("sqrt(x1)^2 - x1", self.NAMES)
        absolute = ex.parse("(x1^2)^(1/2) - x1", self.NAMES)
        report = ex.certify("both", [("rooted", rooted), ("absolute", absolute)],
                            None, 64, 1e-9, 0)
        assert [item.result for item in report.items] == \
            [ex.is_zero(rooted, seed=0), ex.is_zero(absolute, seed=0)]
        assert report.items[1].result.status is ZeroStatus.NONZERO
        assert report.items[1].result.witness["x1"] < 0
        # A root in one residual costs the other none of its modular verdict.
        quotient = ex.parse(TestModularFirst.QUOTIENT, self.NAMES)
        report = ex.certify("both", [("rooted", rooted), ("quotient", quotient)],
                            None, 64, 1e-9, 0)
        assert [item.result.method for item in report.items] == ["float", "modular"]

    def test_a_point_singular_for_one_item_of_decide_is_skipped_for_all(self):
        # The items of one ``decide`` call share one program, so a float
        # point is evaluated once for all of them. sin^2 + cos^2 - 1 is
        # regular everywhere, log(x1^2) - 2*log(x1) only where x1 > 0; both
        # are sampled in floats (their lifts are not 0).
        regular = ex.parse("sin(x1)^2 + cos(x1)^2 - 1", self.NAMES)
        singular = ex.parse("log(x1^2) - 2*log(x1)", self.NAMES)
        rng = random.Random(0)
        spans = ex.Box().spans(["x1"])
        positive = sum(ex.Box.draw(spans, rng)["x1"] > 0 for _ in range(64))
        assert 0 < positive < 64
        alone = ex.is_zero(regular, seed=0)
        assert (alone.status, alone.evaluated) == (ZeroStatus.LIKELY_ZERO, 64)
        assert "evaluated" not in alone.to_dict()  # printed only below trials
        assert ex.certify("both", [("regular", regular)], None, 64, 1e-9, 0) \
            .items[0].result == alone
        report = ex.decide("both", ["regular", "singular"], [False, False],
                           [regular, singular], [], lambda jets, field: [v for v, _ in jets],
                           None, 64, 1e-9, 0)
        for item in report.items:
            assert (item.result.status, item.result.method, item.result.evaluated) == \
                (ZeroStatus.LIKELY_ZERO, "float", positive)
            assert item.result.to_dict()["evaluated"] == positive

    def test_values_are_regular_where_only_a_slope_is_singular(self):
        # With a = 0 bound, sqrt(a) is 0 at every point, while its slope
        # 1/(2*sqrt(a)) is singular there: no jet is needed for a verdict,
        # so no point is skipped for it.
        e = ex.parse("sqrt(a)*x1 - a*x1", self.NAMES)
        result = ex.is_zero(e, params={"a": 0})
        assert (result.status, result.method, result.evaluated) == \
            (ZeroStatus.LIKELY_ZERO, "float", 64)

    def test_evaluated_counts_the_points_not_skipped(self):
        # Only the points with x1 >= 4/5 are regular: trials stays the points
        # asked for, and evaluated says how few there were.
        e = ex.parse("sqrt(x1 - 0.8)^2 - x1 + 0.8", ("x1",))
        rng = random.Random(0)
        spans = ex.Box().spans(["x1"])
        regular = sum(ex.Box.draw(spans, rng)["x1"] >= 0.8 for _ in range(64))
        result = ex.is_zero(e, seed=0)
        assert (result.status, result.trials, result.evaluated) == \
            (ZeroStatus.LIKELY_ZERO, 64, regular)
        assert regular == 9
        payload = result.to_dict()
        assert (payload["trials"], payload["evaluated"]) == (64, 9)


class TestCompile:
    def test_matches_tree_walker(self):
        rng = random.Random(9)
        exprs = [ex.simplify(random_raw_tree(rng, ALPHABET)) for _ in range(10)]
        fn = ex.compile_evaluator(exprs, ALPHABET)
        for _ in range(20):
            values = [rng.uniform(0.2, 0.8) for _ in ALPHABET]
            env = dict(zip(ALPHABET, values))
            try:
                expected = [reference_value(e, env) for e in exprs]
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

    def test_shared_subtrees_match_tree_walker(self):
        # Every component reuses log(x1 - x2); points with x1 <= x2 leave
        # the domain there, and must do so in both evaluators.
        names = ("x1", "x2", "y1")
        exprs = [ex.parse(src, names) for src in (
            "log(x1 - x2)*y1",
            "exp(log(x1 - x2)) + log(x1 - x2)^2",
            "sin(log(x1 - x2)*y1)/(1 + y1^2)",
            "y1 - log(x1 - x2)*y1",
            "x1*x2",
        )]
        fn = ex.compile_evaluator(exprs, names)
        rng = random.Random(4)
        raised = 0
        for _ in range(40):
            values = [rng.uniform(-1.0, 1.0) for _ in names]
            env = dict(zip(names, values))
            try:
                expected = [reference_value(e, env) for e in exprs]
            except DomainError:
                raised += 1
                with pytest.raises(DomainError):
                    fn(values)
                continue
            assert fn(values) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert 0 < raised < 40

    def test_same_float_operations_as_nested_code(self):
        # Shared subtrees are computed once, but every float operation and
        # its operand order stay those of the nested left-to-right code.
        rng = random.Random(21)
        base = [ex.simplify(random_raw_tree(rng, ALPHABET)) for _ in range(6)]
        exprs = base + [ex.emul(a, b) for a, b in zip(base, base[1:])]
        fn = ex.compile_evaluator(exprs, ALPHABET)
        for _ in range(30):
            values = [rng.uniform(0.2, 0.8) for _ in ALPHABET]
            env = dict(zip(ALPHABET, values))
            got = [v.hex() for v in fn(values)]
            assert got == [float(nested_value(e, env)).hex() for e in exprs]

    def test_deep_tree_compiles(self):
        e = ex.Var("x1")
        for _ in range(250):
            e = ex.efunc("sin", e)
        fn = ex.compile_evaluator([e, ex.emul(e, e)], ("x1",))
        value = reference_value(e, {"x1": 0.3})
        assert fn([0.3]) == [value, value ** 2.0]

    def test_deep_single_use_chain_compiles(self):
        # Every sum and product is used once, so each would be written into
        # its consumer; the nesting is capped, and the value is the nested one.
        e, want = ex.Var("x1"), 0.3
        for i in range(2000):
            if i % 2:
                e, want = ex.Add((e, ex.Var("x2"))), want + 0.7
            else:
                e, want = ex.Mul((ex.Var("x2"), e)), 0.7 * want
        assert ex.compile_evaluator([e], ("x1", "x2"))([0.3, 0.7]) == [want]

    @pytest.mark.parametrize("base", [-2.0, Fraction(-2), -0.0])
    def test_negative_constant_base(self, base):
        # ``-2.0 ** 3.0`` would parse as ``-(2.0 ** 3.0)``, and ``-0.0 ** 2.0``
        # as ``-(0.0 ** 2.0)``.
        e = ex.Add((ex.Pow(ex.Const(base), Fraction(3)), ex.Var("x1")))
        f = ex.compile_evaluator([e, ex.Pow(ex.Const(base), Fraction(2))], ("x1",))
        assert [v.hex() for v in f([1.0])] == [(float(base) ** 3.0 + 1.0).hex(),
                                               (float(base) ** 2.0).hex()]
        if base == -2.0:
            assert f([1.0])[0] == -7.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_compiles_to_its_value(self, value):
        e = ex.emul(ex.Const(value), ex.Var("x1"))
        got = ex.compile_evaluator([e, ex.Const(value)], ("x1",))([2.0])
        assert list(map(repr, got)) == [repr(reference_value(e, {"x1": 2.0})), repr(value)]

    def test_unknown_symbol(self):
        exprs = [ex.parse("x1 + x2", ("x1", "x2")), ex.parse("b*a", ("a", "b"))]
        with pytest.raises(UnknownSymbol) as err:
            ex.compile_evaluator(exprs, ("x1", "x2"))
        assert err.value.name == "a"


def _outcome(run):
    """``float.hex`` of a value, or the class of the arithmetic error it
    raised (``math.fsum`` raises ``OverflowError`` and ``ValueError`` too)."""
    try:
        return run().hex()
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__


@st.composite
def trees_and_points(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    tree = random_raw_tree(rng, ALPHABET, depth=draw(st.integers(min_value=1, max_value=5)))
    if draw(st.booleans()):
        try:
            tree = ex.simplify(tree)
        except DomainError:  # a constant 0 to a negative power
            pass
    env = {nm: draw(st.floats(min_value=-2.0, max_value=2.0)) for nm in ALPHABET}
    return tree, env


class TestProgram:
    @settings(max_examples=300, deadline=None)
    @given(trees_and_points())
    def test_runner_matches_reference(self, case):
        # Raw and canonical trees; the runner sums with fsum as the
        # reference does, so every value agrees to the last bit.
        tree, env = case
        want = _outcome(lambda: reference_value(tree, env))
        assert _outcome(lambda: ex.Program([tree]).value(env)) == want
        assert _outcome(lambda: ex.evaluate(tree, env)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(trees_and_points(), min_size=2, max_size=4))
    def test_shared_program_matches_each_output(self, cases):
        # One program over several outputs computes each shared subtree
        # once; every output is still the reference value of its tree.
        trees = [tree for tree, _ in cases]
        trees.append(ex.Mul((trees[0], trees[1])))
        env = cases[0][1]
        want = [_outcome(lambda t=t: reference_value(t, env)) for t in trees]
        # The run raises the error of the first tree that raises.
        error = next((w for w in want if w.endswith("Error")), None)
        try:
            got = [v.hex() for v in ex.Program(trees).run(env)]
        except (ArithmeticError, ValueError) as err:
            got = type(err).__name__
        assert got == (want if error is None else error)


#: (source, point, message) of each domain guard, and two sums where the
#: first guard in evaluation order raises although a later one would too.
GUARD_CASES = [
    ("1/(x1 - 1)", {"x1": 1.0}, "division by zero"),
    ("x1^400", {"x1": 10.0}, "overflow in power"),
    ("x1^-2", {"x1": 0.0}, "0 raised to a negative power"),
    ("exp(x1)", {"x1": 1000.0}, "overflow in exp"),
    ("sqrt(x1)", {"x1": -1.0}, "square root of a negative value"),
    ("log(x1)", {"x1": 0.0}, "log of a non-positive value"),
    ("x1^(1/2)", {"x1": -1.0}, "negative base with fractional exponent"),
    ("exp(x1) + 1/x2", {"x1": 1000.0, "x2": 0.0}, "overflow in exp"),
    ("x1^300 + 1/x2", {"x1": 100.0, "x2": 0.0}, "overflow in power"),
]


@pytest.mark.parametrize("src,env,message", GUARD_CASES, ids=[c[0] for c in GUARD_CASES])
def test_compiled_domain_errors_match_program(src, env, message):
    names = ("x1", "x2")
    e = ex.parse(src, names)
    with pytest.raises(DomainError) as interpreted:
        ex.Program([e]).run(env)
    with pytest.raises(DomainError) as compiled:
        ex.compile_evaluator([e], names)([env.get(nm, 0.5) for nm in names])
    assert str(compiled.value) == str(interpreted.value) == message


def _division_power_trees():
    """Raw trees of sums, products, quotients and integer powers (negative,
    huge and of negative constants among them), over ``ALPHABET``."""
    leaves = st.one_of(
        st.sampled_from([ex.Var(nm) for nm in ALPHABET]),
        st.integers(min_value=-3, max_value=3).map(lambda k: ex.Const(Fraction(k))),
        st.floats(min_value=-4.0, max_value=4.0).map(ex.Const))
    exponents = st.one_of(st.integers(min_value=-3, max_value=4), st.sampled_from([300, 400]))

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ts: ex.Add(tuple(ts))),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: ex.Mul(tuple(fs))),
            st.tuples(children, children).map(lambda nd: ex.Div(*nd)),
            st.tuples(children, exponents).map(lambda be: ex.Pow(be[0], Fraction(be[1]))))
    return st.recursive(leaves, extend, max_leaves=12)


def _nested_outcome(e, env):
    """``float.hex`` of the nested value, or ``"raises"`` where the nested
    code raises: dividing by zero, 0 to a negative power, an overflowing
    power."""
    try:
        return float(nested_value(e, env)).hex()
    except ArithmeticError:
        return "raises"


@settings(max_examples=300, deadline=None)
@given(st.lists(_division_power_trees(), min_size=1, max_size=3),
       st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e-200, 1e200]),
                min_size=len(ALPHABET), max_size=len(ALPHABET)))
def test_compiled_division_and_powers_match_nested_code(trees, values):
    # One evaluator over all trees raises where the first raising tree does.
    env = dict(zip(ALPHABET, values))
    want = [_nested_outcome(e, env) for e in trees]
    try:
        got = [v.hex() for v in ex.compile_evaluator(trees, ALPHABET)(values)]
    except DomainError:
        got = "raises"
    assert got == ("raises" if "raises" in want else want)


@pytest.mark.parametrize("build,same", [
    (lambda: (ex.Mul((_x1_var, ex.Var("y1"))), ex.emul(_x1_var, ex.Var("y1"))), True),
    (lambda: (ex.Func("sin", ex.Add((ex.ONE, _x1_var))),
              ex.parse("sin(x1 + 1)", ALPHABET)), True),
    (lambda: (ex.Const(Fraction(4, 2)), ex.Const(2)), True),
    (lambda: (ex.Pow(_x1_var, Fraction(-2, 4)), ex.epow(_x1_var, Fraction(-1, 2))), True),
    (lambda: (ex.Const(2), ex.Const(2.0)), False),
    (lambda: (ex.Const(0.0), ex.Const(-0.0)), False),
    (lambda: (ex.Mul((ex.Const(2.0), _x1_var)), ex.Mul((ex.Const(2), _x1_var))), False),
], ids=["raw-and-constructed", "raw-and-parsed", "fraction-and-int", "exponent-forms",
        "int-and-float", "signed-zeros", "float-coefficient"])
def test_equal_structures_are_one_node(build, same):
    # Nodes are interned: a structure alive already is returned, not built
    # again, so equality is identity, and numbers of another type or sign are
    # other structures.
    a, b = build()
    assert (a is b) == same and (a == b) == same


@pytest.mark.parametrize("build", [
    lambda: ex.Const(3), lambda: ex.Const(Fraction(-2, 7)), lambda: ex.Const(2.5),
    lambda: ex.Const(-0.0), lambda: ex.Const(math.inf), lambda: ex.Var("x1"),
    lambda: ex.parse("sin(x1 + 1)", ALPHABET), lambda: ex.parse("x1^3", ALPHABET),
    lambda: ex.parse("x1^(3/2)", ALPHABET), lambda: ex.parse("x1/(1 + y1)", ALPHABET),
    lambda: ex.parse("2*x1*y2", ALPHABET), lambda: ex.parse("x1 + exp(y1)*x2", ALPHABET),
], ids=["int", "fraction", "float", "negative-zero", "inf", "var", "func", "pow",
        "fractional-pow", "div", "mul", "add"])
def test_copies_and_pickles_are_the_interned_node(build):
    e = build()
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps([e, e])) == [e, e]


def test_signed_zero_constants_keep_their_own_slots():
    # -0.0 == 0, but a program sharing one slot for both computed -0.0 + 0
    # and 0*x1 as -0.0, where the nested code gives 0.0.
    x1 = ex.Var("x1")
    trees = [ex.Add((ex.Const(-0.0), ex.Const(Fraction(0)))),
             ex.Mul((ex.Const(-0.0), x1)), ex.Mul((ex.ZERO, x1))]
    values = [1.0] * len(ALPHABET)
    want = [_nested_outcome(e, dict(zip(ALPHABET, values))) for e in trees]
    assert want == ["0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]
    assert [v.hex() for v in ex.compile_evaluator(trees, ALPHABET)(values)] == want


def _floated(e, rng):
    """``e`` rebuilt raw with about half its constants turned into floats, so
    a constant of ``e`` and its float twin are ``==`` where the float is exact."""
    if isinstance(e, ex.Const):
        return ex.Const(float(e.value)) if rng.random() < 0.5 else e
    if isinstance(e, ex.Var):
        return e
    if isinstance(e, ex.Func):
        return ex.Func(e.name, _floated(e.arg, rng))
    if isinstance(e, ex.Pow):
        return ex.Pow(_floated(e.base, rng), e.exponent)
    if isinstance(e, ex.Div):
        return ex.Div(_floated(e.num, rng), _floated(e.den, rng))
    return type(e)(tuple(_floated(c, rng) for c in e._children()))


@st.composite
def shared_trees(draw):
    """A raw sum whose parts share subtrees: the same object, an equal object
    built apart, and an equal-looking one with float constants."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    depth = draw(st.integers(min_value=1, max_value=4))
    a, b = (random_raw_tree(rng, ALPHABET, depth=depth) for _ in range(2))
    if draw(st.booleans()):
        try:
            a, b = ex.simplify(a), ex.simplify(b)
        except DomainError:  # a constant 0 to a negative power
            pass
    copy = ex.Add(a.terms) if isinstance(a, ex.Add) else ex.Mul((ex.ONE, a))
    twin = _floated(a, rng)
    parts = [a, copy, twin, ex.Mul((twin, b)), ex.Mul((b, a)), ex.Func("sin", a),
             ex.Func("sin", twin), ex.Div(b, ex.Add((ex.Const(2), ex.Pow(a, Fraction(2)))))]
    rng.shuffle(parts)
    return ex.Add(tuple(parts[:draw(st.integers(min_value=2, max_value=len(parts)))]))


def _rebuilt(run):
    """Text and constant types of a rebuilt tree, or the class of its error."""
    try:
        e = run()
    except DomainError as err:
        return type(err).__name__
    return ex.to_text(e), constant_types(e)


SUBSTITUTIONS = [{}, {"x1": ex.Const(0.5)}, {"x1": 2.0, "y1": ex.Const(Fraction(2))},
                 {"x2": ex.parse("y1 + 2*y2", ALPHABET)}]


class TestMemoizedWalkers:
    """``subs``, ``simplify`` and ``diff`` rebuild each distinct subtree once
    per call; the result is the plain recursive walk's, constant types too."""

    @settings(max_examples=200, deadline=None)
    @given(shared_trees(), st.sampled_from(ALPHABET), st.sampled_from(SUBSTITUTIONS))
    def test_match_reference_walkers(self, tree, name, mapping):
        assert _rebuilt(lambda: ex.simplify(tree)) == _rebuilt(lambda: reference_subs(tree, {}))
        assert _rebuilt(lambda: ex.subs(tree, mapping)) == _rebuilt(
            lambda: reference_subs(tree, mapping))
        assert _rebuilt(lambda: ex.diff(tree, name)) == _rebuilt(
            lambda: reference_diff(tree, name))

    def test_deep_tree_rebuilds_without_recursion(self):
        # Subtrees are rebuilt children first on an explicit stack, so the
        # depth of a tree is not bounded by the interpreter's recursion limit.
        e = ex.Var("x1")
        for _ in range(3000):
            e = ex.efunc("sin", ex.eadd(e, ex.Var("x2")))
        env = {"x1": 0.1, "x2": 0.2}
        want = ex.evaluate(e, env)
        assert ex.evaluate(ex.simplify(e), env) == want
        assert ex.evaluate(ex.subs(e, {"x2": ex.Const(0.2)}), env) == want

    def test_deep_equal_trees_share_one_program_slot(self):
        # Building the same tree twice gives one object, so the program's
        # slot lookup never compares two deep trees level by level.
        e = ex.Var("x1")
        for _ in range(3000):
            e = ex.efunc("sin", ex.eadd(e, ex.Var("x2")))
        program = ex.Program([e, ex.simplify(e)])
        assert program.outputs[0] == program.outputs[1]
        # The printer walks an explicit stack, so the chain prints.
        text = ex.to_text(e)
        assert text.startswith("sin(x2 + sin(x2 + ") and text.endswith("x1 + x2" + ")" * 3000)
        assert text.count("sin(") == 3000

    def test_free_symbols_visits_shared_subtrees_once(self):
        # Each level uses the one below twice, so a walk that does not skip
        # seen nodes takes 2^60 steps; run it with a timeout.
        import subprocess
        import sys

        code = ("from semispray import expr as ex, homotopy as ho\n"
                "e = ex.Var('x1')\n"
                "for _ in range(60):\n"
                "    e = ex.efunc('sin', ex.eadd(e, ex.efunc('cos', e)))\n"
                "assert ex.free_symbols(e) == {'x1'} and not ho.is_fiber_integral(e)\n")
        src = str(pathlib.Path(ex.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr

    def test_float_constant_stays_apart_from_equal_rational(self):
        # 2.0 == 2 and both hash alike: a memo keyed on the values would
        # hand one subtree's result to the other.
        x1 = ex.Var("x1")
        e = ex.eadd(ex.efunc("sin", ex.emul(ex.Const(2.0), x1)),
                    ex.efunc("cos", ex.emul(ex.Const(2), x1)))
        assert ex.to_text(ex.simplify(e)) == "cos(2*x1) + sin(2.0*x1)"
        u = ex.efunc("exp", x1)
        f = ex.eadd(ex.efunc("sin", ex.emul(ex.Const(2.0), u)),
                    ex.efunc("cos", ex.emul(ex.Const(2), u)))
        got = ex.diff(f, "x1")
        assert _rebuilt(lambda: got) == _rebuilt(lambda: reference_diff(f, "x1"))
        assert ex.to_text(got) == "-2*exp(x1)*sin(2*exp(x1)) + 2.0*cos(2.0*exp(x1))*exp(x1)"


def _closure_eadd(*args):
    """The former ``eadd``, which flattened with a recursive closure and
    rebuilt every term from its coefficient and core: the reference for the
    canonical form of the stack-based one.  A merged quotient takes its
    coefficient into its numerator and may then be another term's core, so
    the sum is merged again until every core is distinct."""
    const = Fraction(0)
    buckets = {}
    order = []

    def absorb(e):
        nonlocal const
        if isinstance(e, ex.Add):
            for t in e.terms:
                absorb(t)
        elif isinstance(e, ex.Const):
            const = const + e.value
        else:
            coeff, core = ex._split_coeff(e)
            if core in buckets:
                buckets[core] = buckets[core] + coeff
            else:
                buckets[core] = coeff
                order.append(core)

    for a in args:
        absorb(a)
    terms = [ex._with_coeff(buckets[core], core) for core in order if buckets[core] != 0]
    if len({ex._split_coeff(t)[1] for t in terms}) < len(terms):
        return _closure_eadd(ex.Const(const), *terms)
    terms.sort(key=ex.Expr.sort_key)
    if const != 0:
        terms.insert(0, ex.Const(const))
    if not terms:
        return ex.ZERO
    return terms[0] if len(terms) == 1 else ex.Add(tuple(terms))


def _closure_emul(*args):
    """The former ``emul``, which flattened with a recursive closure."""
    const = Fraction(1)
    plain, dens = [], []

    def absorb(e):
        nonlocal const
        if isinstance(e, ex.Mul):
            for f in e.factors:
                absorb(f)
        elif isinstance(e, ex.Const):
            const = const * e.value
        elif isinstance(e, ex.Div):
            absorb(e.num)
            dens.append(e.den)
        else:
            plain.append(e)

    for a in args:
        absorb(a)
    if const == 0:
        return ex.ZERO
    if dens:
        return ex.ediv(ex._mul_plain(const, plain), ex._mul_plain(Fraction(1), dens))
    return ex._mul_plain(const, plain)


FLOAT_COEFFS = [0.1, 0.2, 0.3, 2.0, -0.5, 1.0 / 3.0, 1e-3]


@st.composite
def canonical_operands(draw):
    """Operands of ``eadd`` (``kind == "add"``) or ``emul``: canonical terms
    over a few shared cores, each core beside its float twin (``Const(2.0)``
    beside ``Const(2)``), products of several float and rational
    coefficients, and raw sums (products and quotients for ``emul``) nesting
    them, whose flattening order decides how float coefficients round."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    kind = draw(st.sampled_from(["add", "mul"]))
    cores = [ex.Var("x1")]
    for _ in range(rng.randint(1, 3)):
        raw = random_raw_tree(rng, ALPHABET, depth=rng.randint(1, 3))
        try:
            cores += [ex.simplify(raw), ex.simplify(_floated(raw, rng))]
        except DomainError:  # a constant 0 to a negative power
            pass

    def coeff():
        return ex.Const(rng.choice(FLOAT_COEFFS) if rng.random() < 0.6 else rng.choice(COEFFS))

    def operand(depth):
        pick = rng.randrange(5 if depth else 3)
        if pick == 0:
            return coeff()
        if pick == 1:
            return rng.choice(cores)
        if pick == 2:
            return ex.emul(*(coeff() for _ in range(rng.randint(1, 3))), rng.choice(cores))
        parts = tuple(operand(depth - 1) for _ in range(rng.randint(2, 3)))
        if kind == "add":
            return ex.Add(parts)
        if pick == 3:
            return ex.Mul(parts)
        # Nested quotients: their constant denominators fold by multiplication
        # in flattening order, innermost first.
        quotient = ex.Mul(parts)
        for _ in range(rng.randint(1, 3)):
            quotient = ex.Div(quotient, coeff() if rng.random() < 0.7 else operand(depth - 1))
        return quotient

    return kind, [operand(2) for _ in range(rng.randint(1, 5))]


def _canonical_form(run):
    """Sort key and text of a canonical result, or the class of its error."""
    try:
        e = run()
    except DomainError as err:
        return type(err).__name__
    return e.sort_key(), ex.to_text(e)


@settings(max_examples=200, deadline=None)
@given(canonical_operands())
def test_stack_constructors_match_closure_reference(case):
    kind, args = case
    new, old = (ex.eadd, _closure_eadd) if kind == "add" else (ex.emul, _closure_emul)
    assert _canonical_form(lambda: new(*args)) == _canonical_form(lambda: old(*args))


def _per_pair_mul_plain(const, plain):
    """``_mul_plain`` as it was before products of monomial sums were
    expanded on exponent maps: every pair of terms goes through ``emul`` and
    ``eadd`` collects the products.  The reference for the expansion."""
    powers = {}
    order = []
    adds = []
    for f in plain:
        if isinstance(f, ex.Add):
            adds.append(f)
            continue
        base = ex._power_base(f)
        exp = 1 if base is f else f.exponent
        if base in powers:
            powers[base] = powers[base] + exp
        else:
            powers[base] = exp
            order.append(base)
    factors, refolded = [], []
    for base in order:
        merged = base if powers[base] == 1 else ex.epow(base, powers[base])
        if isinstance(merged, ex.Const):
            const = const * merged.value
            if const == 0:
                return ex.ZERO
        elif isinstance(merged, ex.Add):
            adds.append(merged)
        elif isinstance(merged, (ex.Mul, ex.Div)) or ex._power_base(merged) != base:
            refolded.append(merged)
        else:
            factors.append(merged)
    if refolded:
        return ex.emul(ex.Const(const), *factors, *adds, *refolded)
    if adds and ex._expansion_size(factors + adds) <= ex.EXPAND_TERM_CAP:
        partial = [ex._with_coeff(const, factors[0] if len(factors) == 1
                                  else ex.Mul(tuple(sorted(factors, key=ex.Expr.sort_key))))
                   if factors else ex.Const(const)]
        for a in adds:
            partial = [ex.emul(p, t) for p in partial for t in a.terms]
        return ex.eadd(*partial)
    if adds:
        counts = {}
        for a in adds:
            counts[a] = counts.get(a, 0) + 1
        factors += [ex.epow(a, count) for a, count in counts.items()]
    factors.sort(key=ex.Expr.sort_key)
    if not factors:
        return ex.Const(const)
    if const == 1:
        return factors[0] if len(factors) == 1 else ex.Mul(tuple(factors))
    return ex.Mul((ex.Const(const),) + tuple(factors))


def _per_pair(build):
    """``build()`` with every product of sums distributed pair by pair."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex, "_mul_plain", _per_pair_mul_plain)
        return build()


#: Coefficients of the drawn monomials: ints, rationals and floats, ``1.0``
#: among them, and a float whose square underflows to 0.
EXPANSION_COEFFS = [1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), 1.0, -1.0, 0.5, 0.1, 3.0,
                    1e-200]
#: Exponents that cancel to 0 against each other: negative and fractional.
EXPANSION_EXPONENTS = [1, 1, 2, -1, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
_x1_var, _y1_var, _y2_var = ex.Var("x1"), ex.Var("y1"), ex.Var("y2")
EXPANSION_BASES = [_x1_var, _y1_var, _y2_var, ex.efunc("exp", _x1_var),
                   ex.efunc("sin", ex.emul(ex.Const(2), _y1_var))]


@st.composite
def products_of_sums(draw):
    """The operands of a product of 1-3 sums of monomials, with constant
    terms, now and then a quotient term (which the exponent maps cannot
    hold) and a monomial or non-monomial factor beside the sums."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))

    def monomial():
        bases = rng.sample(EXPANSION_BASES, rng.randint(0, 3))
        return ex.emul(ex.Const(rng.choice(EXPANSION_COEFFS)),
                       *(ex.epow(b, rng.choice(EXPANSION_EXPONENTS)) for b in bases))

    def term():
        if rng.random() < 0.05:
            return ex.ediv(monomial(), ex.eadd(ex.ONE, ex.epow(ex.Var("x2"), 2)))
        return monomial()

    operands = [ex.eadd(*(term() for _ in range(rng.randint(2, 4))))
                for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        operands.append(monomial())
    if rng.random() < 0.1:
        operands.append(ex.epow(ex.eadd(ex.ONE, _x1_var), Fraction(1, 2)))
    rng.shuffle(operands)
    return operands


@settings(max_examples=300, deadline=None)
@given(products_of_sums())
def test_exponent_map_expansion_matches_per_pair_reference(operands):
    # The sort key tells Const(2) from Const(2.0) at every position.
    want = _canonical_form(lambda: _per_pair(lambda: ex.emul(*operands)))
    assert _canonical_form(lambda: ex.emul(*operands)) == want


_exp_x1 = ex.efunc("exp", _x1_var)


def _inverses(*bases):
    return ex.eadd(*(ex.epow(b, -1) for b in bases))


@pytest.mark.parametrize("operands,want", [
    # 1e-200^2 underflows: the product is dropped, not summed as 0.0 into
    # the int coefficient of x1 or into the int constant.
    ([ex.eadd(ex.emul(ex.Const(1e-200), _x1_var), ex.Const(2)),
      ex.eadd(ex.Const(1e-200), _x1_var)], "2e-200 + 1e-200*x1^2 + 2*x1"),
    ([ex.eadd(ex.Const(1e-200), _x1_var), ex.eadd(ex.Const(1e-200), ex.epow(_x1_var, -1))],
     "1 + 1e-200*x1 + 1e-200*x1^(-1)"),
    # Like terms sum in product order: (0.1 + 0.2) + 0.3, not 0.3 + 0.2 + 0.1.
    ([_y2_var, ex.eadd(ex.emul(ex.Const(0.1), _x1_var), ex.emul(ex.Const(0.2), _y1_var),
                       ex.emul(ex.Const(0.3), _exp_x1)), _inverses(_x1_var, _y1_var, _exp_x1)],
     None),
], ids=["underflow-beside-int", "underflow-beside-int-constant", "float-sum-order"])
def test_expansion_keeps_per_pair_coefficients(operands, want):
    got = ex.emul(*operands)
    assert got.sort_key() == _per_pair(lambda: ex.emul(*operands)).sort_key()
    if want is not None:
        assert ex.to_text(got) == want
    else:
        assert got.terms[0] == ex.emul(ex.Const(0.1 + 0.2 + 0.3), _y2_var)


def test_expansion_at_the_term_cap_matches_per_pair_reference():
    a, b = _sum_of_powers("x1", 64), _sum_of_powers("y2", 64)
    assert ex._expansion_size([a, b]) == ex.EXPAND_TERM_CAP
    got = ex.emul(ex.Const(0.5), a, b)
    assert len(got.terms) == ex.EXPAND_TERM_CAP
    assert got.sort_key() == _per_pair(lambda: ex.emul(ex.Const(0.5), a, b)).sort_key()
    # Like terms collect: x1^2 .. x1^128.
    got = ex.emul(a, a)
    assert len(got.terms) == 127
    assert got.sort_key() == _per_pair(lambda: ex.emul(a, a)).sort_key()


def test_expansion_above_the_term_cap_groups_into_powers():
    c = _sum_of_powers("x1", 65)
    got = ex.emul(_y1_var, c, c)
    assert got.sort_key() == ex.Mul((_y1_var, ex.Pow(c, 2))).sort_key()
    assert got.sort_key() == _per_pair(lambda: ex.emul(_y1_var, c, c)).sort_key()


def test_lone_denominator_is_kept_as_built():
    # A canonical denominator is its own product: it is not expanded again.
    d = ex.eadd(ex.ONE, ex.epow(_x1_var, 2), ex.emul(ex.Const(2.0), _y1_var))
    got = ex.emul(_y2_var, ex.ediv(ex.Var("x2"), d))
    assert isinstance(got, ex.Div) and got.den is d
    assert got.sort_key() == ex.Div(ex.emul(ex.Var("x2"), _y2_var), d).sort_key()


def _general(build):
    """``build()`` with no constant times a sum rescaled: every product takes
    the general path of ``emul``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex, "_rescaled", lambda c, e: None)
        return build()


#: Factors of the rescaled operands: ints, rationals and floats, with both
#: zeros, 1.0, and magnitudes whose products overflow or underflow.
RESCALE_FACTORS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), 0.0, -0.0, 1.0, -1.0, 0.5,
                   0.1, 3.0, 1e200, -1e200, 1e-200]


@st.composite
def rescaled_operands(draw):
    """A factor and a constant, a monomial or a sum, whose terms are now and
    then a quotient, a root of a sum, a function of a sum or a product of
    monomials, with float, rational and int coefficients."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    coeffs = EXPANSION_COEFFS + [0.25, -2.5, 1e200, Fraction(3, 7)]

    def monomial():
        bases = rng.sample(EXPANSION_BASES, rng.randint(0, 3))
        return ex.emul(ex.Const(rng.choice(coeffs)),
                       *(ex.epow(b, rng.choice(EXPANSION_EXPONENTS)) for b in bases))

    def term():
        pick = rng.random()
        if pick < 0.1:
            return ex.ediv(monomial(), ex.eadd(ex.ONE, ex.epow(ex.Var("x2"), 2)))
        if pick < 0.2:
            return ex.emul(monomial(), ex.epow(ex.eadd(ex.ONE, _x1_var), Fraction(1, 2)))
        if pick < 0.3:
            return ex.emul(monomial(), ex.efunc("exp", ex.eadd(_y1_var, monomial())))
        return monomial()

    e = monomial() if rng.random() < 0.3 else ex.eadd(*(term() for _ in range(rng.randint(2, 5))))
    return draw(st.sampled_from(RESCALE_FACTORS)), e


@settings(max_examples=400, deadline=None)
@given(rescaled_operands())
def test_rescaling_builds_the_node_of_the_general_path(case):
    c, e = case
    assert ex.emul(ex.Const(c), e) is _general(lambda: ex.emul(ex.Const(c), e))
    assert ex.emul(e, ex.Const(c)) is _general(lambda: ex.emul(e, ex.Const(c)))
    assert ex.eneg(e) is _general(lambda: ex.eneg(e))


@pytest.mark.parametrize("build", [
    lambda: ex.emul(ex.Const(-0.0), ex.eadd(_x1_var, ex.Const(float("inf")))),
    lambda: ex.emul(ex.Const(1e-200), ex.eadd(ex.emul(ex.Const(1e-200), _x1_var), _y1_var)),
    lambda: ex.emul(ex.Const(2), ex.Mul((_y1_var, _x1_var))),  # a raw product, unsorted
    lambda: ex.emul(ex.Const(2), ex.Mul((_x1_var, ex.Pow(_x1_var, 2)))),  # one base twice
    lambda: ex.emul(ex.ONE, ex.Mul((_x1_var, _x1_var))),
    lambda: ex.emul(ex.ONE, ex.Div(ex.Mul((_x1_var, ex.Const(2))), ex.Const(4))),
], ids=["zero-times-inf", "underflow", "raw-unsorted", "raw-same-base", "raw-one",
        "raw-quotient"])
def test_rescaling_edge_cases_take_the_general_node(build):
    assert build() is _general(build)


def test_zero_products_are_the_int_zero():
    # The general path maps a zero product to the int 0, so 1 * 0.0 is not 0.0.
    for zero in (0.0, -0.0):
        assert ex.emul(ex.ONE, ex.Const(zero)) is ex.ZERO is _general(
            lambda: ex.emul(ex.ONE, ex.Const(zero)))


def test_rescaling_above_the_term_cap_keeps_the_sum_whole(monkeypatch):
    e = _sum_of_powers("x1", 5)
    monkeypatch.setattr(ex, "EXPAND_TERM_CAP", 4)
    assert ex.emul(ex.Const(2), e) is ex.Mul((ex.Const(2), e))
    assert ex.emul(ex.ONE, e) is e


def test_negating_a_monomial_sum_expands_nothing(monkeypatch):
    e = ex.parse("3 + x1 - 2.5*x1*y1^2 + exp(x2)^(1/2)/4", ALPHABET)
    calls = []
    expand = ex._expand_monomials
    monkeypatch.setattr(ex, "_expand_monomials", lambda *a: calls.append(a) or expand(*a))
    assert ex.to_text(ex.eneg(e)) == "-3 - x1 - 1/4*exp(x2)^(1/2) + 5/2*x1*y1^2"
    assert ex.emul(ex.ONE, e) is e
    assert calls == []


def test_diff_by_an_absent_name_visits_no_node(monkeypatch):
    e = ex.parse("sin(x1*x2)^2/(1 + x2^2) + exp(x1)", ALPHABET)
    ex.free_symbols(e)
    steps = []
    step = ex._diff
    monkeypatch.setattr(ex, "_diff", lambda *a: steps.append(a[0]) or step(*a))
    assert ex.diff(e, "y1") is ex.ZERO
    assert steps == []
    # Along x1, the subtrees that read only x2 are not visited either.
    assert ex.diff(e, "x1") is reference_diff(e, "x1")
    assert ex.parse("1 + x2^2", ALPHABET) not in steps and ex.Var("x2") not in steps


def test_a_chain_factor_of_one_is_rescaled(monkeypatch):
    # The power rule's chain factor dy1/dy1 = 1 and the product rule's
    # dx1/dx1 = 1 are dropped, so each product is a constant times a
    # monomial: rescaled, with no general product.
    power, product, want = (ex.parse(t, ALPHABET) for t in ("1/2*y1^2", "3*x1*y1", "3*y1"))
    calls = []
    mul_plain = ex._mul_plain
    monkeypatch.setattr(ex, "_mul_plain", lambda *a: calls.append(a) or mul_plain(*a))
    assert ex.diff(power, "y1") is ex.Var("y1")
    assert ex.diff(product, "x1") is want
    assert calls == []


def test_free_names_are_held_on_the_node(monkeypatch):
    e = ex.parse("sin(x1*x2)^2/(1 + x2^2) + exp(y1)", ALPHABET)
    assert ex.free_symbols(e) == {"x1", "x2", "y1"}
    # The sets are shared: a variable's, the constants' one empty set, and
    # a child's where the union adds nothing.
    assert ex.free_symbols(ex.parse("1 + x2^2", ALPHABET)) is ex.free_symbols(_x2)
    assert ex.free_symbols(ex.Const(2)) is ex.free_symbols(ex.Const(0.5))
    for walk in ("_memoized", "distinct_nodes"):
        monkeypatch.setattr(ex, walk, None)  # a second call walks nothing
    assert ex.free_symbols(e) == {"x1", "x2", "y1"}


@settings(max_examples=300, deadline=None)
@given(shared_trees(), st.sampled_from(ALPHABET + ("w",)))
def test_diff_and_free_names_match_a_fresh_walk(tree, name):
    try:
        want = reference_diff(tree, name)
    except DomainError as err:
        want = type(err)
    try:
        got = ex.diff(tree, name)
    except DomainError as err:
        got = type(err)
    assert got is want
    nodes = reference_nodes(tree)
    assert ex.free_symbols(tree) == {node.name for node in nodes if isinstance(node, ex.Var)}
    assert all(ex.free_symbols(node) == {n.name for n in reference_nodes(node)
                                         if isinstance(n, ex.Var)}
               for node in nodes)


#: Nodes the program build and the printer treat apart: signed zeros,
#: non-finite floats (no text), a rational beyond float range (no float) and
#: roots.
EDGE_NODES = [ex.Const(-0.0), ex.Const(0.0), ex.Const(math.inf), ex.Const(math.nan),
              ex.Const(Fraction(10 ** 400, 3)), ex.Pow(ex.Var("x1"), Fraction(1, 2)),
              ex.Pow(ex.Add((ex.Const(2), ex.Var("y1"))), Fraction(-3, 2))]


@st.composite
def walker_roots(draw):
    """Roots that share subtrees: the parts of a shared tree, the tree
    itself, edge nodes and products of edge nodes with parts, in any order."""
    tree = draw(shared_trees())
    parts = list(tree.terms) + [tree]
    for edge in draw(st.lists(st.sampled_from(EDGE_NODES), max_size=3)):
        parts.append(draw(st.sampled_from([edge, ex.Mul((edge, draw(st.sampled_from(parts))))])))
    roots = draw(st.permutations(parts))
    return roots[:draw(st.integers(min_value=1, max_value=len(roots)))]


def _build(program, roots):
    """What ``program(roots)`` holds, floats by their bits, or its error."""
    try:
        p = program(roots)
    except DomainError as err:
        return str(err)
    return (p.size, p.reads, p.ops, [c.hex() for c in p.consts],
            [(type(v), str(v)) for v in p.exact], p.nodes, p.outputs)


def _text(printer, e):
    try:
        return printer(e)
    except DomainError as err:
        return f"DomainError: {err}"


@settings(max_examples=300, deadline=None)
@given(walker_roots())
def test_walker_builds_match_the_stack_references(roots):
    # The program, the evaluator source and the text built through
    # ``_memoized`` are those of the explicit-stack references.
    want = _build(ReferenceProgram, roots)
    assert _build(ex.Program, roots) == want
    if not isinstance(want, str):
        assert compiled_source(roots, ALPHABET) == compiled_source(roots, ALPHABET,
                                                                   ReferenceProgram)
    for e in roots:
        assert _text(ex.to_text, e) == _text(reference_to_text, e)
    nodes = ex.distinct_nodes(*roots)
    assert len(set(nodes)) == len(nodes)
    assert set(nodes) == set().union(*map(reference_nodes, roots))
    position = {node: k for k, node in enumerate(nodes)}
    assert all(position[c] < position[node] for node in nodes
               for c in node._children())


def test_program_printer_and_node_list_take_the_one_walker(monkeypatch):
    x1 = ex.Var("x1")
    e = ex.parse("2*x1*sin(x2)", ALPHABET)
    assert isinstance(e, ex.Mul)
    walks = []
    walk = ex._memoized
    monkeypatch.setattr(ex, "_memoized",
                        lambda step, roots, *rest: walks.append(roots) or walk(step, roots, *rest))
    assert ex.to_text(e) == "2*x1*sin(x2)"
    assert ex.Program([e, x1]).outputs == [3, 0]
    assert ex.distinct_nodes(e, x1)[-1] is e
    assert walks == [(e,), [e, x1], (e, x1)]
    for fn in (ex.Program.__init__, ex.to_text, ex.distinct_nodes):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.While) for node in ast.walk(tree)), fn


def test_cancelling_powers_of_a_raw_term_leave_no_base():
    # y1 * (-x1) * y1^-1 is a raw term whose y1 powers cancel: its exponent
    # map holds no y1, so the monomial expansion and diff through it work.
    x1, y1, y2 = ex.Var("x1"), ex.Var("y1"), ex.Var("y2")
    term = ex.Mul((y1, ex.Mul((ex.MINUS_ONE, x1)), ex.Pow(y1, -1)))
    assert ex._factor_map(term) == (-1, {x1: 1})
    raw = ex.Add((y2, term))
    assert ex.emul(raw, ex.Const(3)) is ex.emul(ex.simplify(raw), ex.Const(3))
    product = ex.Mul((ex.Const(3), raw, x1))
    assert ex.diff(product, "x1") is ex.diff(ex.simplify(product), "x1")


def test_parser_keeps_a_frozenset_alphabet():
    names = frozenset(ALPHABET)
    assert ex._Parser("x1", names).alphabet is names
    assert ex.parse("12*x1 + 007", names) is ex.eadd(ex.Const(7), ex.emul(ex.Const(12), _x1_var))
    assert type(ex.parse("12", names).value) is int


@st.composite
def canonical_pairs(draw):
    """Two constructor outputs, with float and rational constants and
    fractional powers, and a variable name."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))

    def tree():
        while True:
            raw = random_raw_tree(rng, ALPHABET, depth=rng.randint(1, 3))
            if rng.random() < 0.5:
                raw = _floated(raw, rng)
            if rng.random() < 0.3:
                raw = ex.Pow(raw, Fraction(1, 2))
            try:
                return ex.simplify(raw)
            except DomainError:  # a constant 0 to a negative power
                pass

    return tree(), tree(), rng.choice(ALPHABET)


#: Every constructor, and the walkers built on them, on canonical operands.
CONSTRUCTORS = {
    "eadd": lambda a, b, v: ex.eadd(a, b),
    "emul": lambda a, b, v: ex.emul(a, b),
    "emul3": lambda a, b, v: ex.emul(a, b, a),  # a fractional power may square up
    "ediv": lambda a, b, v: ex.ediv(a, b),
    "eneg": lambda a, b, v: ex.eneg(a),
    **{f"epow{n}": lambda a, b, v, n=n: ex.epow(a, n) for n in (-1, 2, 3, Fraction(1, 2))},
    **{f"efunc_{f}": lambda a, b, v, f=f: ex.efunc(f, a) for f in ex.FUNCTIONS},
    "diff": lambda a, b, v: ex.diff(a, v),
    "subs": lambda a, b, v: ex.subs(a, {v: b}),
}


def _is_fixed_point(e):
    return ex.simplify(e).sort_key() == e.sort_key()


@settings(max_examples=300, deadline=None)
@given(canonical_pairs())
def test_constructor_outputs_are_fixed_points_of_simplify(case):
    # Callers rely on it: no module outside ``expr`` re-canonicalizes a tree.
    a, b, v = case
    not_fixed = []
    for name, build in CONSTRUCTORS.items():
        try:
            out = build(a, b, v)
        except DomainError:  # a division by 0 or a root of a negative constant
            continue
        if not _is_fixed_point(out):
            not_fixed.append(name)
    assert not_fixed == []
    assert ex.eadd(a, a).sort_key() == ex.emul(ex.Const(2), a).sort_key()


def _numbers(e):
    """Every ``Const.value`` and ``Pow.exponent`` of ``e``."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Const):
            out.append(node.value)
        elif isinstance(node, ex.Pow):
            out.append(node.exponent)
        stack.extend(node._children())
    return out


def _misplaced_numbers(e, floats_in):
    """The numbers of ``e`` outside the kernel's three forms: an ``int`` when
    integral, a ``Fraction`` only with denominator above 1, a ``float`` only
    when a float constant was in the input."""
    return [v for v in _numbers(e)
            if not (type(v) is int
                    or (type(v) is Fraction and v.denominator > 1)
                    or (type(v) is float and floats_in))]


@settings(max_examples=300, deadline=None)
@given(canonical_pairs())
def test_constructor_numbers_keep_their_form(case):
    # Whole numbers stay ``int`` (no ``fractions`` arithmetic on them), and
    # no exact value becomes a float on the way, e.g. as ``1 / 3``.
    a, b, v = case
    floats_in = float in constant_types(a) + constant_types(b)
    builders = dict(CONSTRUCTORS, parse=lambda a, b, v: ex.parse(ex.to_text(a), ALPHABET))
    misplaced = {}
    for name, build in builders.items():
        try:
            out = build(a, b, v)
        except DomainError:  # a division by 0 or a root of a negative constant
            continue
        found = _misplaced_numbers(out, floats_in and name != "parse")
        if found:
            misplaced[name] = found
    assert misplaced == {}
    assert _misplaced_numbers(a, floats_in) == _misplaced_numbers(b, floats_in) == []


_x1 = ex.Var("x1")


@pytest.mark.parametrize("build,want", [
    (lambda: ex.ediv(_x1, ex.Const(3)), Fraction(1, 3)),
    (lambda: ex.ediv(_x1, ex.emul(ex.Const(2), ex.Var("x2"))), Fraction(1, 2)),
    (lambda: ex.ediv(_x1, ex.Const(4.0)), 0.25),
    (lambda: ex.ediv(_x1, ex.Const(Fraction(2, 3))), Fraction(3, 2)),
], ids=["constant-denominator", "denominator-coefficient", "float", "rational"])
def test_division_coefficients_are_exact_reciprocals(build, want):
    got = build()
    coeff = (got.num if isinstance(got, ex.Div) else got).factors[0].value
    assert (coeff, type(coeff)) == (want, type(want))


@pytest.mark.parametrize("base,exponent,want", [
    (4, Fraction(-1, 2), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(-1, 2), 2),
    (2, -3, Fraction(1, 8)),
    (Fraction(2, 3), -2, Fraction(9, 4)),
    (4.0, -1, 0.25),
])
def test_negative_constant_powers_are_exact(base, exponent, want):
    got = ex.epow(ex.Const(base), exponent)
    assert isinstance(got, ex.Const)
    assert (got.value, type(got.value)) == (want, type(want))


def test_integral_numbers_are_ints():
    # Whatever form an integral value is given in, the node holds an int.
    assert [type(ex.Const(v).value) for v in (Fraction(6, 3), True, -1)] == [int] * 3
    assert ex.to_text(ex.emul(ex.Const(True), _x1)) == "x1"
    p = ex.Pow(_x1, Fraction(4, 2))
    assert type(p.exponent) is int and ex.to_text(p) == "x1^2"
    assert type(ex.epow(_x1, Fraction(1, 2)).exponent) is Fraction
    assert ex.epow(ex.epow(_x1, Fraction(1, 2)), 2) is _x1
    with pytest.raises(TypeError):
        ex.Pow(_x1, 0.5)


def _sum_of_powers(name, count):
    return ex.eadd(*(ex.epow(ex.Var(name), k) for k in range(1, count + 1)))


_x2, _y1 = ex.Var("x2"), ex.Var("y1")
_root = ex.epow(ex.emul(ex.Const(-2), _x2), Fraction(1, 2))
_quotient = ex.ediv(ex.Var("x1"), ex.eadd(ex.ONE, _y1))
_big_a = ex.eadd(_x2, _y1, ex.ONE)
_big_b, _big_c = _sum_of_powers("x1", 40), _sum_of_powers("y2", 40)


@pytest.mark.parametrize("build,want", [
    # A merged power that refolds into a product meets the other factors.
    (lambda: ex.emul(_x2, _root, _root), lambda: ex.emul(ex.Const(-2), ex.epow(_x2, 2))),
    (lambda: ex.emul(_y1, ex.epow(ex.epow(_y1, 4), Fraction(1, 2)),
                     ex.epow(ex.epow(_y1, 4), Fraction(1, 2)), _y1), lambda: ex.epow(_y1, 6)),
    # Above the expansion cap a repeated sum is its canonical power.
    (lambda: ex.emul(_big_a, _big_a, _big_b, _big_c),
     lambda: ex.emul(ex.epow(_big_a, 2), _big_b, _big_c)),
    # A merged quotient is the coefficient times the quotient, which may be
    # another term of the sum.
    (lambda: ex.eadd(_quotient, _quotient), lambda: ex.emul(ex.Const(2), _quotient)),
    (lambda: ex.eadd(_quotient, _quotient, ex.emul(ex.Const(2), _quotient)),
     lambda: ex.emul(ex.Const(4), _quotient)),
], ids=["refold", "refold-nested-power", "above-cap", "quotient", "quotient-meets-term"])
def test_constructor_defects_are_fixed_points(build, want):
    got = build()
    assert _is_fixed_point(got)
    assert got.sort_key() == want().sort_key()


def test_only_the_kernel_builds_raw_nodes():
    # Every other module takes its trees from ``parse`` and the constructors,
    # which return canonical trees, so none of them calls ``simplify``.
    raw = {"Add", "Mul", "Div", "Pow", "Func"}
    package = pathlib.Path(ex.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in raw:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def test_only_the_kernel_dispatches_on_expr():
    # A coefficient is always a tree, a fiber integral included (its
    # integrand, free in the scaling parameter), so no other module needs to
    # ask whether a value is one.
    package = pathlib.Path(ex.__file__).parent
    checks = []
    for path in sorted(package.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                names = {getattr(n, "attr", getattr(n, "id", None))
                         for n in ast.walk(node.args[1])}
                if "Expr" in names:
                    checks.append(f"{path.name}:{node.lineno}")
    assert checks == []


def test_only_the_reciprocal_helper_and_the_div_guard_divide():
    # ``1 / v`` of two ints is a float: exact constant arithmetic divides
    # only through ``_reciprocal``, and the evaluators' floats only in ``_div``.
    tree = ast.parse(pathlib.Path(ex.__file__).read_text(encoding="utf-8"))
    allowed, divisions = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("_reciprocal", "_div"):
            allowed.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if id(node) not in allowed:
                divisions.append(node.lineno)
    assert divisions == []


def test_sum_of_infinities_is_a_domain_error():
    # math.fsum raises on inf - inf and on an overflowing partial sum; the
    # point is then singular, as an overflowing exp is.
    names = ("x1", "x2", "x3")
    e = ex.parse("10^308*x1*x2 - 10^308*x1*x3", names)
    with pytest.raises(DomainError):
        ex.evaluate(e, {"x1": 2.0, "x2": 2.0, "x3": 2.0})
    with pytest.raises(DomainError):
        ex.evaluate(ex.parse("x1 + x2", names), {"x1": 1e308, "x2": 1e308})
    result = ex.is_zero(e, box=ex.Box((1.0, 2.0)))
    assert result.status is ZeroStatus.NONZERO


@pytest.mark.parametrize("value", [-1.0, -8.0])
def test_negative_float_to_fractional_power_is_domain_error(value):
    # Python's float ** returns a complex number here, not an error.
    with pytest.raises(DomainError):
        ex.epow(ex.Const(value), Fraction(1, 3))
    assert ex.epow(ex.Const(value), 3) == ex.Const(value ** 3)


@pytest.mark.parametrize("src,value", [
    ("sqrt((2^80+12345)^2)", 2 ** 80 + 12345),
    ("sqrt(10^400)", 10 ** 200),
    ("((2^80+12345)^3)^(1/3)", 2 ** 80 + 12345),
    ("(10^600/3^5)^(2/5)", Fraction(10 ** 240, 9)),
    ("(27/8)^(1/3)", Fraction(3, 2)),
])
def test_exact_roots_fold(src, value):
    assert ex.parse(src, ()) == ex.Const(value)


@pytest.mark.parametrize("src", ["sqrt(2^81)", "(2^80+1)^(1/2)", "((2^80+12345)^3+1)^(1/3)",
                                 "2^(1/100000000000000000000000)"])
def test_inexact_roots_stay_symbolic(src):
    assert not isinstance(ex.parse(src, ()), ex.Const)


def test_fractional_exponent_rule_is_exact():
    # The exponent's float is the whole number 2^52, but the exponent is not
    # whole: a negative base leaves the reals in every evaluator.
    e = ex.parse("x1^(9007199254740993/2)", ("x1",))
    assert isinstance(e, ex.Pow) and float(e.exponent) == 2.0 ** 52
    compiled = ex.compile_evaluator([e], ("x1",))
    program = ex.Program([e])
    with pytest.raises(DomainError):
        compiled([-0.5])
    with pytest.raises(DomainError):
        program.value({"x1": -0.5})
    with pytest.raises(DomainError):
        ex.evaluate(e, {"x1": -0.5})
    want = reference_value(e, {"x1": 0.5}).hex()
    assert compiled([0.5])[0].hex() == program.value({"x1": 0.5}).hex() == want
    assert ex.evaluate(e, {"x1": 0.5}).hex() == want


@pytest.mark.parametrize("src", ["1e400*x1", "10^400*x1", "-(10^400)*x1", "x1^(10^400)"])
def test_constant_beyond_float_range(src):
    # Sorting and printing stay exact; turning the constant into a float is
    # a domain error in both back ends.
    e = ex.parse(src, ("x1",))
    assert ex.parse(ex.to_text(e), ("x1",)) == e
    assert ex.eadd(e, ex.Var("x1")) == ex.eadd(ex.Var("x1"), e)
    with pytest.raises(DomainError):
        ex.evaluate(e, {"x1": 0.5})
    with pytest.raises(DomainError):
        ex.compile_evaluator([e], ("x1",))


def test_huge_constants_sort_after_every_float():
    big = [ex.Const(Fraction(10) ** 400), ex.Const(-Fraction(10) ** 400)]
    consts = [ex.Const(v) for v in (Fraction(-3), 1e300, Fraction(1, 3), -1e300)]
    keys = [c.sort_key() for c in sorted(consts + big, key=ex.Expr.sort_key)]
    assert keys[0] == big[1].sort_key() and keys[-1] == big[0].sort_key()


def nested_value(e, env):
    """Reference for compiled code: the tree evaluated as the nested
    expression ``(t1 + t2 + ...)`` would be, left to right with plain ``+``."""
    if isinstance(e, ex.Const):
        return float(e.value)
    if isinstance(e, ex.Var):
        return env[e.name]
    if isinstance(e, (ex.Add, ex.Mul)):
        parts = [nested_value(p, env) for p in e._children()]
        out = parts[0]
        for p in parts[1:]:
            out = out + p if isinstance(e, ex.Add) else out * p
        return out
    if isinstance(e, ex.Pow):
        return nested_value(e.base, env) ** float(e.exponent)
    if isinstance(e, ex.Div):
        return nested_value(e.num, env) / nested_value(e.den, env)
    return reference_value(ex.Func(e.name, ex.Const(nested_value(e.arg, env))), {})


def test_box_rejects_empty_interval():
    box = ex.Box(ranges={"x1": (1.0, 1.0)})
    with pytest.raises(ValueError):
        box.interval("x1")


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6),
       st.dictionaries(st.sampled_from(ALPHABET), st.tuples(st.floats(-1e3, 1e3),
                                                            st.floats(1e-9, 1e3))),
       st.lists(st.sampled_from(ALPHABET), unique=True), st.integers(0, 2**32))
def test_spans_draw_what_uniform_draws(lo, width, overrides, names, seed):
    # lo + w * random() is CPython's ``uniform``: the same floats to the
    # bit, and the same state of the generator after every draw.
    box = ex.Box((lo, lo + width), {n: (a, a + w) for n, (a, w) in overrides.items()})
    assume(all(a < b for a, b in [box.default, *box.ranges.values()]))
    drawn, uniform = random.Random(seed), random.Random(seed)
    spans = box.spans(names)
    for _ in range(5):
        point = ex.Box.draw(spans, drawn)
        want = {n: uniform.uniform(*box.interval(n)) for n in sorted(names)}
        assert list(point) == list(want)
        assert [v.hex() for v in point.values()] == [v.hex() for v in want.values()]
    assert drawn.getstate() == uniform.getstate()
