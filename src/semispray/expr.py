"""Symbolic expression kernel.

Expressions are immutable trees over a declared alphabet of variable names.
Constants are exact rationals (:class:`fractions.Fraction`) unless a float is
injected programmatically; decimal literals are parsed exactly.  The smart
constructors ``eadd``/``emul``/``epow``/``ediv``/``efunc`` always return
canonical trees:

* sums and products are flattened and sorted by a fixed total order,
* constants are folded, ``0`` summands and ``1`` factors dropped,
* identical power bases are merged and like terms collected,
* products distribute over sums and small integer powers of sums expand
  (bounded by ``EXPAND_TERM_CAP``), so polynomial identities cancel to the
  literal zero.

No trigonometric rewriting, factorization, or root denesting is attempted;
identities outside the polynomial fragment are certified probabilistically by
:func:`is_zero`.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import DomainError, UnknownSymbol
from .report import ZeroResult, ZeroStatus

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

#: Products of sums are left unexpanded once the estimated term count of the
#: expanded result exceeds this bound.
EXPAND_TERM_CAP = 4096

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# AST nodes


class Expr:
    """Base class of expression nodes.  Instances are immutable and hashable;
    equality is structural."""

    __slots__ = ("_hash", "_key")

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        return self._fields() == other._fields()

    def __hash__(self):
        return self._hash

    def _fields(self):
        raise NotImplementedError

    def sort_key(self):
        key = self._key
        if key is None:
            key = self._make_key()
            object.__setattr__(self, "_key", key)
        return key

    def _make_key(self):
        raise NotImplementedError

    # Arithmetic sugar; all routes go through the canonical constructors.
    def __add__(self, other):
        return eadd(self, as_expr(other))

    def __radd__(self, other):
        return eadd(as_expr(other), self)

    def __sub__(self, other):
        return eadd(self, eneg(as_expr(other)))

    def __rsub__(self, other):
        return eadd(as_expr(other), eneg(self))

    def __mul__(self, other):
        return emul(self, as_expr(other))

    def __rmul__(self, other):
        return emul(as_expr(other), self)

    def __truediv__(self, other):
        return ediv(self, as_expr(other))

    def __rtruediv__(self, other):
        return ediv(as_expr(other), self)

    def __pow__(self, other):
        return epow(self, other)

    def __neg__(self):
        return eneg(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"

    def __str__(self):
        return to_text(self)

    def diff(self, var):
        return diff(self, var)

    def subs(self, mapping):
        return subs(self, mapping)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (Fraction, float)):
            raise TypeError(f"constant must be rational or float, got {type(value)}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("C", value)))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return (self.value,)

    def _make_key(self):
        v = self.value
        return (0, float(v), isinstance(v, float), str(v))


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("V", name)))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return (self.name,)

    def _make_key(self):
        return (1, self.name)


class Func(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unsupported function {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash(("F", name, arg)))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return (self.name, self.arg)

    def _make_key(self):
        return (2, self.name, self.arg.sort_key())


class Pow(Expr):
    """Power with a rational numeric exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Fraction):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "_hash", hash(("P", base, exponent)))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return (self.base, self.exponent)

    def _make_key(self):
        return (3, self.base.sort_key(), float(self.exponent), str(self.exponent))


class Div(Expr):
    """Quotient kept as a node only for symbolic denominators."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", hash(("D", num, den)))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return (self.num, self.den)

    def _make_key(self):
        return (4, self.num.sort_key(), self.den.sort_key())


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash(("M",) + factors))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return self.factors

    def _make_key(self):
        return (5, len(self.factors)) + tuple(f.sort_key() for f in self.factors)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(("A",) + terms))
        object.__setattr__(self, "_key", None)

    def _fields(self):
        return self.terms

    def _make_key(self):
        return (6, len(self.terms)) + tuple(t.sort_key() for t in self.terms)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to an expression")


def is_zero_literal(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def is_one_literal(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1


# ---------------------------------------------------------------------------
# Canonical constructors


def _split_coeff(term: Expr):
    """Split a canonical non-Const term into (numeric coefficient, core)."""
    if isinstance(term, Mul) and isinstance(term.factors[0], Const):
        rest = term.factors[1:]
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, core
    return Fraction(1), term


def _with_coeff(coeff, core: Expr) -> Expr:
    if coeff == 0:
        return ZERO
    if coeff == 1:
        return core
    if isinstance(core, Mul):
        return Mul((Const(coeff),) + core.factors)
    return Mul((Const(coeff), core))


def eadd(*args) -> Expr:
    """Canonical sum of canonical expressions."""
    const = Fraction(0)
    buckets: dict = {}
    order: list = []

    def absorb(e):
        nonlocal const
        if isinstance(e, Add):
            for t in e.terms:
                absorb(t)
        elif isinstance(e, Const):
            const = const + e.value
        else:
            coeff, core = _split_coeff(e)
            if core in buckets:
                buckets[core] = buckets[core] + coeff
            else:
                buckets[core] = coeff
                order.append(core)

    for a in args:
        absorb(a)

    terms = []
    for core in order:
        coeff = buckets[core]
        if coeff == 0:
            continue
        terms.append(_with_coeff(coeff, core))
    terms.sort(key=Expr.sort_key)
    if const != 0:
        terms.insert(0, Const(const))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _expansion_size(factors) -> int:
    size = 1
    for f in factors:
        size *= len(f.terms) if isinstance(f, Add) else 1
        if size > EXPAND_TERM_CAP:
            return size
    return size


def emul(*args) -> Expr:
    """Canonical product; distributes over sums below the expansion cap."""
    const = Fraction(1)
    plain: list = []
    dens: list = []

    def absorb(e):
        nonlocal const
        if isinstance(e, Mul):
            for f in e.factors:
                absorb(f)
        elif isinstance(e, Const):
            const = const * e.value
        elif isinstance(e, Div):
            absorb(e.num)
            dens.append(e.den)
        else:
            plain.append(e)

    for a in args:
        absorb(a)
    if const == 0:
        return ZERO
    if dens:
        num = _mul_plain(const, plain)
        return ediv(num, _mul_plain(Fraction(1), dens))
    return _mul_plain(const, plain)


def _mul_plain(const, plain) -> Expr:
    # Merge identical power bases; sums stay out of the merge (they either
    # distribute below or group into capped power nodes).
    powers: dict = {}
    order: list = []
    adds: list = []
    for f in plain:
        if isinstance(f, Add):
            adds.append(f)
            continue
        if isinstance(f, Pow) and not isinstance(f.base, Add):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, Fraction(1)
        if base in powers:
            powers[base] = powers[base] + exp
        else:
            powers[base] = exp
            order.append(base)

    factors = []
    for base in order:
        merged = epow(base, powers[base])
        if isinstance(merged, Const):
            const = const * merged.value
            if const == 0:
                return ZERO
        elif isinstance(merged, Mul):
            # A merged power may itself refold (rare); absorb its pieces.
            for g in merged.factors:
                if isinstance(g, Const):
                    const = const * g.value
                elif isinstance(g, Add):
                    adds.append(g)
                else:
                    factors.append(g)
        elif isinstance(merged, Add):
            adds.append(merged)
        else:
            factors.append(merged)

    if adds and _expansion_size(factors + adds) <= EXPAND_TERM_CAP:
        partial = [_with_coeff(const, factors[0] if len(factors) == 1
                               else Mul(tuple(sorted(factors, key=Expr.sort_key))))
                   if factors else Const(const)]
        for a in adds:
            partial = [emul(p, t) for p in partial for t in a.terms]
        return eadd(*partial)
    if adds:
        # Above the expansion cap: group repeated sums into power nodes.
        counts: dict = {}
        for a in adds:
            counts[a] = counts.get(a, 0) + 1
        for a, count in counts.items():
            factors.append(a if count == 1 else Pow(a, Fraction(count)))

    factors.sort(key=Expr.sort_key)
    if not factors:
        return Const(const)
    if const == 1:
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))
    return Mul((Const(const),) + tuple(factors))


def _rational_root(value: Fraction, q: int):
    """Exact q-th root of a non-negative rational, or None."""
    if value < 0:
        return None

    def iroot(n: int):
        if n in (0, 1):
            return n
        r = round(n ** (1.0 / q))
        for c in (r - 1, r, r + 1):
            if c >= 0 and c ** q == n:
                return c
        return None

    pn = iroot(value.numerator)
    pd = iroot(value.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


def epow(base: Expr, exponent) -> Expr:
    """Canonical power with rational exponent."""
    if isinstance(exponent, Const):
        exponent = exponent.value
    if isinstance(exponent, float):
        exponent = Fraction(exponent)
    exponent = Fraction(exponent)

    if exponent == 0:
        return ONE
    if exponent == 1:
        return base

    if isinstance(base, Const):
        v = base.value
        if v == 0:
            if exponent < 0:
                raise DomainError("0 raised to a negative power")
            return ZERO
        if v == 1:
            return ONE
        if isinstance(v, float):
            try:
                return Const(float(v) ** float(exponent))
            except (ValueError, OverflowError):
                raise DomainError(f"{v} ** {exponent} is not a real number")
        if exponent.denominator == 1:
            return Const(v ** exponent.numerator)
        root = _rational_root(v if exponent > 0 else 1 / v, exponent.denominator)
        if root is not None:
            return Const(root ** abs(exponent.numerator))
        return Pow(base, exponent)

    if exponent.denominator == 1:
        n = exponent.numerator
        if isinstance(base, Pow):
            return epow(base.base, base.exponent * n)
        if isinstance(base, Mul):
            return emul(*(epow(f, n) for f in base.factors))
        if isinstance(base, Div):
            if n > 0:
                return ediv(epow(base.num, n), epow(base.den, n))
            return ediv(epow(base.den, -n), epow(base.num, -n))
        if isinstance(base, Add) and 2 <= n <= 8:
            if len(base.terms) ** n <= EXPAND_TERM_CAP:
                result = base
                for _ in range(n - 1):
                    result = emul(result, base)
                return result
    return Pow(base, exponent)


def _factor_map(e: Expr):
    """Decompose a canonical Add-free expression into (const, {base: exp})."""
    const = Fraction(1)
    powers: dict = {}
    stack = [e]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(f.factors)
        elif isinstance(f, Const):
            const = const * f.value
        elif isinstance(f, Pow):
            powers[f.base] = powers.get(f.base, Fraction(0)) + f.exponent
        else:
            powers[f] = powers.get(f, Fraction(0)) + 1
    return const, powers


def ediv(num: Expr, den: Expr) -> Expr:
    """Canonical quotient.  Constant denominators fold into the numerator;
    structurally common factors cancel."""
    if isinstance(den, Const):
        if den.value == 0:
            raise DomainError("division by literal zero")
        return emul(Const(1 / den.value if isinstance(den.value, float) else Fraction(1) / den.value), num)
    if is_zero_literal(num):
        return ZERO
    if num == den:
        return ONE
    if isinstance(num, Div):
        return ediv(num.num, emul(num.den, den))
    if isinstance(den, Div):
        return ediv(emul(num, den.den), den.num)

    if not isinstance(num, Add) and not isinstance(den, Add):
        nc, nf = _factor_map(num)
        dc, df = _factor_map(den)
        cancelled = False
        for base in list(df):
            if base in nf:
                common = min(nf[base], df[base])
                if common > 0:
                    nf[base] -= common
                    df[base] -= common
                    cancelled = True
        if cancelled:
            new_num = emul(Const(nc), *(epow(b, e) for b, e in nf.items() if e != 0))
            new_den = emul(Const(dc), *(epow(b, e) for b, e in df.items() if e != 0))
            return ediv(new_num, new_den)

    if isinstance(den, Mul) and isinstance(den.factors[0], Const):
        c = den.factors[0].value
        rest = den.factors[1:]
        stripped = rest[0] if len(rest) == 1 else Mul(rest)
        return ediv(emul(Const(Fraction(1) / c if not isinstance(c, float) else 1.0 / c), num), stripped)

    return Div(num, den)


def eneg(e: Expr) -> Expr:
    return emul(MINUS_ONE, e)


def efunc(name: str, arg: Expr) -> Expr:
    """Canonical elementary function application with exact constant folds."""
    if isinstance(arg, Const) and not isinstance(arg.value, float):
        v = arg.value
        if name == "sin" and v == 0:
            return ZERO
        if name == "cos" and v == 0:
            return ONE
        if name == "exp" and v == 0:
            return ONE
        if name == "log" and v == 1:
            return ZERO
        if name == "sqrt":
            root = _rational_root(v, 2)
            if root is not None:
                return Const(root)
            if v < 0:
                raise DomainError("square root of a negative constant")
    return Func(name, arg)


def simplify(e: Expr) -> Expr:
    """Rebuild ``e`` through the canonical constructors."""
    return subs(e, {})


# ---------------------------------------------------------------------------
# Calculus and evaluation


def diff(e: Expr, var) -> Expr:
    """Exact partial derivative with respect to a variable name."""
    name = var.name if isinstance(var, Var) else var
    return _diff(e, name)


def _diff(e: Expr, name: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return eadd(*(_diff(t, name) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = _diff(f, name)
            if is_zero_literal(df):
                continue
            others = e.factors[:i] + e.factors[i + 1:]
            pieces.append(emul(df, *others))
        return eadd(*pieces)
    if isinstance(e, Pow):
        db = _diff(e.base, name)
        if is_zero_literal(db):
            return ZERO
        return emul(Const(e.exponent), epow(e.base, e.exponent - 1), db)
    if isinstance(e, Div):
        dn = _diff(e.num, name)
        dd = _diff(e.den, name)
        if is_zero_literal(dd):
            return ediv(dn, e.den)
        return ediv(eadd(emul(dn, e.den), eneg(emul(e.num, dd))), epow(e.den, 2))
    if isinstance(e, Func):
        da = _diff(e.arg, name)
        if is_zero_literal(da):
            return ZERO
        if e.name == "sin":
            return emul(efunc("cos", e.arg), da)
        if e.name == "cos":
            return eneg(emul(efunc("sin", e.arg), da))
        if e.name == "exp":
            return emul(e, da)
        if e.name == "log":
            return ediv(da, e.arg)
        if e.name == "sqrt":
            return ediv(da, emul(Const(2), e))
    raise TypeError(f"not an expression: {e!r}")


def subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Substitute variables by expressions and rebuild the tree through the
    canonical constructors (with an empty mapping, :func:`simplify`)."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        repl = mapping.get(e.name)
        return e if repl is None else as_expr(repl)
    if isinstance(e, Add):
        return eadd(*(subs(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return emul(*(subs(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return epow(subs(e.base, mapping), e.exponent)
    if isinstance(e, Div):
        return ediv(subs(e.num, mapping), subs(e.den, mapping))
    if isinstance(e, Func):
        return efunc(e.name, subs(e.arg, mapping))
    raise TypeError(f"not an expression: {e!r}")


def free_symbols(e: Expr) -> frozenset:
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Const,)):
            pass
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Div):
            stack.append(node.num)
            stack.append(node.den)
        elif isinstance(node, Func):
            stack.append(node.arg)
    return frozenset(out)


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """IEEE-754 evaluation; raises :class:`DomainError` on leaving the reals."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnknownSymbol(e.name, "evaluation environment") from None
    if isinstance(e, Add):
        return math.fsum(evaluate(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, env)
        return out
    if isinstance(e, Pow):
        base = evaluate(e.base, env)
        exp = e.exponent
        if base == 0.0 and exp < 0:
            raise DomainError("0 raised to a negative power")
        if base < 0.0 and exp.denominator != 1:
            raise DomainError("negative base with fractional exponent")
        try:
            return base ** float(exp)
        except OverflowError:
            raise DomainError("overflow in power") from None
    if isinstance(e, Div):
        den = evaluate(e.den, env)
        if den == 0.0:
            raise DomainError("division by zero")
        return evaluate(e.num, env) / den
    if isinstance(e, Func):
        x = evaluate(e.arg, env)
        if e.name == "sin":
            return math.sin(x)
        if e.name == "cos":
            return math.cos(x)
        if e.name == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                raise DomainError("overflow in exp") from None
        if e.name == "log":
            if x <= 0.0:
                raise DomainError("log of a non-positive value")
            return math.log(x)
        if e.name == "sqrt":
            if x < 0.0:
                raise DomainError("square root of a negative value")
            return math.sqrt(x)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Printing


def _needs_parens_in_mul(e: Expr) -> bool:
    return isinstance(e, (Add, Div)) or (isinstance(e, Const) and float(e.value) < 0)


def to_text(e: Expr) -> str:
    """Canonical printer; emits the same grammar :func:`parse` accepts."""
    if isinstance(e, Const):
        if isinstance(e.value, float):
            return repr(e.value)
        if e.value.denominator == 1:
            return str(e.value.numerator)
        return f"{e.value.numerator}/{e.value.denominator}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Func):
        return f"{e.name}({to_text(e.arg)})"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if not isinstance(e.base, (Var, Func)):
            base = f"({base})"
        exp = e.exponent
        if exp.denominator == 1 and exp >= 0:
            return f"{base}^{exp.numerator}"
        exp_txt = str(exp.numerator) if exp.denominator == 1 else f"{exp.numerator}/{exp.denominator}"
        return f"{base}^({exp_txt})"
    if isinstance(e, Div):
        num = to_text(e.num)
        if isinstance(e.num, Add):
            num = f"({num})"
        den = to_text(e.den)
        if not isinstance(e.den, (Var, Func)):
            den = f"({den})"
        return f"{num}/{den}"
    if isinstance(e, Mul):
        factors = list(e.factors)
        sign = ""
        if isinstance(factors[0], Const):
            c = factors[0]
            if c.value == -1:
                sign = "-"
                factors = factors[1:]
            elif not isinstance(c.value, float) and c.value < 0:
                sign = "-"
                factors[0] = Const(-c.value)
        parts = []
        for f in factors:
            txt = to_text(f)
            if _needs_parens_in_mul(f):
                txt = f"({txt})"
            parts.append(txt)
        return sign + "*".join(parts)
    if isinstance(e, Add):
        out = to_text(e.terms[0])
        for t in e.terms[1:]:
            txt = to_text(t)
            if txt.startswith("-"):
                out += f" - {txt[1:]}"
            else:
                out += f" + {txt}"
        return out
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Parsing (precedence-climbing over a small token stream)

_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25


@dataclass
class _Token:
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    pos: int


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
            continue
        raise _syntax_error(src, i, "a number, name, operator, or parenthesis")
    tokens.append(_Token("end", "", n))
    return tokens


def _syntax_error(src: str, pos: int, expected: str) -> SyntaxError:
    err = SyntaxError(f"at offset {pos}: expected {expected}")
    err.offset = pos
    err.text = src
    return err


class _Parser:
    def __init__(self, src: str, alphabet):
        self.src = src
        self.alphabet = frozenset(alphabet)
        self.tokens = _tokenize(src)
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def parse(self) -> Expr:
        e = self.expression(0)
        tok = self.peek()
        if tok.kind != "end":
            raise _syntax_error(self.src, tok.pos, "end of input or an operator")
        return e

    def expression(self, min_prec: int) -> Expr:
        left = self.atom()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            prec = _BIN_PRECEDENCE[tok.text]
            if prec < min_prec:
                break
            self.advance()
            # '^' is right-associative; the rest are left-associative.
            next_min = prec if tok.text == "^" else prec + 1
            right = self.expression(next_min)
            if tok.text == "+":
                left = eadd(left, right)
            elif tok.text == "-":
                left = eadd(left, eneg(right))
            elif tok.text == "*":
                left = emul(left, right)
            elif tok.text == "/":
                left = ediv(left, right)
            else:
                if not isinstance(right, Const):
                    raise _syntax_error(self.src, tok.pos, "a rational constant exponent")
                left = epow(left, right.value)
        return left

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(Fraction(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return eneg(self.expression(_UNARY_PRECEDENCE))
        if tok.kind == "lparen":
            inner = self.expression(0)
            closing = self.advance()
            if closing.kind != "rparen":
                raise _syntax_error(self.src, closing.pos, "')'")
            return inner
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                opening = self.advance()
                if opening.kind != "lparen":
                    raise _syntax_error(self.src, opening.pos, f"'(' after {tok.text}")
                arg = self.expression(0)
                closing = self.advance()
                if closing.kind != "rparen":
                    raise _syntax_error(self.src, closing.pos, "')'")
                return efunc(tok.text, arg)
            if tok.text not in self.alphabet:
                raise UnknownSymbol(tok.text, f"offset {tok.pos}")
            return Var(tok.text)
        expected = "an expression" if tok.kind == "end" else "a value"
        raise _syntax_error(self.src, tok.pos, expected)


def parse(src: str, alphabet: Iterable[str]) -> Expr:
    """Parse ``src`` over the declared variable names into a canonical tree.

    Decimal literals become exact rationals.  Raises :class:`SyntaxError`
    (with ``.offset``) on malformed input and :class:`UnknownSymbol` on names
    outside the alphabet.
    """
    return _Parser(src, alphabet).parse()


# ---------------------------------------------------------------------------
# Sampling and the probabilistic zero test


@dataclass(frozen=True)
class ChartPoint:
    """A point of the total space in adapted coordinates."""

    x: tuple
    y: tuple

    def env(self, coords: Sequence[str], fibers: Sequence[str]) -> dict:
        if len(self.x) != len(coords) or len(self.y) != len(fibers):
            raise ValueError("point dimensions do not match the chart")
        env = dict(zip(coords, self.x))
        env.update(zip(fibers, self.y))
        return env


def eval_at(e: Expr, p: ChartPoint, coords: Sequence[str], fibers: Sequence[str],
            params: Mapping[str, float] = None) -> float:
    """Evaluate at a chart point, with optional parameter bindings."""
    env = p.env(coords, fibers)
    if params:
        env.update(params)
    return evaluate(e, env)


@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling domain with per-variable overrides."""

    default: tuple = (-1.0, 1.0)
    ranges: Mapping[str, tuple] = field(default_factory=dict)

    def interval(self, name: str) -> tuple:
        lo, hi = self.ranges.get(name, self.default)
        if not lo < hi:
            raise ValueError(f"box for {name!r} has no volume: [{lo}, {hi}]")
        return float(lo), float(hi)

    def sample(self, names: Sequence[str], rng: random.Random) -> dict:
        return {n: rng.uniform(*self.interval(n)) for n in sorted(names)}

    def center(self, names: Sequence[str]) -> dict:
        out = {}
        for n in names:
            lo, hi = self.interval(n)
            out[n] = 0.5 * (lo + hi)
        return out


def is_zero(e: Expr, box: Box = None, trials: int = 64, tol: float = 1e-9,
            seed: int = 0, params: Mapping[str, float] = None) -> ZeroResult:
    """Decide whether ``e`` vanishes identically.

    ``ProvenZero`` iff the canonical form is the literal 0.  Otherwise the
    expression is sampled by :func:`sample_zero` over its free symbols;
    ``params`` are bound to fixed values instead of being sampled.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    e = simplify(e)
    if is_zero_literal(e):
        return ZeroResult(ZeroStatus.PROVEN_ZERO, 0.0, seed=seed, trials=0)
    params = dict(params or {})
    names = sorted(free_symbols(e) - set(params))
    return sample_zero(functools.partial(evaluate, e), names, box=box, trials=trials,
                       tol=tol, seed=seed, params=params)


def sample_zero(value: Callable[[dict], float], names: Sequence[str], *, box: Optional[Box],
                trials: int, tol: float, seed: int,
                params: Mapping[str, float] = None) -> ZeroResult:
    """The sample-and-verdict loop behind every numeric zero test.

    ``value`` is called on ``trials`` environments drawn uniformly from
    ``box`` over ``names`` with ``random.Random(seed)``, each extended by
    ``params``.  The first point with ``|value| > tol`` is returned as a
    ``NonZero`` witness, else the result is ``LikelyZero`` with the largest
    ``|value|`` seen.  Points where evaluation leaves the real domain are
    skipped; if every point is singular a :class:`DomainError` propagates.
    """
    box = box or Box()
    params = params or {}
    rng = random.Random(seed)
    max_abs = 0.0
    evaluated = 0
    for _ in range(trials):
        env = box.sample(names, rng)
        env.update(params)
        try:
            v = value(env)
        except DomainError:
            continue
        evaluated += 1
        if abs(v) > tol:
            witness = {n: env[n] for n in names}
            return ZeroResult(ZeroStatus.NONZERO, abs(v), seed=seed,
                              trials=trials, witness=witness, witness_value=v)
        max_abs = max(max_abs, abs(v))
    if evaluated == 0:
        raise DomainError("every sampled point was singular")
    return ZeroResult(ZeroStatus.LIKELY_ZERO, max_abs, seed=seed, trials=trials)


# ---------------------------------------------------------------------------
# Compilation to fast evaluators (used by the flow integrator)


def _codegen(e: Expr, names_index: Mapping[str, int]) -> str:
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return f"_v[{names_index[e.name]}]"
    if isinstance(e, Add):
        return "(" + " + ".join(_codegen(t, names_index) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_codegen(f, names_index) for f in e.factors) + ")"
    if isinstance(e, Pow):
        return f"_pow({_codegen(e.base, names_index)}, {float(e.exponent)!r})"
    if isinstance(e, Div):
        return f"_div({_codegen(e.num, names_index)}, {_codegen(e.den, names_index)})"
    if isinstance(e, Func):
        return f"_{e.name}({_codegen(e.arg, names_index)})"
    raise TypeError(f"not an expression: {e!r}")


def _guarded_namespace() -> dict:
    def _pow(b, e):
        if b == 0.0 and e < 0:
            raise DomainError("0 raised to a negative power")
        if b < 0.0 and e != int(e):
            raise DomainError("negative base with fractional exponent")
        try:
            return b ** e
        except OverflowError:
            raise DomainError("overflow in power") from None

    def _div(a, b):
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b

    def _log(x):
        if x <= 0.0:
            raise DomainError("log of a non-positive value")
        return math.log(x)

    def _sqrt(x):
        if x < 0.0:
            raise DomainError("square root of a negative value")
        return math.sqrt(x)

    def _exp(x):
        try:
            return math.exp(x)
        except OverflowError:
            raise DomainError("overflow in exp") from None

    return {"_pow": _pow, "_div": _div, "_log": _log, "_sqrt": _sqrt,
            "_exp": _exp, "_sin": math.sin, "_cos": math.cos}


def compile_evaluator(exprs: Sequence[Expr], names: Sequence[str]):
    """Compile expressions into one fast ``f(values) -> list[float]``.

    ``values`` binds positionally to ``names``.  Domain guards raise the same
    :class:`DomainError` as :func:`evaluate`.
    """
    names_index = {n: i for i, n in enumerate(names)}
    for e in exprs:
        missing = free_symbols(e) - set(names)
        if missing:
            raise UnknownSymbol(sorted(missing)[0], "compiled evaluator")
    body = "[" + ", ".join(_codegen(e, names_index) for e in exprs) + "]"
    ns = _guarded_namespace()
    return eval(f"lambda _v: {body}", ns)  # noqa: S307 - source is generated here
