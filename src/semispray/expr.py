"""Symbolic expression kernel.

Expressions are immutable trees over a declared alphabet of variable names.
Power exponents are exact rationals, and so are constants unless a float is
injected programmatically; decimal literals (``1.5e-3`` included) are parsed
exactly.  An exact rational is held as an ``int`` when it is integral and as
a :class:`fractions.Fraction` only when its denominator is above 1, so each
rational has one form; the ``int`` form keeps whole-number coefficient
arithmetic out of ``fractions``.

Nodes are interned (hash-consed) in one weak table, so each structure is one
live object and equality is identity; ``Const(2)`` and ``Const(2.0)``, or
``0.0`` and ``-0.0``, are distinct nodes.

The smart constructors ``eadd``/``emul``/``epow``/``ediv``/``efunc`` always
return canonical trees:

* sums and products are flattened and sorted by a fixed total order,
* constants are folded, ``0`` summands and ``1`` factors dropped,
* identical power bases are merged and like terms collected,
* products distribute over sums and small integer powers of sums expand
  (bounded by ``EXPAND_TERM_CAP``), so polynomial identities cancel to the
  literal zero.  When every factor and every term of the sums is a monomial
  (a coefficient times ``Var``s, ``Func``s and their powers), the expansion
  runs on exponent maps and builds only the collected terms; any other
  product of sums, one with a quotient term say, goes through ``emul`` pair
  by pair and ``eadd``.  Both give the same tree.  A constant times such a
  monomial or sum (``eneg`` too) only rescales the coefficients.

Their outputs, and those of ``diff``, ``subs`` and ``parse``, are fixed points
of :func:`simplify`.  Only this module builds the raw node classes, so no other
re-canonicalizes; :func:`simplify` is for trees built from raw nodes.  A node
holds its free names like its sort key, so ``diff`` skips what does not read
the variable.

No trigonometric rewriting, factorization, or root denesting is attempted.
A residual that is not the literal 0 is certified probabilistically by
:func:`decide`, the one verdict loop of every check (:func:`is_zero` and
:func:`certify` call it): first exactly at one random point of the prime
field F_p (:class:`Modular`), then by float sampling where that point is not
0 or is not drawn.  Every item reached either way names it in its ``method``.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import DomainError, UnknownSymbol
from .report import ValidationReport, ZeroResult, ZeroStatus

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")

#: Products of sums are left unexpanded once the estimated term count of the
#: expanded result exceeds this bound.
EXPAND_TERM_CAP = 4096

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# AST nodes


class Expr:
    """Base class of expression nodes: immutable and interned, so each
    structure is one live object and equality and hashing are identity's."""

    __slots__ = ("_key", "_free", "__weakref__")  # sort key, free names: filled on first use

    def sort_key(self):
        key = self._key
        if key is None:
            key = self._make_key()
            object.__setattr__(self, "_key", key)
        return key

    def __reduce__(self):
        # Copies and unpickled nodes are rebuilt through the constructor,
        # which returns the live node of the same structure.
        return type(self), tuple(getattr(self, slot) for slot in type(self).__slots__)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"

    def __str__(self):
        return to_text(self)


_INTERNED: dict = {}  # structural key -> _Ref to the one live node with it


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    """A node's death callback; a node built since under its key stays."""
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


def _interned(cls, key, *fields) -> Expr:
    """The live node under ``key``, else a new ``cls`` node holding ``fields``
    in slot order.  A key holds the class and the fields; a child in it
    compares by identity and lives as long as the node does anyway."""
    ref = _INTERNED.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        for slot, value in zip(cls.__slots__, fields):
            object.__setattr__(node, slot, value)
        object.__setattr__(node, "_key", None)
        object.__setattr__(node, "_free", None)
        ref = _INTERNED[key] = _Ref(node, _forget)
        ref.key = key
    return node


class Const(Expr):
    """A numeric constant.  ``value`` is an ``int`` when the constant is
    integral, a :class:`~fractions.Fraction` with denominator above 1 for
    any other rational, and a ``float`` only when a float was given."""

    __slots__ = ("value",)

    def __new__(cls, value: Number):
        if type(value) is not int and not isinstance(value, float):
            value = _exact(value)
        sign = (math.copysign(1.0, value),) if isinstance(value, float) else ()  # -0.0 != 0.0
        return _interned(cls, (cls, value, *sign), value)

    def _children(self):
        return ()

    def _make_key(self):
        v = self.value
        return (0, _float_key(v), isinstance(v, float), str(v))


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _interned(cls, name, name)

    def _children(self):
        return ()

    def _make_key(self):
        return (1, self.name)


class Func(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unsupported function {name!r}")
        return _interned(cls, (cls, name, arg), name, arg)

    def _children(self):
        return (self.arg,)

    def _make_key(self):
        return (2, self.name, self.arg.sort_key())


class Pow(Expr):
    """Power with a rational exponent: an ``int`` when integral, else a
    :class:`~fractions.Fraction`."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Union[int, Fraction]):
        if type(exponent) is not int:
            exponent = _exact(exponent)
        return _interned(cls, (cls, base, exponent), base, exponent)

    def _children(self):
        return (self.base,)

    def _make_key(self):
        return (3, self.base.sort_key(), _float_key(self.exponent), str(self.exponent))


class Div(Expr):
    """Quotient kept as a node only for symbolic denominators."""

    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr):
        return _interned(cls, (cls, num, den), num, den)

    def _children(self):
        return (self.num, self.den)

    def _make_key(self):
        return (4, self.num.sort_key(), self.den.sort_key())


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        return _interned(cls, (cls, factors), factors)

    def _children(self):
        return self.factors

    def _make_key(self):
        return (5, len(self.factors)) + tuple(f.sort_key() for f in self.factors)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        return _interned(cls, (cls, terms), terms)

    def _children(self):
        return self.terms

    def _make_key(self):
        return (6, len(self.terms)) + tuple(t.sort_key() for t in self.terms)


def _exact(value) -> Union[int, Fraction]:
    """An exact rational in the kernel's form: an ``int`` when integral,
    else a :class:`~fractions.Fraction`."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)  # a bool or other int subclass becomes a plain int
    raise TypeError(f"not an exact rational: {value!r}")


def _reciprocal(value: Number) -> Number:
    """``1 / value``, exact for an exact ``value``: ``1 / 2`` would be a float."""
    if isinstance(value, float):
        return 1 / value
    return Fraction(1) / value


def _float_key(v: Number) -> float:
    """``float(v)``, with a rational beyond float range read as ``±inf``, so
    sorting and printing never raise."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


ZERO = Const(0)
ONE = Const(1)
MINUS_ONE = Const(-1)
_INNER = (Add, Mul, Pow, Div, Func)  # the node types with children
_DEN = object()  # emul's stack marker: the entry below it is a denominator
_MONOMIAL_BASES = (Var, Func)  # the bases _expand_monomials takes powers of
_NO_NAMES = frozenset()  # the free names of every constant


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to an expression")


def is_zero_literal(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


# ---------------------------------------------------------------------------
# Canonical constructors


def _split_coeff(term: Expr):
    """Split a canonical non-Const term into (numeric coefficient, core)."""
    if isinstance(term, Mul) and isinstance(term.factors[0], Const):
        rest = term.factors[1:]
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, core
    return 1, term


def _with_coeff(coeff, core: Expr) -> Expr:
    if coeff == 0:
        return ZERO
    if coeff == 1:
        return core
    if isinstance(core, Div):  # the coefficient joins the numerator, as in ``emul``
        return emul(Const(coeff), core)
    if isinstance(core, Mul):
        return Mul((Const(coeff),) + core.factors)
    return Mul((Const(coeff), core))


def eadd(*args) -> Expr:
    """Canonical sum of canonical expressions, nested sums flattened in order."""
    const = 0
    buckets: dict = {}  # core -> coefficient
    stack = list(reversed(args))
    while stack:
        e = stack.pop()
        if isinstance(e, Add):
            stack += reversed(e.terms)
        elif isinstance(e, Const):
            const = const + e.value
        else:
            coeff, core = _split_coeff(e)
            seen = buckets.get(core)
            buckets[core] = coeff if seen is None else seen + coeff

    terms, requoted = [], False
    for core, coeff in buckets.items():
        if coeff != 0:
            requoted = requoted or (coeff != 1 and isinstance(core, Div))
            terms.append(_with_coeff(coeff, core))
    if requoted and len({_split_coeff(t)[1] for t in terms}) < len(terms):
        return eadd(Const(const), *terms)  # a merged quotient is now another term's core
    return _sum(const, terms)


def _sum(const: Number, terms: list) -> Expr:
    """The canonical sum of the constant ``const`` and ``terms``, canonical
    non-constant terms of distinct cores: sorted, a nonzero constant first."""
    terms.sort(key=Expr.sort_key)
    if const != 0:
        terms.insert(0, Const(const))
    if not terms:
        return ZERO
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def _expansion_size(factors) -> int:
    size = 1
    for f in factors:
        size *= len(f.terms) if isinstance(f, Add) else 1
        if size > EXPAND_TERM_CAP:
            return size
    return size


def emul(*args) -> Expr:
    """Canonical product; distributes over sums below the expansion cap, and
    rescales a monomial or a sum of them times a constant, in either order."""
    if len(args) == 2 and (type(args[0]) is Const or type(args[1]) is Const):
        c, e = args if type(args[0]) is Const else reversed(args)
        scaled = _rescaled(c.value, e)
        if scaled is not None:
            return scaled
    const = 1
    plain: list = []
    dens: list = []
    stack = list(reversed(args))
    while stack:
        e = stack.pop()
        if isinstance(e, Mul):
            stack += reversed(e.factors)
        elif isinstance(e, Const):
            const = const * e.value
        elif isinstance(e, Div):
            stack += (e.den, _DEN, e.num)  # the denominator goes after the numerator's
        elif e is _DEN:
            dens.append(stack.pop())
        else:
            plain.append(e)
    if const == 0:
        return ZERO
    if dens:
        num = _mul_plain(const, plain)
        # A lone canonical denominator is its own product; a product or
        # quotient still goes through _mul_plain, which flattens raw nodes.
        if len(dens) == 1 and not isinstance(dens[0], (Mul, Div)):
            return ediv(num, dens[0])
        return ediv(num, _mul_plain(1, dens))
    return _mul_plain(const, plain)


def _rescaled(c: Number, e: Expr) -> Optional[Expr]:
    """``emul(Const(c), e)`` with no exponent map, as ``_expand_monomials``
    builds it (a coefficient 0 drops its term, 1 or ``1.0`` its ``Const``),
    where ``e`` is a constant, a monomial or a sum of them below the cap, else
    None: a product of several factors or a quotient may be raw, so it is not."""
    if type(e) is Const:
        c = c * e.value
        return ZERO if c == 0 else Const(c)
    if c == 1 and type(c) is int and type(e) not in (Mul, Div):
        return e
    if type(e) is Add and (c == 0 or len(e.terms) > EXPAND_TERM_CAP):
        return ZERO if c == 0 else None
    const, scaled = 0, []
    for t in e.terms if type(e) is Add else (e,):
        coeff, core = 1, (t,)
        if type(t) is Const:
            const = c * t.value
            continue
        if type(t) is Mul:
            coeff, core = ((t.factors[0].value, t.factors[1:]) if type(t.factors[0]) is Const
                           else (1, t.factors))
            if t is e and len(core) > 1:
                return None
        for f in core:
            if type(f.base if type(f) is Pow else f) not in _MONOMIAL_BASES:
                return None
        coeff = c * coeff
        if coeff == 1:
            scaled.append(core[0] if len(core) == 1 else Mul(core))
        elif coeff != 0:
            scaled.append(Mul((Const(coeff),) + core))
    return _sum(const, scaled)


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
        base = _power_base(f)
        exp = 1 if base is f else f.exponent
        if base in powers:
            powers[base] = powers[base] + exp
        else:
            powers[base] = exp
            order.append(base)

    factors = []
    refolded = []
    for base in order:
        merged = base if powers[base] == 1 else epow(base, powers[base])
        if isinstance(merged, Const):
            const = const * merged.value
            if const == 0:
                return ZERO
        elif isinstance(merged, Add):
            adds.append(merged)
        elif isinstance(merged, (Mul, Div)) or _power_base(merged) != base:
            refolded.append(merged)
        else:
            factors.append(merged)
    if refolded:  # a merged power refolded into other bases (rare): merge again
        return emul(Const(const), *factors, *adds, *refolded)

    if adds and _expansion_size(factors + adds) <= EXPAND_TERM_CAP:
        expanded = _expand_monomials(const, factors, adds)
        if expanded is not None:
            return expanded
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
            factors.append(epow(a, count))

    factors.sort(key=Expr.sort_key)
    if not factors:
        return Const(const)
    if const == 1:
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))
    return Mul((Const(const),) + tuple(factors))


def _expand_monomials(const, factors, adds) -> Optional[Expr]:
    """``const * factors * adds`` expanded on exponent maps, or None unless
    every factor and every term of every sum is a monomial: a coefficient
    times ``Var``s, ``Func``s and their powers.

    A monomial is its coefficient and its map ``{base: exponent}``; the
    product of two multiplies the coefficients and adds the maps.  The tree
    is the one ``emul`` pair by pair and then ``eadd`` would build: a
    product's coefficient is the one its node would hold (an int 1 where
    ``emul`` drops a 1 beside other factors), a product with coefficient 0 is
    dropped, and like monomials collect in order of appearance, so float
    coefficients round as they would."""
    first = {}
    for f in factors:
        base = _power_base(f)
        if type(base) not in _MONOMIAL_BASES:
            return None
        first[base] = 1 if base is f else f.exponent
    sums = []
    for a in adds:
        terms = [_factor_map(t) for t in a.terms]
        for _, powers in terms:
            for base in powers:
                if type(base) not in _MONOMIAL_BASES:
                    return None
        sums.append(terms)

    if type(const) is Fraction and const.denominator == 1:
        const = const.numerator
    partial = [(1 if first and const == 1 else const, first)]
    for terms in sums:
        products = []
        for pc, pm in partial:
            for tc, tm in terms:
                c = pc * tc
                if c == 0:
                    continue
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                m = pm
                if tm:
                    m = pm.copy()
                    for base, e in tm.items():
                        e = m.get(base, 0) + e
                        if e == 0:
                            del m[base]
                        else:
                            m[base] = e
                products.append((1 if m and c == 1 else c, m))
        partial = products
    return _assemble(partial)


def _assemble(monomials) -> Expr:
    """The canonical sum of ``(coefficient, {base: nonzero exponent})`` monomials: like
    maps collect in order of appearance, a coefficient 0 drops its term and 1 its ``Const``."""
    const = 0
    buckets: dict = {}  # frozen map -> [summed coefficient, the first map]
    for c, m in monomials:
        if not m:
            const = const + c
            continue
        key = frozenset(m.items())
        entry = buckets.get(key)
        if entry is None:
            buckets[key] = [c, m]
        else:
            entry[0] = entry[0] + c

    terms = []
    for c, m in buckets.values():
        if c != 0:
            term = sorted([b if e == 1 else Pow(b, e) for b, e in m.items()], key=Expr.sort_key)
            if c != 1:
                term.insert(0, Const(c))
            terms.append(term[0] if len(term) == 1 else Mul(tuple(term)))
    return _sum(const, terms)


def _power_base(f: Expr) -> Expr:
    """The base ``_mul_plain`` merges ``f`` under; a power of a sum is its own."""
    return f.base if isinstance(f, Pow) and not isinstance(f.base, Add) else f


def _rational_root(value: Union[int, Fraction], q: int):
    """Exact q-th root of a non-negative rational, or None."""
    if value < 0:
        return None
    pn, pd = _iroot(value.numerator, q), _iroot(value.denominator, q)
    if pn ** q != value.numerator or pd ** q != value.denominator:
        return None
    return Fraction(pn, pd)


def _iroot(n: int, q: int) -> int:
    """The q-th root of ``n >= 0`` rounded down, in integer arithmetic (a
    float estimate overflows or rounds wrong above 2^53)."""
    if q == 2:
        return math.isqrt(n)
    if n.bit_length() <= q:  # n < 2^q
        return min(n, 1)
    x = 1 << -(-n.bit_length() // q)  # above the root; Newton descends
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def epow(base: Expr, exponent) -> Expr:
    """Canonical power with rational exponent."""
    if isinstance(exponent, Const):
        exponent = exponent.value
    if type(exponent) is not int:
        exponent = _exact(Fraction(exponent))

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
            if v < 0 and exponent.denominator != 1:  # float ** would be complex
                raise DomainError(f"{v} ** {exponent} is not a real number")
            try:
                return Const(float(v) ** float(exponent))
            except (ValueError, OverflowError):
                raise DomainError(f"{v} ** {exponent} is not a real number")
        if exponent.denominator == 1:  # int ** negative int would be a float
            return Const(v ** exponent if exponent > 0 else _reciprocal(v) ** -exponent)
        root = _rational_root(v if exponent > 0 else _reciprocal(v), exponent.denominator)
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
    """Decompose an Add-free expression into (const, {base: exp}), cancelled bases left out."""
    const = 1
    powers: dict = {}
    stack = [e]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(f.factors)
        elif isinstance(f, Const):
            const = const * f.value
        else:
            base, k = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
            if k := k + powers.get(base, 0):
                powers[base] = k
            else:
                powers.pop(base, None)
    return const, powers


def ediv(num: Expr, den: Expr) -> Expr:
    """Canonical quotient.  Constant denominators fold into the numerator;
    structurally common factors cancel."""
    if isinstance(den, Const):
        if den.value == 0:
            raise DomainError("division by literal zero")
        return emul(Const(_reciprocal(den.value)), num)
    if is_zero_literal(num):
        return ZERO
    if num is den:
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
        c, stripped = _split_coeff(den)
        return ediv(emul(Const(_reciprocal(c)), num), stripped)

    return Div(num, den)


def eneg(e: Expr) -> Expr:
    return emul(MINUS_ONE, e)


_EXACT_VALUES = {("sin", 0): ZERO, ("cos", 0): ONE, ("exp", 0): ONE, ("log", 1): ZERO}


def efunc(name: str, arg: Expr) -> Expr:
    """Canonical elementary function application with exact constant folds."""
    if isinstance(arg, Const) and not isinstance(arg.value, float):
        v = arg.value
        if (name, v) in _EXACT_VALUES:
            return _EXACT_VALUES[name, v]
        if name == "sqrt":
            root = _rational_root(v, 2)
            if root is not None:
                return Const(root)
            if v < 0:
                raise DomainError("square root of a negative constant")
    return Func(name, arg)


def simplify(e: Expr) -> Expr:
    """Rebuild ``e``, built from raw nodes, through the canonical constructors;
    a constructor output comes back unchanged."""
    return subs(e, {})


# ---------------------------------------------------------------------------
# Calculus


def diff(e: Expr, var) -> Expr:
    """Exact partial derivative in a variable name; a subtree not reading it is 0."""
    name = var.name if isinstance(var, Var) else var
    if name not in free_symbols(e):  # and so every node of ``e`` holds its names
        return ZERO
    return _memoized(_diff, (e,), name, lambda node, name: None if name in node._free else ZERO)[0]


def _memoized(step, roots: Sequence[Expr], arg=None, known=None) -> list:
    """``step(node, arg, result)`` once per distinct subtree of ``roots``,
    children first and left to right, the roots in turn with one memo;
    returns the roots' results.  This is the kernel's one tree walk.
    ``result`` is the memo's ``__getitem__``, which the memo does not hold,
    so the memo is freed when the call returns.  A ``known(node, arg)`` not
    None is the node's result, its children unvisited."""
    memo: dict = {}
    result = memo.__getitem__
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is None:  # the children of the node below are done
            node = stack.pop()
            memo[node] = step(node, arg, result)
        elif node in memo:
            continue
        elif known is not None and (value := known(node, arg)) is not None:
            memo[node] = value
        elif isinstance(node, _INNER):
            stack += (node, None)
            stack += reversed(node._children())
        else:
            memo[node] = step(node, arg, result)
    return [memo[e] for e in roots]


def _canonical_monomial(f: Expr) -> bool:
    """Whether ``f`` is a constant, a ``Var``, a ``Func`` or a canonical power
    of one, which ``emul(Const(c), f)`` rescales as the general path builds
    it; a raw tree may be anything else."""
    return type(f) in (Const, Var, Func) or (type(f) is Pow and type(f.base) in _MONOMIAL_BASES
                                             and epow(f.base, f.exponent) is f)


def _diff(e: Expr, name: str, result) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Add):
        return eadd(*(result(t) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = result(f)
            if is_zero_literal(df):
                continue
            others = e.factors[:i] + e.factors[i + 1:]
            if df is ONE and len(others) == 2 and type(others[0]) is Const \
                    and _canonical_monomial(others[1]):
                pieces.append(emul(*others))  # rescaled: an int 1 changes no coefficient
            else:
                pieces.append(emul(df, *others))
        return eadd(*pieces)
    if isinstance(e, Pow):
        db = result(e.base)
        if is_zero_literal(db):
            return ZERO
        if type(e.base) is Var:  # d(v^k)/dv = k v^(k-1), rescaled; the chain factor is 1
            return emul(Const(e.exponent), epow(e.base, e.exponent - 1))
        return emul(Const(e.exponent), epow(e.base, e.exponent - 1), db)
    if isinstance(e, Div):
        dn = result(e.num)
        dd = result(e.den)
        if is_zero_literal(dd):
            return ediv(dn, e.den)
        return ediv(eadd(emul(dn, e.den), eneg(emul(e.num, dd))), epow(e.den, 2))
    if isinstance(e, Func):
        da = result(e.arg)
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
    return _memoized(_subs, (e,), mapping)[0]


def _subs(e: Expr, mapping: Mapping[str, Expr], result) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        repl = mapping.get(e.name)
        return e if repl is None else as_expr(repl)
    if isinstance(e, Add):
        return eadd(*(result(t) for t in e.terms))
    if isinstance(e, Mul):
        return emul(*(result(f) for f in e.factors))
    if isinstance(e, Pow):
        return epow(result(e.base), e.exponent)
    if isinstance(e, Div):
        return ediv(result(e.num), result(e.den))
    if isinstance(e, Func):
        return efunc(e.name, result(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def distinct_nodes(*exprs: Expr) -> list:
    """Every distinct node of ``exprs``, each once, in the order the one
    walker, :func:`_memoized`, visits them: children first, left to right."""
    nodes: list = []
    _memoized(lambda node, _, __: nodes.append(node), exprs)
    return nodes


def free_symbols(e: Expr) -> frozenset:
    """Names of the variables in ``e``, held on each node once computed, like
    its sort key; a node shares a child's set where it adds no name to it."""
    if e._free is None:
        _memoized(_free_names, (e,), None, lambda node, _: node._free)
    return e._free


def _free_names(e: Expr, _, result) -> frozenset:
    names = frozenset((e.name,)) if type(e) is Var else _NO_NAMES
    for more in map(result, e._children()):
        if not more <= names:
            names = more if names <= more else names | more
    object.__setattr__(e, "_free", names)
    return names


# ---------------------------------------------------------------------------
# Printing


def to_text(e: Expr) -> str:
    """Canonical printer; emits the same grammar :func:`parse` accepts.

    Prints each distinct subtree once, after its children, by
    :func:`_to_text`; a leaf needs no walk.  A non-finite constant, which
    :func:`parse` has no literal for, raises :class:`DomainError`."""
    if type(e) in (Const, Var):
        return _to_text(e, None, None)
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _memoized(_to_text, (e,))[0]


def _to_text(e: Expr, _, text) -> str:
    """The text of ``e`` from ``text``, the texts of its children."""
    if type(e) is Var:
        return e.name
    if type(e) is Const:
        value = e.value
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"the constant {value} has no text that parse reads")
        return str(value)
    if isinstance(e, Add):
        out = text(e.terms[0])
        for t in e.terms[1:]:
            txt = text(t)
            if txt.startswith("-"):
                out += f" - {txt[1:]}"
            else:
                out += f" + {txt}"
        return out
    if isinstance(e, Mul):
        factors = e.factors
        sign = ""
        parts = []
        if isinstance(factors[0], Const):
            c = factors[0].value
            if c == -1:
                sign = "-"
                factors = factors[1:]
            elif not isinstance(c, float) and c < 0:
                sign = "-"
                parts.append(str(-c))
                factors = factors[1:]
        for f in factors:
            txt = text(f)
            if isinstance(f, (Add, Div)) or (isinstance(f, Const) and _float_key(f.value) < 0):
                txt = f"({txt})"
            parts.append(txt)
        return sign + "*".join(parts)
    if isinstance(e, Pow):
        base = text(e.base)
        if not isinstance(e.base, (Var, Func)):
            base = f"({base})"
        if e.exponent.denominator == 1 and e.exponent >= 0:
            return f"{base}^{e.exponent}"
        return f"{base}^({e.exponent})"
    if isinstance(e, Div):
        num = text(e.num)
        if isinstance(e.num, Add):
            num = f"({num})"
        den = text(e.den)
        if not isinstance(e.den, (Var, Func)):
            den = f"({den})"
        return f"{num}/{den}"
    if isinstance(e, Func):
        return f"{e.name}({text(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Parsing (precedence-climbing over a small token stream)

_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25

#: Levels of nesting (parentheses, unary minus, function arguments, right
#: operands of ``^``) :func:`parse` accepts: it keeps the parser and the sort
#: keys, each recursing per level, well inside the recursion limit.
MAX_NESTING = 200


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
        if ch.isdecimal() or (ch == "." and i + 1 < n and src[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdecimal() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            # Exponent notation, as ``repr`` prints floats: [eE][+-]?digits.
            if j < n and src[j] in "eE":
                k = j + 2 if j + 1 < n and src[j + 1] in "+-" else j + 1
                if k < n and src[k].isdecimal():
                    j = k
                    while j < n and src[j].isdecimal():
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
        if ch in "+-*/^()":
            kind = "op" if ch in "+-*/^" else "lparen" if ch == "(" else "rparen"
            tokens.append(_Token(kind, ch, i))
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
        self.alphabet = frozenset(alphabet)  # a frozenset comes back as itself
        self.tokens = _tokenize(src)
        self.idx = 0
        self.depth = 0

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

    def nested(self, tok: _Token, min_prec: int) -> Expr:
        """``expression(min_prec)`` one nesting level below ``tok``."""
        if self.depth == MAX_NESTING:
            raise _syntax_error(self.src, tok.pos, f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1
        e = self.expression(min_prec)
        self.depth -= 1
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
            right = self.nested(tok, prec) if tok.text == "^" else self.expression(prec + 1)
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
            return Const(int(tok.text) if tok.text.isdecimal() else Fraction(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return eneg(self.nested(tok, _UNARY_PRECEDENCE))
        if tok.kind == "lparen":
            inner = self.nested(tok, 0)
            closing = self.advance()
            if closing.kind != "rparen":
                raise _syntax_error(self.src, closing.pos, "')'")
            return inner
        if tok.kind == "name":
            if tok.text in FUNCTIONS:
                opening = self.advance()
                if opening.kind != "lparen":
                    raise _syntax_error(self.src, opening.pos, f"'(' after {tok.text}")
                arg = self.nested(opening, 0)
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

    Decimal literals, with or without an exponent (``1.5e-3``), become exact
    rationals.  Raises :class:`SyntaxError` (with ``.offset``) on malformed
    input or nesting deeper than :data:`MAX_NESTING`, and
    :class:`UnknownSymbol` on names outside the alphabet.
    """
    return _Parser(src, alphabet).parse()


# ---------------------------------------------------------------------------
# Sampling and the probabilistic zero test


@dataclass(frozen=True)
class ChartPoint:
    """A point of the total space in adapted coordinates."""

    x: tuple
    y: tuple


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

    def spans(self, names: Sequence[str]) -> list:
        """``(name, lo, hi - lo)`` for each of ``names``, sorted: what
        :meth:`draw` reads, formed once per sampling loop."""
        return [(n, lo, hi - lo) for n in sorted(names) for lo, hi in (self.interval(n),)]

    @staticmethod
    def draw(spans: list, rng: random.Random) -> dict:
        """A uniform point over ``spans``: ``lo + w * rng.random()`` is
        ``rng.uniform(lo, hi)`` to the bit, and draws as much."""
        return {n: lo + w * rng.random() for n, lo, w in spans}

    def center(self, names: Sequence[str]) -> dict:
        out = {}
        for n in names:
            lo, hi = self.interval(n)
            out[n] = 0.5 * (lo + hi)
        return out


def require_settings(trials: int, tol: float) -> None:
    """The rules :mod:`semispray.model` applies to ``trials`` and ``tol`` at
    the command line, for library callers: a nan or inf tolerance passes
    every residual."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def is_zero(e: Expr, box: Box = None, trials: int = 64, tol: float = 1e-9,
            seed: int = 0, params: Mapping[str, float] = None) -> ZeroResult:
    """Decide whether the canonical tree ``e`` vanishes identically (a tree
    built from raw nodes goes through :func:`simplify` first), with
    ``params`` bound: the one item of a :func:`decide` call."""
    return decide("is-zero", [""], [is_zero_literal(e)], [e], [], lambda jets, field: [jets[0][0]],
                  box, trials, tol, seed, params).items[0].result


def certify(check: str, residuals, box: Optional[Box], trials: int, tol: float,
            seed: int, params: Mapping[str, float] = None) -> ValidationReport:
    """Zero-test every ``(label, residual)`` pair, in order, into one report,
    each on its own by :func:`is_zero`."""
    report = ValidationReport(check=check, seed=seed)
    for label, residual in residuals:
        report.add(label, is_zero(residual, box, trials, tol, seed, params))
    return report


def decide(check: str, labels: Sequence[str], proven: Sequence[bool], outputs: Sequence[Expr],
           along: Sequence[str], values: Callable, box: Optional[Box], trials: int, tol: float,
           seed: int, params: Mapping[str, Number] = None) -> ValidationReport:
    """The verdict loop of every check: the report of ``check`` on the items
    ``labels`` from the jets of ``Program(outputs)`` along ``along``, of which
    ``values(jets, field)`` gives every item's value in the field's
    arithmetic, raising :class:`DomainError` where the point is singular.
    The names the program reads are sampled, and ``params`` bound, exactly
    mod p.  An item is ``proven-zero`` where ``proven`` says so (with every
    item proven, no program is built); else ``likely-zero`` with ``method``
    ``modular`` when its value is 0 at the point of :func:`modular_jets`
    (false with probability at most ``deg/p``; ``trials`` counts the points
    drawn); else sampled by :func:`sample_zero`, with ``method`` ``float``.
    The items share one program, so a float point singular for one item is
    skipped for all of them."""
    require_settings(trials, tol)
    report = ValidationReport(check=check, seed=seed)
    if all(proven):
        for label in labels:
            report.add(label, ZeroResult(ZeroStatus.PROVEN_ZERO, 0.0, seed=seed, trials=0))
        return report
    program = Program(outputs)
    names = sorted({name for _, name in program.reads} - set(params or ()))
    exact, drawn = modular_jets(program, names, along, trials=trials, seed=seed,
                                params=params, finish=values)
    sampled: dict = {}  # point -> its float values, or None where singular

    def at(env: dict) -> list:
        point = tuple(env[name] for name in names)
        if point not in sampled:
            try:  # ``run`` takes no slopes, singular where a value is not (``sqrt`` at 0)
                jets = (program.jets(env, along, FLOAT) if along
                        else [(v, ()) for v in program.run(env)])
                sampled[point] = values(jets, FLOAT)
            except DomainError:
                sampled[point] = None
        if sampled[point] is None:
            raise DomainError("the check is singular here")
        return sampled[point]

    for k, label in enumerate(labels):
        if proven[k]:
            result = ZeroResult(ZeroStatus.PROVEN_ZERO, 0.0, seed=seed, trials=0)
        elif exact is not None and exact[k] == 0:
            result = ZeroResult(ZeroStatus.LIKELY_ZERO, 0.0, seed, drawn, method="modular")
        else:
            result = replace(sample_zero(lambda env, k=k: at(env)[k], names, box=box,
                                         trials=trials, tol=tol, seed=seed, params=params),
                             method="float")
        report.add(label, result)
    return report


def sample_zero(value: Callable[[dict], float], names: Sequence[str], *, box: Optional[Box],
                trials: int, tol: float, seed: int,
                params: Mapping[str, float] = None) -> ZeroResult:
    """The float sampler of :func:`decide` and of the quadrature zero test:
    ``value`` is called on ``trials`` environments drawn uniformly from
    ``box`` over ``names`` with ``random.Random(seed)``, each extended by
    ``params``.  The first point with ``|value| > tol`` is returned as a
    ``NonZero`` witness, else the result is ``LikelyZero`` with the largest
    ``|value|`` seen and the count of points ``evaluated``.  Points where
    evaluation leaves the real domain are skipped; if every point is
    singular a :class:`DomainError` propagates."""
    require_settings(trials, tol)
    box = box or Box()
    params = params or {}
    rng = random.Random(seed)
    spans = box.spans(names)
    max_abs = 0.0
    evaluated = 0
    for _ in range(trials):
        env = box.draw(spans, rng)
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
    return ZeroResult(ZeroStatus.LIKELY_ZERO, max_abs, seed=seed, trials=trials,
                      evaluated=evaluated)


# ---------------------------------------------------------------------------
# Evaluation: one program, two back ends
#
# ``Program`` is the only walk that evaluates, built by the kernel's one
# walker, ``_memoized``: one slot per variable read and per distinct node, in
# post-order of first occurrence, which is the order of the nested
# left-to-right expression, so every float operation and the first guard to
# raise are those of the tree.  The guards are those
# of ``_guarded_namespace``.  The back ends differ only in how they sum:
# ``compile_evaluator`` renders Python source with ``+`` (fast, for the flow
# integrator; where Python's own ``/`` and ``**`` raise exactly where their
# guards would, it writes them and maps their errors to the guards'
# messages), ``Program.run`` interprets with ``math.fsum`` (correctly
# rounded whatever the term order, for every verdict, quadrature and probe).


def _guarded_namespace() -> dict:
    def _pow(b, e):
        if b == 0.0 and e < 0:
            raise DomainError("0 raised to a negative power")
        try:
            return b ** e
        except OverflowError:
            raise DomainError("overflow in power") from None

    def _root(b, e):
        # A fractional exponent, decided from the exact rational: its float
        # may be a whole number (``x^(9007199254740993/2)``).
        if b < 0.0:
            raise DomainError("negative base with fractional exponent")
        return _pow(b, e)

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

    return {"_pow": _pow, "_root": _root, "_div": _div, "_log": _log, "_sqrt": _sqrt,
            "_exp": _exp, "_sin": math.sin, "_cos": math.cos}


_GUARDS = _guarded_namespace()
_GUARD_NAMES = {fn: name for name, fn in _GUARDS.items()}
_OPS = {Add: math.fsum, Mul: math.prod, Div: _GUARDS["_div"]}


def _to_float(value: Number) -> float:
    try:
        return float(value)
    except OverflowError:
        raise DomainError("constant out of float range (|c| > 1.8e308)") from None


def _run(slots: list, reads, env: Mapping[str, float], ops) -> list:
    """``slots`` after each ``(slot, name)`` of ``reads`` from ``env``, then each op in turn."""
    try:
        for slot, name in reads:
            slots[slot] = float(env[name])
    except KeyError as err:
        raise UnknownSymbol(err.args[0], "evaluation environment") from None
    get = slots.__getitem__
    fsum, prod = math.fsum, math.prod
    # Operands are passed one by one or as an iterator, never unpacked
    # into a tuple: ``f(*map(...))`` resizes a fresh tuple on every call,
    # which leaves the interpreter's tuple free lists growing.
    for slot, op, args in ops:
        if op is fsum or op is prod:
            try:
                slots[slot] = op(map(get, args))
            except (ValueError, OverflowError) as err:  # fsum of infinities
                raise DomainError(f"overflow in sum: {err}") from None
        elif len(args) == 1:
            slots[slot] = op(get(args[0]))
        else:
            slots[slot] = op(get(args[0]), get(args[1]))
    return slots


class Program:
    """The straight-line program computing ``exprs``.

    ``reads`` are ``(slot, name)``, ``ops`` are ``(slot, op, operands)`` and
    ``outputs`` are operands; an operand ``a >= 0`` is a slot and ``a < 0``
    is the constant ``consts[a]``, whose exact value is ``exact[a]``.
    ``nodes[k]`` is the node ``ops[k]`` computes.  Building converts every
    constant to a float, so an out-of-range one raises :class:`DomainError`
    here.
    """

    __slots__ = ("size", "reads", "ops", "consts", "exact", "nodes", "outputs")

    def __init__(self, exprs: Sequence[Expr]):
        reads, ops, consts, exact, nodes = [], [], [], [], []

        def operand(node: Expr, _, local) -> int:
            """A constant's operand, or the slot a name is read into or an op writes."""
            if isinstance(node, Const):
                consts.append(_to_float(node.value))
                exact.append(node.value)
                return -len(consts)
            slot = len(reads) + len(ops)
            if isinstance(node, Var):
                reads.append((slot, node.name))
                return slot
            args = tuple(map(local, node._children()))
            if type(node) is Pow:
                consts.append(_to_float(node.exponent))
                exact.append(node.exponent)
                args += (-len(consts),)
                op = _GUARDS["_pow" if node.exponent.denominator == 1 else "_root"]
            else:
                op = _OPS.get(type(node)) or _GUARDS[f"_{node.name}"]
            ops.append((slot, op, args))
            nodes.append(node)
            return slot

        self.outputs = _memoized(operand, exprs)
        consts.reverse()  # the n-th constant found is consts[-n]
        exact.reverse()
        self.size = len(reads) + len(ops)
        self.reads, self.ops, self.consts, self.exact, self.nodes = reads, ops, consts, exact, nodes

    def run(self, env: Mapping[str, float]) -> list:
        """Every output at ``env``, a mapping of names to numbers, with
        ``math.fsum`` sums."""
        slots = _run([0.0] * self.size + self.consts, self.reads, env, self.ops)
        return [slots[a] for a in self.outputs]

    def curry(self, name: str) -> Callable[[Mapping[str, float]], Callable[[float], float]]:
        """The first output as a function of ``name``: ``curry(name)(env)`` runs the
        ops that do not read ``name`` once, the other names read from ``env``, and
        returns ``x ->`` the output at ``name = x``, by the ops of :meth:`run`."""
        late = {slot for slot, read in self.reads if read == name}
        for slot, _, args in self.ops:
            if not late.isdisjoint(args):
                late.add(slot)
        reads = [(slot, read) for slot, read in self.reads if read != name]
        free = [slot for slot, read in self.reads if read == name]
        fixed = [op for op in self.ops if op[0] not in late]
        varying = [op for op in self.ops if op[0] in late]

        def bind(env: Mapping[str, float]) -> Callable[[float], float]:
            slots = _run([0.0] * self.size + self.consts, reads, env, fixed)

            def at(x: float) -> float:
                for slot in free:
                    slots[slot] = float(x)
                return _run(slots, (), env, varying)[self.outputs[0]]

            return at

        return bind

    def value(self, env: Mapping[str, float]) -> float:
        """The first output at ``env``."""
        return self.run(env)[0]

    def jets(self, env: Mapping[str, Number], along: Sequence[str], field) -> list:
        """``(value, gradient)`` of every output at ``env``, in forward mode:
        the gradient holds the partials along the names in ``along``.  The
        arithmetic is ``field``'s, :data:`FLOAT` or a :class:`Modular`
        field.  Raises :class:`DomainError` where a value or partial leaves
        the field's domain (a zero denominator, say)."""
        zero = (field.zero,) * len(along)
        vals = [None] * self.size + [field.number(c) for c in self.exact]
        grads = [zero] * len(vals)
        position = {name: i for i, name in enumerate(along)}
        try:
            for slot, name in self.reads:
                vals[slot] = field.number(env[name])
                if name in position:
                    unit = list(zero)
                    unit[position[name]] = field.one
                    grads[slot] = unit
        except KeyError as err:
            raise UnknownSymbol(err.args[0], "evaluation environment") from None
        norm, total = field.norm, field.sum
        for (slot, op, args), node in zip(self.ops, self.nodes):
            if op is math.fsum:
                vals[slot] = total([vals[a] for a in args])
                grads[slot] = [total(column) for column in zip(*[grads[a] for a in args])]
            elif op is math.prod:
                v, g = vals[args[0]], grads[args[0]]
                for a in args[1:]:
                    w, h = vals[a], grads[a]
                    g = [norm(v * hi + w * gi) for gi, hi in zip(g, h)]
                    v = norm(v * w)
                vals[slot], grads[slot] = v, g
            elif type(node) is Div:
                num, den = args
                v, r = field.quotient(vals[num], vals[den])
                vals[slot] = v
                grads[slot] = [norm((gn - v * gd) * r) for gn, gd in zip(grads[num], grads[den])]
            else:  # a Pow or a Func of one argument
                vals[slot], slope = field.unary(node, vals[args[0]])
                grads[slot] = [norm(slope * g) for g in grads[args[0]]]
        return [(vals[a], grads[a]) for a in self.outputs]


def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """IEEE-754 value of ``e`` at ``env``; raises :class:`DomainError` on
    leaving the reals.  One-shot: to evaluate at many points, build the
    :class:`Program` once and call its ``value``."""
    return Program([e]).value(env)


class _Float:
    """The arithmetic of :meth:`Program.jets` in floats, with the guards of
    :meth:`Program.run`; sums are ``math.fsum``."""

    zero, one = 0.0, 1.0
    norm = float
    number = staticmethod(_to_float)

    @staticmethod
    def sum(values) -> float:
        try:
            return math.fsum(values)
        except (ValueError, OverflowError) as err:  # fsum of infinities
            raise DomainError(f"overflow in sum: {err}") from None

    @staticmethod
    def quotient(a: float, b: float):
        """``a / b`` and ``1 / b``, each rounded once."""
        return _GUARDS["_div"](a, b), _GUARDS["_div"](1.0, b)

    @staticmethod
    def unary(node: Expr, v: float):
        """The value of ``node`` and its derivative in its argument ``v``."""
        if type(node) is Pow:
            q = node.exponent
            power = _GUARDS["_pow" if q.denominator == 1 else "_root"]
            return power(v, float(q)), float(q) * power(v, float(q - 1))
        if node.name == "sin":
            return math.sin(v), math.cos(v)
        if node.name == "cos":
            return math.cos(v), -math.sin(v)
        if node.name == "exp":
            own = _GUARDS["_exp"](v)
            return own, own
        if node.name == "log":
            return _GUARDS["_log"](v), _GUARDS["_div"](1.0, v)
        own = _GUARDS["_sqrt"](v)
        return own, _GUARDS["_div"](0.5, own)


FLOAT = _Float()

#: The prime of :class:`Modular`, 2^61 - 1.
MODULUS = (1 << 61) - 1


class Modular:
    """The arithmetic of :meth:`Program.jets` in the prime field F_p,
    p = :data:`MODULUS`, exact.

    Each distinct ``Func`` node stands for a residue of its own, drawn from
    ``rng`` when first needed and kept, and the derivative rules read the
    same residues: ``sin(u)``'s slope is the residue of ``cos(u)``,
    ``exp(u)``'s its own, ``sqrt(u)``'s ``1/(2 own)``.  Values are then those
    of a lift of the expressions in which every function node is a new
    indeterminate, and the expressions are a specialization of that lift.
    So a lift that is identically zero proves them zero, and a lift that is
    not, a quotient of polynomials whose numerator has degree ``deg``,
    vanishes at a uniform random point with probability at most ``deg/p``
    (Schwartz 1980, Zippel 1979).  A lift can be nonzero where the
    expression is zero (``sin(u)^2 + cos(u)^2 - 1``).

    A zero denominator, or 0 to a negative power, raises
    :class:`DomainError`, and so does a root (a ``Pow`` with a fractional
    exponent): a d-th root mod p need not be on the real root's branch (the
    root of ``x1^2`` would be ``-x1`` at half the points), so
    :func:`modular_jets` evaluates no program with a root.
    """

    zero, one = 0, 1
    norm = staticmethod(MODULUS.__rmod__)  # x -> x mod p

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.residues: dict = {}  # Func node -> its residue

    def point(self, names: Iterable[str]) -> dict:
        """A uniform random point of F_p over ``names``."""
        return {n: self.rng.randrange(MODULUS) for n in sorted(names)}

    @staticmethod
    def sum(values) -> int:
        return sum(values) % MODULUS

    def number(self, c: Number) -> int:
        if isinstance(c, float):
            if not math.isfinite(c):
                raise DomainError(f"{c} has no residue mod p")
            c = Fraction(c)
        if type(c) is int:
            return c % MODULUS
        return c.numerator * self.inverse(c.denominator) % MODULUS

    @staticmethod
    def inverse(x: int) -> int:
        if x % MODULUS == 0:
            raise DomainError("division by zero mod p")
        return pow(x, -1, MODULUS)

    def quotient(self, a: int, b: int):
        """``a / b`` and ``1 / b``, from one inverse."""
        r = self.inverse(b)
        return a * r % MODULUS, r

    def residue(self, node: Expr) -> int:
        r = self.residues.get(node)
        if r is None:
            r = self.residues[node] = self.rng.randrange(MODULUS)
        return r

    def unary(self, node: Expr, v: int):
        """The value of ``node`` and its derivative in its argument ``v``."""
        if type(node) is Pow:
            n = node.exponent
            if type(n) is not int:
                raise DomainError("a root has no value mod p")
            if v == 0 and n < 1:
                raise DomainError("0 raised to a negative power mod p")
            return pow(v, n, MODULUS), n * pow(v, n - 1, MODULUS) % MODULUS
        own = self.residue(node)
        if node.name == "sin":
            return own, self.residue(Func("cos", node.arg))
        if node.name == "cos":
            return own, -self.residue(Func("sin", node.arg)) % MODULUS
        if node.name == "exp":
            return own, own
        if node.name == "log":
            return own, self.inverse(v)
        return own, self.inverse(2 * own)


def modular_jets(program: Program, names: Sequence[str], along: Sequence[str], *,
                 trials: int, seed: int, params: Mapping[str, Number] = None,
                 finish: Callable = None):
    """``(jets, drawn)``: the :meth:`Program.jets` of ``program`` along
    ``along`` in :class:`Modular` arithmetic with ``random.Random(seed)``,
    passed through ``finish(jets, field)`` if given, at the first of up to
    ``trials`` uniform random points of F_p over ``names`` (``params`` bound
    exactly) where neither raises :class:`DomainError`, and the points
    drawn.  ``jets`` is None when every point was singular, and, with no
    point drawn, when ``program`` holds a root (see :class:`Modular`)."""
    if any(type(node) is Pow and type(node.exponent) is not int for node in program.nodes):
        return None, 0
    field = Modular(random.Random(seed))
    for drawn in range(1, trials + 1):
        env = field.point(names)
        env.update(params or {})
        try:
            jets = program.jets(env, along, field)
            return (jets if finish is None else finish(jets, field)), drawn
        except DomainError:
            continue
    return None, trials


class Pattern:
    """The zero-pattern arithmetic of a check's values code, beside
    :data:`FLOAT` and :class:`Modular`, and its values: the literal 0
    (false) or may be nonzero (true).  A sum may be nonzero where a term
    may, a product where every factor may, a quotient where its numerator
    may, and a literal-0 pivot raises :class:`DomainError`.  With each input
    that may be nonzero read as an indeterminate, and each pivot taken not
    0 as a function of them, a literal 0 is 0 as a rational function, so
    wherever the exact values are defined.  Not bools: ``True - True == 0``."""

    __slots__ = ("nonzero",)

    def __new__(cls, nonzero):
        return cls.one if nonzero else cls.zero

    def __bool__(self) -> bool:
        return self.nonzero

    def __add__(self, other) -> "Pattern":
        return self if self.nonzero else other if type(other) is Pattern else Pattern(other)

    def __mul__(self, other) -> "Pattern":
        if self.nonzero:
            return other if type(other) is Pattern else Pattern(other)
        return self

    def __neg__(self) -> "Pattern":
        return self

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__
    __abs__ = __bool__  # ``linalg.solver`` pivots on the first that may be nonzero
    norm = staticmethod(__neg__)  # the identity

    @staticmethod
    def sum(values: list) -> "Pattern":
        return Pattern(values.count(Pattern.zero) < len(values))

    @staticmethod
    def quotient(a: "Pattern", b: "Pattern"):  # ``linalg.solver`` refuses a literal-0 pivot
        return a, Pattern.one

    @staticmethod
    def jets(outputs: Sequence[Expr], along: Sequence[str]) -> list:
        """Each output's ``(value, gradient)``: it may be nonzero where it is
        not the literal 0, and its partial along a name where it reads it."""
        zero, one = Pattern.zero, Pattern.one
        return [(zero if is_zero_literal(e) else one, [one if name in free else zero
                                                       for name in along])
                for e in outputs for free in (free_symbols(e) if along else (),)]


Pattern.zero, Pattern.one = object.__new__(Pattern), object.__new__(Pattern)
Pattern.zero.nonzero, Pattern.one.nonzero = False, True


def float_source(value: float) -> str:
    """Python source of a float, for generated code."""
    if not math.isfinite(value):  # repr gives the bare names inf and nan
        return f"float('{value!r}')"
    # Parenthesized, since ``-2.0 ** 3.0`` parses as ``-(2.0 ** 3.0)``.
    return f"({value!r})" if math.copysign(1.0, value) < 0 else repr(value)


#: Nesting depth up to which ``compile_evaluator`` writes a single-use sum
#: or product into its consumer; a deeper one gets its own temporary, since
#: Python refuses code nested 200 parentheses deep and its compiler recurses
#: once per operator of an expression.
_FOLD_DEPTH = 100


def compile_evaluator(exprs: Sequence[Expr], names: Sequence[str]):
    """Compile expressions into one fast ``f(values) -> list[float]``.

    ``values`` binds positionally to ``names``.  The source is the
    :class:`Program` of ``exprs`` with ``+`` sums, so results are
    bit-identical to each expression as a nested left-to-right ``+``/``*``
    formula, and the guards raise where :meth:`Program.run` raises.  A
    division and a power with a non-negative integer exponent are Python's
    own ``/`` and ``**``: one ``try`` turns the ``ZeroDivisionError`` and
    ``OverflowError`` only they can raise into the guards' messages.  A sum
    or product used once is written into its one consumer: neither can
    raise, so the first guard to raise stays the same.  Raises
    :class:`UnknownSymbol` for a name outside ``names``.
    """
    index = {n: i for i, n in enumerate(names)}
    program = Program(exprs)
    consts = program.consts
    div, power = _GUARDS["_div"], _GUARDS["_pow"]
    uses = [0] * program.size
    for a in [a for _slot, _op, args in program.ops for a in args] + program.outputs:
        if a >= 0:
            uses[a] += 1

    def operand(a: int) -> str:
        return f"_t{a}" if a >= 0 else float_source(consts[a])

    lines = []
    try:
        lines += [f"_t{slot} = _v[{index[name]}]" for slot, name in program.reads]
    except KeyError as err:
        raise UnknownSymbol(err.args[0], "compiled evaluator") from None
    pending: dict = {}  # single-use sum or product -> (source, nesting depth)

    def place(args, width: int):
        """Sources of the operands of an operation on ``width`` of them, and
        its nesting depth; a pending operand is folded in or written out."""
        parts, depth = [], 0
        for a in args:
            if a in pending:
                code, inner = pending.pop(a)
                if width + inner <= _FOLD_DEPTH:
                    parts.append(f"({code})")
                    depth = max(depth, inner)
                    continue
                lines.append(f"_t{a} = {code}")
            parts.append(operand(a))
        return parts, width + depth

    for slot, op, args in program.ops:
        if op is math.fsum or op is math.prod:
            parts, depth = place(args, len(args))
            code = (" + " if op is math.fsum else " * ").join(parts)
            if uses[slot] == 1:
                pending[slot] = (code, depth)
                continue
        elif op is div or (op is power and consts[args[1]] >= 0):
            parts, _ = place(args, 2)
            code = f"{parts[0]} {'/' if op is div else '**'} {parts[1]}"
        else:
            parts, _ = place(args, len(args))
            code = f"{_GUARD_NAMES[op]}({', '.join(parts)})"
        lines.append(f"_t{slot} = {code}")
    outputs = [place([a], 1)[0][0] for a in program.outputs]
    source = "\n".join(["def _compiled(_v):",
                        "    try:",
                        *(f"        {line}" for line in lines),
                        f"        return [{', '.join(outputs)}]",
                        "    except ZeroDivisionError:",
                        "        raise _DomainError('division by zero') from None",
                        "    except OverflowError:",
                        "        raise _DomainError('overflow in power') from None"])
    ns = dict(_GUARDS, _DomainError=DomainError)
    exec(source, ns)  # noqa: S102 - source is generated here
    return ns["_compiled"]
