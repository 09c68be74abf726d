"""Shared test utilities: random raw expression trees, reference evaluator,
substitution and derivative walkers, finite differences, zero-assertion
helpers, and the symbolic prolongation sections that ``check prolongation``
is compared with."""

import contextlib
import gc
import itertools
import math
import random
from fractions import Fraction

import mpmath

from semispray import dynamics, expr as ex, linalg
from semispray.homotopy import TVAR, bigrade, is_fiber_integral
from semispray.algebroid import AForm, prolong_chart
from semispray.poisson import VectorFieldOnA
from semispray.prolongation import ProlongSection
from semispray.errors import DomainError, UnknownSymbol
from semispray.report import ZeroStatus

COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
          Fraction(-1, 3), Fraction(3), Fraction(-2), Fraction(1, 4)]


def random_raw_tree(rng: random.Random, names, depth=3, allow_funcs=True):
    """A raw (not canonicalized) expression tree exercising every node kind."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ex.Const(rng.choice(COEFFS))
        return ex.Var(rng.choice(list(names)))
    kind = rng.randrange(6 if allow_funcs else 5)
    if kind == 0:
        return ex.Add(tuple(random_raw_tree(rng, names, depth - 1, allow_funcs)
                            for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return ex.Mul(tuple(random_raw_tree(rng, names, depth - 1, allow_funcs)
                            for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return ex.Pow(random_raw_tree(rng, names, depth - 1, allow_funcs),
                      Fraction(rng.choice([2, 3, -1, Fraction(1, 2)])))
    if kind == 3:
        return ex.Mul((ex.MINUS_ONE, random_raw_tree(rng, names, depth - 1, allow_funcs)))
    if kind == 4:
        den = ex.Add((ex.Const(Fraction(2)),
                      ex.Pow(ex.Var(rng.choice(list(names))), Fraction(2))))
        return ex.Div(random_raw_tree(rng, names, depth - 1, allow_funcs), den)
    return ex.Func(rng.choice(["sin", "cos", "exp"]),
                   random_raw_tree(rng, names, depth - 1, allow_funcs=False))


def random_polynomial(rng: random.Random, names, max_degree=3, terms=3):
    pieces = []
    for _ in range(terms):
        factors = [ex.Const(rng.choice(COEFFS))]
        for _ in range(rng.randint(0, max_degree)):
            factors.append(ex.Var(rng.choice(list(names))))
        pieces.append(ex.emul(*factors))
    return ex.eadd(*pieces)


def reference_value(e, env):
    """Reference oracle for the evaluators: a recursive walk of the tree with
    ``math.fsum`` sums and the domain rules written out from the exact
    exponent, independent of ``expr.Program``.  Children are evaluated left
    to right before their parent, as in the nested expression."""
    if isinstance(e, ex.Const):
        return float(e.value)
    if isinstance(e, ex.Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UnknownSymbol(e.name, "evaluation environment") from None
    if isinstance(e, ex.Add):
        terms = [reference_value(t, env) for t in e.terms]
        try:
            return math.fsum(terms)
        except (ValueError, OverflowError):  # -inf + inf, or an overflowing partial sum
            raise DomainError("overflow in sum") from None
    if isinstance(e, ex.Mul):
        out = 1.0
        for f in e.factors:
            out *= reference_value(f, env)
        return out
    if isinstance(e, ex.Pow):
        base = reference_value(e.base, env)
        exp = e.exponent
        if base == 0.0 and exp < 0:
            raise DomainError("0 raised to a negative power")
        if base < 0.0 and exp.denominator != 1:
            raise DomainError("negative base with fractional exponent")
        try:
            return base ** float(exp)
        except OverflowError:
            raise DomainError("overflow in power") from None
    if isinstance(e, ex.Div):
        num, den = reference_value(e.num, env), reference_value(e.den, env)
        if den == 0.0:
            raise DomainError("division by zero")
        return num / den
    if isinstance(e, ex.Func):
        x = reference_value(e.arg, env)
        if e.name == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                raise DomainError("overflow in exp") from None
        if e.name == "log" and x <= 0.0:
            raise DomainError("log of a non-positive value")
        if e.name == "sqrt" and x < 0.0:
            raise DomainError("square root of a negative value")
        return getattr(math, e.name)(x)
    raise TypeError(f"not an expression: {e!r}")


def precise_value(e, env, digits=60):
    """The value of ``e`` at the float point ``env`` in mpmath at ``digits``
    significant digits, for a reference free of float roundoff; the caller
    has checked that ``e`` is defined there."""
    memo = {}

    def value(node):
        if node in memo:
            return memo[node]
        if isinstance(node, ex.Const):
            c = Fraction(node.value)
            v = mpmath.mpf(c.numerator) / c.denominator
        elif isinstance(node, ex.Var):
            v = mpmath.mpf(env[node.name])
        elif isinstance(node, ex.Add):
            v = mpmath.fsum(value(t) for t in node.terms)
        elif isinstance(node, ex.Mul):
            v = mpmath.fprod(value(f) for f in node.factors)
        elif isinstance(node, ex.Pow):
            q = node.exponent
            v = value(node.base) ** (q if q.denominator == 1
                                     else mpmath.mpf(q.numerator) / q.denominator)
        elif isinstance(node, ex.Div):
            v = value(node.num) / value(node.den)
        else:
            v = getattr(mpmath, node.name)(value(node.arg))
        memo[node] = v
        return v

    with mpmath.workdps(digits):
        return float(value(e))


def reference_subs(e, mapping):
    """Reference for :func:`expr.subs` and :func:`expr.simplify`: the plain
    recursive rebuild, which visits every node of the tree, shared or not."""
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Var):
        repl = mapping.get(e.name)
        return e if repl is None else ex.as_expr(repl)
    if isinstance(e, ex.Add):
        return ex.eadd(*(reference_subs(t, mapping) for t in e.terms))
    if isinstance(e, ex.Mul):
        return ex.emul(*(reference_subs(f, mapping) for f in e.factors))
    if isinstance(e, ex.Pow):
        return ex.epow(reference_subs(e.base, mapping), e.exponent)
    if isinstance(e, ex.Div):
        return ex.ediv(reference_subs(e.num, mapping), reference_subs(e.den, mapping))
    if isinstance(e, ex.Func):
        return ex.efunc(e.name, reference_subs(e.arg, mapping))
    raise TypeError(f"not an expression: {e!r}")


def reference_diff(e, name):
    """Reference for :func:`expr.diff`: the plain recursive derivative,
    which differentiates every node of the tree, shared or not."""
    if isinstance(e, ex.Const):
        return ex.ZERO
    if isinstance(e, ex.Var):
        return ex.ONE if e.name == name else ex.ZERO
    if isinstance(e, ex.Add):
        return ex.eadd(*(reference_diff(t, name) for t in e.terms))
    if isinstance(e, ex.Mul):
        pieces = []
        for i, f in enumerate(e.factors):
            df = reference_diff(f, name)
            if ex.is_zero_literal(df):
                continue
            others = e.factors[:i] + e.factors[i + 1:]
            pieces.append(ex.emul(df, *others))
        return ex.eadd(*pieces)
    if isinstance(e, ex.Pow):
        db = reference_diff(e.base, name)
        if ex.is_zero_literal(db):
            return ex.ZERO
        return ex.emul(ex.Const(e.exponent), ex.epow(e.base, e.exponent - 1), db)
    if isinstance(e, ex.Div):
        dn = reference_diff(e.num, name)
        dd = reference_diff(e.den, name)
        if ex.is_zero_literal(dd):
            return ex.ediv(dn, e.den)
        return ex.ediv(ex.eadd(ex.emul(dn, e.den), ex.eneg(ex.emul(e.num, dd))),
                       ex.epow(e.den, 2))
    if isinstance(e, ex.Func):
        da = reference_diff(e.arg, name)
        if ex.is_zero_literal(da):
            return ex.ZERO
        if e.name == "sin":
            return ex.emul(ex.efunc("cos", e.arg), da)
        if e.name == "cos":
            return ex.eneg(ex.emul(ex.efunc("sin", e.arg), da))
        if e.name == "exp":
            return ex.emul(e, da)
        if e.name == "log":
            return ex.ediv(da, e.arg)
        if e.name == "sqrt":
            return ex.ediv(da, ex.emul(ex.Const(2), e))
    raise TypeError(f"not an expression: {e!r}")


class ReferenceProgram(ex.Program):
    """Reference for :class:`expr.Program`'s build, on its own explicit
    stack: one slot per name read and per distinct node in post-order of
    first occurrence, each constant an operand where it is first found."""

    def __init__(self, exprs):
        reads, ops, consts, exact, nodes = [], [], [], [], []
        local: dict = {}  # distinct node -> its operand
        stack = [(e, None) for e in reversed(exprs)]
        while stack:
            node, children = stack.pop()
            if children is not None:  # every child has its operand
                args = tuple([local[c] for c in children])
                if type(node) is ex.Pow:
                    consts.append(ex._to_float(node.exponent))
                    exact.append(node.exponent)
                    args += (-len(consts),)
                    op = ex._GUARDS["_pow" if node.exponent.denominator == 1 else "_root"]
                else:
                    op = ex._OPS.get(type(node)) or ex._GUARDS[f"_{node.name}"]
                local[node] = slot = len(reads) + len(ops)
                ops.append((slot, op, args))
                nodes.append(node)
            elif node in local:
                continue
            elif isinstance(node, ex.Const):
                consts.append(ex._to_float(node.value))
                exact.append(node.value)
                local[node] = -len(consts)
            elif isinstance(node, ex.Var):
                local[node] = slot = len(reads) + len(ops)
                reads.append((slot, node.name))
            else:
                children = node._children()
                stack.append((node, children))
                stack.extend([(c, None) for c in reversed(children)])
        consts.reverse()  # the n-th constant found is consts[-n]
        exact.reverse()
        self.size = len(reads) + len(ops)
        self.reads, self.ops, self.consts, self.exact, self.nodes = reads, ops, consts, exact, nodes
        self.outputs = [local[e] for e in exprs]


def reference_to_text(e):
    """Reference for :func:`expr.to_text`'s walk: its own explicit stack,
    each distinct subtree printed once after its children, a leaf here and
    an inner node by ``expr._to_text``."""

    def leaf(node):
        if type(node) is ex.Var:
            return node.name
        if isinstance(node.value, float) and not math.isfinite(node.value):
            raise DomainError(f"the constant {node.value} has no text that parse reads")
        return str(node.value)

    if isinstance(e, (ex.Const, ex.Var)):
        return leaf(e)
    memo: dict = {}
    text = memo.__getitem__
    stack = [e]
    while stack:
        node = stack.pop()
        if node is None:  # the children of the node below are printed
            node = stack.pop()
            memo[node] = ex._to_text(node, None, text)
        elif node not in memo:
            stack += (node, None)
            for child in node._children():
                if child in memo:
                    continue
                if type(child) in (ex.Const, ex.Var):
                    memo[child] = leaf(child)
                else:
                    stack.append(child)
            if stack[-1] is None:  # no child left to print
                del stack[-2:]
                memo[node] = ex._to_text(node, None, text)
    return memo[e]


def compiled_source(exprs, names, program=ex.Program):
    """The source :func:`expr.compile_evaluator` writes for ``exprs`` over
    ``names``, built on ``program`` (:class:`expr.Program` or a reference)."""
    sources = []
    saved = ex.Program
    ex.Program = program
    ex.exec = lambda source, ns: sources.append(source) or exec(source, ns)  # noqa: S102
    try:
        ex.compile_evaluator(exprs, names)
    finally:
        ex.Program = saved
        del ex.exec
    return sources[0]


def reference_nodes(e):
    """Reference for :func:`expr.distinct_nodes` and :func:`expr.free_symbols`:
    the set of distinct nodes of ``e``, by a recursive walk that enters each
    once."""
    seen = set()

    def visit(node):
        if node not in seen:
            seen.add(node)
            for child in node._children():
                visit(child)

    visit(e)
    return seen


def constant_types(e):
    """The type of every constant in ``e``, in pre-order: with
    :func:`expr.to_text` it tells ``2.0`` from ``2`` at every position."""
    if isinstance(e, ex.Const):
        return [type(e.value)]
    return [t for c in e._children() for t in constant_types(c)]


def point_env(point, chart):
    """The evaluation environment of a ``ChartPoint`` on ``chart``."""
    return {**dict(zip(chart.coords, point.x, strict=True)),
            **dict(zip(chart.fibers, point.y, strict=True))}


def central_difference(e, name, env, step=1e-6):
    lo = dict(env)
    hi = dict(env)
    lo[name] -= step
    hi[name] += step
    return (reference_value(e, hi) - reference_value(e, lo)) / (2.0 * step)


def assert_proven_zero(e):
    simplified = ex.simplify(e)
    assert ex.is_zero_literal(simplified), f"expected literal zero, got {ex.to_text(simplified)}"


def assert_certified_zero(e, tol=1e-9, seed=0, box=None, trials=64):
    result = ex.is_zero(e, box=box, trials=trials, tol=tol, seed=seed)
    assert result.status is not ZeroStatus.NONZERO, (
        f"nonzero: |{result.witness_value}| at {result.witness}")
    return result


@contextlib.contextmanager
def cyclic_garbage():
    """Run the block with the cyclic collector off and ``gc.DEBUG_SAVEALL``
    set; the yielded list then receives every object that only the cyclic
    collector could free.  The collector's state is restored on exit."""
    gc.collect()
    enabled, debug, saved = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.disable()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    found = []
    try:
        yield found
        gc.collect()
        found.extend(gc.garbage[saved:])
    finally:
        del gc.garbage[saved:]
        gc.set_debug(debug)
        if enabled:
            gc.enable()


def generated_solve(a, rhs, literal=False):
    """Solve ``a x = rhs`` with the unrolled elimination the flow writes
    (``dynamics._Elimination``), run on ``a`` and ``rhs`` as named values,
    or folded while the source is written with ``literal``.  A zero pivot
    raises ``DomainError``, as in a flow."""
    size = len(a)
    writer = dynamics._Writer("_w")
    if literal:
        matrix, b = [list(map(float, row)) for row in a], list(map(float, rhs))
    else:
        matrix = [[f"_a{i}_{j}" for j in range(size)] for i in range(size)]
        b = [f"_b{i}" for i in range(size)]
    x = dynamics._Elimination(writer, matrix).solve(writer, b)
    source = ["def _solve(_a, _b):", "    try:"]
    if not literal:
        source += [f"        [{', '.join(n for row in matrix for n in row)}] = _a",
                   f"        [{', '.join(b)}] = _b"]
    source += [f"        {line}" for line in writer.lines]
    source += [f"        return [{', '.join(map(dynamics._src, x))}]",
               *dynamics._RAISE_ON_ZERO_PIVOT]
    solve = dynamics._function(source, "_solve", None)
    return solve([float(v) for row in a for v in row], [float(v) for v in rhs])


def generated_inverse(a, literal=False):
    """The inverse of ``a``, one :func:`generated_solve` per unit column."""
    size = len(a)
    columns = [generated_solve(a, [1.0 if i == j else 0.0 for i in range(size)], literal)
               for j in range(size)]
    return [[columns[j][i] for j in range(size)] for i in range(size)]


def anchor(section):
    """The vector field of a prolongation section ``a^j E_j + b^k U_k``:
    ``Vx^i = rho^i_j a^j``, ``Vy^k = b^k``."""
    chart = section.chart
    return VectorFieldOnA(chart, linalg.mat_vec(chart.rho, section.a), list(section.b))


def add_sections(s, t):
    """The sum of two prolongation sections, coefficient by coefficient."""
    return ProlongSection(s.chart, [ex.eadd(p, q) for p, q in zip(s.a, t.a)],
                          [ex.eadd(p, q) for p, q in zip(s.b, t.b)])


def pullback_horizontal(theta):
    """A form on the base algebroid pulled back through the frame
    projection: same coefficients, frame legs only."""
    return AForm(prolong_chart(theta.chart), theta.degree, theta.coeffs)


def vertical_correction(data, horizontal, base_potential):
    """The vertical section ``Z`` with ``i_Z omega_L = -d(potential) -
    i_sigma Theta``, from the exact Hessian inverse: with ``sigma`` the
    energy Hamiltonian section, ``sigma + Z`` is a Hamiltonian section of
    the twisted 2-section for ``E_L`` plus the potential."""
    chart = data.chart
    f = ex.ZERO if base_potential is None else ex.as_expr(base_potential)
    y = [ex.Var(nm) for nm in chart.fibers]
    rhs = []
    for j in range(chart.r):
        pieces = [ex.eneg(chart.anchor_derivative(j, f))]
        if horizontal is not None:
            pieces += [ex.eneg(ex.emul(y[a], horizontal.get((a, j)))) for a in range(chart.r)]
        rhs.append(ex.eadd(*pieces))
    return ProlongSection(chart, [ex.ZERO] * chart.r, linalg.mat_vec(data.Minv, rhs))


def _integrate_unit(e):
    """Exact ``int_0^1 e d_t`` for canonical ``e`` polynomial in the scaling
    parameter; ``None`` when the parameter appears non-polynomially."""

    def term(t):
        if isinstance(t, ex.Div):
            if TVAR in ex.free_symbols(t.den):
                return None
            inner = _integrate_unit(t.num)
            return None if inner is None else ex.ediv(inner, t.den)
        factors = t.factors if isinstance(t, ex.Mul) else (t,)
        power = 0
        rest = []
        for f in factors:
            if isinstance(f, ex.Var) and f.name == TVAR:
                power += 1
            elif isinstance(f, ex.Pow) and isinstance(f.base, ex.Var) and f.base.name == TVAR:
                if f.exponent.denominator != 1 or f.exponent < 0:
                    return None
                power += int(f.exponent)
            elif TVAR in ex.free_symbols(f):
                return None
            else:
                rest.append(f)
        return ex.emul(ex.Const(Fraction(1, power + 1)), *rest)

    if isinstance(e, ex.Add):
        pieces = [term(t) for t in e.terms]
        if any(p is None for p in pieces):
            return None
        return ex.eadd(*pieces)
    return term(e)


def reference_radial_homotopy(form):
    """The radial homotopy by substitution: each coefficient is scaled by
    ``y -> _t*y`` and ``_t^(q-1)``, and the integrand is integrated term by
    term where it is polynomial in ``_t``, else kept as a fiber integral."""
    chart = form.chart.base
    r = chart.r
    mapping = {nm: ex.emul(ex.Var(TVAR), ex.Var(nm)) for nm in chart.fibers}
    coeffs = {}
    for (p, q), block in bigrade(form).items():
        if q == 0:
            continue
        t_power = ex.epow(ex.Var(TVAR), q - 1) if q > 1 else ex.ONE
        for idx_i in itertools.combinations(range(r), p):
            for rest in itertools.combinations(range(r, 2 * r), q - 1):
                pieces = []
                for j in range(r):
                    value = block.get(idx_i + (r + j,) + rest)
                    if ex.is_zero_literal(value):
                        continue
                    if is_fiber_integral(value):
                        raise ValueError("radial integral of an unevaluated fiber integral is not supported")
                    pieces.append(ex.emul(ex.Var(chart.fibers[j]), ex.subs(value, mapping)))
                if not pieces:
                    continue
                integrand = ex.emul(t_power, ex.eadd(*pieces))
                if p % 2:
                    integrand = ex.eneg(integrand)
                exact = _integrate_unit(integrand)
                coeffs[idx_i + rest] = exact if exact is not None else integrand
    return AForm(form.chart, form.degree - 1, coeffs)


def reference_dsecond(form):
    """The vertical differential by ``diff``: on each bidegree-(p, q)
    component, ``(-1)^p`` times the alternating fiber derivative."""
    chart = form.chart.base
    r = chart.r
    coeffs = {}
    for (p, q), block in bigrade(form).items():
        for idx_i in itertools.combinations(range(r), p):
            for tup in itertools.combinations(range(r, 2 * r), q + 1):
                pieces = []
                for pos, j in enumerate(tup):
                    rest = tup[:pos] + tup[pos + 1:]
                    value = ex.diff(block.get(idx_i + rest), chart.fibers[j - r])
                    pieces.append(value if pos % 2 == 0 else ex.eneg(value))
                total = ex.eadd(*pieces)
                coeffs[idx_i + tup] = ex.eneg(total) if p % 2 else total
    return AForm(form.chart, form.degree + 1, coeffs)


def reference_psi_star(form, t):
    """The fiber-scaling pullback by substitution: ``t^q * w(x, t y)``."""
    t = ex.as_expr(t)
    if not isinstance(t, ex.Const):
        raise ValueError("scaling parameter must be numeric")
    mapping = {nm: ex.emul(t, ex.Var(nm)) for nm in form.chart.base.fibers}
    coeffs = {}
    for (_, q), block in bigrade(form).items():
        factor = ex.epow(t, q) if q else ex.ONE
        for key, v in block.coeffs.items():
            coeffs[key] = ex.emul(factor, ex.subs(v, mapping))
    return AForm(form.chart, form.degree, coeffs)
