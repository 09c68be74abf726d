"""Numeric flows of vector fields on the total space.

A :class:`~semispray.poisson.FactoredField` is compiled once per
integration from the entries of ``M``, ``N``, ``rho`` and the partials of
``G``, followed by generated straight-line code that solves with ``M`` by
elimination with partial pivoting.  ``rk4`` is the
classical fixed-step scheme: the whole run is one generated loop that keeps
the state in locals, runs the step unrolled into the same straight-line
code, checks the norm bound inline and appends one flat row per step.
``rk45`` is embedded Dormand-Prince 5(4) with local error control.  A
:class:`Trajectory` holds the rows ``(t, *x, *y, drift)`` of both; the drift
tracks a supplied invariant (normally the generating Hamiltonian) along the
flow.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from . import expr as ex
from .errors import BlowUp, DomainError, StepCollapse
from .poisson import FactoredField


@dataclass
class Trajectory:
    """A flow as rows ``(t, *x, *y, drift)``, one per recorded step."""

    coords: Sequence[str]
    fibers: Sequence[str]
    rows: List[tuple] = field(default_factory=list)

    @property
    def max_drift(self) -> float:
        return max((abs(v) for v in self.invariant_drift), default=0.0)

    @property
    def times(self) -> List[float]:
        return [row[0] for row in self.rows]

    @property
    def states(self) -> List[ex.ChartPoint]:
        n = len(self.coords)
        return [ex.ChartPoint(row[1:n + 1], row[n + 1:-1]) for row in self.rows]

    @property
    def invariant_drift(self) -> List[float]:
        return [row[-1] for row in self.rows]

    def write_csv(self, stream) -> None:
        # Names may need quoting; a float's repr never does, so a row is the
        # reprs joined as csv.writer would write them.
        csv.writer(stream).writerow(["t", *self.coords, *self.fibers, "drift"])
        stream.writelines(",".join(map(repr, row)) + "\r\n" for row in self.rows)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        self.write_csv(buffer)
        return buffer.getvalue()

    def to_dict(self) -> dict:
        return {
            "coords": list(self.coords),
            "fibers": list(self.fibers),
            "times": self.times,
            "states": [{"x": list(s.x), "y": list(s.y)} for s in self.states],
            "invariant_drift": self.invariant_drift,
        }


#: Relative local error tolerance of the ``rk45`` step control.
RK45_RTOL = 1e-9

# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _axpy(state: List[float], scale: float, delta: List[float]) -> List[float]:
    return [s + scale * d for s, d in zip(state, delta)]


def _sup_norm(state: List[float]) -> float:
    """Largest absolute component; inf if one is inf or nan (``max`` can miss a nan)."""
    if all(map(math.isfinite, state)):
        return max(map(abs, state))
    return math.inf


def _literal(e: ex.Expr) -> Optional[float]:
    """The float of a constant entry, which the generated code folds in; None
    for any other entry, and for a constant beyond float range, which the
    entry program refuses."""
    if isinstance(e, ex.Const):
        try:
            return float(e.value)
        except OverflowError:
            return None
    return None


def _src(value) -> str:
    """Source of a value: a local's name or a float literal."""
    return value if isinstance(value, str) else ex.float_source(value)


class _Writer:
    """Straight-line source over values, each a float literal (folded while
    the source is written) or the name of a local (``prefix`` and a count)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: List[str] = []
        self._count = itertools.count()

    def fresh(self) -> str:
        return f"{self.prefix}{next(self._count)}"

    def let(self, code: str) -> str:
        name = self.fresh()
        self.lines.append(f"{name} = {code}")
        return name

    def combination(self, terms, divisor=1.0):
        """``(sum of sign * product of factors) / divisor`` over ``terms`` of
        ``(sign, factors)``, written as one left-to-right line.  Literal
        factors fold into their term's coefficient, and a term whose
        coefficient is 0 is dropped.  A division by a name is always
        written, so a zero pivot raises even where the sum folds to 0."""
        parts = []
        for sign, factors in terms:
            coeff = float(sign)
            names = []
            for value in factors:
                if isinstance(value, str):
                    names.append(value)
                else:
                    coeff *= value
            if coeff != 0.0:
                parts.append((coeff, names))
        if all(not names for _, names in parts) and not isinstance(divisor, str) and divisor:
            return sum(coeff for coeff, _ in parts) / divisor
        pieces = []
        for coeff, names in parts:
            if pieces:
                pieces.append("-" if coeff < 0 else "+")
                coeff = abs(coeff)
            product = " * ".join(names)
            if not names:
                pieces.append(_src(coeff))
            elif coeff == 1.0:
                pieces.append(product)
            elif coeff == -1.0:
                pieces.append(f"-{product}")
            else:
                pieces.append(f"{_src(coeff)} * {product}")
        code = " ".join(pieces) or "0.0"
        if divisor == 1.0:
            if len(parts) == 1 and parts[0][0] == 1.0 and len(parts[0][1]) == 1:
                return code  # a name as it is
            return self.let(code)
        return self.let(f"({code}) / {_src(divisor)}")

    def swap_if(self, flag, upper: list, lower: list):
        """``(lower, upper)`` when ``flag`` holds, else ``(upper, lower)``;
        positions where the two differ become fresh names.  A flag decided
        while writing (a bool) swaps at once."""
        if not isinstance(flag, str):
            return (lower, upper) if flag else (upper, lower)
        upper, lower = list(upper), list(lower)
        targets, if_true, if_false = [], [], []
        for j, (a, b) in enumerate(zip(upper, lower)):
            if a == b:
                continue
            upper[j], lower[j] = self.fresh(), self.fresh()
            targets += [upper[j], lower[j]]
            if_true += [_src(b), _src(a)]
            if_false += [_src(a), _src(b)]
        if targets:
            self.lines += [f"if {flag}:", f"    {', '.join(targets)} = {', '.join(if_true)}",
                           "else:", f"    {', '.join(targets)} = {', '.join(if_false)}"]
        return upper, lower


class _Elimination:
    """Gaussian elimination with partial pivoting of a square matrix of
    values, unrolled through a :class:`_Writer`: a row whose entry is the
    literal 0 is never a pivot candidate nor eliminated, and a pivot is
    chosen while writing where at most one candidate is left.  ``solve``
    replays the row swaps and eliminations on a right-hand side."""

    def __init__(self, writer: _Writer, a: List[list]):
        size = len(a)
        a = [list(row) for row in a]
        self.steps = []  # ("swap", k, i, flag) and ("eliminate", k, i, factor)
        for k in range(size):
            rows = [i for i in range(k, size) if isinstance(a[i][k], str) or a[i][k] != 0.0]
            flags = [(i, None) for i in rows[1:]]  # None: compare while running
            if rows and rows[0] != k:  # the first candidate moves up while writing
                flags.insert(0, (rows[0], True))
                rows[0] = k
            for i, flag in flags:
                if flag is None:
                    candidate, pivot = a[i][k], a[k][k]
                    if isinstance(candidate, str) or isinstance(pivot, str):
                        flag = writer.let(f"abs({_src(candidate)}) > abs({_src(pivot)})")
                    else:
                        flag = abs(candidate) > abs(pivot)
                a[k][k:], a[i][k:] = writer.swap_if(flag, a[k][k:], a[i][k:])
                self.steps.append(("swap", k, i, flag))
            for i in rows[1:]:
                factor = writer.combination([(1, [a[i][k]])], a[k][k])
                a[i][k] = 0.0
                for j in range(k + 1, size):
                    a[i][j] = writer.combination([(1, [a[i][j]]), (-1, [factor, a[k][j]])])
                self.steps.append(("eliminate", k, i, factor))
        self.upper = a

    def solve(self, writer: _Writer, b: list) -> list:
        b = list(b)
        for kind, k, i, data in self.steps:
            if kind == "swap":
                (b[k],), (b[i],) = writer.swap_if(data, [b[k]], [b[i]])
            else:
                b[i] = writer.combination([(1, [b[i]]), (-1, [data, b[k]])])
        u = self.upper
        x = [0.0] * len(b)
        for k in reversed(range(len(b))):
            x[k] = writer.combination([(1, [b[k]])] + [(-1, [u[k][j], x[j]])
                                                       for j in range(k + 1, len(b))], u[k][k])
        return x


def _factored_stage(field_on_a: FactoredField, bind: Callable[[ex.Expr], ex.Expr]):
    """The entry program of a factored field and its stage.

    An entry is a constant coefficient times a core: a state coordinate,
    read from the stage's arguments, or an output of the program, which
    computes every other core once: those of ``M_ij`` (i <= j), ``N_ij``
    (i < j), ``rho^i_k`` and the partials of ``G``.  A constant entry has no
    core.  The stage solves ``M u = dG/dy`` by :class:`_Elimination`, forms
    ``X_x = rho u`` and solves ``M X_y = N u - rho^T dG/dx`` on the same
    elimination.  Where :meth:`~semispray.poisson.FactoredField.gradient`
    finds ``dG/dy`` to be ``M y`` term for term, ``u`` is ``y`` with no
    solve."""
    chart = field_on_a.chart
    n, r = chart.n, chart.r
    coordinates = {name: i for i, name in enumerate([*chart.coords, *chart.fibers])}
    exprs, slots = [], {}

    def entry(e: ex.Expr):
        """``(coefficient, core)``: the core is None, ``("state", i)`` or
        ``("slot", j)``, the j-th program output."""
        value = _literal(e)
        if value is not None:
            return value, None
        coeff = 1.0
        if isinstance(e, ex.Mul) and isinstance(e.factors[0], ex.Const):
            coeff = _literal(e.factors[0])
            if coeff is None:
                coeff = 1.0
            else:
                e = ex.emul(*e.factors[1:])
        if isinstance(e, ex.Var) and e.name in coordinates:
            return coeff, ("state", coordinates[e.name])
        if e not in slots:
            slots[e] = len(exprs)
            exprs.append(e)
        return coeff, ("slot", slots[e])

    hessian, dgx, dgy, solved = field_on_a.gradient(bind)
    m = [[entry(e) for e in row] for row in hessian]
    twist = [[entry(bind(field_on_a.N[i][j])) if i < j else None for j in range(r)]
             for i in range(r)]
    rho = [[entry(bind(v)) for v in row] for row in chart.rho]
    gx = [entry(e) for e in dgx]
    if solved:  # dG/dy = M y, so u = y
        first = [(1.0, ("state", n + k)) for k in range(r)]
    else:
        first = [entry(e) for e in dgy]
    items = [item for row in (*m, *twist, *rho, gx, first) for item in row if item]
    read = sorted({core[1] for _, core in items if core and core[0] == "state"})

    def stage(args: List[str], prefix: str):
        writer = _Writer(f"{prefix}_")
        state = list(args)
        for i in read:
            if not state[i].isidentifier():
                state[i] = writer.let(state[i])
        outputs = [f"{prefix}{i}" for i in range(len(exprs))]
        writer.lines.append(f"[{', '.join(outputs)}] = _f([{', '.join(state)}])")

        def factors(item) -> list:
            coeff, core = item
            if core is None:
                return [coeff]
            return [coeff, (state if core[0] == "state" else outputs)[core[1]]]

        def value(item):
            return writer.combination([(1, factors(item))])

        elimination = _Elimination(writer, [[value(item) for item in row] for row in m])
        u = [value(item) for item in first]
        if not solved:
            u = elimination.solve(writer, u)
        vx = [writer.combination([(1, factors(rho[i][k]) + [u[k]]) for k in range(r)])
              for i in range(n)]
        rhs = [writer.combination(
            [(1, factors(twist[k][l]) + [u[l]]) if k < l else (-1, factors(twist[l][k]) + [u[l]])
             for l in range(r) if l != k]
            + [(-1, factors(rho[i][k]) + factors(gx[i])) for i in range(n)])
            for k in range(r)]
        vy = elimination.solve(writer, rhs)
        return writer.lines, vx + vy

    return exprs, stage


def _compiled(field_on_a: FactoredField, bind: Callable[[ex.Expr], ex.Expr]):
    """The compiled program of a field, with parameters bound by ``bind``,
    and the stage that writes a right-hand side around it."""
    exprs, stage = _factored_stage(field_on_a, bind)
    chart = field_on_a.chart
    return ex.compile_evaluator(exprs, list(chart.coords) + list(chart.fibers)), stage


def _function(source: List[str], name: str, f: Callable) -> Callable:
    """Define the generated function ``name`` from its ``source`` lines."""
    ns = {"_f": f, "_DomainError": DomainError, "_BlowUp": BlowUp, "_sup_norm": _sup_norm}
    exec("\n".join(source), ns)  # noqa: S102 - source is generated here
    return ns[name]


_RAISE_ON_ZERO_PIVOT = ["    except ZeroDivisionError:",
                        "        raise _DomainError('division by zero') from None"]


def _rk4_run(f: Callable, stage: Callable, dim: int, drift: bool) -> Callable:
    """The fixed-step RK4 run ``run(state, dt, steps, bound, g, g0, append)``
    on ``dim`` components: one loop, the state in locals, each right-hand
    side written by ``stage`` around one call of ``f``, the float operations
    of ``s + (0.5*h)*k`` and ``s + (h/6.0)*(a + 2.0*b + 2.0*c + d)`` in that
    order.  A component past ``bound``, inf or nan raises :class:`BlowUp`;
    else the row ``(t, *state, drift)`` is appended, with drift
    ``g(state)[0] - g0``, or ``0.0`` unless ``drift``."""
    s = [f"_s{i}" for i in range(dim)]
    state = ", ".join(s)
    lines = []

    def call(args: List[str], prefix: str) -> List[str]:
        code, values = stage(args, prefix)
        lines.extend(code)
        return [_src(v) for v in values]

    a = call(s, "_a")
    b = call([f"{s[i]} + _hh * {a[i]}" for i in range(dim)], "_b")
    c = call([f"{s[i]} + _hh * {b[i]}" for i in range(dim)], "_c")
    d = call([f"{s[i]} + _dt * {c[i]}" for i in range(dim)], "_d")
    lines += [f"{state}, = " + ", ".join(f"{s[i]} + _h6 * ({a[i]} + 2.0 * {b[i]} + 2.0 * {c[i]}"
                                         f" + {d[i]})" for i in range(dim)) + ",",
              "_t += _dt",
              f"if not ({' and '.join(f'abs({v}) <= _bound' for v in s)}):",
              f"    raise _BlowUp(_t, _sup_norm([{state}]))",
              f"_append((_t, {state}, {f'_g([{state}])[0] - _g0' if drift else '0.0'}))"]
    return _function(["def _run(_state, _dt, _steps, _bound, _g, _g0, _append):",
                      f"    {state}, = _state",
                      "    _t = 0.0",
                      "    _hh = 0.5 * _dt",
                      "    _h6 = _dt / 6.0",
                      "    try:",
                      "        for _ in range(_steps):",
                      *(f"            {line}" for line in lines),
                      *_RAISE_ON_ZERO_PIVOT], "_run", f)


def _rhs_function(f: Callable, stage: Callable, dim: int) -> Callable:
    """The right-hand side ``rhs(state)`` that ``stage`` writes around ``f``."""
    args = [f"_v{i}" for i in range(dim)]
    lines, values = stage(args, "_k")
    return _function(["def _rhs(_v):", "    try:", f"        [{', '.join(args)}] = _v",
                      *(f"        {line}" for line in lines),
                      f"        return [{', '.join(map(_src, values))}]",
                      *_RAISE_ON_ZERO_PIVOT], "_rhs", f)


def integrate(field_on_a: FactoredField, p0: ex.ChartPoint, T: float, h: float,
              method: str = "rk4", invariant: Optional[ex.Expr] = None,
              params: Optional[dict] = None, blowup_bound: float = 1e6) -> Trajectory:
    """Integrate the flow from ``p0`` for time ``T``.

    The field is compiled from its entries, with the solves for its
    components written out as straight-line code with partial pivoting (a
    zero pivot, where ``M`` is singular, raises
    :class:`~semispray.errors.DomainError`).  Parameters are substituted
    first.  ``rk4`` uses the fixed step ``h``; ``rk45`` treats ``h`` as the
    initial step and adapts to the relative local tolerance
    :data:`RK45_RTOL`.  The drift column records
    ``invariant(state) - invariant(state0)`` (zero when no invariant is
    supplied).  Raises ``ValueError`` unless ``T`` and ``h`` are positive
    and, for ``rk4``, the step count ``T/h`` is finite; :class:`BlowUp` past
    the sup-norm bound, :class:`StepCollapse` when the ``rk45`` step shrinks
    below ``1e-14``, and propagates :class:`~semispray.errors.DomainError`
    from evaluation.
    """
    if h <= 0 or T <= 0:
        raise ValueError("T and h must be positive")
    if method == "rk4" and not math.isfinite(T / h):
        raise ValueError("the rk4 step count T/h must be finite")
    if method not in ("rk4", "rk45"):
        raise ValueError("method must be 'rk4' or 'rk45'")
    chart = field_on_a.chart
    names = list(chart.coords) + list(chart.fibers)
    values = {k: ex.Const(v) for k, v in (params or {}).items()}

    def bind(e: ex.Expr) -> ex.Expr:
        return ex.subs(e, values) if values else e

    f, stage = _compiled(field_on_a, bind)
    g = ex.compile_evaluator([bind(invariant)], names) if invariant is not None else None

    state = list(p0.x) + list(p0.y)
    if len(state) != len(names):
        raise ValueError("initial point does not match the chart dimensions")
    g0 = g(state)[0] if g else 0.0

    def row(t: float, state: List[float]) -> tuple:
        return (t, *state, (g(state)[0] - g0) if g else 0.0)

    traj = Trajectory(chart.coords, chart.fibers, [row(0.0, state)])
    if method == "rk4":
        steps = max(1, round(T / h))
        run = _rk4_run(f, stage, len(state), g is not None)
        run(state, T / steps, steps, blowup_bound, g, g0, traj.rows.append)
        return traj

    # Dormand-Prince with standard step-size control.
    rhs = _rhs_function(f, stage, len(state))
    t = 0.0
    dt = min(h, T)
    k1 = rhs(state)
    while t < T - 1e-15:
        dt = min(dt, T - t)
        ks = [k1]
        for stage_index in range(1, 7):
            trial = state[:]
            for j, a in enumerate(_DP_A[stage_index]):
                if a:
                    trial = _axpy(trial, dt * a, ks[j])
            ks.append(rhs(trial))
        y5 = state[:]
        y4 = state[:]
        for kv, b5, b4 in zip(ks, _DP_B5, _DP_B4):
            if b5:
                y5 = _axpy(y5, dt * b5, kv)
            if b4:
                y4 = _axpy(y4, dt * b4, kv)
        scale = RK45_RTOL * (1.0 + _sup_norm(state))
        err = _sup_norm([a - b for a, b in zip(y5, y4)]) / scale
        if err == math.inf:
            raise BlowUp(t + dt, err)
        if err <= 1.0:
            t += dt
            state = y5
            k1 = ks[6]  # first-same-as-last
            if _sup_norm(state) > blowup_bound:
                raise BlowUp(t, _sup_norm(state))
            traj.rows.append(row(t, state))
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
        if dt < 1e-14:
            raise StepCollapse(t, dt)
    return traj
