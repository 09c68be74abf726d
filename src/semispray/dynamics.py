"""Numeric flows of vector fields on the total space.

Components are compiled to fast evaluators once per integration.  ``rk4`` is
the classical fixed-step scheme; ``rk45`` is embedded Dormand-Prince 5(4)
with local error control.  Conservation diagnostics track the drift of a
supplied invariant (normally the generating Hamiltonian) along the flow.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from . import expr as ex
from . import linalg
from .errors import BlowUp, StepCollapse
from .poisson import VectorFieldOnA
from .report import ValidationReport, ZeroResult, ZeroStatus


@dataclass
class Trajectory:
    coords: Sequence[str]
    fibers: Sequence[str]
    times: List[float] = field(default_factory=list)
    states: List[ex.ChartPoint] = field(default_factory=list)
    invariant_drift: List[float] = field(default_factory=list)

    @property
    def max_drift(self) -> float:
        return max((abs(v) for v in self.invariant_drift), default=0.0)

    def final_state(self) -> ex.ChartPoint:
        return self.states[-1]

    def write_csv(self, stream) -> None:
        # Names may need quoting; a float's repr never does, so a row is the
        # reprs joined as csv.writer would write them.
        csv.writer(stream).writerow(["t", *self.coords, *self.fibers, "drift"])
        stream.writelines(",".join(map(repr, (t, *state.x, *state.y, drift))) + "\r\n"
                          for t, state, drift in zip(self.times, self.states,
                                                     self.invariant_drift))

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


def _rk4_stepper(f: Callable, dim: int) -> Callable:
    """The classical RK4 step ``step(state, h)`` for states of ``dim``
    components, unrolled into straight-line code.  It calls ``f`` four times
    and does the float operations of the loop form in the same order:
    ``s + (0.5*h)*k`` for a stage, ``s + (h/6.0)*(a + 2.0*b + 2.0*c + d)``
    for the step."""
    def row(template):
        return ", ".join(template.format(i=i) for i in range(dim))

    source = "\n".join([
        "def _step(_s, _h):",
        f"    {row('_s{i}')}, = _s",
        "    _hh = 0.5 * _h",
        f"    {row('_a{i}')}, = _f(_s)",
        f"    {row('_b{i}')}, = _f([{row('_s{i} + _hh * _a{i}')}])",
        f"    {row('_c{i}')}, = _f([{row('_s{i} + _hh * _b{i}')}])",
        f"    {row('_d{i}')}, = _f([{row('_s{i} + _h * _c{i}')}])",
        "    _h6 = _h / 6.0",
        f"    return [{row('_s{i} + _h6 * (_a{i} + 2.0 * _b{i} + 2.0 * _c{i} + _d{i})')}]"])
    ns = {"_f": f}
    exec(source, ns)  # noqa: S102 - source is generated here
    return ns["_step"]


def integrate(field_on_a: VectorFieldOnA, p0: ex.ChartPoint, T: float, h: float,
              method: str = "rk4", invariant: Optional[ex.Expr] = None,
              params: Optional[dict] = None, rtol: float = 1e-9,
              blowup_bound: float = 1e6) -> Trajectory:
    """Integrate the flow from ``p0`` for time ``T``.

    ``rk4`` uses the fixed step ``h``; ``rk45`` treats ``h`` as the initial
    step and adapts to the local tolerance ``rtol``.  The drift column
    records ``invariant(state) - invariant(state0)`` (zero when no invariant
    is supplied).  Raises ``ValueError`` unless ``T`` and ``h`` are positive
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
    components = field_on_a.components()
    if params:
        components = [ex.subs(c, {k: ex.Const(v) for k, v in params.items()})
                      for c in components]
        if invariant is not None:
            invariant = ex.subs(invariant, {k: ex.Const(v) for k, v in params.items()})
    f = ex.compile_evaluator(components, names)
    g = ex.compile_evaluator([invariant], names) if invariant is not None else None

    n = chart.n
    state = list(p0.x) + list(p0.y)
    if len(state) != len(names):
        raise ValueError("initial point does not match the chart dimensions")
    g0 = g(state)[0] if g else 0.0

    traj = Trajectory(chart.coords, chart.fibers)

    def record(t, state):
        traj.times.append(t)
        traj.states.append(ex.ChartPoint(tuple(state[:n]), tuple(state[n:])))
        traj.invariant_drift.append((g(state)[0] - g0) if g else 0.0)

    record(0.0, state)
    if method == "rk4":
        steps = max(1, round(T / h))
        dt = T / steps
        t = 0.0
        step = _rk4_stepper(f, len(state))
        for _ in range(steps):
            state = step(state, dt)
            t += dt
            if _sup_norm(state) > blowup_bound:
                raise BlowUp(t, _sup_norm(state))
            record(t, state)
        return traj

    # Dormand-Prince with standard step-size control.
    t = 0.0
    dt = min(h, T)
    k1 = f(state)
    while t < T - 1e-15:
        dt = min(dt, T - t)
        ks = [k1]
        for stage in range(1, 7):
            trial = state[:]
            for j, a in enumerate(_DP_A[stage]):
                if a:
                    trial = _axpy(trial, dt * a, ks[j])
            ks.append(f(trial))
        y5 = state[:]
        y4 = state[:]
        for kv, b5, b4 in zip(ks, _DP_B5, _DP_B4):
            if b5:
                y5 = _axpy(y5, dt * b5, kv)
            if b4:
                y4 = _axpy(y4, dt * b4, kv)
        scale = rtol * (1.0 + _sup_norm(state))
        err = _sup_norm([a - b for a, b in zip(y5, y4)]) / scale
        if err == math.inf:
            raise BlowUp(t + dt, err)
        if err <= 1.0:
            t += dt
            state = y5
            k1 = ks[6]  # first-same-as-last
            if _sup_norm(state) > blowup_bound:
                raise BlowUp(t, _sup_norm(state))
            record(t, state)
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        dt *= min(5.0, max(0.2, factor))
        if dt < 1e-14:
            raise StepCollapse(t, dt)
    return traj


def base_projection_check(chart, field_on_a: VectorFieldOnA, traj: Trajectory,
                          tol: float = 1e-6, params: Optional[dict] = None) -> ValidationReport:
    """Check that the base velocity along the trajectory matches the anchor
    contraction ``y^j rho^i_j`` within ``tol * (1 + speed)``, using central
    finite differences on the stored grid."""
    names = list(chart.coords) + list(chart.fibers)
    expected = linalg.mat_vec(chart.rho, [ex.Var(nm) for nm in chart.fibers])
    if params:
        expected = [ex.subs(e, {k: ex.Const(v) for k, v in params.items()})
                    for e in expected]
    evaluator = ex.compile_evaluator(expected, names)
    report = ValidationReport(check="base-projection", seed=0)
    worst = [0.0] * chart.n
    witness = [None] * chart.n
    for idx in range(1, len(traj.times) - 1):
        dt = traj.times[idx + 1] - traj.times[idx - 1]
        state = list(traj.states[idx].x) + list(traj.states[idx].y)
        model = evaluator(state)
        for i in range(chart.n):
            fd = (traj.states[idx + 1].x[i] - traj.states[idx - 1].x[i]) / dt
            residual = abs(fd - model[i]) / (1.0 + abs(model[i]))
            if residual > worst[i]:
                worst[i] = residual
                witness[i] = {"t": traj.times[idx], "fd": fd, "field": model[i]}
    for i in range(chart.n):
        if worst[i] > tol:
            result = ZeroResult(ZeroStatus.NONZERO, worst[i], seed=0,
                                trials=len(traj.times), witness=witness[i],
                                witness_value=worst[i])
        else:
            result = ZeroResult(ZeroStatus.LIKELY_ZERO, worst[i], seed=0,
                                trials=len(traj.times))
        report.add(f"dx{i + 1}/dt", result)
    return report
