"""Independent answers for the benchmark's requests, derived with sympy.

The bracket, the Hamiltonian field and the flows are re-derived from the
model strings with sympy, following the formulas of the paper as stated in
``semispray.poisson``:

    {x^i, y^k} = -rho^i_s M^{sk}        {y^k, y^l} = -(M^-1 N M^-1)^{kl}
    N_ij = rho^a_i d2L/dx^a dy^j - rho^a_j d2L/dx^a dy^i - dL/dy^k C^k_ij + Theta_ij
    X_G(c) = {G, c},  G = y^k dL/dy^k - L + f

The program's printed expressions are evaluated with Python's own
arithmetic (``^`` read as ``**``), never with the semispray evaluator, at
seeded points of the default box away from the singular set of the
Hessian.  Flows are integrated by a separate RK4 on the sympy field.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from typing import Dict, List

import sympy as sp

import workloads

_FUNCS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "log": sp.log, "sqrt": sp.sqrt}
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}

#: Relative agreement required between printed expressions and the oracle.
EXPR_RTOL = 1e-7
#: Points closer than this to det M = 0 are not used for comparisons.
MIN_DET = 1e-2
POINTS = 3
#: Final states: RK4 against RK4 with the same steps, and DP45 against RK4.
RK4_RTOL = 1e-7
RK45_RTOL = 1e-6
#: Step of the reference RK4 that every final state is compared with.
REF_H = 1e-3
#: Energy is conserved by the flow; RK4 at these steps drifts far less.
MAX_DRIFT = 1e-6


class Derivation:
    """Symbolic bracket and Hamiltonian field of one model document."""

    def __init__(self, doc: dict):
        n, r = doc["n"], doc["r"]
        self.coords = list(doc.get("coords", [f"x{i + 1}" for i in range(n)]))
        self.fibers = list(doc.get("fibers", [f"y{i + 1}" for i in range(r)]))
        self.names = self.coords + self.fibers
        syms = {name: sp.Symbol(name, real=True) for name in self.names}
        x = [syms[c] for c in self.coords]
        y = [syms[c] for c in self.fibers]
        self.symbols = [syms[name] for name in self.names]

        def parse(src):
            return sp.sympify(src.replace("^", "**"), locals={**syms, **_FUNCS})

        rho = sp.Matrix(n, r, lambda i, j: parse(doc["rho"][i][j]))
        c = [[[sp.Integer(0)] * r for _ in range(r)] for _ in range(r)]
        for key, value in doc.get("C", {}).items():
            k, i, j = (int(p) - 1 for p in key.split(","))
            c[k][i][j] = parse(value)
            c[k][j][i] = -parse(value)
        theta = sp.zeros(r, r)
        for key, value in doc.get("Theta", {}).items():
            i, j = (int(p) - 1 for p in key.split(","))
            theta[i, j] = parse(value)
            theta[j, i] = -parse(value)
        lag = parse(doc["L"])
        f = parse(doc["f"]) if "f" in doc else sp.Integer(0)

        dl = [sp.diff(lag, yk) for yk in y]
        m = sp.Matrix(r, r, lambda i, j: sp.diff(dl[i], y[j]))
        det = m.det(method="berkowitz")
        minv = m.adjugate() / det

        def anchor(j, g):
            return sum((rho[a, j] * sp.diff(g, x[a]) for a in range(n)), sp.Integer(0))

        nmat = sp.Matrix(r, r, lambda i, j: anchor(i, dl[j]) - anchor(j, dl[i])
                         - sum((dl[k] * c[k][i][j] for k in range(r)), sp.Integer(0))
                         + theta[i, j])
        pxy = -rho * minv
        pyy = -minv * nmat * minv
        self.G = sum((y[k] * dl[k] for k in range(r)), sp.Integer(0)) - lag + f

        size = n + r
        big = sp.zeros(size, size)
        big[:n, n:] = pxy
        big[n:, :n] = -pxy.T
        big[n:, n:] = pyy
        grad = [sp.diff(self.G, s) for s in self.symbols]
        field = [sum((big[a, col] * grad[a] for a in range(size)), sp.Integer(0))
                 for col in range(size)]

        self.n, self.r = n, r
        self._det = sp.lambdify(self.symbols, det, "math")
        self._pxy = sp.lambdify(self.symbols, list(pxy), "math", cse=True)
        self._pyy = sp.lambdify(self.symbols, list(pyy), "math", cse=True)
        self._g = sp.lambdify(self.symbols, self.G, "math")
        self.field = sp.lambdify(self.symbols, field, "math", cse=True)

    def points(self, seed: str, count: int = POINTS) -> List[List[float]]:
        """Seeded points of [-1, 1]^(n+r) where |det M| >= MIN_DET."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            p = [rng.uniform(-1.0, 1.0) for _ in self.names]
            if abs(self._det(*p)) >= MIN_DET:
                out.append(p)
        return out

    def expected(self, what: str, p: List[float]):
        if what == "pxy":
            flat, rows, cols = self._pxy(*p), self.n, self.r
        elif what == "pyy":
            flat, rows, cols = self._pyy(*p), self.r, self.r
        elif what == "G":
            return self._g(*p)
        else:
            values = self.field(*p)
            return values[:self.n] if what == "vx" else values[self.n:]
        return [[flat[i * cols + j] for j in range(cols)] for i in range(rows)]

    def rk4(self, p0: List[float], T: float, steps: int) -> List[float]:
        dt = T / steps
        state = list(p0)
        f = self.field
        for _ in range(steps):
            k1 = f(*state)
            k2 = f(*[s + 0.5 * dt * k for s, k in zip(state, k1)])
            k3 = f(*[s + 0.5 * dt * k for s, k in zip(state, k2)])
            k4 = f(*[s + dt * k for s, k in zip(state, k3)])
            state = [s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        return state


def eval_text(text: str, names: List[str], p: List[float]) -> float:
    """Evaluate one printed expression with Python arithmetic."""
    env = dict(_MATH)
    env.update(zip(names, p))
    value = eval(compile(text.replace("^", "**"), "<expr>", "eval"),  # noqa: S307
                 {"__builtins__": {}}, env)
    if not isinstance(value, (int, float)):
        raise ValueError(f"non-real value {value!r}")
    return float(value)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


class Oracle:
    """Checks one request's exit code and output against the known answer."""

    def __init__(self, docs: Dict[str, dict], seed: int):
        self.docs = docs
        self.seed = seed
        self._derivations: Dict[str, Derivation] = {}
        self._flows: Dict[tuple, List[float]] = {}

    def derivation(self, model: str) -> Derivation:
        if model not in self._derivations:
            self._derivations[model] = Derivation(self.docs[model])
        return self._derivations[model]

    def check(self, request, code, stdout: str) -> List[str]:
        """Problems found in one whole response; empty when it is right."""
        problems, content = workloads.judge_verdict(request, code, stdout)
        if content is not None:
            problems += self.check_content(request, content)
        return problems

    def check_content(self, request, content: str) -> List[str]:
        """Problems in a bracket, field or trajectory (from ``judge_verdict``)."""
        try:
            if request.kind == "integrate":
                return self._check_flow(request, content)
            payload = json.loads(content)
            if request.kind == "bracket":
                return self._check_bracket(request.model, payload)
            return self._check_field(request.model, payload)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
            return [f"malformed output: {type(err).__name__}: {err}"]

    def _compare(self, model: str, what: str, printed, problems: List[str]):
        d = self.derivation(model)
        for p in d.points(f"{self.seed}:{model}"):
            want = d.expected(what, p)
            got = printed
            if what in ("pxy", "pyy"):
                pairs = [(got[i][j], want[i][j], f"{what}[{i}][{j}]")
                         for i in range(len(want)) for j in range(len(want[0]))]
            elif what == "G":
                pairs = [(got, want, "G")]
            else:
                pairs = [(got[i], want[i], f"{what}[{i}]") for i in range(len(want))]
            for text, value, where in pairs:
                try:
                    have = eval_text(text, d.names, p)
                except (ArithmeticError, ValueError, SyntaxError, NameError) as err:
                    problems.append(f"{where} does not evaluate: {err}")
                    continue
                if not _close(have, value, EXPR_RTOL):
                    problems.append(f"{where} = {have!r} at {p}, oracle {value!r}")

    def _check_bracket(self, model: str, payload: dict) -> List[str]:
        problems = []
        if any(v != "0" for row in payload.get("pxx", [["?"]]) for v in row):
            problems.append("pxx is not zero")
        self._compare(model, "pxy", payload["pxy"], problems)
        self._compare(model, "pyy", payload["pyy"], problems)
        return problems

    def _check_field(self, model: str, payload: dict) -> List[str]:
        problems = []
        self._compare(model, "G", payload["G"], problems)
        self._compare(model, "vx", payload["vx"], problems)
        self._compare(model, "vy", payload["vy"], problems)
        return problems

    def _check_flow(self, request, stdout: str) -> List[str]:
        d = self.derivation(request.model)
        flags = dict(zip(request.flags[::2], request.flags[1::2]))
        p0 = [float(v) for v in flags["--p0"].split(",")]
        T, h = float(flags["--T"]), float(flags["--h"])
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != ["t", *d.names, "drift"]:
            return ["CSV header does not list t, the coordinates and drift"]
        data = [[float(v) for v in row] for row in rows[1:]]
        problems = []
        steps = max(1, round(T / h))
        if flags["--method"] == "rk4" and len(data) != steps + 1:
            problems.append(f"{len(data) - 1} rk4 steps, expected {steps}")
        if any(b[0] <= a[0] for a, b in zip(data, data[1:])):
            problems.append("times are not increasing")
        if not _close(data[-1][0], T, 1e-12):
            problems.append(f"ends at t={data[-1][0]!r}, expected {T}")
        if data[0][1:-1] != p0:
            problems.append("first row is not the start point")
        drift = max(abs(row[-1]) for row in data)
        if drift > MAX_DRIFT:
            problems.append(f"energy drift {drift:.3e} above {MAX_DRIFT}")
        ref_steps = max(1, round(T / min(h, REF_H)))
        key = (request.model, tuple(p0), T, ref_steps)
        if key not in self._flows:
            self._flows[key] = d.rk4(p0, T, ref_steps)
        want = self._flows[key]
        rtol = RK4_RTOL if flags["--method"] == "rk4" else RK45_RTOL
        for name, have, value in zip(d.names, data[-1][1:-1], want):
            if not _close(have, value, rtol):
                problems.append(f"final {name} = {have!r}, oracle {value!r}")
        return problems
