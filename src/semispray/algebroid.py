"""Lie algebroids in a single adapted chart.

A chart holds the local structure data: base coordinate names ``x``, fiber
coordinate names ``y``, the anchor coefficient matrix ``rho[i][j]`` (row
``i`` = base coordinate, column ``j`` = frame section, functions of ``x``
only) and the bracket coefficients ``C^k_{ij}``, stored for ``i < j`` and
reconstructed by skew-symmetry.

The same class also models the prolongation of a chart (an algebroid of rank
``2r`` over the total space), so the Koszul differential below serves both
levels of the calculus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from . import expr as ex
from .errors import DegreeError, InvalidFixtureParam
from .report import ValidationReport


def sort_with_sign(indices: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign);
    (None, 0) when an index repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0
    return tuple(idx), sign


def c_is_structural_zero(value) -> bool:
    """True for the literal zero expression; other values, such as
    unevaluated fiber integrals, are never structurally zero."""
    return isinstance(value, ex.Expr) and ex.is_zero_literal(value)


def skew_coeffs(coeffs: Mapping, canon, neg, add) -> dict:
    """The skew-coefficient store shared by every form class.

    ``canon(key)`` returns the sorted key and the sign of the sorting
    permutation, 0 when an index repeats (such entries vanish).  Expression
    values are simplified, negated for an odd permutation and accumulated per
    sorted key; keys whose total is a structural zero are dropped, including
    totals that cancel.  ``neg``/``add`` are the coefficient arithmetic
    (``ex.eneg``/``ex.eadd`` for plain expressions).
    """
    out = {}
    for key, value in coeffs.items():
        key, sign = canon(key)
        if sign == 0:
            continue
        if isinstance(value, ex.Expr):
            value = ex.simplify(value)
        if sign < 0:
            value = neg(value)
        out[key] = add(out[key], value) if key in out else value
    return {key: value for key, value in out.items() if not c_is_structural_zero(value)}


class AlgebroidChart:
    """One adapted chart of a Lie algebroid."""

    def __init__(self, coords: Sequence[str], fibers: Sequence[str],
                 rho: Sequence[Sequence[ex.Expr]],
                 structure: Mapping[Tuple[int, int, int], ex.Expr],
                 params: Sequence[str] = (), name: str = ""):
        self.coords = tuple(coords)
        self.fibers = tuple(fibers)
        self.params = tuple(params)
        self.name = name
        if len(rho) != len(self.coords):
            raise ValueError("rho must have one row per base coordinate")
        for row in rho:
            if len(row) != len(self.fibers):
                raise ValueError("rho must have one column per frame section")
        self.rho = [[ex.simplify(ex.as_expr(v)) for v in row] for row in rho]

        allowed = set(self.coords) | set(self.params)
        for i, row in enumerate(self.rho):
            for j, entry in enumerate(row):
                bad = ex.free_symbols(entry) - allowed
                if bad:
                    raise ValueError(f"rho[{i}][{j}] depends on non-base symbol {sorted(bad)[0]!r}")

        self.structure: Dict[Tuple[int, int, int], ex.Expr] = {}
        r = len(self.fibers)
        for (k, i, j), value in structure.items():
            if not (0 <= k < r and 0 <= i < j < r):
                raise ValueError(f"bad structure index (k,i,j)=({k},{i},{j}); need i < j")
            value = ex.simplify(ex.as_expr(value))
            bad = ex.free_symbols(value) - allowed
            if bad:
                raise ValueError(f"C[{k},{i},{j}] depends on non-base symbol {sorted(bad)[0]!r}")
            if not ex.is_zero_literal(value):
                self.structure[(k, i, j)] = value

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def r(self) -> int:
        return len(self.fibers)

    @property
    def alphabet(self) -> Tuple[str, ...]:
        return self.coords + self.fibers + self.params

    def parse(self, src: str) -> ex.Expr:
        return ex.parse(src, self.alphabet)

    def evaluate(self, e: ex.Expr, p: ex.ChartPoint, params=None) -> float:
        return ex.eval_at(e, p, self.coords, self.fibers, params)

    def c(self, k: int, i: int, j: int) -> ex.Expr:
        """Full bracket coefficient ``C^k_{ij}`` including the skew mirror."""
        if i == j:
            return ex.ZERO
        if i < j:
            return self.structure.get((k, i, j), ex.ZERO)
        return ex.eneg(self.structure.get((k, j, i), ex.ZERO))

    def anchor_derivative(self, j: int, f: ex.Expr) -> ex.Expr:
        """Directional derivative of ``f`` along the anchor of frame section j."""
        return ex.eadd(*(ex.emul(self.rho[i][j], ex.diff(f, name))
                         for i, name in enumerate(self.coords)))

    # -- exterior calculus --------------------------------------------------

    def zero_form(self, degree: int) -> "AForm":
        return AForm(self, degree, {})

    def d(self, form: "AForm") -> "AForm":
        """Koszul differential; capped at input degree 2."""
        if form.chart is not self:
            raise ValueError("form belongs to a different chart")
        k = form.degree
        if k >= 3:
            raise DegreeError(f"differential of a degree-{k} form is not supported")
        coeffs: Dict[Tuple[int, ...], ex.Expr] = {}
        for tup in itertools.combinations(range(self.r), k + 1):
            pieces = []
            for pos, a in enumerate(tup):
                rest = tup[:pos] + tup[pos + 1:]
                value = self.anchor_derivative(a, form.get(rest))
                pieces.append(value if pos % 2 == 0 else ex.eneg(value))
            for p1 in range(k + 1):
                for p2 in range(p1 + 1, k + 1):
                    a, b = tup[p1], tup[p2]
                    rest = tuple(v for pos, v in enumerate(tup) if pos not in (p1, p2))
                    inner = []
                    for c_idx in range(self.r):
                        coeff = self.c(c_idx, a, b)
                        if ex.is_zero_literal(coeff):
                            continue
                        inner.append(ex.emul(coeff, form.get((c_idx,) + rest)))
                    if not inner:
                        continue
                    value = ex.eadd(*inner)
                    pieces.append(ex.eneg(value) if (p1 + p2) % 2 == 1 else value)
            coeffs[tup] = ex.eadd(*pieces)
        return AForm(self, k + 1, coeffs)

    # -- structure equations ------------------------------------------------

    def structure_residuals(self):
        """Yield ``(label, residual)`` for both structure equations.

        First family: ``rho^i_j d(rho^k_l)/dx^i - rho^i_l d(rho^k_j)/dx^i
        - rho^k_i C^i_{jl}`` over base indices ``k`` and frame pairs
        ``j < l``.  Second family: the cyclic sum
        ``rho^i_j d(C^k_{ls})/dx^i + C^t_{ls} C^k_{jt}`` over frame indices
        ``k`` and ``j < l < s`` (both families are skew in the lower indices,
        so ordered tuples carry all the information).
        """
        for k in range(self.n):
            for j in range(self.r):
                for l in range(j + 1, self.r):
                    lhs = ex.eadd(self.anchor_derivative(j, self.rho[k][l]),
                                  ex.eneg(self.anchor_derivative(l, self.rho[k][j])))
                    rhs = ex.eadd(*(ex.emul(self.rho[k][i], self.c(i, j, l))
                                    for i in range(self.r)))
                    yield (f"anchor[k={k + 1},j={j + 1},l={l + 1}]", ex.eadd(lhs, ex.eneg(rhs)))
        for k in range(self.r):
            for j, l, s in itertools.combinations(range(self.r), 3):
                pieces = []
                for a, b, c in ((j, l, s), (l, s, j), (s, j, l)):
                    pieces.append(self.anchor_derivative(a, self.c(k, b, c)))
                    pieces.append(ex.eadd(*(ex.emul(self.c(t, b, c), self.c(k, a, t))
                                            for t in range(self.r))))
                yield (f"jacobi[k={k + 1},(j,l,s)=({j + 1},{l + 1},{s + 1})]", ex.eadd(*pieces))

    def validate_structure(self, box: ex.Box = None, trials: int = 64,
                           tol: float = 1e-9, seed: int = 0) -> ValidationReport:
        """Tag every structure-equation residual with the probabilistic zero test."""
        report = ValidationReport(check="structure-equations", seed=seed)
        for label, residual in self.structure_residuals():
            report.add(label, ex.is_zero(residual, box=box, trials=trials, tol=tol, seed=seed))
        return report


class AForm:
    """A section of ``∧^k A*`` stored by coefficients on strictly increasing
    index tuples of the dual frame."""

    MAX_DEGREE = 3

    def __init__(self, chart: AlgebroidChart, degree: int,
                 coeffs: Mapping[Tuple[int, ...], ex.Expr]):
        if not 0 <= degree <= self.MAX_DEGREE:
            raise DegreeError(f"forms are supported up to degree {self.MAX_DEGREE}")
        self.chart = chart
        self.degree = degree
        self.coeffs: Dict[Tuple[int, ...], ex.Expr] = skew_coeffs(
            {idx: ex.as_expr(value) for idx, value in coeffs.items()}, self._canon,
            ex.eneg, ex.eadd)

    def _canon(self, idx) -> Tuple[Optional[Tuple[int, ...]], int]:
        idx = tuple(idx)
        if len(idx) != self.degree:
            raise ValueError(f"index {idx} does not match degree {self.degree}")
        return sort_with_sign(idx)

    def get(self, indices: Sequence[int]) -> ex.Expr:
        sorted_idx, sign = sort_with_sign(tuple(indices))
        if sign == 0:
            return ex.ZERO
        value = self.coeffs.get(sorted_idx, ex.ZERO)
        return value if sign > 0 else ex.eneg(value)

    def map_coeffs(self, fn) -> "AForm":
        return AForm(self.chart, self.degree, {idx: fn(v) for idx, v in self.coeffs.items()})

    def __add__(self, other: "AForm") -> "AForm":
        if self.degree != other.degree or self.chart is not other.chart:
            raise ValueError("can only add forms of equal degree on the same chart")
        coeffs = dict(self.coeffs)
        for idx, value in other.coeffs.items():
            coeffs[idx] = ex.eadd(coeffs.get(idx, ex.ZERO), value)
        return AForm(self.chart, self.degree, coeffs)

    def __sub__(self, other: "AForm") -> "AForm":
        return self + other.scale(ex.MINUS_ONE)

    def scale(self, factor) -> "AForm":
        factor = ex.as_expr(factor)
        return self.map_coeffs(lambda v: ex.emul(factor, v))

    def is_structurally_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        entries = ", ".join(f"{idx}: {ex.to_text(v)}" for idx, v in sorted(self.coeffs.items()))
        return f"<AForm deg {self.degree} {{{entries}}}>"


# ---------------------------------------------------------------------------
# Fixture catalog


@dataclass
class Fixture:
    """A catalog chart together with its companion Lagrangian and closed
    2-section (when one exists)."""

    label: str
    chart: AlgebroidChart
    lagrangian: Optional[ex.Expr] = None
    theta: Optional[AForm] = None


def _quadratic_l(chart: AlgebroidChart, metric: Sequence[Sequence[ex.Expr]]) -> ex.Expr:
    y = [ex.Var(nm) for nm in chart.fibers]
    half = ex.Const(Fraction(1, 2))
    return ex.eadd(*(ex.emul(half, ex.as_expr(metric[i][j]), y[i], y[j])
                     for i in range(chart.r) for j in range(chart.r)))


def tangent(n: int) -> Fixture:
    """Tangent algebroid of R^n: identity anchor, vanishing bracket."""
    if n < 1:
        raise InvalidFixtureParam("tangent fixture needs n >= 1")
    coords = [f"x{i + 1}" for i in range(n)]
    fibers = [f"y{i + 1}" for i in range(n)]
    rho = [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]
    chart = AlgebroidChart(coords, fibers, rho, {}, name=f"tangent({n})")
    lagrangian = _quadratic_l(chart, [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)])
    theta = None
    if n >= 2:
        theta = AForm(chart, 2, {(0, 1): ex.ONE})
    return Fixture(f"tangent({n})", chart, lagrangian, theta)


_EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
         (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}


def epsilon3(i: int, j: int, k: int) -> int:
    return _EPS3.get((i, j, k), 0)


def action_so3() -> Fixture:
    """Action algebroid of the rotation algebra on R^3.

    The anchor sends the frame section ``e_k`` to the rotation field
    ``x × e_k``, so the bracket coefficients are the alternating symbols and
    both structure equations hold identically.
    """
    coords = ["x1", "x2", "x3"]
    fibers = ["y1", "y2", "y3"]
    x = [ex.Var(nm) for nm in coords]
    rho = [[ex.eadd(*(ex.emul(ex.Const(epsilon3(i, j, k)), x[j]) for j in range(3)))
            for k in range(3)] for i in range(3)]
    structure = {}
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                sign = epsilon3(i, j, k)
                if sign:
                    structure[(k, i, j)] = ex.Const(sign)
    chart = AlgebroidChart(coords, fibers, rho, structure, name="action_so3")
    lagrangian = _quadratic_l(chart, [[ex.ONE if i == j else ex.ZERO for j in range(3)] for i in range(3)])
    # Theta_{ij} = eps_{ijk} x^k is closed for this anchor (checked in tests).
    theta = AForm(chart, 2, {(i, j): ex.eadd(*(ex.emul(ex.Const(epsilon3(i, j, k)), x[k])
                                               for k in range(3)))
                             for i in range(3) for j in range(i + 1, 3)})
    return Fixture("action_so3", chart, lagrangian, theta)


def cotangent_poisson(pi: Sequence[Sequence[ex.Expr]],
                      metric: Sequence[Sequence[ex.Expr]]) -> Fixture:
    """Cotangent algebroid of a Poisson structure with a kinetic Lagrangian.

    ``pi`` is the skew coefficient matrix of the bivector, ``metric`` the
    symmetric coefficient matrix of the fiberwise-quadratic Lagrangian
    ``L = 1/2 metric^{ij} y_i y_j``.  The anchor is ``rho^i_j = -pi^{ij}``,
    the bracket coefficients are ``C^k_{ij} = d(pi^{ij})/dx^k``, and the
    companion closed 2-section has coefficients ``pi^{ij}`` themselves.
    """
    n = len(pi)
    coords = [f"x{i + 1}" for i in range(n)]
    fibers = [f"p{i + 1}" for i in range(n)]
    pi = [[ex.simplify(ex.as_expr(v)) for v in row] for row in pi]
    metric = [[ex.simplify(ex.as_expr(v)) for v in row] for row in metric]
    if len(metric) != n or any(len(row) != n for row in pi + metric):
        raise InvalidFixtureParam("pi and metric must be square of equal size")
    for i in range(n):
        for j in range(n):
            if ex.simplify(ex.eadd(pi[i][j], pi[j][i])) != ex.ZERO:
                raise InvalidFixtureParam(f"pi is not skew at ({i + 1},{j + 1})")
            if ex.simplify(ex.eadd(metric[i][j], ex.eneg(metric[j][i]))) != ex.ZERO:
                raise InvalidFixtureParam(f"metric is not symmetric at ({i + 1},{j + 1})")
    rho = [[ex.eneg(pi[i][j]) for j in range(n)] for i in range(n)]
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                value = ex.diff(pi[i][j], coords[k])
                if not ex.is_zero_literal(value):
                    structure[(k, i, j)] = value
    chart = AlgebroidChart(coords, fibers, rho, structure, name="cotangent_poisson")
    lagrangian = _quadratic_l(chart, metric)
    theta = AForm(chart, 2, {(i, j): pi[i][j] for i in range(n) for j in range(i + 1, n)})
    return Fixture("cotangent_poisson", chart, lagrangian, theta)


def catalog(name: str, **kwargs) -> Fixture:
    """Look up a named fixture: ``tangent`` (kwarg ``n``), ``action_so3``,
    or ``cotangent_poisson`` (kwargs ``pi``, ``metric``)."""
    if name == "tangent":
        return tangent(kwargs.pop("n", 1))
    if name == "action_so3":
        return action_so3()
    if name == "cotangent_poisson":
        n = kwargs.pop("n", 2)
        pi = kwargs.pop("pi", None)
        metric = kwargs.pop("metric", None)
        if pi is None:
            pi = [[ex.ZERO] * n for _ in range(n)]
            pi[0][1] = ex.ONE
            pi[1][0] = ex.MINUS_ONE
        if metric is None:
            metric = [[ex.ONE if i == j else ex.ZERO for j in range(len(pi))]
                      for i in range(len(pi))]
        return cotangent_poisson(pi, metric)
    raise InvalidFixtureParam(f"unknown fixture {name!r}")
