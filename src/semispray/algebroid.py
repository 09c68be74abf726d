"""Lie algebroids in a single adapted chart.

A chart holds the local structure data: base coordinate names ``x``, fiber
coordinate names ``y``, the anchor coefficient matrix ``rho[i][j]`` (row
``i`` = base coordinate, column ``j`` = frame section, functions of ``x``
only) and the bracket coefficients ``C^k_{ij}``, stored for ``i < j`` and
reconstructed by skew-symmetry.

The same class also models the prolongation of a chart (:func:`prolong_chart`,
an algebroid of rank ``2r`` over the total space), so the Koszul differential
and the one form class :class:`AForm` serve both levels of the calculus.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

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


def skew_coeffs(pairs: Iterable[Tuple]) -> dict:
    """The skew-coefficient store of :class:`AForm`.

    ``pairs`` yields ``(key, value)``; a key may repeat.  Each key is sorted,
    and its value negated for an odd permutation (dropped when an index
    repeats), then accumulated per sorted key; keys whose total is the
    literal 0 are dropped, including totals that cancel.
    """
    out = {}
    for key, value in pairs:
        key, sign = sort_with_sign(key)
        if sign == 0:
            continue
        if sign < 0:
            value = ex.eneg(value)
        out[key] = ex.eadd(out[key], value) if key in out else value
    return {key: value for key, value in out.items() if not ex.is_zero_literal(value)}


class AlgebroidChart:
    """One adapted chart of a Lie algebroid.  ``rho`` and ``structure`` take
    numbers or canonical trees (:func:`expr.simplify` is for raw-node ones)."""

    #: The chart this one prolongs (set by :func:`prolong_chart`), else None.
    base: Optional["AlgebroidChart"] = None

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
        self.rho = [[ex.as_expr(v) for v in row] for row in rho]

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
            value = ex.as_expr(value)
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

    def c(self, k: int, i: int, j: int) -> ex.Expr:
        """Full bracket coefficient ``C^k_{ij}`` including the skew mirror."""
        if i == j:
            return ex.ZERO
        if i < j:
            return self.structure.get((k, i, j), ex.ZERO)
        return ex.eneg(self.structure.get((k, j, i), ex.ZERO))

    def anchor_derivative(self, j: int, f: ex.Expr, partial=None) -> ex.Expr:
        """Derivative of ``f`` along the anchor of frame section j: a term per coordinate
        ``f`` reads where ``rho^i_j`` is not 0, by ``partial(f, name)`` (default ``diff``)."""
        partial, free = partial or ex.diff, ex.free_symbols(f)
        return ex.eadd(*(ex.emul(self.rho[i][j], partial(f, name))
                         for i, name in enumerate(self.coords)
                         if name in free and not ex.is_zero_literal(self.rho[i][j])))

    # -- exterior calculus --------------------------------------------------

    def d(self, form: "AForm") -> "AForm":
        """Koszul differential; capped at input degree 2.

        Visits only nonzero data, so it costs nonzero coefficients × nonzero
        anchor entries (each partial taken once) plus nonzero ``C^c_{ab}`` ×
        coefficients whose key holds ``c``.  Each output coefficient sums its
        pieces in the dense formula's order: anchor pieces by position, then
        bracket pieces by position pair, each over ``c`` ascending.  So every
        node is the dense sum's, where ``rho`` and ``C`` hold no non-finite
        constant: a piece left out is the literal 0, which ``eadd`` drops."""
        if form.chart is not self:
            raise ValueError("form belongs to a different chart")
        k = form.degree
        if k >= 3:
            raise DegreeError(f"differential of a degree-{k} form is not supported")
        partial = functools.lru_cache(maxsize=None)(ex.diff)  # one partial per (coefficient, name)
        reads = [frozenset(name for i, name in enumerate(self.coords)
                           if not ex.is_zero_literal(self.rho[i][a])) for a in range(self.r)]
        brackets = [[(a, b, v) for (e, a, b), v in self.structure.items() if e == c]
                    for c in range(self.r)]
        pieces, inner = {}, {}  # tuple -> [(order, piece)]; (tuple, p1, p2) -> [(c, term)]
        for key, f in form.coeffs.items():
            free = ex.free_symbols(f)
            for a in range(self.r):
                if a not in key and not reads[a].isdisjoint(free):
                    pos = sum(v < a for v in key)
                    value = self.anchor_derivative(a, f, partial)
                    pieces.setdefault(key[:pos] + (a,) + key[pos:], []).append(
                        ((0, pos), value if pos % 2 == 0 else ex.eneg(value)))
            for q, c in enumerate(key):
                rest = key[:q] + key[q + 1:]
                for a, b, coeff in brackets[c]:
                    if a not in rest and b not in rest:
                        tup = tuple(sorted(rest + (a, b)))
                        inner.setdefault((tup, tup.index(a), tup.index(b)), []).append(
                            (c, ex.emul(coeff, f if q % 2 == 0 else ex.eneg(f))))
        for (tup, p1, p2), terms in inner.items():
            value = ex.eadd(*(term for _, term in sorted(terms)))
            pieces.setdefault(tup, []).append(
                ((1, p1, p2), ex.eneg(value) if (p1 + p2) % 2 == 1 else value))
        return AForm(self, k + 1, {tup: ex.eadd(*(piece for _, piece in sorted(found)))
                                   for tup, found in sorted(pieces.items())})

    # -- structure equations ------------------------------------------------

    def structure_residuals(self):
        """Yield ``(label, residual)`` for both structure equations, read off
        ``d² = 0``.

        First family: the coefficient ``(j, l)`` of ``d(dx^k)``, where
        ``dx^k`` pulls back to the 1-form ``rho^k_j``, over base indices
        ``k`` and frame pairs ``j < l``.  Second family: the coefficient
        ``(j, l, s)`` of ``d(C^k)``, where ``C^k`` is the 2-form
        ``C^k_{ij}`` (``d`` of the frame covector ``e^k`` is ``-C^k``), over
        frame indices ``k`` and ``j < l < s``.  Both families are skew in the
        lower indices, so ordered tuples carry all the information.
        """
        for k in range(self.n):
            d_dx = self.d(AForm(self, 1, {(j,): self.rho[k][j] for j in range(self.r)}))
            for j, l in itertools.combinations(range(self.r), 2):
                yield (f"anchor[k={k + 1},j={j + 1},l={l + 1}]", d_dx.get((j, l)))
        for k in range(self.r):
            d_c = self.d(AForm(self, 2, {(i, j): self.c(k, i, j)
                                         for i, j in itertools.combinations(range(self.r), 2)}))
            for j, l, s in itertools.combinations(range(self.r), 3):
                yield (f"jacobi[k={k + 1},(j,l,s)=({j + 1},{l + 1},{s + 1})]", d_c.get((j, l, s)))

    def validate_structure(self, box: ex.Box = None, trials: int = 64,
                           tol: float = 1e-9, seed: int = 0) -> ValidationReport:
        """Tag every structure-equation residual with the probabilistic zero test."""
        return ex.certify("structure-equations", self.structure_residuals(),
                          box, trials, tol, seed)


def prolong_chart(chart: AlgebroidChart) -> AlgebroidChart:
    """The prolongation of ``chart`` as a rank-2r algebroid over (x, y),
    with frame ``{E_1..E_r, U_1..U_r}``: ``E_j`` anchors to
    ``rho^i_j d/dx^i`` and ``U_k`` to ``d/dy^k``; ``[E_i, E_j] = C^k_{ij}
    E_k`` and every bracket with a vertical frame section vanishes.  Its
    ``fibers`` are the frame labels ``_e*``/``_u*``; the fiber coordinates
    are those of :attr:`~AlgebroidChart.base`.

    Cached on the chart so every form built over it shares one instance.
    """
    cached = getattr(chart, "_prolonged", None)
    if cached is not None:
        return cached
    n, r = chart.n, chart.r
    frame = [f"_e{j + 1}" for j in range(r)] + [f"_u{k + 1}" for k in range(r)]
    rho = [[ex.ZERO for _ in range(2 * r)] for _ in range(n + r)]
    for i in range(n):
        for j in range(r):
            rho[i][j] = chart.rho[i][j]
    for k in range(r):
        rho[n + k][r + k] = ex.ONE
    prolonged = AlgebroidChart(chart.coords + chart.fibers, frame, rho, dict(chart.structure),
                               params=chart.params, name=f"prolong({chart.name or 'chart'})")
    prolonged.base = chart
    chart._prolonged = prolonged
    return prolonged


class AForm:
    """A section of ``∧^k A*`` stored by coefficients on strictly increasing
    index tuples of the dual frame.  On a prolonged chart (see
    :func:`prolong_chart`) legs below the base rank are frame covectors, the
    rest vertical ones, so a key carries its own bidegree."""

    def __init__(self, chart: AlgebroidChart, degree: int,
                 coeffs: Mapping[Tuple[int, ...], ex.Expr]):
        self.chart = chart
        self.degree = degree
        for idx in coeffs:
            if len(idx) != degree:
                raise ValueError(f"index {tuple(idx)} does not match degree {degree}")
        self.coeffs: Dict[Tuple[int, ...], ex.Expr] = skew_coeffs(
            (tuple(idx), ex.as_expr(value)) for idx, value in coeffs.items())

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


def action_so3() -> Fixture:
    """Action algebroid of the rotation algebra on R^3.

    The anchor sends the frame section ``e_k`` to the rotation field
    ``x × e_k``, so the bracket coefficients are the alternating symbols and
    both structure equations hold identically.
    """
    coords = ["x1", "x2", "x3"]
    fibers = ["y1", "y2", "y3"]
    x = [ex.Var(nm) for nm in coords]
    rho = [[ex.eadd(*(ex.emul(ex.Const(_EPS3.get((i, j, k), 0)), x[j]) for j in range(3)))
            for k in range(3)] for i in range(3)]
    structure = {}
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                sign = _EPS3.get((i, j, k), 0)
                if sign:
                    structure[(k, i, j)] = ex.Const(sign)
    chart = AlgebroidChart(coords, fibers, rho, structure, name="action_so3")
    lagrangian = _quadratic_l(chart, [[ex.ONE if i == j else ex.ZERO for j in range(3)] for i in range(3)])
    # Theta_{ij} = eps_{ijk} x^k is closed for this anchor (checked in tests).
    theta = AForm(chart, 2, {(i, j): ex.eadd(*(ex.emul(ex.Const(_EPS3.get((i, j, k), 0)), x[k])
                                               for k in range(3)))
                             for i in range(3) for j in range(i + 1, 3)})
    return Fixture("action_so3", chart, lagrangian, theta)


def catalog(name: str, **kwargs) -> Fixture:
    """Look up a named fixture: ``tangent`` (kwarg ``n``) or ``action_so3``."""
    if name == "tangent":
        return tangent(kwargs.pop("n", 1))
    if name == "action_so3":
        return action_so3()
    raise InvalidFixtureParam(f"unknown fixture {name!r}")
