"""The bracket family on the total space and its dynamical predicates.

The bracket coefficients are, in adapted coordinates,

    {x^i, x^j} = 0
    {x^i, y^k} = -rho^i_r M^{rk}
    {y^k, y^l} = -M^{kr} N_{rs} M^{sl}

and the Hamiltonian vector field convention is ``X_G(h) = {G, h}``, which is
the convention reproducing the known semispray displays on the tangent
fixtures (pinned by the acceptance suite).

:func:`check_jacobi` reaches a verdict per coordinate triple in one of two
ways, fixed by the bracket.  With no quotient in any entry it samples or
proves the residual trees of :func:`jacobi_residuals`.  With one, it builds
no tree: a triple is ``proven-zero`` when every term of the Jacobiator is 0
by structure, ``likely-zero`` with ``method`` ``modular`` when the
Jacobiator is 0 mod p = 2^61 - 1 at a random point (a false zero has
probability at most deg/p), and otherwise sampled from float jets with
``method`` ``float``.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

from . import expr as ex
from . import linalg
from .algebroid import AlgebroidChart
from .lagrangian import LagrangianData
from .report import ValidationReport, ZeroResult, ZeroStatus


@dataclass
class VectorFieldOnA:
    """Vector field on the total space in adapted components."""

    chart: AlgebroidChart
    vx: List[ex.Expr]
    vy: List[ex.Expr]

    def components(self) -> List[ex.Expr]:
        return list(self.vx) + list(self.vy)


class FactoredField:
    """The Hamiltonian field of ``G`` as the Poisson system ``X = P(x)·∇G``,
    kept as the data that give it at a point: the fiber Hessian ``M``
    (symmetric), the twist ``N`` (skew, see
    :func:`~semispray.twoform.assemble_N`) and the chart's anchor ``rho``.
    With ``M u = dG/dy``, its components are ``X_x = rho u`` and
    ``M X_y = N u - rho^T dG/dx``, the components of
    ``hamiltonian_field(build_bracket(chart, data, N), G)`` without the
    Hessian inverse.  :func:`~semispray.dynamics.integrate` solves for them
    pointwise, reading the upper triangles of ``M`` and ``N`` only."""

    def __init__(self, chart: AlgebroidChart, M: linalg.Matrix, N: linalg.Matrix, G: ex.Expr):
        self.chart = chart
        self.M = M
        self.N = N
        self.G = G


class PoissonBivector:
    """Coefficient matrices of the bracket in adapted coordinates; the
    base-base block is identically zero."""

    def __init__(self, chart: AlgebroidChart, pxy: linalg.Matrix, pyy: linalg.Matrix):
        self.chart = chart
        self.pxy = pxy  # n x r, entries {x^i, y^k}
        self.pyy = pyy  # r x r, entries {y^k, y^l}

    def coordinate_names(self) -> List[str]:
        return list(self.chart.coords) + list(self.chart.fibers)

    def coefficient(self, a: int, b: int) -> ex.Expr:
        """Bracket of the a-th and b-th coordinate in the combined ordering
        (base coordinates first)."""
        n = self.chart.n
        if a < n and b < n:
            return ex.ZERO
        if a < n <= b:
            return self.pxy[a][b - n]
        if b < n <= a:
            return ex.eneg(self.pxy[b][a - n])
        return self.pyy[a - n][b - n]


def build_bracket(chart: AlgebroidChart, data: LagrangianData,
                  n_matrix: linalg.Matrix) -> PoissonBivector:
    """Assemble the bracket coefficient matrices from the Hessian inverse and
    the twisted skew matrix ``N`` (see :func:`~semispray.twoform.assemble_N`)."""
    if data.Minv is None:
        raise ValueError("building the bracket symbolically needs the exact Hessian inverse")
    minv = data.Minv
    pxy = [[ex.eneg(v) for v in row] for row in linalg.mat_mul(chart.rho, minv)]
    mnm = linalg.mat_mul(linalg.mat_mul(minv, n_matrix), minv)
    pyy = [[ex.eneg(v) for v in row] for row in mnm]
    return PoissonBivector(chart, pxy, pyy)


def _skew_rows(p: PoissonBivector) -> List[List[Tuple[int, ex.Expr]]]:
    """Row a of the bracket matrix: the pairs ``(b, P^{ab})`` with b != a and
    ``P^{ab}`` not the literal 0.  Built per call, not per bivector, because
    callers may edit ``pxy``/``pyy`` after construction."""
    size = p.chart.n + p.chart.r
    return [[(b, coeff) for b in range(size) if b != a
             for coeff in (p.coefficient(a, b),) if not ex.is_zero_literal(coeff)]
            for a in range(size)]


def _partials(e: ex.Expr, names: List[str]) -> Callable[[int], ex.Expr]:
    """``a -> d e / d names[a]``, each partial taken at most once, on first use."""
    return functools.lru_cache(maxsize=None)(lambda a: ex.diff(e, names[a]))


def _unit(a: int) -> Callable[[int], ex.Expr]:
    """The partials of the a-th coordinate."""
    return lambda b: ex.ONE if b == a else ex.ZERO


def _contract(rows, df, dg) -> ex.Expr:
    """``sum P^{ab} df(a) dg(b)``, with the pieces in (a, b) order.  A partial
    is asked for only where a nonzero coefficient needs it."""
    pieces = []
    for a, row in enumerate(rows):
        if not row:
            continue
        da = df(a)
        if ex.is_zero_literal(da):
            continue
        for b, coeff in row:
            db = dg(b)
            if not ex.is_zero_literal(db):
                pieces.append(ex.emul(coeff, da, db))
    return ex.eadd(*pieces)


def bracket(p: PoissonBivector, f: ex.Expr, g: ex.Expr) -> ex.Expr:
    """Bilinear Leibniz extension ``sum P^{ab} da(F) db(G)`` over the
    coordinate pairs.  Partials of F and G are taken lazily, each at most
    once, and only along coordinates where some ``P^{ab}`` is not 0."""
    names = p.coordinate_names()
    return _contract(_skew_rows(p), _partials(f, names), _partials(g, names))


def jacobi_residuals(p: PoissonBivector) -> Iterator[Tuple[str, ex.Expr]]:
    """``(label, Jacobiator)`` of every coordinate triple, in the order of
    :func:`itertools.combinations`.  Each inner bracket ``{x_b, x_c}`` and
    each of its partials is built once and shared by the triples using it."""
    names = p.coordinate_names()
    rows = _skew_rows(p)
    triples = list(itertools.combinations(range(len(names)), 3))
    uses = collections.Counter(pair for a, b, c in triples for pair in ((b, c), (c, a), (a, b)))
    inner = {}

    def nested(a: int, b: int, c: int) -> ex.Expr:
        """``{x_a, {x_b, x_c}}``; the partials of ``{x_b, x_c}`` are dropped
        after their last use."""
        if (b, c) not in inner:
            inner[b, c] = _partials(_contract(rows, _unit(b), _unit(c)), names)
        value = _contract(rows, _unit(a), inner[b, c])
        uses[b, c] -= 1
        if not uses[b, c]:
            del inner[b, c]
        return value

    for a, b, c in triples:
        yield (f"({names[a]},{names[b]},{names[c]})",
               ex.eadd(nested(a, b, c), nested(b, c, a), nested(c, a, b)))


def check_jacobi(p: PoissonBivector, box: ex.Box = None, trials: int = 64,
                 tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Tag the Jacobiator of every coordinate triple, in the order of
    :func:`itertools.combinations`.

    A bracket with no quotient in it is checked on :func:`jacobi_residuals`,
    where the canonical form cancels the identity to the literal 0
    (``proven-zero``) or the residual is sampled.  A bracket with a quotient
    is checked from the jets of its upper-triangle entries, with no residual
    tree: ``J^{abc} = sum_d P^{ad} d_d P^{bc} + cyclic``.  A triple is then

    * ``proven-zero`` when every term is 0 by structure: ``P^{ad}`` is the
      literal 0 or ``P^{bc}`` is free of ``x_d``;
    * ``likely-zero`` with ``method`` ``modular`` when J is 0 in F_p at one
      random point of :class:`~semispray.expr.Modular` (a point where an
      entry is singular mod p draws another, and a bracket with a root
      draws none): a false zero has probability at most ``deg/p``;
    * else sampled by :func:`~semispray.expr.sample_zero` from float jets,
      with ``method`` ``float``; the jets of a point are computed once for
      every triple that samples it.
    """
    names = p.coordinate_names()
    pairs = list(itertools.combinations(range(len(names)), 2))
    entries = [p.coefficient(a, b) for a, b in pairs]
    if not any(isinstance(node, ex.Div) for node in ex.distinct_nodes(*entries)):
        return ex.certify("jacobi", jacobi_residuals(p), box, trials, tol, seed)
    return _jacobi_from_jets(names, pairs, entries, box, trials, tol, seed)


def _jacobi_from_jets(names: List[str], pairs: List[Tuple[int, int]], entries: List[ex.Expr],
                      box: ex.Box, trials: int, tol: float, seed: int) -> ValidationReport:
    """The verdicts of :func:`check_jacobi` for a bracket with quotients,
    from the jets of its upper-triangle ``entries`` at ``pairs``."""
    ex.require_settings(trials, tol)
    program = ex.Program(entries)
    reads = sorted({name for _, name in program.reads})
    exact, drawn = ex.modular_jets(program, reads, names, trials=trials, seed=seed)
    sampled: dict = {}  # point -> its float jets, or None where singular

    def float_jets(env: dict) -> list:
        point = tuple(env[name] for name in reads)
        if point not in sampled:
            try:
                sampled[point] = program.jets(env, names, ex.FLOAT)
            except ex.DomainError:
                sampled[point] = None
        if sampled[point] is None:
            raise ex.DomainError("a bracket entry or partial is singular here")
        return sampled[point]

    report = ValidationReport(check="jacobi", seed=seed)
    for label, terms in _jacobi_terms(names, pairs, entries):
        if not terms:
            result = ZeroResult(ZeroStatus.PROVEN_ZERO, 0.0, seed=seed, trials=0)
        elif exact is not None and _jacobiator(terms, exact, ex.Modular.sum) == 0:
            result = ZeroResult(ZeroStatus.LIKELY_ZERO, 0.0, seed=seed, trials=drawn,
                                method="modular")
        else:
            result = ex.sample_zero(lambda env: _jacobiator(terms, float_jets(env), math.fsum),
                                    reads, box=box, trials=trials, tol=tol, seed=seed)
            result = dataclasses.replace(result, method="float")
        report.add(label, result)
    return report


def _jacobi_terms(names: List[str], pairs: List[Tuple[int, int]], entries: List[ex.Expr]):
    """``(label, terms)`` of every coordinate triple ``a < b < c``, where
    the terms ``(sign, k, l, d)`` stand for ``sign * P_k * d_d P_l`` over
    the upper-triangle entries ``P_k``, and a term that is 0 by structure is
    left out."""
    column = {pair: k for k, pair in enumerate(pairs)}
    free = [ex.free_symbols(e) for e in entries]

    def oriented(a: int, b: int) -> Tuple[int, int]:
        return (1, column[a, b]) if a < b else (-1, column[b, a])

    for a, b, c in itertools.combinations(range(len(names)), 3):
        terms = []
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            sign_jk, jk = oriented(j, k)
            for d in range(len(names)):
                if d == i or names[d] not in free[jk]:
                    continue
                sign_id, id_ = oriented(i, d)
                if not ex.is_zero_literal(entries[id_]):
                    terms.append((sign_id * sign_jk, id_, jk, d))
        yield f"({names[a]},{names[b]},{names[c]})", terms


def _jacobiator(terms, jets, total):
    """The sum by ``total`` of the terms of :func:`_jacobi_terms` over the
    ``(value, gradient)`` jets of the upper-triangle entries."""
    return total([sign * jets[k][0] * jets[l][1][d] for sign, k, l, d in terms])


def hamiltonian_field(p: PoissonBivector, g: ex.Expr) -> VectorFieldOnA:
    """Hamiltonian vector field of ``g``: component a is ``{g, coordinate_a}``.
    The partials of ``g`` are shared by all components."""
    names = p.coordinate_names()
    rows = _skew_rows(p)
    dg = _partials(g, names)
    components = [_contract(rows, dg, _unit(a)) for a in range(len(names))]
    n = p.chart.n
    return VectorFieldOnA(p.chart, components[:n], components[n:])


def is_semispray(chart: AlgebroidChart, field: VectorFieldOnA, box: ex.Box = None,
                 trials: int = 64, tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals ``Vx^i - y^j rho^i_j`` of the base-projection condition."""
    expected = linalg.mat_vec(chart.rho, [ex.Var(nm) for nm in chart.fibers])
    return ex.certify("semispray", ((f"d/d{chart.coords[i]}",
                                     ex.eadd(field.vx[i], ex.eneg(expected[i])))
                                    for i in range(chart.n)),
                      box, trials, tol, seed)


def is_spray(field: VectorFieldOnA, box: ex.Box = None, trials: int = 64,
             tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals of ``[E, V] - V`` against the fiber dilation field
    ``E = y^k d/dy^k``: base components must be fiberwise homogeneous of
    degree 1 and fiber components of degree 2."""
    chart = field.chart

    def euler_degree(component: ex.Expr, degree: int) -> ex.Expr:
        radial = ex.eadd(*(ex.emul(ex.Var(nm), ex.diff(component, nm)) for nm in chart.fibers))
        return ex.eadd(radial, ex.emul(ex.Const(-degree), component))

    legs = [(name, component, 1) for name, component in zip(chart.coords, field.vx)]
    legs += [(name, component, 2) for name, component in zip(chart.fibers, field.vy)]
    return ex.certify("spray", ((f"d/d{name}", euler_degree(component, degree))
                                for name, component, degree in legs),
                      box, trials, tol, seed)
