"""The bracket family on the total space and its dynamical predicates.

The bracket coefficients are, in adapted coordinates,

    {x^i, x^j} = 0
    {x^i, y^k} = -rho^i_r M^{rk}
    {y^k, y^l} = -M^{kr} N_{rs} M^{sl}

and the Hamiltonian vector field convention is ``X_G(h) = {G, h}``, which is
the convention reproducing the known semispray displays on the tangent
fixtures (pinned by the acceptance suite).

Every check here decides its items by :func:`~semispray.expr.decide`, the
one verdict loop of every check, from the :class:`FactoredField` at points,
with no field tree and at any rank, as does
:func:`~semispray.prolongation.consistency_suite`.  :func:`check_jacobi`
solves for the jets of the bracket's entries, :func:`is_semispray` and
:func:`is_spray` for the field's residuals.  Each runs the same solves once
in :class:`~semispray.expr.Pattern` too: a Jacobi term that is the literal
0 there is left out, and a spray item that is, proven.  A triple is proven
when no term is left, or, where ``M`` reads no name, when its terms over
the exact bracket read no quotient and sum symbolically to the literal 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Tuple

from . import expr as ex
from . import linalg
from .algebroid import AlgebroidChart
from .lagrangian import LagrangianData
from .report import ValidationReport


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

    def gradient(self, bind: Callable[[ex.Expr], ex.Expr] = lambda e: e):
        """``(hessian, dG/dx, dG/dy, solved)``, with ``bind`` applied to the
        entries of ``M`` and to ``G``: ``hessian`` is ``M`` read from its
        upper triangle, and ``solved`` whether ``dG/dy`` is ``hessian · y``
        term for term, as for ``E_L`` plus a function of ``x``.  Then ``u``
        is ``y`` with no solve, and ``X_x - rho y = rho (u - y)`` is 0: the
        paper's semispray identity."""
        r = self.chart.r
        hessian = [[bind(self.M[min(i, j)][max(i, j)]) for j in range(r)] for i in range(r)]
        g = bind(self.G)
        dgx = [ex.diff(g, name) for name in self.chart.coords]
        dgy = [ex.diff(g, name) for name in self.chart.fibers]
        solved = dgy == linalg.mat_vec(hessian, [ex.Var(name) for name in self.chart.fibers])
        return hessian, dgx, dgy, solved


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
    return _bracket(chart, data.Minv, n_matrix)


def _bracket(chart: AlgebroidChart, minv: linalg.Matrix, n_matrix: linalg.Matrix):
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


class _Partials(dict):
    """``a -> d e / d names[a]``, each partial taken at most once, on first use."""

    def __init__(self, e: ex.Expr, names: List[str]):
        super().__init__()
        self.e, self.names = e, names

    def __missing__(self, a: int) -> ex.Expr:
        self[a] = value = ex.diff(self.e, self.names[a])
        return value


def _contract(rows, df, dg) -> ex.Expr:
    """``sum P^{ab} df[a] dg[b]``, with the pieces in (a, b) order.  A partial
    is asked for only where a nonzero coefficient needs it."""
    pieces = []
    for a, row in enumerate(rows):
        if not row:
            continue
        da = df[a]
        if ex.is_zero_literal(da):
            continue
        for b, coeff in row:
            db = dg[b]
            if not ex.is_zero_literal(db):
                pieces.append(ex.emul(coeff, da, db))
    return ex.eadd(*pieces)


def bracket(p: PoissonBivector, f: ex.Expr, g: ex.Expr) -> ex.Expr:
    """Bilinear Leibniz extension ``sum P^{ab} da(F) db(G)`` over the
    coordinate pairs.  Partials of F and G are taken lazily, each at most
    once, and only along coordinates where some ``P^{ab}`` is not 0."""
    names = p.coordinate_names()
    return _contract(_skew_rows(p), _Partials(f, names), _Partials(g, names))


def check_jacobi(field: FactoredField, box: ex.Box = None, trials: int = 64,
                 tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Tag the Jacobiator of every coordinate triple, in the order of
    :func:`itertools.combinations`, with :func:`~semispray.expr.decide` from
    the jets of the bracket's upper-triangle entries ``P_k``, at any rank:
    ``J^{abc} = sum_d P^{ad} d_d P^{bc} + cyclic``, summed from the terms of
    :func:`_jacobi_terms`.  Where ``M`` reads a name, the jets are those of
    :class:`_BracketJets`, and the terms those of the same code's zero
    pattern.  Where it reads none, the inverse is a constant matrix, so the
    exact entries cost nothing: the jets and terms are theirs, and a triple
    none of whose terms reads an entry holding a quotient is proven when
    the symbolic sum of its terms, each partial taken once, is the literal
    0.  A triple with no terms is ``proven-zero``.  A chart with fewer than
    three coordinates passes."""
    bracket = _BracketJets(field)
    names, pairs = bracket.names, bracket.pairs
    constant = not any(ex.free_symbols(e) for row in field.M for e in row)
    if constant:
        exact = _bracket(field.chart, linalg.inverse(field.M, linalg.det(field.M)), field.N)
        outputs = [exact.coefficient(a, b) for a, b in pairs]
        triples = list(_jacobi_terms(names, pairs, ex.Pattern.jets(outputs, names)))
        quotient = [any(isinstance(node, ex.Div) for node in ex.distinct_nodes(e))
                    for e in outputs]
        symbolic = [(e, _Partials(e, names)) for e in outputs]
        proven = [not any(quotient[k] or quotient[l] for _, k, l, _ in terms)
                  and ex.is_zero_literal(ex.eadd(*[ex.emul(ex.as_expr(sign), symbolic[k][0],
                                                           symbolic[l][1][d])
                                                   for sign, k, l, d in terms]))
                  for _, terms in triples]
    else:
        outputs = bracket.outputs
        pattern = bracket(ex.Pattern.jets(outputs, names), ex.Pattern)
        triples = list(_jacobi_terms(names, pairs, pattern))
        proven = [not terms for _, terms in triples]

    def values(jets, arithmetic) -> list:
        jets = jets if constant else bracket(jets, arithmetic)
        return [_jacobiator(terms, jets, arithmetic.sum) for _, terms in triples]

    return ex.decide("jacobi", [label for label, _ in triples], proven, outputs, names, values,
                     box, trials, tol, seed)


class _FieldJets:
    """A factored field's data as the first outputs of one
    :class:`~semispray.expr.Program`: the upper triangles of ``M`` and
    ``N``, then ``rho``, whose jets :meth:`blocks` reads back."""

    def __init__(self, field: FactoredField):
        self.n, self.r = n, r = field.chart.n, field.chart.r
        self.upper = list(itertools.combinations_with_replacement(range(r), 2))
        self.strict = list(itertools.combinations(range(r), 2))
        self.outputs = ([field.M[i][j] for i, j in self.upper]
                        + [field.N[i][j] for i, j in self.strict]
                        + [v for row in field.chart.rho for v in row])

    def blocks(self, jets, field) -> tuple:
        """``M``, ``N`` (skew) and ``rho`` as matrices of ``(value,
        gradient)`` jets, taken from the iterator ``jets``."""
        n, r, zero = self.n, self.r, field.zero
        m = [[None] * r for _ in range(r)]
        for i, j in self.upper:
            m[i][j] = m[j][i] = next(jets)
        twist = [[(zero, [zero] * len(m[0][0][1]))] * r for _ in range(r)]
        for i, j in self.strict:
            value, grad = twist[i][j] = next(jets)
            twist[j][i] = (-value, [-g for g in grad])
        return m, twist, [[next(jets) for _ in range(r)] for _ in range(n)]


class _BracketJets(_FieldJets):
    """The jets of the bracket's upper-triangle entries ``P_k`` over the
    coordinate pairs, from the jets of ``Program(outputs)`` along every
    coordinate and solves with ``M`` (:func:`~semispray.linalg.solver`), in
    any field's arithmetic.  With ``A = M^-1``, ``P^{xy} = -rho A`` and
    ``P^{yy} = -A N A``; from ``d A = -A (d M) A``, as ``A`` is symmetric
    and ``P^{yy}`` skew, with ``B = (d M) A``,
    ``d P^{xy} = -(d rho) A - P^{xy} B`` and
    ``d P^{yy} = (P^{yy} B)^T - P^{yy} B - A (d N) A``, each piece taken
    only where its partial is not 0."""

    def __init__(self, field: FactoredField):
        super().__init__(field)
        self.names = list(field.chart.coords) + list(field.chart.fibers)
        self.pairs = list(itertools.combinations(range(len(self.names)), 2))

    def __call__(self, jets: list, field) -> list:
        n, r, total, zero = self.n, self.r, field.sum, field.zero
        m, twist, rho = self.blocks(iter(jets), field)

        def part(block, d=None):  # the values of a block of jets, or its partials along d
            return [[jet[0] if d is None else jet[1][d] for jet in row] for row in block]

        def mul(a, b, sign=1):  # sign * a b
            out = [[total([u * v for u, v in zip(row, col)]) for col in zip(*b)] for row in a]
            return out if sign > 0 else [[-v for v in row] for row in out]

        solve = linalg.solver(part(m), field)
        inv = linalg.transpose([solve([field.one if k == j else zero for k in range(r)])
                                for j in range(r)])
        pxy, pyy = mul(part(rho), inv, -1), mul(mul(inv, part(twist)), inv, -1)
        dxy, dyy = [], []
        for d in range(n + r):
            xy, yy = [], []  # the pieces of the two blocks' partials
            d_rho, d_m, d_twist = part(rho, d), part(m, d), part(twist, d)
            if any(map(any, d_rho)):
                xy.append(mul(d_rho, inv, -1))
            if any(map(any, d_m)):
                b = mul(d_m, inv)
                c = mul(pyy, b)
                xy.append(mul(pxy, b, -1))
                yy += [linalg.transpose(c), [[-v for v in row] for row in c]]
            if any(map(any, d_twist)):
                yy.append(mul(mul(inv, d_twist), inv, -1))
            dxy.append([[total([p[i][k] for p in xy]) for k in range(r)] for i in range(n)])
            dyy.append([[total([p[k][l] for p in yy]) for l in range(r)] for k in range(r)])
        return [(zero, [zero] * (n + r)) if j < n
                else (pxy[i][j - n], [block[i][j - n] for block in dxy]) if i < n
                else (pyy[i - n][j - n], [block[i - n][j - n] for block in dyy])
                for i, j in self.pairs]


def _jacobi_terms(names: List[str], pairs: List[Tuple[int, int]], pattern: list):
    """``(label, terms)`` of every coordinate triple ``a < b < c``, where
    the terms ``(sign, k, l, d)`` stand for ``sign * P_k * d_d P_l`` over
    the upper-triangle entries ``P_k``, kept only where the ``pattern``
    jets of the entries say that ``P_k`` and ``d_d P_l`` may be nonzero."""
    column = {pair: k for k, pair in enumerate(pairs)}
    nonzero = [bool(value) for value, _ in pattern]
    slopes = [[d for d, slope in enumerate(grad) if slope] for _, grad in pattern]

    def oriented(a: int, b: int) -> Tuple[int, int]:
        return (1, column[a, b]) if a < b else (-1, column[b, a])

    for a, b, c in itertools.combinations(range(len(names)), 3):
        terms = []
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            sign_jk, jk = oriented(j, k)
            for d in slopes[jk]:
                if d == i:
                    continue
                sign_id, id_ = oriented(i, d)
                if nonzero[id_]:
                    terms.append((sign_id * sign_jk, id_, jk, d))
        yield f"({names[a]},{names[b]},{names[c]})", terms


def _jacobiator(terms, jets, total):
    """The sum by ``total`` of the terms of :func:`_jacobi_terms`, each
    ``sign * P_k * d_d P_l``, over the ``(value, gradient)`` jets of the
    upper-triangle entries."""
    return total([sign * jets[k][0] * jets[l][1][d] for sign, k, l, d in terms])


def hamiltonian_field(p: PoissonBivector, g: ex.Expr) -> VectorFieldOnA:
    """Hamiltonian vector field of ``g``: component a is ``{g, coordinate_a}``.
    The partials of ``g`` are shared by all components."""
    names = p.coordinate_names()
    rows = _skew_rows(p)
    dg = _Partials(g, names)
    units = [[ex.ONE if b == a else ex.ZERO for b in range(len(names))]
             for a in range(len(names))]
    components = [_contract(rows, dg, unit) for unit in units]
    n = p.chart.n
    return VectorFieldOnA(p.chart, components[:n], components[n:])


class _FactoredResiduals(_FieldJets):
    """The residuals of :func:`is_semispray` (base items) or
    :func:`is_spray` (base items, then fiber items) of a factored field, as
    one :class:`~semispray.expr.Program` of its data and the solves that
    turn the program's jets into them.

    The program computes the upper triangles of ``M`` and ``N``, ``rho``,
    ``dG/dx``, ``dG/dy`` and ``y``.  With ``M u = dG/dy`` (``u = y`` where
    :meth:`FactoredField.gradient` says ``solved``), ``R = N u - rho^T dG/dx``
    and ``E = y^k d/dy^k``, so that ``X_x = rho u`` and ``X_y = M^-1 R``:

    * the semispray residual is ``X_x - rho y = rho (u - y)``;
    * the spray base residual is ``E X_x - X_x = rho (E u - u)``, with
      ``E u = M^-1 (E dG/dy - (E M) u)``;
    * the spray fiber residual is
      ``E X_y - 2 X_y = M^-1 (E R - (E M) X_y - 2 R)``.

    The jets run along the fibers for the spray, where ``E f`` is
    ``y · grad f``, and along nothing for the semispray.  The base items
    are proven when ``solved``."""

    def __init__(self, field: FactoredField, spray: bool):
        super().__init__(field)
        chart, n, r = field.chart, self.n, self.r
        _, dgx, dgy, self.solved = field.gradient()
        self.spray = spray
        self.labels = [f"d/d{name}" for name in chart.coords]
        self.proven = [self.solved] * n
        if spray:
            self.labels += [f"d/d{name}" for name in chart.fibers]
            self.proven += [False] * r
        self.along = list(chart.fibers) if spray else []
        self.outputs += dgx + dgy + [ex.Var(name) for name in chart.fibers]

    def values(self, jets: list, field) -> list:
        """Every residual from the jets of ``Program(self.outputs)``, in the
        arithmetic of ``field``; a zero pivot raises
        :class:`~semispray.expr.DomainError`."""
        n, r, total = self.n, self.r, field.sum
        jets = iter(jets)
        m, twist, rho = self.blocks(jets, field)
        rho = [[v for v, _ in row] for row in rho]
        gx = [next(jets) for _ in range(n)]
        gy = [next(jets) for _ in range(r)]
        y = [next(jets)[0] for _ in range(r)]

        def euler(jet):
            return total([yk * dk for yk, dk in zip(y, jet[1])])

        solve = linalg.solver([[v for v, _ in row] for row in m], field)
        u = y if self.solved else solve([v for v, _ in gy])
        if not self.spray:
            return [total([rho[i][k] * (u[k] - y[k]) for k in range(r)]) for i in range(n)]
        em, etwist = [[None] * r for _ in range(r)], [[None] * r for _ in range(r)]
        for i, j in self.upper:  # each Euler derivative once: M is symmetric, N skew
            em[i][j] = em[j][i] = euler(m[i][j])
            etwist[i][j] = euler(twist[i][j])
            etwist[j][i] = -etwist[i][j]
        egx = [euler(jet) for jet in gx]
        eu = y if self.solved else solve([total([euler(gy[k])] + [-em[k][j] * u[j]
                                                                  for j in range(r)])
                                          for k in range(r)])
        base = [total([rho[i][k] * (eu[k] - u[k]) for k in range(r)]) for i in range(n)]
        rhs = [total([twist[k][l][0] * u[l] for l in range(r) if l != k]
                     + [-rho[i][k] * gx[i][0] for i in range(n)]) for k in range(r)]
        e_rhs = [total([etwist[k][l] * u[l] + twist[k][l][0] * eu[l]
                        for l in range(r) if l != k]
                       + [-rho[i][k] * egx[i] for i in range(n)]) for k in range(r)]
        xy = solve(rhs)
        fiber = solve([total([e_rhs[k], -2 * rhs[k]] + [-em[k][j] * xy[j] for j in range(r)])
                       for k in range(r)])
        return base + fiber


def _factored_check(check: str, field: FactoredField, spray: bool, box: ex.Box,
                    trials: int, tol: float, seed: int) -> ValidationReport:
    residuals = _FactoredResiduals(field, spray)
    proven = residuals.proven
    if not all(proven):  # an item that is the literal 0 in the zero pattern is proven too
        pattern = residuals.values(ex.Pattern.jets(residuals.outputs, residuals.along),
                                   ex.Pattern)
        proven = [known or not value for known, value in zip(proven, pattern)]
    return ex.decide(check, residuals.labels, proven, residuals.outputs,
                     residuals.along, residuals.values, box, trials, tol, seed)


def is_semispray(field: FactoredField, box: ex.Box = None, trials: int = 64,
                 tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals ``X_x^i - rho^i_k y^k`` of the base-projection condition,
    one per base coordinate, decided from the factored field (see
    :class:`_FactoredResiduals`): every item is ``proven-zero`` when
    ``dG/dy`` is ``M y`` term for term."""
    return _factored_check("semispray", field, False, box, trials, tol, seed)


def is_spray(field: FactoredField, box: ex.Box = None, trials: int = 64,
             tol: float = 1e-9, seed: int = 0) -> ValidationReport:
    """Residuals of ``[E, X] - X`` against the fiber dilation field
    ``E = y^k d/dy^k``: base components must be fiberwise homogeneous of
    degree 1 and fiber components of degree 2.  Decided from the factored
    field (see :class:`_FactoredResiduals`): the base items are
    ``proven-zero`` when ``dG/dy`` is ``M y`` term for term, any item is
    where the zero pattern of the solves gives the literal 0, and the jets
    run along the fibers."""
    return _factored_check("spray", field, True, box, trials, tol, seed)
