"""Dense matrices: symbolic ones small enough for cofactor expansion, and
one partial-pivot elimination for numeric solves and ranks."""

from __future__ import annotations

from typing import List, Sequence

from . import expr as ex

Matrix = List[List[ex.Expr]]

#: Largest pivot magnitude :func:`solve` treats as zero.
SINGULAR_PIVOT = 1e-14


def identity(n: int) -> Matrix:
    return [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    return [list(row) for row in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [[ex.eadd(*(ex.emul(a[i][k], b[k][j]) for k in range(inner)))
             for j in range(cols)] for i in range(rows)]


def mat_vec(a: Matrix, v: Sequence[ex.Expr]) -> List[ex.Expr]:
    return [ex.eadd(*(ex.emul(a[i][k], v[k]) for k in range(len(v)))) for i in range(len(a))]


def _minor(m: Matrix, row: int, col: int) -> Matrix:
    return [[m[i][j] for j in range(len(m)) if j != col]
            for i in range(len(m)) if i != row]


def det(m: Matrix) -> ex.Expr:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return ex.eadd(ex.emul(m[0][0], m[1][1]), ex.eneg(ex.emul(m[0][1], m[1][0])))
    pieces = []
    for i in range(n):
        entry = m[i][0]
        if ex.is_zero_literal(entry):
            continue
        cof = det(_minor(m, i, 0))
        term = ex.emul(entry, cof)
        pieces.append(term if i % 2 == 0 else ex.eneg(term))
    return ex.eadd(*pieces)


def adjugate(m: Matrix) -> Matrix:
    n = len(m)
    if n == 1:
        return [[ex.ONE]]
    cof = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor_det = det(_minor(m, i, j))
            cof[i][j] = minor_det if (i + j) % 2 == 0 else ex.eneg(minor_det)
    return transpose(cof)


def inverse(m: Matrix, det: ex.Expr) -> Matrix:
    """Exact inverse: the adjugate over ``det``, the (nonzero) determinant
    of ``m``."""
    return [[ex.ediv(entry, det) for entry in row] for row in adjugate(m)]


def eval_matrix(m: Matrix, env: dict) -> List[List[float]]:
    """Every entry at ``env``, from one program run once."""
    values = iter(ex.Program([entry for row in m for entry in row]).run(env))
    return [[next(values) for _ in row] for row in m]


def row_echelon(rows: List[List[float]], ncols: int, tol: float) -> int:
    """Gaussian elimination with partial pivoting, in place, over the first
    ``ncols`` columns of ``rows`` (any further columns are carried along).

    A column whose largest remaining entry is at most ``tol`` in absolute
    value gets no pivot.  Returns the rank, the number of pivots; the pivot
    rows come first.
    """
    size, width = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = max(range(rank, size), key=lambda r: abs(rows[r][col]))
        if abs(rows[pivot][col]) <= tol:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, size):
            factor = rows[r][col] / rows[rank][col]
            for c in range(col, width):
                rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank


def solve(a: List[List[float]], rhs: Sequence[List[float]]) -> List[List[float]]:
    """Solve ``a x = b`` for every right-hand side ``b`` in ``rhs`` with one
    elimination of ``[a | b...]``; raises ``ValueError`` when ``a`` is
    numerically singular (a pivot at most ``SINGULAR_PIVOT``)."""
    n = len(a)
    aug = [row[:] + [b[i] for b in rhs] for i, row in enumerate(a)]
    if row_echelon(aug, n, SINGULAR_PIVOT) < n:
        raise ValueError("numerically singular system")
    solutions = []
    for k in range(n, n + len(rhs)):
        out = [0.0] * n
        for r in range(n - 1, -1, -1):
            acc = aug[r][k] - sum(aug[r][c] * out[c] for c in range(r + 1, n))
            out[r] = acc / aug[r][r]
        solutions.append(out)
    return solutions
