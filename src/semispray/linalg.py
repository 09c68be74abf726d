"""Dense symbolic matrices small enough for cofactor expansion: products,
determinant, adjugate and the exact inverse; and :func:`solver`, Gaussian
elimination at a point over the field of :meth:`expr.Program.jets`, in
floats or mod p, for the semispray, spray and prolongation checks.  The
flow's numeric solve is its own generated code (:mod:`semispray.dynamics`)."""

from __future__ import annotations

from typing import Callable, List, Sequence

from . import expr as ex

Matrix = List[List[ex.Expr]]

def transpose(m: Matrix) -> Matrix:
    return [list(row) for row in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """``a b``, with no product formed where a factor is the literal 0."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [[ex.eadd(*(ex.emul(a[i][k], b[k][j]) for k in range(inner)
                       if not (ex.is_zero_literal(a[i][k]) or ex.is_zero_literal(b[k][j]))))
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


def solver(a: list, field) -> Callable[[list], list]:
    """``b -> x`` with ``a x = b``, for a square matrix ``a`` of values of
    ``field`` (:data:`~semispray.expr.FLOAT` or a
    :class:`~semispray.expr.Modular`), eliminated once.  The pivot is the
    entry of largest absolute value: partial pivoting in floats, and mod p
    some nonzero residue.  A zero pivot, where ``a`` is singular in that
    field, raises :class:`~semispray.expr.DomainError`."""
    size = len(a)
    a = [list(row) for row in a]
    norm, total = field.norm, field.sum
    swaps = []
    for k in range(size):
        pivot = max(range(k, size), key=lambda i: abs(a[i][k]))
        if not a[pivot][k]:
            raise ex.DomainError("singular matrix")
        swaps.append(pivot)
        # Only the columns from k on move: each multiplier stays in the row
        # position it eliminated, where the solve replays it.
        a[k][k:], a[pivot][k:] = a[pivot][k:], a[k][k:]
        for i in range(k + 1, size):
            factor = a[i][k] = field.quotient(a[i][k], a[k][k])[0]
            for j in range(k + 1, size):
                a[i][j] = norm(a[i][j] - factor * a[k][j])

    def solve(b: list) -> list:
        b = list(b)
        for k, pivot in enumerate(swaps):
            b[k], b[pivot] = b[pivot], b[k]
            for i in range(k + 1, size):
                b[i] = norm(b[i] - a[i][k] * b[k])
        x = [field.zero] * size
        for k in reversed(range(size)):
            rest = total([b[k]] + [-a[k][j] * x[j] for j in range(k + 1, size)])
            x[k] = field.quotient(rest, a[k][k])[0]
        return x

    return solve
