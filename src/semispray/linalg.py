"""Dense symbolic matrices small enough for cofactor expansion: products,
determinant, adjugate and the exact inverse.  Numeric solves are the flow's
own (:mod:`semispray.dynamics`)."""

from __future__ import annotations

from typing import List, Sequence

from . import expr as ex

Matrix = List[List[ex.Expr]]

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
