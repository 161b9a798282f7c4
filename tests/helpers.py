"""Oracles and small accessors that only the tests use."""

from __future__ import annotations

from frobstab.exactfield import Field
from frobstab.linalg import Matrix, Subspace


def rref_field(rows: list[list], ncols: int, field: Field) -> tuple[list[int], int]:
    """Dense Gauss-Jordan with field arithmetic, in place: the oracle that
    both package routes (`_rref_rational`, `_rref_sparse`) are held to.

    Returns (pivot columns, rank); rows below the rank come out zero.
    """
    sub, mul, inv = field.sub, field.mul, field.inv
    one = field.one
    nrows = len(rows)
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        f = piv[c]
        if f != one:
            finv = inv(f)
            for j in range(c, ncols):
                if piv[j]:
                    piv[j] = mul(piv[j], finv)
        support = [j for j in range(c, ncols) if piv[j]]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            g = row[c]
            if g:
                for j in support:
                    row[j] = sub(row[j], mul(g, piv[j]))
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return piv_cols, r


def at(m: Matrix, i: int, j: int):
    """Entry (i, j) of m."""
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError(f"({i},{j}) outside {m.nrows}x{m.ncols}")
    return m.entries[i * m.ncols + j]


def full_subspace(field: Field, ambient: int) -> Subspace:
    """All of F^ambient."""
    return Subspace(field, ambient, Matrix.identity(field, ambient), tuple(range(ambient)))
