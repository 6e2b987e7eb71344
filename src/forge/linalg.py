"""Exact linear algebra over Z and Z/p^K.

Matrices are tuples of tuples of Python ints (rows).  Everything here is
small (rank <= 8 lattices, module ranks below ~50), so clarity wins over
asymptotics: Bareiss for determinants, unit-pivot elimination for solving
over Z/p^K.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence

from . import kernel

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix, mod: Optional[int] = None) -> Matrix:
    """a * b, its entries reduced mod `mod` when one is given."""
    cols = tuple(zip(*b))
    if mod is None:
        return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)
    return tuple(tuple(sum(map(operator.mul, row, col)) % mod for col in cols) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mod(a: Matrix, mod: int) -> Matrix:
    return tuple(tuple(x % mod for x in row) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(a: Matrix, e: int) -> Matrix:
    return kernel.power(mat_mul, a, e, identity(len(a)))


def det(a: Matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_unit_pivot(b: Matrix, vs: Sequence[Vector], p: int, k: int) -> list[Vector]:
    """Solve B*c = v over Z/p^K for every v in vs, B with unit-pivot (mod p)
    column space; one elimination serves all right-hand sides.

    Columns of B must reduce mod p to independent vectors (a basis of a
    direct summand); then each solution is unique mod p^K.  Raises if any
    of the systems has no solution.
    """
    mod = p**k
    nrows, ncols = len(b), len(b[0])
    m = [[x % mod for x in b[i]] + [v[i] % mod for v in vs] for i in range(nrows)]
    pivots: list[int] = []
    row_used = [False] * nrows
    for col in range(ncols):
        piv = None
        for i in range(nrows):
            if not row_used[i] and m[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix columns not unit-pivoted mod p")
        inv = pow(m[piv][col], -1, mod)
        m[piv] = [(x * inv) % mod for x in m[piv]]
        for i in range(nrows):
            if i != piv and m[i][col]:
                c = m[i][col]
                m[i] = [(x - c * y) % mod for x, y in zip(m[i], m[piv])]
        row_used[piv] = True
        pivots.append(piv)
    for i in range(nrows):
        if not row_used[i] and any(m[i][ncols:]):
            raise ValueError("inconsistent system over Z/p^K")
    return [tuple(m[piv][ncols + r] for piv in pivots) for r in range(len(vs))]
