"""Cyclotomic polynomials over Z and exact arithmetic in Z[zeta_{p^k}].

Elements of Z[zeta_{p^k}] are held as exponent-count vectors of length p^k
(coefficient of zeta^e at index e) and compared through a canonical form:
every exponent e >= phi(p^k) is eliminated with the relation

    sum_{i=0..p-1} zeta^(j + i*p^(k-1)) = 0,      0 <= j < p^(k-1),

which rewrites zeta^(j + (p-1)p^(k-1)) in terms of lower powers.  The
canonical vector is supported on 0 <= e < phi(p^k) and is zero iff the
element is zero.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import poly_divmod


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, degree-first."""
    if d < 1:
        raise ValueError("d must be positive")
    num = [1] + [0] * (d - 1) + [-1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            q, r = poly_divmod(num, list(cyclotomic_poly(e)))
            assert not any(r)
            num = q
    return tuple(num)


class CycloInt:
    """An element of Z[zeta_{p^k}] as an exponent-count vector."""

    __slots__ = ("p", "k", "counts")

    def __init__(self, p: int, k: int, counts=None):
        self.p = p
        self.k = k
        n = p**k
        self.counts = [0] * n if counts is None else list(counts)
        if len(self.counts) != n:
            raise ValueError("count vector has wrong length")

    def add_root(self, exponent: int, mult: int = 1) -> None:
        """Accumulate mult * zeta^exponent."""
        self.counts[exponent % (self.p**self.k)] += mult

    def canonical(self) -> tuple[int, ...]:
        """Reduce onto the basis {zeta^e : 0 <= e < phi(p^k)}."""
        p, k = self.p, self.k
        n = p**k
        step = p ** (k - 1)
        c = list(self.counts)
        for e in range(n - 1, step * (p - 1) - 1, -1):
            m = c[e]
            if m:
                c[e] = 0
                j = e - step * (p - 1)
                for i in range(p - 1):
                    c[j + i * step] -= m
        return tuple(c[: step * (p - 1)])

    def __repr__(self) -> str:
        return f"CycloInt(p={self.p}, k={self.k}, canonical={self.canonical()})"
