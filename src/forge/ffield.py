"""Exact arithmetic in F_q and F_{q^n} with the relative Frobenius.

The prime field F_p has int elements.  F_q with q = p^f > p is the
extension F_p[y]/(g) of F_p, for the smallest irreducible monic g in a
fixed encoding order, and F_{q^n} is F_q[x]/(h) with h chosen the same
way; elements of an extension are coefficient tuples (little-endian).
The encoding order makes every derived value (moduli, multiplicative
generators, special elements) reproducible.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, Optional

from . import kernel


class PrimeField:
    """F_p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not kernel.is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.size = p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def encode(self, a: int) -> int:
        return a

    def is_zero(self, a: int) -> bool:
        return a == 0

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def smul(self, n: int, a: int) -> int:
        return n * a % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        return pow(a, -1, self.p)

    def poly_ring(self, modulus: tuple) -> kernel.IntPolyRing:
        """F_p[x]/(modulus)."""
        return kernel.IntPolyRing(modulus, self.p)


class FieldExtension:
    """F_{q^n} over F_q with Frobenius sigma: x -> x^q."""

    def __init__(self, p: int, f: int, n: int):
        if f < 1 or n < 1:
            raise ValueError("f and n must be positive")
        self.base = PrimeField(p) if f == 1 else build_extension(p, 1, f)
        self.p, self.f, self.n = p, f, n
        self.q = self.base.size
        self.size = self.q**n
        self.modulus = kernel.smallest_irreducible(self.base, n)
        self._ring = self.base.poly_ring(self.modulus)
        self._frobenius_matrix = kernel.frobenius_columns(self._ring, self.q)
        self._generator: Optional[tuple] = None

    # -- element plumbing ------------------------------------------------
    def zero(self) -> tuple:
        return (self.base.zero(),) * self.n

    def one(self) -> tuple:
        return tuple([self.base.one()] + [self.base.zero()] * (self.n - 1))

    def from_int(self, n: int) -> tuple:
        digits = []
        n %= self.size
        for _ in range(self.n):
            digits.append(self.base.from_int(n % self.q))
            n //= self.q
        return tuple(digits)

    def encode(self, a: tuple) -> int:
        return sum(self.base.encode(c) * self.q**i for i, c in enumerate(a))

    def elements(self) -> Iterator[tuple]:
        for n in range(self.size):
            yield self.from_int(n)

    def is_zero(self, a: tuple) -> bool:
        return a == self.zero()

    # -- arithmetic ------------------------------------------------------
    def add(self, a, b):
        return self._ring.add(a, b)

    def sub(self, a, b):
        return self._ring.sub(a, b)

    def neg(self, a):
        return self._ring.neg(a)

    def mul(self, a, b):
        return self._ring.mul(a, b)

    def smul(self, n: int, a):
        return self._ring.smul(n, a)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return self._ring.pow(a, e)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError
        return self.pow(a, self.size - 2)

    def poly_ring(self, modulus: tuple) -> kernel.PolyRing:
        """F_{q^n}[z]/(modulus), over the kernel ring of this field."""
        return kernel.PolyRing(self._ring, modulus)

    # -- Frobenius and traces ---------------------------------------------
    def frobenius(self, a: tuple, k: int = 1) -> tuple:
        """sigma^k with sigma: x -> x^q."""
        for _ in range(k % self.n):
            a = self._ring.apply(self._frobenius_matrix, a)
        return a

    def _orbit_fold(self, op, a: tuple) -> tuple:
        """op(...op(op(a, sigma(a)), sigma^2(a))..., sigma^(n-1)(a))."""
        out = a
        for _ in range(self.n - 1):
            a = self._ring.apply(self._frobenius_matrix, a)
            out = op(out, a)
        return out

    def trace(self, a: tuple) -> tuple:
        return self._orbit_fold(self.add, a)

    def norm(self, a: tuple) -> tuple:
        """a * sigma(a) * ... * sigma^(n-1)(a) = a^((q^n - 1)/(q - 1)), in F_q."""
        return self._orbit_fold(self.mul, a)

    def minimal_polynomial_degree(self, a: tuple) -> int:
        """Degree of the minimal polynomial over F_q = Frobenius orbit size."""
        cur = a
        for k in range(1, self.n + 1):
            cur = self._ring.apply(self._frobenius_matrix, cur)
            if cur == a:
                return k

    # -- special elements --------------------------------------------------
    def find_trace_zero_generator(self) -> tuple:
        """A unit residue e with full Frobenius orbit and zero trace.

        Start from the residue class of x (whose minimal polynomial is the
        modulus, hence of full degree) and subtract off its trace scaled by
        1/n; requires p not dividing n and n >= 2.
        """
        if self.n < 2:
            raise ValueError("extension degree must be at least 2")
        if self.n % self.p == 0:
            raise ValueError("requires p not dividing n")
        e0 = self.one()[-1:] + self.one()[:-1]  # x
        e = self.sub(self.smul(self.n, e0), self.trace(e0))
        assert not self.is_zero(e)
        assert self.is_zero(self.trace(e))
        assert self.minimal_polynomial_degree(e) == self.n
        return e

    @cached_property
    def _order_primes(self) -> tuple[tuple, tuple]:
        """The primes of q^n - 1 that divide q - 1, and the others."""
        primes = kernel.prime_factors(self.size - 1)
        return (
            tuple(ell for ell in primes if (self.q - 1) % ell == 0),
            tuple(ell for ell in primes if (self.q - 1) % ell),
        )

    def has_full_order(self, c: tuple) -> bool:
        """c^((q^n - 1)/ell) != 1 for every prime ell | q^n - 1; for c != 0,
        that c generates the unit group."""
        base_primes, other_primes = self._order_primes
        return kernel.full_order(
            self.base.pow, self.norm(c)[0], self.q - 1, base_primes, self.base.one()
        ) and kernel.full_order(self.pow, c, self.size - 1, other_primes, self.one())

    def multiplicative_generator(self) -> tuple:
        """Smallest element (encoding order) of multiplicative order q^n - 1.

        Each candidate c is tested for c^((Q - 1)/ell) != 1 at every prime
        ell | Q - 1, Q = q^n, with three exact reductions:
          - norm: for ell | q - 1, c^((Q-1)/ell) = N(c)^((q-1)/ell), since
            (Q-1)/ell = (Q-1)/(q-1) * (q-1)/ell and N(c) = c^((Q-1)/(q-1)), so
            these primes are tested in F_q after n - 1 Frobenius steps and
            products; for odd q, ell = 2 alone rejects the squares, half of
            all candidates, with no power in F_{q^n};
          - product tree: `kernel.full_order` tests a set of k primes in one
            full power plus ~log2(k) levels of small ones, not k full powers;
          - for n > 1 the loop starts at encoding q: the elements below it
            form F_q, whose orders divide q - 1 < Q - 1.  For n = 1 it starts
            at 1, which passes only when Q - 1 = 1 has no primes (F_2).
        """
        if self._generator is None:
            for enc in range(self.q if self.n > 1 else 1, self.size):
                c = self.from_int(enc)
                if self.has_full_order(c):
                    self._generator = c
                    break
        return self._generator

    def generator_power(self, exponent: int) -> tuple:
        return self.pow(self.multiplicative_generator(), exponent)

    # -- serialization ------------------------------------------------------
    def to_json_dict(self) -> dict:
        def enc_poly(poly):
            return [self.base.encode(c) for c in poly]

        return {
            "p": self.p,
            "f": self.f,
            "n": self.n,
            "modulus": enc_poly(self.modulus),
        }

    def element_to_json(self, a: tuple) -> list[int]:
        return [self.base.encode(c) for c in a]

    def element_from_json(self, data: list[int]) -> tuple:
        if len(data) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(data)}")
        return tuple(self.base.from_int(c) for c in data)


@lru_cache(maxsize=None)
def build_extension(p: int, f: int, n: int) -> FieldExtension:
    """Cached handle for F_{(p^f)^n} with deterministic modulus."""
    return FieldExtension(p, f, n)

