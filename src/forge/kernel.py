"""Exact arithmetic modulo a monic polynomial, shared by forge's rings.

Those rings are F_p[y]/(g), the Galois ring GR(p^K, f) = Z/p^K[y]/(g~)
and Z/p^K[T]/(1 + T + ... + T^(p^m - 1)) with int coefficients, and
F_q[x]/(h) with q = p^f > p and R[x]/(x^e - p) over a coefficient ring
with tuple elements.  The module also holds square-and-multiply, the
product-tree order test, the resultant, the q-power Frobenius as columns,
Rabin's test by iterated Frobenius with the modulus search, the p-adic
valuation, the integer number theory (primality, factoring, the
prime-power parser) and the JSON int check.

Polynomials are little-endian tuples; a modulus lists every coefficient,
the leading 1 last.  Each ring keeps the nonzero tail of its modulus,
x^deg = -(h_0 + h_1 x + ...), as a table built once, so a reduction step
touches only the terms the modulus has.  A PolyRing over an IntPolyRing
multiplies operands with enough nonzero coefficients as one packed int.

A coefficient-ring object provides zero(), one(), add, sub and mul, and
keeps its elements canonical, so that equality is ring equality; neg and
smul (the product with a rational integer) carry over to a PolyRing from
a coefficient ring that has them, as IntPolyRing does.  A field is such
a ring with neg and smul, plus is_zero, inv, pow (by an int e >= 0),
from_int, its number of elements `size`, and poly_ring(modulus), the
kernel ring of polynomials over it modulo a monic modulus; the
irreducibility routines and the resultant use only these.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from typing import Callable, Sequence


class IntPolyRing:
    """Z/mod[x]/(h) for a monic h with int coefficients.

    Products accumulate over Z; a coefficient is reduced mod `mod` only when
    it is eliminated and once at the end, so outputs lie in [0, mod).
    """

    def __init__(self, modulus: Sequence[int], mod: int):
        self.mod = mod
        self.deg = len(modulus) - 1
        # x^deg = sum of t * x^j over the (j, t) in the tail
        self.tail = tuple((j, -c % mod) for j, c in enumerate(modulus[:-1]) if c % mod)

    def zero(self) -> tuple:
        return (0,) * self.deg

    def one(self) -> tuple:
        return (1,) + (0,) * (self.deg - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.mod for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple((x - y) % self.mod for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x % self.mod for x in a)

    def smul(self, n: int, a: tuple) -> tuple:
        return tuple(n * x % self.mod for x in a)

    def is_zero(self, a: tuple) -> bool:
        return not any(a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                k = i
                for y in b:
                    prod[k] += x * y
                    k += 1
        return self.reduce(prod)

    def reduce(self, coeffs: list[int]) -> tuple:
        """The residue of an int polynomial of any length; consumes `coeffs`."""
        mod, deg, tail = self.mod, self.deg, self.tail
        if len(coeffs) < deg:
            coeffs += [0] * (deg - len(coeffs))
        for i in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[i] % mod
            if c:
                shift = i - deg
                for j, t in tail:
                    coeffs[shift + j] += c * t
        return tuple([c % mod for c in coeffs[:deg]])

    def pow(self, a: tuple, e: int) -> tuple:
        return power(self.mul, a, e, self.one())

    def apply(self, cols: Sequence[tuple], a: tuple) -> tuple:
        """sum a_i * cols[i] over Z, zero terms skipped, reduced once."""
        acc = [0] * self.deg
        for c, col in zip(a, cols):
            if c:
                for j, t in enumerate(col):
                    if t:
                        acc[j] += c * t
        return tuple([c % self.mod for c in acc])


class PolyRing:
    """R[x]/(h) for a monic h over a coefficient-ring object R.

    Over R = Z/N[y]/(g), an IntPolyRing with f = deg g, `mul` can multiply
    by Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, sec. 8.4; D. Harvey, arXiv:0712.4046): the coefficient of
    y^u x^i goes to slot i * (2f - 1) + u of one int, each slot B bits
    wide, and one int product gives every slot of a * b.  The bound:
      - slot l + k * (2f - 1) of the product is the sum of a_(i,u) * b_(j,v)
        over i + j = k and u + v = l.  Canonical operands have deg
        coefficients in x, each f ints in [0, N), so at most deg pairs
        (i, j) and f pairs (u, v) meet there, and the slot is at most
        beta = deg * f * (N - 1)^2.  As l <= 2f - 2 < 2f - 1 and no term is
        negative, the slots neither overlap nor borrow;
      - g's tail then rewrites y^l = sum t_j y^(l - f + j), t_j in [0, N),
        for l = 2f - 2 down to f, in all slots at once.  Before y^l goes,
        slot l holds at most beta * N^(2f - 2 - l): each y^l' above it added
        at most beta * N^(2f - 2 - l') * (N - 1), and the sum telescopes.
        The slots below f end at most beta * N^(f - 1), the largest value
        any slot holds, so B = bitlen(beta * N^(f - 1)) suffices.
    """

    def __init__(self, ring, modulus: Sequence):
        self.ring = ring
        self.deg = len(modulus) - 1
        self.tail = tuple((j, c) for j, c in enumerate(modulus[:-1]) if c != ring.zero())
        self._packing = None
        if isinstance(ring, IntPolyRing):
            self._packing = _packing(self.deg, ring.deg, ring.mod)

    def one(self) -> tuple:
        return (self.ring.one(),) + (self.ring.zero(),) * (self.deg - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.ring.add(x, y) for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple(self.ring.sub(x, y) for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(self.ring.neg(x) for x in a)

    def smul(self, n: int, a: tuple) -> tuple:
        return tuple(self.ring.smul(n, x) for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        """a * b, packed (see the class) when nz(a) * nz(b) > deg for nz the
        number of nonzero x-coefficients; otherwise, as when a power of x
        is squared, the schoolbook product, whose loop skips zero terms."""
        ring, deg = self.ring, self.deg
        add, sub, mul = ring.add, ring.sub, ring.mul
        zero = ring.zero()  # canonical, so comparing with it is the zero test
        if self._packing and (len(a) - a.count(zero)) * (len(b) - b.count(zero)) > deg:
            prod = self._packed_product(a, b)
        else:
            prod = [zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x != zero:
                    for j, y in enumerate(b):
                        if y != zero:
                            prod[i + j] = add(prod[i + j], mul(x, y))
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if c != zero:
                shift = i - deg
                for j, t in self.tail:
                    prod[shift + j] = sub(prod[shift + j], mul(t, c))
        return tuple(prod[:deg]) + (zero,) * (deg - len(prod))

    def _packed_product(self, a: tuple, b: tuple) -> list:
        """The x-coefficients of a * b, each reduced mod (g, N), before the
        reduction mod h: one int product, then g's tail on the int."""
        ring = self.ring
        width, code, column = self._packing
        f, bits = ring.deg, 8 * width
        stride, pad = 2 * f - 1, (0,) * (f - 1)

        def pack(u):
            flat = [c for x in u for c in x + pad]
            if code:
                return int.from_bytes(array(code, flat), "little")
            return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in flat]), "little")

        prod = pack(a)
        prod *= prod if b is a else pack(b)
        for l in range(2 * f - 2, f - 1, -1):
            top = prod >> bits * l & column
            prod -= top << bits * l
            for j, t in ring.tail:
                prod += top * t << bits * (l - f + j)
        buf = prod.to_bytes((len(a) + len(b) - 1) * stride * width, "little")
        if code:
            slots = array(code, buf).tolist()
        else:
            slots = [int.from_bytes(buf[k : k + width], "little") for k in range(0, len(buf), width)]
        slots = [c % ring.mod for c in slots]
        return list(zip(*[slots[u::stride] for u in range(f)]))

    def pow(self, a: tuple, e: int) -> tuple:
        return power(self.mul, a, e, self.one())

    def apply(self, cols: Sequence[tuple], a: tuple) -> tuple:
        """sum a_i * cols[i]; zero coefficients and column entries are skipped."""
        add, mul, zero = self.ring.add, self.ring.mul, self.ring.zero()
        acc = [zero] * self.deg
        for c, col in zip(a, cols):
            if c != zero:
                for j, t in enumerate(col):
                    if t != zero:
                        acc[j] = add(acc[j], mul(c, t))
        return tuple(acc)


@lru_cache(maxsize=None)
def _packing(n: int, f: int, N: int) -> tuple:
    """(bytes per slot, array typecode or None, column mask) for the packed
    products of PolyRing of degree n over Z/N[y]/(g) with deg g = f.  A
    slot holds the bound in PolyRing's docstring; where a machine word does,
    the typecode's array items are the slots.  The mask sets every bit of
    slot 0 of each x-coefficient of a product."""
    bound = n * f * (N - 1) ** 2 * N ** (f - 1)
    width = -(-bound.bit_length() // 8) or 1
    code = None
    if sys.byteorder == "little" and width <= 8:
        code = next(c for c in "BHIQ" if array(c).itemsize >= width)
        width = array(code).itemsize
    bits, stride = 8 * width, 8 * width * (2 * f - 1)
    column = ((1 << bits) - 1) * ((1 << stride * (2 * n - 1)) - 1) // ((1 << stride) - 1)
    return width, code, column


def power(mul: Callable, a, e: int, one):
    """a^e for e >= 0 by square-and-multiply under the product `mul`.

    Left to right from a at the top set bit: one squaring per further bit and
    one product with a per further set bit, so `one` is never multiplied."""
    if e == 0:
        return one
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def full_order(pow: Callable, a, order: int, primes: Sequence[int], one) -> bool:
    """True when a^(order/ell) != one for every ell in `primes`, primes that
    divide `order`; with every prime of `order` and a^order = one, a has order
    exactly `order`.  forge's only order test; pow(x, e) is the group's power.

    A product tree (V. Shoup, Math. Comp. 58, 1992): a node holds primes S
    and x = a^(order/prod S), so x^(prod S/ell) = a^(order/ell).  It splits S
    into halves A and B and hands x^(prod B) to A and x^(prod A) to B; x = one
    rejects at once, as every a^(order/ell) below it is one.  After the first
    power each of the ~log2(k) levels costs ~log2(prod S) squarings, against
    k full powers one prime at a time.
    """

    def test(x, primes):
        if x == one:
            return False
        if len(primes) == 1:
            return True
        left, right = primes[: len(primes) // 2], primes[len(primes) // 2 :]
        return test(pow(x, math.prod(right)), left) and test(pow(x, math.prod(left)), right)

    return not primes or test(pow(a, order // math.prod(primes)), primes)


def resultant(field, a: list, b: list):
    """Res(a, b) over `field`, zero when a or b is; consumes a and b.

    Euclid with Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) *
    Res(b, r), r = a mod b, one inversion per division step, down to
    Res(a, c) = c^(deg a) for a constant c != 0 (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 6).  For monic a it is the product of b
    over the roots of a: zero iff gcd(a, b) != 1."""

    def deg(u):
        for i in range(len(u) - 1, -1, -1):
            if not field.is_zero(u[i]):
                return i
        return -1

    da, db = deg(a), deg(b)
    res = field.one()
    while db > 0:
        if da >= db:
            lead_inv = field.inv(b[db])
            for i in range(da, db - 1, -1):
                if not field.is_zero(a[i]):
                    c = field.mul(a[i], lead_inv)
                    for j in range(db):
                        a[i - db + j] = field.sub(a[i - db + j], field.mul(c, b[j]))
            del a[db:]
        dr = deg(a)
        if dr < 0:
            return field.zero()
        if da * db % 2:
            res = field.neg(res)
        res = field.mul(res, field.pow(b[db], da - dr))
        a, b, da, db = b, a, db, dr
    if da < 0 or db < 0:
        return field.zero()
    return field.mul(res, field.pow(b[0], da))


def frobenius_columns(ring, q: int) -> tuple:
    """a -> a^q on `ring` = F_q[x]/(h) as the images of 1, x, ..., x^(deg-1),
    for ring.apply: it is additive and fixes F_q, so F_q-linear for any h."""
    cols = [ring.one()]
    xq = ring.pow(cols[0][-1:] + cols[0][:-1], q)  # x, unless deg = 1 and no column needs it
    for _ in range(1, ring.deg):
        cols.append(ring.mul(cols[-1], xq))
    return tuple(cols)


def is_irreducible(field, modulus: tuple) -> bool:
    """Rabin's test for a monic modulus of degree n over F_q = `field`, with
    y = x^(q^k) stepped by the Frobenius columns: Res(modulus, y - x) != 0
    at k = n/ell for each prime ell | n, and y = x at k = n."""
    n = len(modulus) - 1
    if n == 1:
        return True
    ring = field.poly_ring(modulus)
    cols = frobenius_columns(ring, field.size)
    x = y = cols[0][-1:] + cols[0][:-1]
    checks = {n // ell for ell in prime_factors(n)}
    for k in range(1, n + 1):
        y = ring.apply(cols, y)
        if k in checks and field.is_zero(resultant(field, list(modulus), list(ring.sub(y, x)))):
            return False
    return y == x


def smallest_irreducible(field, n: int) -> tuple:
    """The smallest monic irreducible of degree n over `field`.

    Candidates run in encoding order: the i-th coefficient is the i-th
    base-q digit of the candidate's index, so the first q are the x^n + c.
    For n >= 2 none is irreducible when a prime l | n has l not dividing
    q - 1, or when 4 | n and q != 1 mod 4 (Lidl-Niederreiter, Finite
    Fields, Thm 3.75), and the walk starts at q.
    """
    q = field.size
    skip = n >= 2 and (any((q - 1) % ell for ell in prime_factors(n)) or (n % 4 == 0 and q % 4 != 1))
    for enc in range(q if skip else 0, q**n):
        modulus = tuple(field.from_int(enc // q**i % q) for i in range(n)) + (field.one(),)
        if is_irreducible(field, modulus):
            return modulus
    raise ArithmeticError(f"no monic irreducible of degree {n} over F_{q}")


def vp(n: int, p: int) -> int:
    """The p-adic valuation of a nonzero int; callers decide what 0 means."""
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# Miller-Rabin to the first 13 prime bases proves primality below
# MR_BOUND: the smallest composite that is a strong probable prime to all of
# them is MR_BOUND itself (J. Sorenson & J. Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly: trial division by the bases, then a
    strong-probable-prime test to each base.  ValueError for a strong
    probable prime at or above MR_BOUND, whose primality the test leaves
    open."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise ValueError(
            f"{n} is a strong probable prime to the bases 2, ..., 41, which "
            f"decides primality only below {MR_BOUND}"
        )
    return True


_TRIAL_PRIMES = tuple(filter(is_prime, range(1000)))
# Brent's rho takes about sqrt(ell) steps to split off a prime ell, so the
# cap reaches every ell below roughly 10^11
_RHO_STEP_CAP = 1 << 20


def prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending: trial division below 1000,
    then Brent's rho on the cofactor, each part's primality by is_prime.

    ValueError ("factorization effort bound exceeded") when a part is a
    strong probable prime at or above MR_BOUND, or when splitting a
    composite part takes more than _RHO_STEP_CAP steps."""
    primes = []
    for ell in _TRIAL_PRIMES:
        if ell * ell > n:
            break
        if n % ell == 0:
            primes.append(ell)
            while n % ell == 0:
                n //= ell
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        try:
            prime = is_prime(m)
        except ValueError as exc:
            raise ValueError(f"factorization effort bound exceeded: {exc}") from None
        if prime:
            primes.append(m)
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return sorted(set(primes))


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n with no prime below 1000, by
    Brent's rho (R. P. Brent, BIT 20, 1980): x -> x^2 + c from x = 2 for
    c = 1, 2, ..., the differences multiplied 128 at a time between gcds."""
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # a round: r steps ahead, then up to r compared
            if steps > _RHO_STEP_CAP:
                raise ValueError(
                    f"factorization effort bound exceeded: {n} not split in "
                    f"{_RHO_STEP_CAP} rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f; raises ValueError unless q is a prime power.
    Each f <= log2 q has one candidate, the integer f-th root of q."""
    for f in range(1, max(q, 1).bit_length()):
        p = _iroot(q, f)
        if p**f == q and is_prime(p):
            return p, f
    raise ValueError(f"{q} is not a prime power")


def reject_float_and_bool(value) -> None:
    """ValueError if parsed JSON holds a float or a bool anywhere: forge's
    inputs hold ints, and 1.0 == True == 1 would pass an equality check."""
    if isinstance(value, (float, bool)):
        raise ValueError(f"non-canonical input: {value!r} in place of an int")
    if isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            reject_float_and_bool(v)
