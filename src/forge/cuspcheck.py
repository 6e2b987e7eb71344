"""Truncated 2x2 p-adic certificates: elliptic seed, level character,
cusp integrals, Fourier support.

Everything is sl_2 over the p-adic rationals at precision p^K.  Group and
algebra elements are integer matrices modulo p^K; functionals carry a
valuation offset (p^(-t) times an integral matrix) and pair through the
trace form.  Character sums are exact elements of Z[zeta_{p^k}] reduced to
canonical form, so "the integral vanishes" is a statement about integer
vectors, not floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import kernel
from .cyclotomic import CycloInt
from .linalg import mat_add, mat_mod, mat_mul, mat_scale, mat_sub

Mat = tuple[tuple[int, int], tuple[int, int]]

IDENT: Mat = ((1, 0), (0, 1))
H: Mat = ((1, 0), (0, -1))
E: Mat = ((0, 1), (0, 0))
F: Mat = ((0, 0), (1, 0))


def mat_trace(a: Mat):
    return a[0][0] + a[1][1]


def vp(n: int, p: int) -> int:
    return kernel.vp(n, p) if n else 10**9


@dataclass(frozen=True)
class TruncatedMatrix:
    """p^(-offset) times an integral 2x2 matrix, entries mod p^K."""

    p: int
    K: int
    offset: int
    entries: Mat

    def __post_init__(self):
        object.__setattr__(self, "entries", mat_mod(self.entries, self.p**self.K))

    def add(self, other: "TruncatedMatrix") -> "TruncatedMatrix":
        assert self.p == other.p
        off = max(self.offset, other.offset)
        k = min(self.K, other.K)
        a = mat_scale(self.p ** (off - self.offset), self.entries)
        b = mat_scale(self.p ** (off - other.offset), other.entries)
        return TruncatedMatrix(self.p, k, off, mat_add(a, b))  # reduced mod p^k on creation

    def scale_by_int(self, c: int) -> "TruncatedMatrix":
        return TruncatedMatrix(self.p, self.K, self.offset, mat_scale(c, self.entries))

    def pair(self, x: Mat) -> Fraction:
        """Trace pairing with an integral matrix, exact as a rational with
        denominator p^offset (numerator read mod p^K)."""
        t = mat_trace(mat_mul(self.entries, x, self.p**self.K))
        return Fraction(t, self.p**self.offset)


# ---------------------------------------------------------------------------
# exponential and logarithm
# ---------------------------------------------------------------------------


def _min_entry_valuation(a: Mat, p: int) -> int:
    return min(vp(x, p) for row in a for x in row)


def _series_terms_needed(vmin: int, p: int, K: int) -> int:
    # every term with index k has valuation >= k*(vmin - 1/(p-1)); stop once
    # that lower bound clears the precision
    k = 1
    while k * (vmin * (p - 1) - 1) < K * (p - 1):
        k += 1
    return k


def exp_truncated(x: Mat, p: int, K: int) -> Mat:
    """Matrix exponential, exact mod p^K; needs p >= 5 and valuation >= 1.

    Computed with exact rational terms (denominators prime to p), then
    reduced; the tail vanishes mod p^K because term valuations grow like
    k(1 - 1/(p-1))."""
    if p < 5:
        raise ValueError("exponential series needs p >= 5 here")
    vmin = _min_entry_valuation(mat_mod(x, p**K), p)
    if vmin < 1:
        raise ValueError("exponential needs entries of positive valuation")
    mod = p**K
    kmax = _series_terms_needed(vmin, p, K)
    total = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    term = [[Fraction(v) for v in row] for row in IDENT]
    for k in range(1, kmax + 1):
        nxt = [[Fraction(0)] * 2 for _ in range(2)]
        for i in range(2):
            for j in range(2):
                nxt[i][j] = (term[i][0] * x[0][j] + term[i][1] * x[1][j]) / k
        term = nxt
        for i in range(2):
            for j in range(2):
                total[i][j] += term[i][j]
    return _rational_matrix_mod(total, p, mod)


def log_truncated(g: Mat, p: int, K: int) -> Mat:
    """Matrix logarithm of 1 + (positive valuation), exact mod p^K."""
    mod = p**K
    w = mat_mod(mat_sub(g, IDENT), mod)
    vmin = _min_entry_valuation(w, p)
    if vmin < 1:
        raise ValueError("logarithm needs g = 1 mod p")
    kmax = _series_terms_needed(vmin, p, K)
    pad = 1
    while p**pad <= kmax:
        pad += 1
    padmod = mod * p**pad
    total = [[Fraction(0)] * 2 for _ in range(2)]
    power = IDENT
    for k in range(1, kmax + 1):
        power = mat_mul(power, w, padmod)
        sign = 1 if k % 2 == 1 else -1
        for i in range(2):
            for j in range(2):
                total[i][j] += Fraction(sign * power[i][j], k)
    return _rational_matrix_mod(total, p, mod)


def _rational_matrix_mod(mat, p: int, mod: int) -> Mat:
    out = []
    for row in mat:
        new = []
        for fr in row:
            den = fr.denominator
            v = vp(den, p)
            assert v == 0, "series term is not p-integral"
            new.append(fr.numerator * pow(den, -1, mod) % mod)
        out.append(tuple(new))
    return tuple(out)


# ---------------------------------------------------------------------------
# elliptic seed
# ---------------------------------------------------------------------------


def smallest_nonsquare(p: int) -> int:
    squares = {pow(t, 2, p) for t in range(p)}
    for eps in range(2, p):
        if eps not in squares:
            return eps
    raise ValueError("no nonsquare: p must be odd")


@dataclass(frozen=True)
class EllipticSeed:
    p: int
    K: int
    epsilon: int
    core: Mat  # companion matrix of x^2 - epsilon; Y_n = p^(-n) * core

    @property
    def lattice_basis(self) -> tuple[Mat, Mat, Mat]:
        return (H, E, F)

    def y_functional(self, n: int) -> TruncatedMatrix:
        """Y_n = pi^(-n+1) Y_1 = p^(-n) * core."""
        return TruncatedMatrix(self.p, self.K, n, self.core)


def elliptic_seed(p: int, K: int) -> EllipticSeed:
    """Seed functional with certified elliptic displacement lattice.

    Y_1 = p^(-1) * [[0, eps], [1, 0]] with eps the smallest nonsquare unit:
    the pairing with the standard lattice is exactly P^(-1), and every
    integral displacement keeps the reduced characteristic discriminant in
    the nonsquare class 4*eps, so no Borel subalgebra meets the coset.
    """
    if p == 2 or not kernel.is_prime(p):
        raise ValueError(f"p must be an odd prime, got p = {p}")
    if K < 3:
        raise ValueError("precision K >= 3 required")
    eps = smallest_nonsquare(p)
    core: Mat = ((0, eps), (1, 0))
    seed = EllipticSeed(p, K, eps, core)
    y1 = seed.y_functional(1)
    # pairing lattice <Y_1, L_0> = P^(-1): valuations (0-pairing excluded)
    pair_vals = [y1.pair(b) for b in seed.lattice_basis]
    min_val = min(
        (Fraction(vp(v.numerator, p)) - 1 for v in pair_vals if v != 0),
    )
    if min_val != -1:
        raise AssertionError("seed pairing is not exactly P^(-1)")
    # certificate: every entry of p*Z is 0 mod p, so for every integral
    # trace-zero shift Z the characteristic discriminant of p*(Y_1 + Z) =
    # core + p*Z is congruent mod p to disc(core) = tr^2 - 4 det = 4 eps;
    # checking that one value and its nonsquare class covers them all
    disc = (mat_trace(core) ** 2 - 4 * _det2(core)) % p
    if disc != (4 * eps) % p:
        raise AssertionError("discriminant left the nonsquare class")
    if pow(disc, (p - 1) // 2, p) != p - 1:
        raise AssertionError("discriminant residue became a square")
    return seed


def _det2(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


# ---------------------------------------------------------------------------
# the level character on K_n = exp(p^n L_0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaChar:
    seed: EllipticSeed
    n: int
    m: int
    K: int

    def __post_init__(self):
        if self.n < self.m + 2:
            raise ValueError("homomorphism threshold requires n >= m + 2")
        if self.K < self.n + self.m + 2:
            raise ValueError("precision must satisfy K >= n + m + 2")

    def contains(self, g: Mat) -> bool:
        """Membership in exp(p^n L_0): congruent to 1 mod p^n, determinant 1."""
        mod_n = self.seed.p**self.n
        modK = self.seed.p**self.K
        if _det2(g) % modK != 1 % modK:
            return False
        d = mat_sub(g, IDENT)
        return all(x % mod_n == 0 for row in d for x in row)

    def value_of_algebra(self, x: Mat) -> int:
        """Pairing class of x in P^(-m)/O identified with Z/p^m."""
        p, n, m = self.seed.p, self.n, self.m
        t = mat_trace(mat_mul(self.seed.core, x, p**self.K))
        t %= p ** (n + m)
        assert t % p**n == 0, "pairing left the allowed pole range"
        return (t // p**n) % p**m

    def value(self, g: Mat) -> int:
        """lambda(g), read from g - 1 in place of log g.

        Write g = 1 + w with p^n dividing every entry of w.  Then
        log g = w + sum_{k >= 2} (-1)^(k+1) w^k / k, and for k >= 2,
        v(w^k / k) >= kn - v_p(k) >= n + m + 2: at k = 2 because v_p(2) = 0
        and n >= m + 2, at k >= 3 because v_p(k) <= k - 1 gives
        (k - 1)n - v_p(k) >= (k - 1)(m + 1) >= m + 2.  Pairing with the
        integral core keeps that valuation, so each k >= 2 term pairs to 0
        mod p^(n+m), the precision `value_of_algebra` reads.  The same bound
        proves additivity on all of K_n: ab - 1 = (a - 1) + (b - 1) +
        (a - 1)(b - 1), and the last term has valuation >= 2n >= n + m + 2.
        """
        if not self.contains(g):
            raise ValueError("element outside the character domain")
        return self.value_of_algebra(mat_sub(g, IDENT))

    def generators(self) -> list[Mat]:
        p, n, K = self.seed.p, self.n, self.K
        return [
            exp_truncated(mat_scale(p**n, b), p, K) for b in self.seed.lattice_basis
        ]

    def random_element(self, rng: random.Random) -> Mat:
        p, n, K = self.seed.p, self.n, self.K
        span = p ** (K - n)
        a, b, c = (rng.randrange(span) for _ in range(3))
        z = ((a, b), (c, -a % p**K))
        return exp_truncated(mat_scale(p**n, z), p, K)


def lambda_character(
    seed: EllipticSeed, n: int, m: int, K: Optional[int] = None
) -> LambdaChar:
    """Build the level character and verify it is a surjective homomorphism.

    Additivity holds on all of K_n by the identity proved in
    `LambdaChar.value`; it is checked on every ordered pair of lattice
    generators.  Surjectivity: a generator with a unit value.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got m = {m}")
    K = seed.K if K is None else K
    char = LambdaChar(seed, n, m, K)
    p = seed.p
    mod = p**m
    gens = char.generators()
    for a in gens:
        for b in gens:
            prod = mat_mul(a, b, p**K)
            if char.value(prod) != (char.value(a) + char.value(b)) % mod:
                raise AssertionError("character is not additive on generators")
    if all(char.value(g) % p == 0 for g in gens):
        raise AssertionError("character image is not all of Z/p^m")
    return char


# ---------------------------------------------------------------------------
# cusp integrals
# ---------------------------------------------------------------------------


def _unipotent(parabolic: str, t: int) -> Mat:
    if parabolic == "upper":
        return ((1, t), (0, 1))
    if parabolic == "lower":
        return ((1, 0), (t, 1))
    raise ValueError("parabolic must be 'upper' or 'lower'")


def default_samples(char: LambdaChar, count: int) -> list[tuple[str, Mat]]:
    """Deterministic integral sample points, mixing the domain group, its
    unipotent saturation, and points with empty support."""
    if count < 1:
        raise ValueError(f"samples must be at least 1, got samples = {count}")
    p, K = char.seed.p, char.K
    mod = p**K
    rng = random.Random(52_000 + p + char.n * 11 + char.m)
    out: list[tuple[str, Mat]] = [("identity", IDENT)]
    weyl: Mat = ((0, -1), (1, 0))
    out.append(("weyl", mat_mod(weyl, mod)))
    out.append(("torus", ((2, 0), (0, pow(2, -1, mod)))))
    i = 0
    while len(out) < count:
        k = char.random_element(rng)
        kind = i % 3
        if kind == 0:
            out.append((f"k{i}", k))
        elif kind == 1:
            out.append((f"k{i}.u", mat_mul(k, _unipotent("upper", rng.randrange(p**2)), mod)))
        else:
            out.append((f"w.k{i}", mat_mul(weyl, k, mod)))
        i += 1
    return out[:count]


def x_class_representatives(p: int, m: int) -> list[int]:
    """Representatives of the nontrivial-character classes: units and
    non-maximal p-powers modulo p^(m+1)."""
    return [x for x in range(1, p ** (m + 1)) if x % p**m != 0 or vp(x, p) < m]


def unipotent_support_profiles(
    char: LambdaChar, samples: Sequence[tuple[str, Mat]]
) -> list[dict]:
    """Character-value histogram of each sample's unipotent window.

    For an integral unimodular g the whole support of t -> f(g u(t)) lies in
    the integral points (u(t) = g^{-1} (g u(t)) is a product of integral
    matrices), so one period p^(n+m) exhausts it.  g u(t) - g u(t0) is
    (t - t0) times g E (upper) or g F (lower), and g is invertible mod p, so
    g u(t) = 1 (mod p^n) forces t = t0 modulo p^n, with t0 = -b (upper) or
    t0 = -c (lower) for g = ((a, b), (c, d)); that one residue is tested.

    If it passes, g u(t0) lies in K_n, and so does every point
    g u(t0 + p^n s) = (g u(t0)) u(p^n s) of its coset.  By the additivity of
    `LambdaChar.value`, lambda there is lambda(g u(t0)) + s v, where
    v = <core, E> = core[1][0] (upper) or <core, F> = core[0][1] = epsilon
    (lower).  v is a unit, so s -> lambda takes each value mod p^m exactly
    once as s runs mod p^m: the support is p^m points and the histogram is
    [1] * p^m.  Otherwise the support is empty.  Histograms are
    x-independent.
    """
    p, n, m, K = char.seed.p, char.n, char.m, char.K
    mod = p**K
    mod_n = p**n
    core = char.seed.core
    steps = {"upper": core[1][0], "lower": core[0][1]}
    if any(v % p == 0 for v in steps.values()):
        raise AssertionError("a unipotent step of the character is not a unit")
    out = []
    for parabolic in steps:
        for name, g in samples:
            if _det2(g) % mod != 1 % mod:
                raise ValueError(f"sample {name} is not unimodular")
            # the only candidate support residue modulo p^n
            t0 = -(g[0][1] if parabolic == "upper" else g[1][0]) % mod_n
            d = mat_sub(mat_mul(g, _unipotent(parabolic, t0), mod), IDENT)
            supported = all(v % mod_n == 0 for row in d for v in row)
            out.append(
                {
                    "parabolic": parabolic,
                    "sample": name,
                    "support_points_mod_period": p**m if supported else 0,
                    "histogram": [int(supported)] * p**m,
                }
            )
    return out


def cusp_integral_check(
    char: LambdaChar,
    x: int,
    samples: Optional[Sequence[tuple[str, Mat]]] = None,
    sample_count: int = 20,
    profiles: Optional[list[dict]] = None,
) -> dict:
    """Exact unipotent-orbit character sums for both standard parabolics.

    The sum for the class x is assembled from the window histogram in exact
    cyclotomic-integer form and reduced to canonical shape, once per
    distinct histogram; pass means the canonical vector is zero on every
    sample with nonempty support.  Every supported histogram from
    `unipotent_support_profiles` is [1] * p^m, whose sum
    sum_k zeta^(xk) vanishes for x outside P^m; so the vanishing holds for
    every integral unimodular g, and the samples are its witnesses.
    """
    p, n, m = char.seed.p, char.n, char.m
    if x % p**m == 0:
        raise ValueError("x must yield a nontrivial class: x outside P^m")
    if profiles is None:
        if samples is None:
            samples = default_samples(char, sample_count)
        profiles = unipotent_support_profiles(char, samples)
    period = p ** (n + m)
    rows = []
    all_zero = True
    canonical_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    for prof in profiles:
        hist = tuple(prof["histogram"])
        if hist not in canonical_of:
            total = CycloInt(p, m)
            for value, count in enumerate(hist):
                if count:
                    total.add_root(x * value, count)
            canonical_of[hist] = total.canonical()
        canon = canonical_of[hist]
        support = prof["support_points_mod_period"]
        zero = not any(canon) or not support
        rows.append(
            {
                "parabolic": prof["parabolic"],
                "sample": prof["sample"],
                "support_points_mod_period": support,
                "sum_canonical": list(canon),
                "zero": zero,
            }
        )
        all_zero = all_zero and zero
    return {"x": x, "period": period, "rows": rows, "passed": all_zero}


# ---------------------------------------------------------------------------
# Fourier support
# ---------------------------------------------------------------------------


def fourier_support_check(
    seed: EllipticSeed, m: int, x: int, K: Optional[int] = None
) -> dict:
    """Indicator identity for the transform of the twisted lattice window.

    The sum over the lattice quotient of the additive character attached to
    a functional is the full count iff the functional pairs integrally with
    the lattice basis, else zero; the test is exact pairing integrality.
    The functional paired here is -x*Y_m + x*Y_m, which is zero, so every
    (p, m, x) reports pairings ["0", "0", "0"] and indicator 1: the row is
    vacuous, and its bytes are part of the cusp report.
    """
    p = seed.p
    K = seed.K if K is None else K
    if K < m + 1:
        raise ValueError("precision must satisfy K >= m + 1")
    if x % p**m == 0:
        raise ValueError("x must lie outside P^m")
    y_m = seed.y_functional(m)
    shifted = y_m.scale_by_int(-x).add(y_m.scale_by_int(x))
    pairings = [shifted.pair(b) for b in seed.lattice_basis]
    integral = all(vp(v.numerator, p) >= vp(v.denominator, p) for v in pairings)
    return {
        "pairings": [str(v) for v in pairings],
        "integral": bool(integral),
        "indicator": 1 if integral else 0,
    }
