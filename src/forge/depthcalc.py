"""Level arithmetic: depth windows, character image orders, level maps.

Filtered lattices are abelian models with explicit jump sets, which is all
the depth computations need.  The order of a depth-r additive character on
the slice strictly above r/2 is p^(floor(t/e_F)+1) with t the gap between r
and the first jump past r/2; level maps are explicit surjections onto
Z/p^m with verification data, built either from a functional on a lattice
slice or from the p-power filtration of a truncated principal-unit group.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import kernel
from .ffield import build_extension

# ---------------------------------------------------------------------------
# windows and lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelParams:
    e_F: int
    m: int

    def __post_init__(self):
        if self.e_F < 1 or self.m < 1:
            raise ValueError("e_F and m must be positive")

    @property
    def n(self) -> int:
        return 2 * self.e_F * self.m - 1

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        """The admissible depth interval (n, n+1], endpoints returned."""
        return Fraction(self.n), Fraction(self.n + 1)

    def contains(self, r: Fraction) -> bool:
        lo, hi = self.window
        return lo < r <= hi


def level_window(e_F: int, m: int) -> LevelParams:
    return LevelParams(e_F, m)


@dataclass(frozen=True)
class FilteredLattice:
    """Abelian lattice filtration with jump set {offset + k : k in Z}."""

    rank: int
    e_F: int
    offsets: tuple[Fraction, ...] = (Fraction(0),)

    def __post_init__(self):
        if self.rank < 1 or self.e_F < 1:
            raise ValueError("rank and e_F must be positive")
        if not self.offsets:
            raise ValueError("at least one jump offset required")
        if any(not 0 <= o < 1 for o in self.offsets):
            raise ValueError("offsets must lie in [0, 1)")

    def jumps_in(self, lo: Fraction, hi: Fraction) -> list[Fraction]:
        """Jump depths s with lo < s <= hi."""
        out = []
        k = lo.__floor__() - 1
        while k <= hi.__ceil__():
            for o in self.offsets:
                s = k + o
                if lo < s <= hi:
                    out.append(s)
            k += 1
        return sorted(out)


def unramified_torus_lattice(rank: int, e_F: int) -> FilteredLattice:
    return FilteredLattice(rank, e_F)


def character_image_order(r: Fraction, lat: FilteredLattice) -> int:
    """Exponent a such that the image of a depth-r character on the slice
    (r/2, r] is cyclic of order p^a; 0 for an empty slice."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("depth must be positive")
    slice_jumps = lat.jumps_in(r / 2, r)
    if not slice_jumps:
        return 0
    t = r - slice_jumps[0]  # deepest pairing: valuation -t
    return int(t / lat.e_F) + 1


# ---------------------------------------------------------------------------
# level maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelMap:
    """A surjection witness from a finite abelian group onto Z/p^m.

    Presented by generators: `images[i]` is the class of `generators[i]`,
    and `generator_orders[i]` bounds the additive order of the generator, so
    well-definedness is the divisibility check order * image = 0 mod p^m.
    """

    p: int
    m: int
    generators: tuple[str, ...]
    images: tuple[int, ...]
    generator_orders: tuple[int, ...]
    domain: str

    def __post_init__(self):
        if len(self.images) != len(self.generators) or len(self.images) != len(
            self.generator_orders
        ):
            raise ValueError("generator/image tables must align")
        mod = self.p**self.m
        for order, img in zip(self.generator_orders, self.images):
            if (order * img) % mod != 0:
                raise ValueError("image order exceeds generator order: not well-defined")

    def image_subgroup_index(self) -> int:
        """Index of the generated image subgroup in Z/p^m."""
        return math.gcd(self.p**self.m, *self.images)

    @property
    def surjective(self) -> bool:
        return self.image_subgroup_index() == 1

    def to_json_dict(self) -> dict:
        return {
            "target": f"Z/{self.p}^{self.m}",
            "generators": list(self.generators),
            "images": list(self.images),
            "generator_orders": list(self.generator_orders),
            "domain": self.domain,
            "surjective": self.surjective,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def factor_level_map(
    r: int,
    lat: FilteredLattice,
    m: int,
    coords: Sequence[int],
    p: int,
) -> LevelMap:
    """Explicit level map of a depth-r functional on the (r/2, r] slice.

    Modeled over the rationals of an absolutely unramified field (e_F = 1,
    integer depth): the k-th slice generator maps to the class of the
    pairing, normalized into Z/p^m.  Requires the character image order to
    be exactly p^m.
    """
    if not kernel.is_prime(p):
        raise ValueError(f"p must be prime, got p = {p}")
    if lat.e_F != 1:
        raise ValueError("level-map extraction is modeled for e_F = 1")
    if len(coords) != lat.rank:
        raise ValueError("one coordinate per lattice rank required")
    order = character_image_order(Fraction(r), lat)
    if order != m:
        raise ValueError(f"order mismatch: slice order p^{order}, need p^{m}")
    if all(c % p == 0 for c in coords):
        raise ValueError("order mismatch: functional has no unit coordinate")
    slice_jumps = lat.jumps_in(Fraction(r, 2), Fraction(r))
    s_min = slice_jumps[0]
    s_top = Fraction(r).__floor__() + 1  # first jump beyond r on the integer grid
    if s_min.denominator != 1:
        raise ValueError("level-map extraction needs integer jump structure")
    gen_order = p ** int(s_top - s_min)
    t = r - int(s_min)
    shift = p ** (m - 1 - t) if m - 1 - t >= 0 else 0
    assert shift, "internal: order-m slice must make the pairing integral"
    images = tuple((c * shift) % p**m for c in coords)
    lm = LevelMap(
        p,
        m,
        tuple(f"e{k+1}" for k in range(lat.rank)),
        images,
        (gen_order,) * lat.rank,
        f"lattice slice ({r}/2, {r}] of rank {lat.rank}",
    )
    if not lm.surjective:
        raise ValueError("order mismatch: functional does not surject onto Z/p^m")
    return lm


# ---------------------------------------------------------------------------
# truncated principal units and the p-power filtration
# ---------------------------------------------------------------------------


class TruncatedRing(kernel.PolyRing):
    """O_E / pi^(e*K) for E tame of ramification index e over an absolutely
    unramified base with residue field F_q, coefficients mod p^K.

    Elements are e-tuples of f-tuples of ints mod p^K (x-adic digits of
    y-adic digits), with x^e = p: the ring R[x]/(x^e - p) over the Galois
    ring R = GR(p^K, f), which lifts the F_q modulus to Z/p^K.
    """

    def __init__(self, p: int, f: int, e: int, K: int):
        if e > 1 and p <= e + 1:
            raise ValueError("tame ramified model requires p > e + 1")
        self.p, self.f, self.e, self.K = p, f, e, K
        self.mod = p**K
        R = kernel.IntPolyRing(build_extension(p, 1, f).modulus, self.mod)
        super().__init__(R, _eisenstein_modulus(R, p, e))
        # the norm's tower: (ell, R' = R[rho]/(rho^(d/ell) - p)) for each step
        # down from degree d, ell the smallest prime of d; the last R' is R
        self._norm_steps = []
        d = e
        while d > 1:
            ell = next(k for k in range(2, d + 1) if d % k == 0)
            d //= ell
            sub = kernel.PolyRing(R, _eisenstein_modulus(R, p, d)) if d > 1 else R
            self._norm_steps.append((ell, sub))

    def uniformizer_power(self, j: int):
        """pi^j = x^(j mod e) * p^(j // e) as a ring element."""
        hi, lo = divmod(j, self.e)
        coeff = pow(self.p, hi, self.mod) if hi else 1
        vec = [self.ring.zero() for _ in range(self.e)]
        vec[lo] = self.ring.reduce([coeff])
        return tuple(vec)

    def basis(self):
        """R-module basis of O_E as monomials y^i x^t (unit coefficients)."""
        out = []
        for t in range(self.e):
            for i in range(self.f):
                vec = [self.ring.zero() for _ in range(self.e)]
                coeff = [0] * self.f
                coeff[i] = 1
                vec[t] = tuple(coeff)
                out.append(((i, t), tuple(vec)))
        return out

    def norm_to_unramified(self, a):
        """Norm to the coefficient ring R: det of multiplication by a.

        By prime-degree steps.  Let ell be the smallest prime of e and
        rho = x^ell.  Then R[x]/(x^e - p) = R'[x]/(x^ell - rho) with
        R' = R[rho]/(rho^(e/ell) - p), free over R' on 1, x, ..., x^(ell-1),
        and a = sum_j a_j x^j with a_j = a[j::ell] in R'.  Both algebras
        are free, so norms are transitive (Bourbaki, Algebra III, sec. 9):
        N(a) = N_(R'/R)(det over R' of multiplication by a), and R'/R has
        the same shape with e/ell in place of e.  The columns of the
        ell x ell matrix are a, x*a, ..., x^(ell-1)*a in that basis, where
        x * (c_0, ..., c_(ell-1)) = (rho*c_(ell-1), c_0, ..., c_(ell-2)) and
        rho * (r_0, ..., r_(d-1)) = (p*r_(d-1), r_0, ..., r_(d-2)) in R'.
        At ell = 2 the determinant is a_0^2 - rho*a_1^2.  The last step has
        e/ell = 1: there R' is R itself, rho = p and a_j = a[j].
        """
        if self.e == 1:
            return a[0]
        R, p = self.ring, self.p
        for ell, sub in self._norm_steps:
            last = sub is R
            col = list(a) if last else [a[j::ell] for j in range(ell)]
            cols = [col]
            for _ in range(ell - 1):
                top = col[-1]
                rho_top = R.smul(p, top) if last else (R.smul(p, top[-1]),) + top[:-1]
                col = [rho_top] + col[:-1]
                cols.append(col)
            a = _det(sub, cols)
        return a


def _eisenstein_modulus(R, p: int, d: int) -> tuple:
    """x^d - p over the coefficient ring R, little-endian."""
    return (R.reduce([-p]),) + (R.zero(),) * (d - 1) + (R.one(),)


def _det(ring, cols) -> tuple:
    """Determinant over a commutative ring of the matrix with these columns,
    without division: Laplace expansion along each next row, the minors on
    the rows so far memoized by column set; n * (2^(n-1) - 1) products, 2
    at n = 2 and 9 at n = 3."""
    n = len(cols)
    minors = {(j,): cols[j][0] for j in range(n)}
    for r in range(1, n):
        expanded = {}
        for cset in itertools.combinations(range(n), r + 1):
            # row r, column cset[i]: sign (-1)^(r + i), + at i = r
            acc = ring.mul(cols[cset[r]][r], minors[cset[:r]])
            for i in range(r - 1, -1, -1):
                term = ring.mul(cols[cset[i]][r], minors[cset[:i] + cset[i + 1 :]])
                acc = ring.sub(acc, term) if (r - i) % 2 else ring.add(acc, term)
            expanded[cset] = acc
        minors = expanded
    return minors[tuple(range(n))]


def filtration_level_exponent(p: int, e: int, i: int) -> int:
    """pi-adic level of the i-th term of the p-power filtration of 1+pi*O."""
    if p == 2:
        if e != 1:
            raise ValueError("p = 2 supported only unramified")
        return 1 if i == 1 else i + 1
    return 1 + (i - 1) * e


def torus_power_filtration(q: int, e: int, m: int, K: int) -> LevelMap:
    """Level map from the p-power filtration of truncated principal units.

    Models (1 + pi*O_E)/(1 + pi^(e*K)*O_E) with residue cardinality q,
    checks that p-th powers of the level-j generators land one filtration
    step up, and extracts a surjection U_m/U_2m onto Z/p^m through the norm
    to the unramified part followed by coefficient extraction.

    Each generator's norm is taken once.  The norm is multiplicative,
    N(ab) = N(a) N(b), being the determinant of multiplication by ab, which
    is the product of the multiplications by a and by b (Serre, Local
    Fields, ch. V).  So the class of a product of two generators is the
    extraction applied to the coefficient-ring product of their norms, and
    the pair check tests that the extraction is additive on those norms,
    which is the containment the level-map formula needs.
    """
    p, f = kernel.prime_power(q)
    if p == 2 and (e != 1 or f != 1):
        raise ValueError("p = 2 supported only for the absolutely unramified line")
    need = max(m + 3, 2 * m + 1) if p == 2 else max(m + 2, 2 * m)
    if K < need:
        raise ValueError(f"precision insufficient: need K >= {need}")
    ring = TruncatedRing(p, f, e, K)
    j_m = filtration_level_exponent(p, e, m)
    j_2m = filtration_level_exponent(p, e, 2 * m)
    j_top = min(j_2m, e * K)
    assert j_2m <= e * K

    # p-th powers climb exactly one filtration step (checked on generators)
    for i in range(1, 2 * m):
        j_i, j_next = filtration_level_exponent(p, e, i), filtration_level_exponent(p, e, i + 1)
        for (_, b) in ring.basis():
            u = ring.add(ring.one(), ring.mul(ring.uniformizer_power(j_i), b))
            up = ring.pow(u, p)
            diff = ring.sub(up, ring.one())
            if not _divisible_by_level(ring, diff, j_next):
                raise AssertionError("p-th power did not climb a filtration step")

    # generators of U_m / U_2m and their images
    base_exp = m if p != 2 else (1 if m == 1 else m + 1)
    gens, images, orders, norms = [], [], [], []
    for j in range(j_m, j_top):
        for (tag, b) in ring.basis():
            u = ring.add(ring.one(), ring.mul(ring.uniformizer_power(j), b))
            gens.append(f"1+pi^{j}*y^{tag[0]}x^{tag[1]}")
            norms.append(ring.norm_to_unramified(u))
            images.append(_unit_level_class(ring, norms[-1], base_exp, m))
            orders.append(p ** (2 * m - _level_index(p, e, j)))

    # additivity on all generator pairs, through N(ab) = N(a) N(b)
    for i1 in range(len(norms)):
        for i2 in range(i1, len(norms)):
            prod = ring.ring.mul(norms[i1], norms[i2])
            lhs = _unit_level_class(ring, prod, base_exp, m)
            if lhs != (images[i1] + images[i2]) % p**m:
                raise AssertionError("level map is not additive on generators")

    lm = LevelMap(
        p,
        m,
        tuple(gens),
        tuple(images),
        tuple(orders),
        f"(1+pi*O)/(1+pi^{e*K}O), q={q}, e={e}",
    )
    if not lm.surjective:
        raise AssertionError("filtration level map failed to surject")
    return lm


def _level_index(p: int, e: int, j: int) -> int:
    """Largest i with filtration level exponent <= j."""
    i = 1
    while filtration_level_exponent(p, e, i + 1) <= j:
        i += 1
    return i


def _divisible_by_level(ring: TruncatedRing, a, j: int) -> bool:
    """Whether a lies in pi^j * O at the ring's truncation."""
    hi, lo = divmod(j, ring.e)
    for t in range(ring.e):
        need = hi + (1 if t < lo else 0)
        scale = ring.p ** min(need, ring.K)
        if any(c % scale for c in a[t]):
            return False
    return True


def _unit_level_class(ring: TruncatedRing, w, level_exp: int, m: int) -> int:
    """Class in Z/p^m of a principal unit with norm w: first coefficient of
    (w-1)/p^level."""
    w0 = (w[0] - 1) % ring.mod
    rest = [c % ring.mod for c in w[1:]]
    scale = ring.p**level_exp
    if w0 % scale or any(c % scale for c in rest):
        raise AssertionError("norm did not land at the expected filtration level")
    return (w0 // scale) % ring.p**m
