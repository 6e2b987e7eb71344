"""Test-side copies of API that forge itself does not call.

The matrix-vector product; integer polynomial product and division with
remainder, and the cyclotomic polynomials Phi_d built from them; a finite
field's elements in encoding order and its norm as the product of the n
conjugates; Weyl-element helpers (orders, images of coroots, eigenvalue
exponents, the highest coroot, the Coxeter number of a product); the
coroot set as a reflection closure; genericity rows as direct sums; the
depth window and twist checks in `Fraction` arithmetic; the modulus
search without its binomial skip; the transform-support check on
an arbitrary functional with its full enumeration; a congruence model's
level group U_p, its character on every element of U_p by one walk over
Gamma_p, its base set Delta\\(Gamma_S x Gamma_p) with the right action on
it and its Hecke matrix counted point by point; and the double cosets
H\\G/H and the left cosets of a double coset, each found by scanning an
element set.  The tests use them as oracles and to state acceptance
criteria 02, 05 and 11.
"""

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from forge import kernel, linalg
from forge.congruence import FiniteModel
from forge.cuspcheck import EllipticSeed, TruncatedMatrix, vp
from forge.cyclotomic import CycloInt
from forge.ffield import FieldExtension
from forge.finitegroups import FiniteGroup, closure
from forge.linalg import Matrix, Vector
from forge.rootsys import Coroot, RootSystem, WeylElement, coxeter_number
from forge.toraldata import CorootRow, GenericityReport, ZeroToralDatum

# ---------------------------------------------------------------------------
# matrices and finite fields
# ---------------------------------------------------------------------------


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer polynomials, highest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials (highest degree first), b monic-leading."""
    a = list(a)
    db, lb = len(b) - 1, b[0]
    q = []
    while len(a) - 1 >= db:
        if a[0] % lb != 0:
            raise ValueError("non-exact leading division")
        c = a[0] // lb
        q.append(c)
        for j in range(len(b)):
            a[j] -= c * b[j]
        assert a[0] == 0
        a.pop(0)
    while len(a) > 1 and a[0] == 0:
        a.pop(0)
    return (q if q else [0]), a


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, degree-first:
    x^d - 1 divided by Phi_e for every proper divisor e of d."""
    if d < 1:
        raise ValueError("d must be positive")
    num = [1] + [0] * (d - 1) + [-1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            q, r = poly_divmod(num, list(cyclotomic_poly(e)))
            assert not any(r)
            num = q
    return tuple(num)


def field_elements(ext: FieldExtension):
    """Every element of `ext`, in encoding order."""
    return (ext.from_int(n) for n in range(ext.size))


def norm_by_conjugates(ext: FieldExtension, a: tuple) -> tuple:
    """a * sigma(a) * ... * sigma^(n-1)(a), as an element of `ext`."""
    out = a
    for k in range(1, ext.n):
        out = ext.mul(out, ext.frobenius(a, k))
    return out


# ---------------------------------------------------------------------------
# root systems and Weyl elements
# ---------------------------------------------------------------------------


def reflection_matrix(cartan: Matrix, i: int) -> Matrix:
    """Simple reflection s_i on the coroot lattice (0-based index)."""
    n = len(cartan)
    rows = [list(r) for r in linalg.identity(n)]
    for j in range(n):
        rows[i][j] -= cartan[i][j]
    return linalg.mat_freeze(rows)


def closure_coroots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The coroot expansions, sorted, as the closure of the simple coroots
    under the simple reflection matrices."""
    reflections = [reflection_matrix(rs.cartan, i) for i in range(rs.rank)]
    seen: dict = {}
    for c in rs.simple_coroots:
        if c.expansion not in seen:
            orbit, _ = closure(c.expansion, reflections, lambda v, refl: mat_vec(refl, v))
            seen.update(orbit)
    return tuple(sorted(seen))


def coxeter_number_product(types) -> int:
    """Coxeter number of a product of irreducible factors; 1 for a torus."""
    return max((coxeter_number(t) for t in types), default=1)


def highest_coroot(rs: RootSystem) -> Coroot:
    top = max(rs.positive_coroots, key=lambda c: c.height)
    assert sum(1 for c in rs.positive_coroots if c.height == top.height) == 1
    return top


def weyl_identity(rs: RootSystem) -> WeylElement:
    return WeylElement(linalg.identity(rs.rank))


def weyl_apply(w: WeylElement, coroot: Coroot) -> Coroot:
    if len(w.matrix) != len(coroot.expansion):
        raise ValueError("dimension mismatch")
    return Coroot(mat_vec(w.matrix, coroot.expansion))


def weyl_order(w: WeylElement, bound: int = 10000) -> int:
    ident = linalg.identity(len(w.matrix))
    m = w.matrix
    for k in range(1, bound + 1):
        if m == ident:
            return k
        m = linalg.mat_mul(m, w.matrix)
    raise ValueError(f"order exceeds bound {bound}; not a finite-order lattice element")


def charpoly(a) -> tuple[int, ...]:
    """Coefficients of det(x*I - A), highest degree first, exact.

    Faddeev-LeVerrier; intermediate values are rationals, the result is
    integral for integer input.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = tuple(tuple(Fraction(x) for x in row) for row in linalg.identity(n))
    af = tuple(tuple(Fraction(x) for x in row) for row in a)
    for k in range(1, n + 1):
        am = linalg.mat_mul(af, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(n))
            for i in range(n)
        )
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


def cyclotomic_exponents(w: WeylElement, order: int) -> tuple[int, ...]:
    """Exponents k (with multiplicity) such that zeta_order^k is an eigenvalue.

    Exact: the characteristic polynomial is factored against the cyclotomic
    polynomials Phi_d for d | order, which must exhaust it.
    """
    if linalg.mat_pow(w.matrix, order) != linalg.identity(len(w.matrix)):
        raise ValueError("w^order is not the identity")
    poly = list(charpoly(w.matrix))
    exponents: list[int] = []
    for d in range(1, order + 1):
        if order % d:
            continue
        phi = list(cyclotomic_poly(d))
        while len(poly) >= len(phi):
            q, r = poly_divmod(poly, phi)
            if any(r):
                break
            poly = q
            exponents.extend(
                (order // d) * j % order for j in range(d) if math.gcd(j, d) == 1
            )
    assert len(poly) == 1, "characteristic polynomial not a product of cyclotomics"
    return tuple(sorted(exponents))


# ---------------------------------------------------------------------------
# genericity rows and the modulus search, the direct way
# ---------------------------------------------------------------------------


def genericity_by_sum(d: ZeroToralDatum) -> GenericityReport:
    """`verify_genericity` with each row the sum over the coroot's
    coordinates of lambda_i a_i, through `smul` and `add`."""
    res = d.ext.residue
    rows = []
    for coroot in d.rs.coroots:
        total = res.zero()
        for lam, a in zip(coroot.expansion, d.coords):
            if lam:
                total = res.add(total, res.smul(lam, a))
        rows.append(CorootRow(coroot.expansion, total, not res.is_zero(total)))
    return GenericityReport(tuple(rows), (), (), res)


def smallest_irreducible_walk(field, n: int) -> tuple:
    """`kernel.smallest_irreducible` testing every candidate from encoding 0."""
    q = field.size
    for enc in range(q**n):
        digits = []
        for _ in range(n):
            digits.append(field.from_int(enc % q))
            enc //= q
        modulus = tuple(digits) + (field.one(),)
        if kernel.is_irreducible(field, modulus):
            return modulus
    raise ArithmeticError(f"no monic irreducible of degree {n} over F_{q}")


# ---------------------------------------------------------------------------
# depth windows and twists in Fraction arithmetic
# ---------------------------------------------------------------------------


def window_by_fractions(n: int, depth: Fraction, e: int) -> tuple[Fraction, int]:
    """A datum's depth checks as `Fraction` formulas: depth in (n, n + 1]
    and depth * e(E/F) an integer; returns (depth, n)."""
    if not (Fraction(n) < depth <= Fraction(n + 1)):
        raise ValueError("depth outside the admissible window")
    if (depth * e).denominator != 1:
        raise ValueError("depth times e(E/F) must be an integer")
    return depth, n


def twist_depth_by_fractions(depth: Fraction, i: int, p: int, m: int, e_F: int) -> tuple:
    """`toraldata.twist_depth` as `Fraction` formulas: (u, r0 - v(i), the
    window index ceil(r0 - v(i)) - 1) after r0 - v(i) > r0 / 2 is checked."""
    if not 0 < i < p**m:
        raise ValueError("i must satisfy 0 < i < p^m")
    t = kernel.vp(i, p)
    v = Fraction(t * e_F)
    if not depth - v > depth / 2:
        raise ValueError("window inequality violated: r0 - v(i) <= r_d / 2")
    return i // p**t, depth - v, (depth - v).__ceil__() - 1


# ---------------------------------------------------------------------------
# transform support of an arbitrary functional
# ---------------------------------------------------------------------------


def fourier_indicator(
    seed: EllipticSeed,
    m: int,
    x: int,
    K: Optional[int] = None,
    y_shift: Optional[TruncatedMatrix] = None,
    validate_by_enumeration: bool = False,
) -> dict:
    """`fourier_support_check` for the functional y_shift + x*Y_m.

    Without `y_shift` the functional is -x*Y_m + x*Y_m, the one the program
    checks.  With `validate_by_enumeration` the full character sum over
    (Z/p^K)^3 is evaluated in exact cyclotomic form (tiny p, K only): the
    full count when the functional pairs integrally, zero otherwise.
    """
    p = seed.p
    K = seed.K if K is None else K
    if K < m + 1:
        raise ValueError("precision must satisfy K >= m + 1")
    if x % p**m == 0:
        raise ValueError("x must lie outside P^m")
    y = y_shift if y_shift is not None else seed.y_functional(m).scale_by_int(-x)
    shifted = y.add(seed.y_functional(m).scale_by_int(x))
    pairings = [shifted.pair(b) for b in seed.lattice_basis]
    integral = all(vp(v.numerator, p) >= vp(v.denominator, p) for v in pairings)
    out = {
        "pairings": [str(v) for v in pairings],
        "integral": bool(integral),
        "indicator": 1 if integral else 0,
    }
    if validate_by_enumeration:
        tmax = max(0, max(vp(v.denominator, p) for v in pairings))
        total = CycloInt(p, max(tmax, 1))
        scale = p ** max(tmax, 1)
        for a in range(p**K):
            for b in range(p**K):
                for c in range(p**K):
                    val = (pairings[0] * a + pairings[1] * b + pairings[2] * c) * scale
                    assert val.denominator == 1, "pairing pole exceeds the tracked order"
                    total.add_root(int(val) % scale)
        full = p ** (3 * K)
        canonical = total.canonical()
        if integral:
            ok = canonical[0] == full and not any(canonical[1:])
        else:
            ok = not any(canonical)
        out["enumeration"] = {"count": full, "sum_canonical": list(canonical), "ok": bool(ok)}
        out["indicator_validated"] = bool(ok)
    return out


# ---------------------------------------------------------------------------
# finite congruence models
# ---------------------------------------------------------------------------


def u_p_elements(model: FiniteModel) -> tuple:
    """U_p, sorted: the subgroup of Gamma_p its generators give."""
    return model.gamma_p.generated_subgroup(model.u_p_gens)


def lambda_by_walk(model: FiniteModel) -> dict:
    """lambda on every element of U_p by one closure walk over Gamma_p from
    the generator images, whatever the shape of Gamma_p; the walk must
    find no clash."""
    mod = model.p**model.m
    images = [model.lam[g] for g in model.u_p_gens]
    table, clashes = closure(
        model.gamma_p.identity(),
        model.u_p_gens,
        model.gamma_p.mul,
        lambda lam, _, k: (lam + images[k]) % mod,
        0,
    )
    assert not clashes, model.name
    return table


@functools.lru_cache(maxsize=8)  # a few models at a time: the tables span the product
def _delta_cosets(model: FiniteModel) -> tuple:
    """The right cosets Delta*g as (minima, element -> its coset's minimum),
    both over the listed product; None for the map when Delta is trivial."""
    product = model.product
    delta = product.generated_subgroup(model.delta_gens)
    if len(delta) == 1:
        return product.elements, None
    coset_of: dict = {}
    minima = []
    for g in product.elements:  # sorted: the first unseen g is its coset's minimum
        if g not in coset_of:
            coset_of.update((product.mul(d, g), g) for d in delta)
            minima.append(g)
    return tuple(minima), coset_of


def base_set(model: FiniteModel) -> tuple:
    """Right cosets Delta\\(Gamma_S x Gamma_p) by their minima, sorted; with
    Delta trivial each coset is one element and stands for itself."""
    return _delta_cosets(model)[0]


def act(model: FiniteModel, z, g):
    """Right action of the product group on the base set."""
    coset_of = _delta_cosets(model)[1]
    zg = model.product.mul(z, g)
    return zg if coset_of is None else coset_of[zg]


def hecke_by_enumeration(model: FiniteModel, coset_reps) -> Matrix:
    """The trivial-coefficient Hecke matrix by brute force: entry (k, j)
    counts, mod p^m, the coset representatives t with z_k * t in the j-th
    orbit.  Each orbit is the set z * U over all of U = U_S x U_p, with no
    walk over generators; the base set is sorted, so the first point not
    yet seen is its orbit's minimum z_k.  The quotient coefficients give
    the same matrix, since T^a is 1 at T = 1."""
    ep = model.gamma_p.identity()
    u_p = u_p_elements(model)
    orbit_of: dict = {}
    minima = []
    for z in base_set(model):
        if z not in orbit_of:
            orbit = (act(model, z, (us, up)) for us in model.u_s for up in u_p)
            orbit_of.update(dict.fromkeys(orbit, len(minima)))
            minima.append(z)
    rows = [[0] * len(minima) for _ in minima]
    for row, z in zip(rows, minima):
        for g in coset_reps:
            row[orbit_of[act(model, z, (g, ep))]] += 1
    return linalg.mat_freeze([[c % model.p**model.m for c in row] for row in rows])


def left_coset_representatives(
    group: FiniteGroup, double_coset: Iterable, subgroup: Iterable
) -> list:
    """Decompose a union of left cosets g*H into representatives, each the
    least element left, by scanning the set."""
    remaining = set(double_coset)
    reps = []
    while remaining:
        g = min(remaining)
        reps.append(g)
        for h in subgroup:
            remaining.discard(group.mul(g, h))
    return reps


def double_coset_representatives(group: FiniteGroup, subgroup: Iterable) -> list:
    """Representatives of H\\G/H, smallest element first, by scanning G."""
    sub = list(subgroup)
    remaining = set(group.elements)
    reps = []
    while remaining:
        g = min(remaining)
        reps.append(g)
        for h1 in sub:
            gh = group.mul(h1, g)
            for h2 in sub:
                remaining.discard(group.mul(gh, h2))
    return reps


def hecke_by_scan(model: FiniteModel, gamma) -> tuple:
    """The coset representatives of [U_S gamma U_S] from the |U_S|^2
    products and a scan of that set."""
    g, u_s = model.gamma_s, model.u_s
    double = {g.mul(g.mul(h1, gamma), h2) for h1 in u_s for h2 in u_s}
    return tuple(left_coset_representatives(g, double, u_s))
