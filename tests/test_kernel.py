"""The arithmetic kernel against independent oracles.

Products are checked against the product over Z reduced with
`oracles.poly_divmod` and then taken mod N; the moduli have the shapes the
callers use: the F_q modulus over F_p, its lift to GR(p^K, f), the all-ones
modulus of the cyclotomic-level ring, x^e - p over GR(p^K, f), and the
F_{q^n} modulus over F_q with q = p^f.
"""

import operator
from itertools import zip_longest

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from forge import kernel, linalg
from forge.ffield import PrimeField, build_extension
from oracles import mat_vec, poly_divmod, poly_mul, smallest_irreducible_walk

PRIMES = (2, 3, 5, 7, 11, 13)


def _oracle(a, b, modulus, N):
    """a * b mod (modulus, N) through Z; all polynomials little-endian."""
    prod = poly_mul(a[::-1], b[::-1])
    _, rem = poly_divmod(prod, modulus[::-1])
    rem = [c % N for c in reversed(rem)]
    deg = len(modulus) - 1
    return tuple(rem + [0] * (deg - len(rem)))


def _element(data, deg, N):
    return tuple(data.draw(st.lists(st.integers(0, N - 1), min_size=deg, max_size=deg)))


@st.composite
def int_moduli(draw):
    """(modulus, N) shaped like F_q, GR(p^K, f) or the all-ones modulus."""
    p = draw(st.sampled_from(PRIMES))
    shape = draw(st.sampled_from(("F_q", "GR", "all-ones")))
    if shape == "all-ones":
        m = draw(st.integers(1, 2 if p < 7 else 1))
        return (1,) * p**m, p ** draw(st.integers(m, m + 2))
    g = build_extension(p, 1, draw(st.integers(1, 4))).modulus
    return g, p if shape == "F_q" else p ** draw(st.integers(2, 5))


@given(int_moduli(), st.data())
def test_int_ring_mul_matches_oracle(shape, data):
    modulus, N = shape
    ring = kernel.IntPolyRing(modulus, N)
    a, b = _element(data, ring.deg, N), _element(data, ring.deg, N)
    assert ring.mul(a, b) == _oracle(a, b, modulus, N)
    n = data.draw(st.integers(-3 * N, 3 * N))
    assert ring.smul(n, a) == _oracle(a, (n,), modulus, N)
    assert ring.neg(a) == _oracle(a, (-1,), modulus, N)


@given(int_moduli(), st.data())
def test_int_ring_reduce_takes_any_length(shape, data):
    modulus, N = shape
    ring = kernel.IntPolyRing(modulus, N)
    coeffs = data.draw(st.lists(st.integers(-3 * N, 3 * N), min_size=1, max_size=3 * ring.deg))
    _, rem = poly_divmod(coeffs[::-1], modulus[::-1])
    want = [c % N for c in reversed(rem)]
    assert ring.reduce(list(coeffs)) == tuple(want + [0] * (ring.deg - len(want)))


@given(st.sampled_from(PRIMES), st.integers(1, 3), st.data())
def test_ring_mul_over_prime_field_matches_oracle(p, n, data):
    # F_p[x]/(h) with the canonical modulus, coefficient ring F_p as ints
    modulus = build_extension(p, 1, n).modulus
    ring = kernel.PolyRing(PrimeField(p), modulus)
    a, b = _element(data, n, p), _element(data, n, p)
    assert ring.mul(a, b) == _oracle(a, b, modulus, p)


def _y_add(u, v):
    return [s + t for s, t in zip_longest(u, v, fillvalue=0)]


def _bivariate_oracle(a, b, g, h, N):
    """a * b in Z/N[y]/(g)[x]/(h), through Z[y][x].

    h is monic in x, its coefficients polynomials in y; the product is
    divided by h over Z[y], and only the remainder is reduced mod (g, N).
    """
    e = len(h) - 1
    prod = [[0] for _ in range(len(a) + len(b) - 1)]
    for k1, u in enumerate(a):
        for k2, v in enumerate(b):
            prod[k1 + k2] = _y_add(prod[k1 + k2], poly_mul(u, v))
    for k in range(len(prod) - 1, e - 1, -1):
        # x^k = x^(k - e) * (x^e - h) over the lower terms of h
        for j in range(e):
            prod[k - e + j] = _y_add(prod[k - e + j], poly_mul([-c for c in prod[k]], h[j]))
    return tuple(_oracle(tuple(row), (1,), g, N) for row in prod[:e])


def _vectors(data, length, deg, N):
    return tuple(_element(data, deg, N) for _ in range(length))


def _operand(data, length, deg, N):
    """An element of R[x]/(h), R of degree deg over Z/N, from both sides of
    PolyRing.mul's density rule: random, worst carry (every int N - 1),
    zero, a monomial c x^k, or 1 + c x^k."""
    kind = data.draw(st.sampled_from(("random", "worst-carry", "zero", "monomial", "one-plus-small")))
    if kind == "random":
        return _vectors(data, length, deg, N)
    if kind == "worst-carry":
        return ((N - 1,) * deg,) * length
    out = [(0,) * deg] * length
    if kind != "zero":
        k = data.draw(st.integers(0, length - 1))
        out[k] = _element(data, deg, N)
        if kind == "one-plus-small":
            out[0] = tuple((c + (i == 0)) % N for i, c in enumerate(out[0]))
    return tuple(out)


@given(st.sampled_from((5, 7, 11)), st.integers(1, 3), st.integers(1, 3), st.sampled_from((2, 3, 4, 5, 30)), st.data())
def test_ring_mul_over_galois_ring_matches_oracle(p, f, e, K, data):
    # R[x]/(x^e - p) over R = GR(p^K, f), the truncated tame extension;
    # K = 30 puts every slot of the packed product above 64 bits
    N = p**K
    g = build_extension(p, 1, f).modulus
    gr = kernel.IntPolyRing(g, N)
    h = (gr.reduce([-p]),) + (gr.zero(),) * (e - 1) + (gr.one(),)
    ring = kernel.PolyRing(gr, h)
    a, b = _operand(data, e, f, N), _operand(data, e, f, N)
    assert ring.mul(a, b) == _bivariate_oracle(a, b, g, h, N)
    assert ring.mul(a, a) == _bivariate_oracle(a, a, g, h, N)
    n = data.draw(st.integers(-3 * N, 3 * N))
    assert ring.smul(n, a) == _bivariate_oracle(a, ((n,),), g, h, N)
    assert ring.neg(a) == _bivariate_oracle(a, ((-1,),), g, h, N)


def test_packed_slots_wider_than_a_machine_word_match_oracle():
    # GR(5^30, 3)[x]/(x^3 - 5): each slot needs more than 64 bits, so the
    # product is packed through bytes, not an array of machine words
    p, f, e, N = 5, 3, 3, 5**30
    assert kernel._packing(e, f, N)[0] > 8
    g = build_extension(p, 1, f).modulus
    gr = kernel.IntPolyRing(g, N)
    h = (gr.reduce([-p]),) + (gr.zero(),) * (e - 1) + (gr.one(),)
    ring = kernel.PolyRing(gr, h)
    worst = ((N - 1,) * f,) * e
    dense = tuple(tuple((7**(3 * i + j) * 1_000_003) % N for j in range(f)) for i in range(e))
    for a, b in ((worst, worst), (worst, dense), (dense, dense)):
        assert ring.mul(a, b) == _bivariate_oracle(a, b, g, h, N)


# F_{(p^f)^n}: small shapes at f = 2 and 3, and every field with f = 2 and
# p <= 17 that the README sweep (`forge sweep --q-exponents 1 2`) builds
EXTENSION_FIELDS = [(p, f, n) for p in (2, 3, 5, 7) for f in (2, 3) for n in (1, 2, 3)] + [
    (5, 2, 4), (7, 2, 4), (7, 2, 5), (7, 2, 6), (11, 2, 2), (11, 2, 5),
    (11, 2, 6), (11, 2, 7), (11, 2, 8), (11, 2, 9), (13, 2, 1), (13, 2, 2), (13, 2, 7),
    (13, 2, 8), (13, 2, 9), (13, 2, 12), (17, 2, 1), (17, 2, 2), (17, 2, 12),
]


@given(st.sampled_from(EXTENSION_FIELDS), st.data())
def test_extension_field_ring_matches_oracle(field, data):
    # F_{q^n} = F_q[x]/(h) over F_q = F_p[y]/(g), q = p^f: the ring K = 1
    p, f, n = field
    ext = build_extension(p, f, n)
    g, h, ring = ext.base.modulus, ext.modulus, ext._ring
    a, b = _operand(data, n, f, p), _operand(data, n, f, p)
    assert ring.mul(a, b) == _bivariate_oracle(a, b, g, h, p)
    assert ring.mul(a, a) == _bivariate_oracle(a, a, g, h, p)
    assert ext.mul(a, b) == ring.mul(a, b)
    k = data.draw(st.integers(-3 * p, 3 * p))
    assert ext.smul(k, a) == _bivariate_oracle(a, ((k,),), g, h, p)


def test_worst_carry_products_match_oracle():
    # every coefficient p - 1 puts each slot of the packed product near the
    # bound its width is taken from, in every field the oracle test samples
    for p, f, n in EXTENSION_FIELDS:
        ext = build_extension(p, f, n)
        worst = ((p - 1,) * f,) * n
        want = _bivariate_oracle(worst, worst, ext.base.modulus, ext.modulus, p)
        assert ext._ring.mul(worst, worst) == want, (p, f, n)


def test_dense_product_is_one_packed_multiply(monkeypatch):
    # F_{(17^2)^12}, h = x^12 + (2 + y): the schoolbook product makes 144
    # F_q products before the reduction mod h; packed, only the reduction's
    # n - 1 = 11 remain
    ext = build_extension(17, 2, 12)
    ring = ext._ring
    a = tuple((i % 17, (5 * i + 1) % 17 or 1) for i in range(12))
    b = tuple(((3 * i + 2) % 17 or 1, i % 17) for i in range(12))
    calls = []
    inner = ring.ring.mul

    def counting(x, y):
        calls.append((x, y))
        return inner(x, y)

    monkeypatch.setattr(ring.ring, "mul", counting)
    prod = ring.mul(a, b)
    assert len(calls) <= ext.n - 1
    monkeypatch.undo()
    assert prod == _bivariate_oracle(a, b, ext.base.modulus, ext.modulus, 17)


@given(st.integers(-50, 50), st.integers(0, 200))
def test_power_matches_builtin_pow(a, e):
    assert kernel.power(operator.mul, a, e, 1) == a**e


@given(int_moduli(), st.integers(0, 40), st.data())
def test_power_is_repeated_multiplication(shape, e, data):
    modulus, N = shape
    ring = kernel.IntPolyRing(modulus, N)
    a = _element(data, ring.deg, N)
    want = ring.one()
    for _ in range(e):
        want = ring.mul(want, a)
    assert kernel.power(ring.mul, a, e, ring.one()) == want
    assert ring.pow(a, e) == want


@pytest.mark.parametrize("e", [0, 1, 2, 31, 2**20])
def test_power_makes_no_product_with_one(e):
    # bit_length - 1 squarings and popcount - 1 products with a; never a * one
    products = []

    def mul(x, y):
        products.append((x, y))
        return x * y % 1_000_003

    assert kernel.power(mul, 3, e, 1) == pow(3, e, 1_000_003)
    want = e.bit_length() + bin(e).count("1") - 2 if e else 0
    assert len(products) == want
    assert all(1 not in pair for pair in products)


@given(
    st.sampled_from([(2, 3), (3, 2), (5, 2), (7, 1)]),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 4),
    st.data(),
)
def test_solve_unit_pivot_many_right_hand_sides(pk, ncols, extra, nrhs, data):
    # B = rows permuted of L * [I; Y] with L unit lower triangular: columns
    # independent mod p, and L * e_last lies outside B's column space
    p, k = pk
    mod, n = p**k, ncols + extra
    entry = st.integers(0, mod - 1)
    lower = [[1 if i == j else data.draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    y = [[data.draw(entry) for _ in range(ncols)] for _ in range(extra)]
    stacked = linalg.identity(ncols) + tuple(tuple(r) for r in y)
    order = data.draw(st.permutations(range(n)))
    full = linalg.mat_mul(lower, stacked)
    b = linalg.mat_mod(tuple(full[i] for i in order), mod)
    coeffs = [tuple(data.draw(entry) for _ in range(ncols)) for _ in range(nrhs)]
    vs = [mat_vec(b, c) for c in coeffs]
    sols = linalg.solve_unit_pivot(b, vs, p, k)
    assert sols == coeffs
    assert sols == [linalg.solve_unit_pivot(b, [v], p, k)[0] for v in vs]
    if extra:
        outside = tuple(lower[i][n - 1] for i in order)
        spot = data.draw(st.integers(0, nrhs))
        with pytest.raises(ValueError, match="inconsistent"):
            linalg.solve_unit_pivot(b, vs[:spot] + [outside] + vs[spot:], p, k)

@given(st.integers(1, 3000), st.data())
def test_full_order_matches_per_prime_test_mod_p(i, data):
    # (Z/p)^x with the builtin pow, on any subset of the primes of p - 1
    p = sympy.prime(i)
    a = data.draw(st.integers(1, p - 1))
    primes = [ell for ell in sympy.primefactors(p - 1) if data.draw(st.booleans())]
    want = all(pow(a, (p - 1) // ell, p) != 1 for ell in primes)
    assert kernel.full_order(lambda x, e: pow(x, e, p), a, p - 1, primes, 1) == want


def _monic(field, coeffs):
    return tuple(field.from_int(c) for c in coeffs) + (field.one(),)


@st.composite
def frobenius_rings(draw):
    """(F_q[x]/(h), F_q) for a monic h, often reducible: IntPolyRing over
    F_p, PolyRing over F_p and PolyRing over F_q's IntPolyRing."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.integers(1, 2))
    field = PrimeField(p) if f == 1 else build_extension(p, 1, f)
    deg = draw(st.integers(1, 5 if f == 1 else 3))
    h = _monic(field, draw(st.lists(st.integers(0, field.size - 1), min_size=deg, max_size=deg)))
    if f == 1 and draw(st.booleans()):
        return kernel.PolyRing(field, h), field
    return field.poly_ring(h), field


@given(frobenius_rings(), st.data())
def test_frobenius_columns_apply_is_the_q_power(shape, data):
    ring, field = shape
    cols = kernel.frobenius_columns(ring, field.size)
    digits = st.lists(st.integers(0, field.size - 1), min_size=ring.deg, max_size=ring.deg)
    a = tuple(field.from_int(c) for c in data.draw(digits))
    assert ring.apply(cols, a) == ring.pow(a, field.size)


class _CountingField(PrimeField):
    inversions = 0

    def inv(self, a):
        self.inversions += 1
        return super().inv(a)


_COEFFS = st.lists(st.integers(0, 12), min_size=1, max_size=9)


@given(st.sampled_from(PRIMES), _COEFFS, _COEFFS)
def test_resultant_against_sympy(p, a, b):
    field = _CountingField(p)
    a, b = [c % p for c in a], [c % p for c in b]
    da, db = (max((i for i, c in enumerate(u) if c), default=-1) for u in (a, b))
    x = sympy.Symbol("x")
    want = 0
    if da >= 0 and db >= 0:
        # the Sylvester determinant: sympy's `resultant` flips its sign when
        # deg a < deg b and deg a * deg b is odd, as for Res(x, x^3 + 2) = 2
        a_x, b_x = (sympy.Poly(u[::-1], x).as_expr() for u in (a, b))
        want = int(sylvester(a_x, b_x, x).det()) % p
    assert kernel.resultant(field, a, b) == want
    # one inversion per divisor; the divisors' degrees fall strictly
    assert field.inversions <= min(da, db) + 1


def _sympy_gcd_is_one(field, u, h):
    """Whether gcd(u, h) = 1 over F_q = `field`, from sympy: the reduced
    Groebner basis over F_p of u and h, each coefficient lifted to a
    polynomial in y of degree < f, together with F_q's modulus g(y) when
    q = p^f > p.  It is [1] iff the ideal (u, h) of F_q[x] is."""
    x, y = sympy.symbols("x y")
    p = field.p

    def lift(coeffs):
        out = 0
        for k, c in enumerate(coeffs):
            e, i = field.encode(c), 0
            while e:
                out += (e % p) * y**i * x**k
                e, i = e // p, i + 1
        return out

    rels = [lift(u), lift(h)]
    if field.size > p:
        rels.append(sum(c * y**i for i, c in enumerate(field.modulus)))
    return sympy.groebner(rels, x, y, modulus=p, order="lex").exprs == [1]


def _pow_rabin(field, modulus):
    """Rabin's test by square-and-multiply with sympy's gcds, the reference
    for is_irreducible."""
    n = len(modulus) - 1
    if n == 1:
        return True
    ring = field.poly_ring(modulus)
    zero = field.zero()
    x = (zero, field.one()) + (zero,) * (n - 2)
    if ring.pow(x, field.size**n) != x:
        return False
    for ell in sympy.primefactors(n):
        y = ring.pow(x, field.size ** (n // ell))
        if not _sympy_gcd_is_one(field, ring.sub(y, x), modulus):
            return False
    return True


@pytest.mark.parametrize(
    "p,f,degrees",
    [(2, 1, (2, 3, 4, 5)), (3, 1, (2, 3, 4, 5)), (5, 1, (2, 3)), (2, 2, (2, 3)), (3, 2, (2, 3))],
    ids=["F2", "F3", "F5", "F4", "F9"],
)
def test_is_irreducible_matches_pow_rabin_on_every_candidate(p, f, degrees):
    # degree 5 has reducible candidates, such as (x^2 + x + 1)(x^3 + x + 1)
    # over F_2, that only the final check x^(q^5) = x rejects
    field = PrimeField(p) if f == 1 else build_extension(p, 1, f)
    q = field.size
    for deg in degrees:
        verdicts = []
        for enc in range(q**deg):
            modulus = _monic(field, [(enc // q**i) % q for i in range(deg)])
            verdicts.append(kernel.is_irreducible(field, modulus))
            assert verdicts[-1] == _pow_rabin(field, modulus), modulus
        # Gauss: d * #(monic irreducibles of degree d) = sum over e | d of mu(e) q^(d/e)
        assert sum(verdicts) == sum(sympy.mobius(e) * q ** (deg // e) for e in sympy.divisors(deg)) // deg


# every F_{(p^f)^n} with p <= 13, f <= 2, 2 <= n <= 6 and (p^f)^n <= 5 * 10^5
BINOMIAL_SKIP_FIELDS = [
    (p, f, n)
    for p in (2, 3, 5, 7, 11, 13)
    for f in (1, 2)
    for n in range(2, 7)
    if p ** (f * n) <= 5 * 10**5
]


def test_smallest_irreducible_skips_only_reducible_binomials():
    """The binomial skip (Lidl-Niederreiter 3.75) changes no modulus: the
    search returns the walk's from encoding 0 on every field of the set,
    skipped or not."""
    assert len(BINOMIAL_SKIP_FIELDS) == 44
    binomials = 0
    for p, f, n in BINOMIAL_SKIP_FIELDS:
        field = PrimeField(p) if f == 1 else build_extension(p, 1, f)
        modulus = kernel.smallest_irreducible(field, n)
        assert modulus == smallest_irreducible_walk(field, n), (p, f, n)
        binomials += not any(modulus[1:-1])
    assert binomials == 11  # the other 33 fields have no irreducible binomial


@pytest.mark.parametrize("p,f", [(p, f) for p in (2, 3, 5, 7, 11, 13, 17, 19) for f in (1, 2, 3)])
def test_smallest_irreducible_against_sympy(p, f):
    # first monic candidate in encoding order that sympy calls irreducible
    y = sympy.Symbol("y")
    for enc in range(p**f):
        digits = [(enc // p**i) % p for i in range(f)] + [1]
        if sympy.Poly(list(reversed(digits)), y, modulus=p).is_irreducible:
            break
    assert kernel.smallest_irreducible(PrimeField(p), f) == tuple(digits)
    if f > 1:
        assert build_extension(p, 1, f).modulus == tuple(digits)


@given(st.sampled_from(PRIMES), st.integers(0, 12), st.integers(-10**6, 10**6))
def test_vp(p, k, u):
    if u == 0:
        with pytest.raises(ValueError):
            kernel.vp(0, p)
        return
    unit = u if u % p else u * p + 1
    assert kernel.vp(unit * p**k, p) == k


# ---------------------------------------------------------------------------
# primality and factoring, with sympy as the oracle
# ---------------------------------------------------------------------------

# the smallest prime above the bound up to which Miller-Rabin decides
ABOVE_BOUND = 3317044064679887385962123


def test_is_prime_matches_sympy_below_2e5():
    assert [n for n in range(200_000) if kernel.is_prime(n)] == list(sympy.primerange(200_000))


@pytest.mark.parametrize(
    "n",
    [561, 1105, 41041, 3215031751, 3825123056546413051],
    ids=["carmichael-561", "carmichael-1105", "carmichael-41041", "spsp-2-7", "spsp-2-23"],
)
def test_is_prime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not kernel.is_prime(n)


def test_is_prime_decides_up_to_the_bound_and_refuses_from_it():
    below = sympy.prevprime(kernel.MR_BOUND)
    assert kernel.is_prime(below) and not kernel.is_prime(below + 2)
    # the bound itself is composite and a strong probable prime to every base
    assert not sympy.isprime(kernel.MR_BOUND)
    assert ABOVE_BOUND == sympy.nextprime(kernel.MR_BOUND)
    for n in (kernel.MR_BOUND, ABOVE_BOUND):
        with pytest.raises(ValueError, match=str(kernel.MR_BOUND)):
            kernel.is_prime(n)
    # a witness settles a composite at any size
    assert not kernel.is_prime(ABOVE_BOUND * 1000003)


def _sweep_orders():
    """Every q^n - 1 whose primes the README sweep's generator searches use:
    the odd orthogonal fields F_{q^(2s-2)} and the E6 fields F_q."""
    from forge.sweep import SweepConfig, all_irreducible_types

    config = SweepConfig(tuple(all_irreducible_types(8)), q_exponents=(1, 2))
    orders = set()
    for t, _, q, _ in config.grid()[0]:
        if t.family == "D" and t.rank % 2:
            orders.add(q ** (2 * t.rank - 2) - 1)
        if str(t) == "E6":
            orders.add(q - 1)
    return sorted(orders)


def test_prime_factors_on_the_sweep_orders():
    orders = _sweep_orders()
    assert len(orders) == 12
    assert max(max(kernel.prime_factors(n)) for n in orders) == 815702161  # Phi_24(13)
    for n in orders:
        assert kernel.prime_factors(n) == sympy.primefactors(n), n


@given(st.integers(1, 10**18))
def test_prime_factors_matches_sympy(n):
    assert kernel.prime_factors(n) == sympy.primefactors(n)


def test_prime_factors_of_small_and_square_inputs():
    for n in range(1, 3000):
        assert kernel.prime_factors(n) == sympy.primefactors(n), n
    # squares and cubes of primes above the trial bound go to rho
    for ell in (1009, 65537, 1000003):
        assert kernel.prime_factors(ell**2) == [ell]
        assert kernel.prime_factors(3 * ell**3 * 1000033) == [3, ell, 1000033]


def test_prime_factors_refuses_past_the_effort_bound():
    # a probable prime cofactor at or above the bound
    with pytest.raises(ValueError, match="factorization effort bound exceeded"):
        kernel.prime_factors(6 * ABOVE_BOUND)
    # a semiprime of two ~10^15 primes takes ~4*10^7 rho steps, past the cap
    a, b = sympy.nextprime(10**15), sympy.nextprime(2 * 10**15)
    with pytest.raises(ValueError, match="factorization effort bound exceeded"):
        kernel.prime_factors(a * b)


@given(st.integers(1, 2000), st.integers(1, 12))
def test_prime_power_of_prime_powers(i, f):
    p = sympy.prime(i)
    assert kernel.prime_power(p**f) == (p, f)


@pytest.mark.parametrize("q", [-8, -1, 0, 1, 12, 36, 100, 2**10 * 3, 1001, 10**12 + 39 * 2])
def test_prime_power_rejects_non_prime_powers(q):
    with pytest.raises(ValueError, match="not a prime power"):
        kernel.prime_power(q)


@given(st.integers(2, 10**12))
def test_prime_power_matches_sympy(q):
    fac = sympy.factorint(q)
    if len(fac) == 1:
        assert kernel.prime_power(q) == next(iter(fac.items()))
    else:
        with pytest.raises(ValueError):
            kernel.prime_power(q)


def test_smallest_primes_above_is_sympy_nextprime():
    from forge.sweep import smallest_primes_above

    for bound in [*range(0, 200), 10**9, 2**61]:
        want, p = [], bound
        for _ in range(3):
            p = sympy.nextprime(p)
            want.append(p)
        assert smallest_primes_above(bound, 3) == want, bound
