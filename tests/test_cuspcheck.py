"""Truncated p-adic certificates: seed, exp/log, character, cusp sums.

Oracles: quadratic-residue tables, exact rational series identities, and
full unipotent-window enumeration for one small instance.
"""

import random
from fractions import Fraction

import pytest

from forge.cyclotomic import CycloInt
from forge.cuspcheck import (
    E,
    F,
    H,
    IDENT,
    TruncatedMatrix,
    _det2,
    cusp_integral_check,
    default_samples,
    elliptic_seed,
    exp_truncated,
    fourier_support_check,
    lambda_character,
    log_truncated,
    mat_add,
    mat_mul,
    smallest_nonsquare,
    unipotent_support_profiles,
    x_class_representatives,
)
from forge.linalg import mat_mod, mat_scale

# ---------------------------------------------------------------------------
# cyclotomic canonical forms
# ---------------------------------------------------------------------------


def test_cyclo_full_orbit_sums_vanish():
    for p, k in ((3, 1), (3, 2), (5, 1), (5, 2)):
        total = CycloInt(p, k)
        for j in range(p**k):
            total.add_root(j)
        assert not any(total.canonical())
        sub = CycloInt(p, k)
        for j in range(p ** (k - 1)):
            for i in range(p):
                sub.add_root(j + i * p ** (k - 1))
        assert not any(sub.canonical())


def test_cyclo_nonzero_detected():
    x = CycloInt(5, 2)
    x.add_root(3)
    x.add_root(17, 2)
    assert any(x.canonical())
    y = CycloInt(5, 2)
    y.add_root(3)
    y.add_root(17, 2)
    assert x.canonical() == y.canonical()


# ---------------------------------------------------------------------------
# seed
# ---------------------------------------------------------------------------


def test_smallest_nonsquare_residue_tables():
    assert smallest_nonsquare(5) == 2
    assert smallest_nonsquare(7) == 3
    assert smallest_nonsquare(11) == 2
    assert smallest_nonsquare(13) == 2


def test_elliptic_seed_p5():
    seed = elliptic_seed(5, 6)
    assert seed.epsilon == 2
    y1 = seed.y_functional(1)
    assert y1.pair(E) == Fraction(1, 5)
    assert y1.pair(F) == Fraction(2, 5)
    assert y1.pair(H) == 0


def test_elliptic_seed_p7_and_guards():
    assert elliptic_seed(7, 5).epsilon == 3
    with pytest.raises(ValueError):
        elliptic_seed(2, 6)
    with pytest.raises(ValueError):
        elliptic_seed(5, 2)


def test_truncated_matrix_offset_bookkeeping():
    a = TruncatedMatrix(5, 6, 1, ((0, 2), (1, 0)))
    b = TruncatedMatrix(5, 6, 0, IDENT)
    s = a.add(b)
    assert s.offset == 1
    assert s.entries == ((5, 2), (1, 5))
    prod = a.mul(a)
    assert prod.offset == 2
    assert prod.entries == ((2, 0), (0, 2))
    # offset -1 makes p^1 * IDENT = p: multiplying by it lowers the offset by one
    scaled = a.mul(TruncatedMatrix(5, 6, -1, IDENT))
    assert (scaled.offset, scaled.entries) == (0, a.entries)


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------


def test_exp_zero_is_identity():
    assert exp_truncated(((0, 0), (0, 0)), 5, 8) == IDENT


def test_exp_inverse_law():
    p, K = 5, 8
    x = mat_scale(p, ((1, 2), (3, -1)))
    g = exp_truncated(x, p, K)
    ginv = exp_truncated(mat_scale(-1, x), p, K)
    assert mat_mul(g, ginv, p**K) == IDENT


def test_exp_additive_on_commuting():
    p, K = 5, 8
    x = mat_scale(p, ((2, 1), (4, -2)))
    for a, b in ((1, 2), (3, 4), (2, 2)):
        lhs = exp_truncated(mat_scale(a + b, x), p, K)
        rhs = mat_mul(
            exp_truncated(mat_scale(a, x), p, K),
            exp_truncated(mat_scale(b, x), p, K),
            p**K,
        )
        assert lhs == rhs


def test_log_inverts_exp():
    p, K = 5, 8
    rng = random.Random(11)
    for _ in range(20):
        x = mat_scale(
            p, ((rng.randrange(125), rng.randrange(125)), (rng.randrange(125), 0))
        )
        x = ((x[0][0], x[0][1]), (x[1][0], -x[0][0]))
        g = exp_truncated(x, p, K)
        assert log_truncated(g, p, K) == mat_mod(x, p**K)


def test_exp_preconditions():
    with pytest.raises(ValueError):
        exp_truncated(((1, 0), (0, -1)), 5, 6)  # valuation 0
    with pytest.raises(ValueError):
        exp_truncated(((3, 0), (0, -3)), 3, 6)  # p < 5


def test_bch_containment():
    # exp(X)exp(Y) = exp(X + Y + commutator-depth correction): the log of
    # the product agrees with X + Y down to twice the input depth
    p, K, n = 5, 8, 2
    rng = random.Random(23)
    for _ in range(10):
        def rand_tz():
            a, b, c = rng.randrange(25), rng.randrange(25), rng.randrange(25)
            return mat_scale(p**n, ((a, b), (c, -a)))

        x, y = rand_tz(), rand_tz()
        z = log_truncated(
            mat_mul(exp_truncated(x, p, K), exp_truncated(y, p, K), p**K), p, K
        )
        diff = mat_add(z, mat_scale(-1, mat_add(x, y)), p**K)
        assert all(v % p ** (2 * n) == 0 for row in diff for v in row)


# ---------------------------------------------------------------------------
# the character
# ---------------------------------------------------------------------------


def test_lambda_identity_and_surjectivity():
    seed = elliptic_seed(5, 8)
    char = lambda_character(seed, 4, 2)
    assert char.value(IDENT) == 0
    values = {char.value(g) for g in char.generators()}
    assert any(v % 5 for v in values)
    # image is everything: powers of a unit-value generator hit all classes
    g = next(g for g in char.generators() if char.value(g) % 5)
    got = set()
    cur = IDENT
    for _ in range(25):
        cur = mat_mul(cur, g, 5**8)
        got.add(char.value(cur))
    assert got == set(range(25))


def test_lambda_homomorphism_p5_n4_m2():
    seed = elliptic_seed(5, 8)
    char = lambda_character(seed, 4, 2, pairs=100)
    rng = random.Random(5)
    for _ in range(25):
        a, b = char.random_element(rng), char.random_element(rng)
        assert char.value(mat_mul(a, b, 5**8)) == (char.value(a) + char.value(b)) % 25


def test_lambda_threshold_and_precision_guards():
    seed = elliptic_seed(5, 8)
    with pytest.raises(ValueError):
        lambda_character(seed, 3, 2)  # n < m + 2
    with pytest.raises(ValueError):
        lambda_character(seed, 4, 2, K=7)  # K < n + m + 2
    with pytest.raises(ValueError, match="m must be at least 1"):
        lambda_character(seed, 4, 0)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        default_samples(lambda_character(seed, 4, 2), 0)


def test_lambda_value_outside_domain_rejected():
    seed = elliptic_seed(5, 8)
    char = lambda_character(seed, 3, 1)
    with pytest.raises(ValueError):
        char.value(((0, -1), (1, 0)))


def test_lambda_invariant_under_lattice_stabilizer():
    # conjugating both the functional and the argument by an integral
    # unimodular matrix leaves the pairing unchanged
    p, K = 5, 8
    seed = elliptic_seed(p, K)
    char = lambda_character(seed, 4, 2)
    rng = random.Random(77)
    mod = p**K

    def rand_stab():
        g = IDENT
        for _ in range(4):
            t = rng.randrange(mod)
            g = mat_mul(g, ((1, t), (0, 1)), mod)
            t = rng.randrange(mod)
            g = mat_mul(g, ((1, 0), (t, 1)), mod)
        return g

    for _ in range(10):
        g0 = rand_stab()
        g0inv = _inv2(g0, mod)
        x = mat_scale(p**4, ((1, 2), (3, -1)))
        lhs = mat_trace_pair(seed.core, x, mod)
        rhs = mat_trace_pair(
            mat_mul(mat_mul(g0, seed.core, mod), g0inv, mod),
            mat_mul(mat_mul(g0, x, mod), g0inv, mod),
            mod,
        )
        assert lhs == rhs


def mat_trace_pair(c, x, mod):
    prod = mat_mul(c, x, mod)
    return (prod[0][0] + prod[1][1]) % mod


def _inv2(g, mod):
    det = _det2(g) % mod
    dinv = pow(det, -1, mod)
    return mat_mod(
        ((g[1][1] * dinv, -g[0][1] * dinv), (-g[1][0] * dinv, g[0][0] * dinv)), mod
    )


# ---------------------------------------------------------------------------
# cusp integrals
# ---------------------------------------------------------------------------


def test_cusp_sum_identity_sample_full_enumeration_oracle():
    # independent route: literal sum over every unipotent point mod the
    # period, no support shortcut
    p, n, m, K = 5, 3, 1, 8
    seed = elliptic_seed(p, K)
    char = lambda_character(seed, n, m)
    period = p ** (n + m)
    total = CycloInt(p, m)
    support = 0
    for t in range(period):
        gu = mat_mod(((1, t), (0, 1)), p**K)
        if char.contains(gu):
            support += 1
            total.add_root(char.value(gu))
    assert support == p**m  # one coset of depth n inside the period
    assert not any(total.canonical())
    out = cusp_integral_check(char, 1, samples=[("identity", IDENT)])
    assert out["passed"]
    row = [r for r in out["rows"] if r["parabolic"] == "upper"][0]
    assert row["support_points_mod_period"] == support
    assert row["zero"]


def test_cusp_rows_report_their_own_sums():
    # hand-made histograms whose sums differ row by row, most of them
    # nonzero: each row carries the canonical form of its own sum
    char = lambda_character(elliptic_seed(5, 8), 3, 1)
    histograms = [[1, 0, 0, 0, 0], [1, 1, 1, 1, 1], [0, 0, 2, 0, 0], [0, 0, 0, 0, 1]]
    profiles = [
        {"parabolic": "upper", "sample": f"s{i}", "support_points_mod_period": sum(h), "histogram": h}
        for i, h in enumerate(histograms)
    ]
    out = cusp_integral_check(char, 2, profiles=profiles)
    # x = 2 sends value v to zeta^(2v); zeta^8 = zeta^3 and zeta^4 = -(1 + zeta + zeta^2 + zeta^3)
    assert [row["sum_canonical"] for row in out["rows"]] == [
        [1, 0, 0, 0], [0, 0, 0, 0], [-2, -2, -2, -2], [0, 0, 0, 1]
    ]
    assert [row["zero"] for row in out["rows"]] == [False, True, False, False]
    assert not out["passed"]


def test_support_profiles_match_the_full_period_scan():
    # literal scan of every t modulo the period against the solved support
    # residue; u(7) and its lower twin put the support at t0 = -7, not 0
    p, n, m, K = 5, 3, 1, 8
    char = lambda_character(elliptic_seed(p, K), n, m)
    samples = default_samples(char, 9) + [
        ("u7", ((1, 7), (0, 1))),
        ("l7", ((1, 0), (7, 1))),
        ("l7.k", mat_mul(((1, 0), (7, 1)), default_samples(char, 4)[3][1], p**K)),
    ]
    profiles = unipotent_support_profiles(char, samples)
    for prof, (parabolic, (name, g)) in zip(
        profiles, [(par, sample) for par in ("upper", "lower") for sample in samples]
    ):
        hist = [0] * p**m
        for t in range(p ** (n + m)):
            u = ((1, t), (0, 1)) if parabolic == "upper" else ((1, 0), (t, 1))
            gu = mat_mul(g, u, p**K)
            if char.contains(gu):
                hist[char.value(gu)] += 1
        assert (prof["parabolic"], prof["sample"]) == (parabolic, name)
        assert (prof["support_points_mod_period"], prof["histogram"]) == (sum(hist), hist), name
    supported = {(prof["parabolic"], prof["sample"]) for prof in profiles if prof["support_points_mod_period"]}
    assert {("upper", "u7"), ("lower", "l7"), ("lower", "l7.k")} <= supported


def test_cusp_sum_empty_support_samples():
    p, n, m, K = 5, 3, 1, 8
    char = lambda_character(elliptic_seed(p, K), n, m)
    weyl = ((0, -1), (1, 0))
    out = cusp_integral_check(char, 1, samples=[("weyl", mat_mod(weyl, 5**K))])
    assert out["passed"]
    for row in out["rows"]:
        assert row["support_points_mod_period"] == 0
        assert row["zero"]


def test_cusp_sum_all_x_classes_m1():
    p, n, m, K = 5, 3, 1, 8
    char = lambda_character(elliptic_seed(p, K), n, m)
    xs = x_class_representatives(p, m)
    assert len(xs) == p**(m + 1) - p
    samples = default_samples(char, 8)
    for x in xs:
        out = cusp_integral_check(char, x, samples=samples)
        assert out["passed"], x


def test_cusp_sum_rejects_excluded_x():
    p, n, m, K = 5, 3, 1, 8
    char = lambda_character(elliptic_seed(p, K), n, m)
    with pytest.raises(ValueError):
        cusp_integral_check(char, p**m)


def test_cusp_sum_nonunimodular_sample_rejected():
    char = lambda_character(elliptic_seed(5, 8), 3, 1)
    with pytest.raises(ValueError):
        cusp_integral_check(char, 1, samples=[("bad", ((5, 0), (0, 1)))])


# ---------------------------------------------------------------------------
# Fourier support
# ---------------------------------------------------------------------------


def test_fourier_indicator_at_center():
    seed = elliptic_seed(5, 8)
    out = fourier_support_check(seed, 2, 3)
    assert out["integral"] and out["indicator"] == 1


def test_fourier_indicator_with_integral_shift():
    seed = elliptic_seed(5, 8)
    y = seed.y_functional(2).scale_by_int(-3)
    shift = TruncatedMatrix(5, 8, 0, ((2, 1), (4, -2)))
    out = fourier_support_check(seed, 2, 3, y_shift=y.add(shift))
    assert out["indicator"] == 1


def test_fourier_vanishing_for_pole():
    seed = elliptic_seed(5, 8)
    y = TruncatedMatrix(5, 8, 1, ((0, 1), (0, 0)))  # pairing valuation -1
    out = fourier_support_check(seed, 1, 1, y_shift=y.add(seed.y_functional(1).scale_by_int(-1)))
    assert out["indicator"] == 0


def test_fourier_enumeration_validation_p3():
    seed = elliptic_seed(3, 3)
    out = fourier_support_check(seed, 1, 1, K=2, validate_by_enumeration=True)
    assert out["indicator"] == 1
    assert out["indicator_validated"]
    assert out["enumeration"]["count"] == 3**6
    # and a genuinely non-integral shift sums to zero
    y = TruncatedMatrix(3, 3, 1, ((0, 1), (0, 0)))
    shifted = y.add(seed.y_functional(1).scale_by_int(-1))
    out = fourier_support_check(
        seed, 1, 1, K=2, y_shift=shifted, validate_by_enumeration=True
    )
    assert out["indicator"] == 0
    assert out["indicator_validated"]


def test_psi_normalization_conversion():
    # the window character is trivial on integers, nontrivial one level up;
    # dividing the argument by p converts to the convention that pairs
    # nontrivially with units
    p, k = 5, 1
    def psi_exponent(y: Fraction) -> int:
        scaled = y * p**k
        assert scaled.denominator == 1
        return int(scaled) % p**k

    assert psi_exponent(Fraction(1)) == 0  # trivial on integers
    assert psi_exponent(Fraction(1, 5)) != 0  # nontrivial on P^-1
    main_text = lambda y: psi_exponent(y / p)  # noqa: E731
    assert main_text(Fraction(1)) != 0  # nontrivial on units
    assert main_text(Fraction(5)) == 0  # trivial at positive valuation
