"""Level arithmetic: windows, image orders, level maps, unit filtrations.

Oracles: direct enumeration of lattice-slice characters over Z/p^K and of
truncated principal-unit groups.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from forge import kernel
from forge.depthcalc import (
    FilteredLattice,
    LevelMap,
    TruncatedRing,
    _unit_level_class,
    character_image_order,
    factor_level_map,
    filtration_level_exponent,
    level_window,
    torus_power_filtration,
    unramified_torus_lattice,
)

F = Fraction


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_level_window_examples():
    w = level_window(1, 1)
    assert w.n == 1 and w.window == (F(1), F(2))
    w = level_window(1, 2)
    assert w.n == 3 and w.window == (F(3), F(4))
    w = level_window(2, 1)
    assert w.n == 3 and w.window == (F(3), F(4))
    assert w.contains(F(7, 2)) and w.contains(F(4)) and not w.contains(F(3))


def test_lattice_jump_translation_invariance():
    lat = FilteredLattice(2, 1, (F(0), F(1, 3)))
    lo, hi = F(1, 2), F(7, 2)
    shifted = [s + 1 for s in lat.jumps_in(lo, hi)]
    assert shifted == lat.jumps_in(lo + 1, hi + 1)


# ---------------------------------------------------------------------------
# character image order: formula vs direct enumeration over Q_p
# ---------------------------------------------------------------------------


def order_oracle_qp(r: int, p: int) -> int:
    """Direct enumeration for Q_p, integer jumps: the subgroup of roots of
    unity hit by v -> exp(2 pi i frac(v/p)) pairing a depth-r functional
    against the slice (r/2, r]."""
    s_min = r // 2 + 1
    s_top = r + 1
    best = 0
    for s in range(s_min, s_top + 1):
        if s > r:
            break
        # a unit vector at jump s pairs to valuation s - r
        t = r - s
        # order of psi on p^-t Z_p / ker: p^(t+1)
        best = max(best, t + 1)
    return best


def test_character_image_order_matches_enumeration_qp():
    lat = unramified_torus_lattice(1, 1)
    for r in range(1, 12):
        assert character_image_order(F(r), lat) == order_oracle_qp(r, 5)


def test_character_image_order_window_values():
    for e_F in (1, 2, 3):
        lat = unramified_torus_lattice(1, e_F)
        for m in (1, 2, 3, 4):
            n = 2 * e_F * m - 1
            assert character_image_order(F(n) + F(1, 2), lat) == m
            assert character_image_order(F(n + 1), lat) == m
            if m >= 2:
                # one full level-window unit lower: the (m-1)-window
                assert character_image_order(F(n) + F(1, 2) - 2 * e_F, lat) == m - 1
                assert character_image_order(F(n + 1) - 2 * e_F, lat) == m - 1
    # for the absolutely unramified line, dropping r by a single unit from
    # the window interior already lowers the order one step
    lat = unramified_torus_lattice(1, 1)
    for m in (2, 3, 4):
        n = 2 * m - 1
        assert character_image_order(F(n) + F(1, 2) - 1, lat) == m - 1


def test_character_image_order_offset_lattices():
    for e_F in (1, 2, 3):
        for off in (F(1, 2), F(1, 3), F(2, 3), F(1, 4)):
            lat = FilteredLattice(1, e_F, (off,))
            for m in (1, 2, 3, 4):
                n = 2 * e_F * m - 1
                r = F(n) + off  # the torus jump inside the window
                assert character_image_order(r, lat) == m
                if m >= 2:
                    assert character_image_order(r - 2 * e_F, lat) == m - 1


def test_character_image_order_empty_slice():
    lat = FilteredLattice(1, 1, (F(1, 2),))
    # r = 3/5: slice (3/10, 3/5] contains the jump 1/2; r = 2/5 does not
    assert character_image_order(F(3, 5), lat) == 1
    assert character_image_order(F(2, 5), lat) == 0


@given(st.integers(1, 3), st.integers(1, 40))
def test_character_image_order_monotone(e_F, steps):
    lat = unramified_torus_lattice(1, e_F)
    grid = [F(k, 4) for k in range(1, steps + 1)]
    vals = [character_image_order(r, lat) for r in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# factor_level_map
# ---------------------------------------------------------------------------


def enumerate_level_map(lm: LevelMap) -> set[int]:
    """Oracle: the full image subgroup by enumerating generator combinations."""
    mod = lm.p**lm.m
    image = {0}
    for img in lm.images:
        image = {(a + k * img) % mod for a in image for k in range(mod)}
    return image


def test_factor_level_map_m1_rank1():
    lat = unramified_torus_lattice(1, 1)
    lm = factor_level_map(2, lat, 1, [1], 5)
    assert lm.surjective
    assert enumerate_level_map(lm) == set(range(5))


def test_factor_level_map_m2_p3():
    lat = unramified_torus_lattice(1, 1)
    lm = factor_level_map(4, lat, 2, [2], 3)
    assert lm.surjective
    assert enumerate_level_map(lm) == set(range(9))
    # kernel index = image size = p^2
    assert len(enumerate_level_map(lm)) == 9


def test_factor_level_map_zero_functional_errors():
    lat = unramified_torus_lattice(2, 1)
    with pytest.raises(ValueError):
        factor_level_map(4, lat, 2, [0, 0], 3)
    with pytest.raises(ValueError):
        factor_level_map(4, lat, 2, [3, 9], 3)  # no unit coordinate
    with pytest.raises(ValueError):
        factor_level_map(2, lat, 2, [1, 1], 3)  # r=2 carries order p, not p^2


def test_factor_level_map_rejects_non_prime_p():
    lat = unramified_torus_lattice(2, 1)
    for p in (9, 25, 1):  # Z/9^2 is no level target
        with pytest.raises(ValueError, match="p must be prime"):
            factor_level_map(4, lat, 2, [1, 1], p)


def test_factor_level_map_round_trip_character_order():
    # composing with any embedding of Z/p^m into the circle reproduces a
    # character of full order: image subgroup has exact size p^m
    lat = unramified_torus_lattice(3, 1)
    lm = factor_level_map(4, lat, 2, [1, 3, 5], 5)
    assert len(enumerate_level_map(lm)) == 25


# ---------------------------------------------------------------------------
# combine_product
# ---------------------------------------------------------------------------


def combine_product(maps: Sequence[LevelMap]) -> LevelMap:
    """The sum map on a product domain of level maps; surjective iff some
    factor is."""
    if not maps:
        raise ValueError("no maps to combine")
    p, m = maps[0].p, maps[0].m
    if any((lm.p, lm.m) != (p, m) for lm in maps):
        raise ValueError("target mismatch")
    gens, images, orders = [], [], []
    for idx, lm in enumerate(maps):
        gens.extend(f"f{idx+1}.{g}" for g in lm.generators)
        images.extend(lm.images)
        orders.extend(lm.generator_orders)
    return LevelMap(
        p,
        m,
        tuple(gens),
        tuple(images),
        tuple(orders),
        " x ".join(lm.domain for lm in maps),
    )


def make_map(p, m, images, orders=None):
    orders = orders or tuple(p**m for _ in images)
    return LevelMap(p, m, tuple(f"g{i}" for i in range(len(images))), tuple(images), tuple(orders), "test")


def test_combine_single_and_two_surjections():
    a = make_map(3, 2, (1,))
    assert combine_product([a]).images == a.images
    b = make_map(3, 2, (4,))
    c = combine_product([a, b])
    assert c.surjective
    assert enumerate_level_map(c) == set(range(9))


def test_combine_surjection_plus_zero():
    a = make_map(3, 2, (1,))
    z = make_map(3, 2, (0, 0))
    c = combine_product([z, a])
    assert c.surjective
    assert enumerate_level_map(c) == set(range(9))


def test_combine_nonsurjective_stack():
    a = make_map(3, 2, (3,))
    b = make_map(3, 2, (6,))
    c = combine_product([a, b])
    assert not c.surjective
    assert enumerate_level_map(c) == {0, 3, 6}


def test_combine_target_mismatch():
    with pytest.raises(ValueError):
        combine_product([make_map(3, 2, (1,)), make_map(3, 1, (1,))])


def test_combine_associative_commutative():
    maps = [make_map(5, 1, (2,)), make_map(5, 1, (0,)), make_map(5, 1, (3,))]
    left = combine_product([combine_product(maps[:2]), maps[2]])
    right = combine_product([maps[0], combine_product(maps[1:])])
    flat = combine_product(maps)
    assert (
        sorted(left.images) == sorted(right.images) == sorted(flat.images)
    )
    assert left.surjective == right.surjective == flat.surjective


# ---------------------------------------------------------------------------
# torus power filtration vs enumeration oracle
# ---------------------------------------------------------------------------


def unit_group_oracle(p, K, m):
    """Enumerate (1+pZ)/(1+p^K Z), its p-power filtration, and check that the
    m-th step maps onto Z/p^m inside U_m/U_2m."""
    mod = p**K
    units = sorted({(1 + p * t) % mod for t in range(mod // p)})
    level = set(units)
    levels = [set(level)]
    for _ in range(2 * m):
        level = {pow(u, p, mod) for u in level}
        levels.append(set(level))
    return levels


def test_torus_filtration_q5_m1_K3():
    lm = torus_power_filtration(5, 1, 1, 3)
    assert lm.p == 5 and lm.m == 1
    assert lm.surjective
    assert enumerate_level_map(lm) == set(range(5))
    # oracle: the filtration steps are exactly 1 + 5^i Z mod 125
    levels = unit_group_oracle(5, 3, 1)
    assert levels[1] == {(1 + 25 * t) % 125 for t in range(5)}


def test_torus_filtration_q5_m2_K4():
    lm = torus_power_filtration(5, 1, 2, 4)
    assert lm.m == 2 and lm.surjective
    assert enumerate_level_map(lm) == set(range(25))
    # oracle: after k p-power steps the filtration is exactly 1 + p^(k+1) Z
    levels = unit_group_oracle(5, 4, 2)
    for k in (0, 1, 2, 3):
        expect = {(1 + 5 ** (k + 1) * t) % 5**4 for t in range(5 ** (3 - k))}
        assert levels[k] == expect


def test_torus_filtration_precision_guard():
    with pytest.raises(ValueError):
        torus_power_filtration(5, 1, 2, 3)
    with pytest.raises(ValueError):
        torus_power_filtration(5, 1, 1, 2)


def test_torus_filtration_p2_documented_support():
    lm = torus_power_filtration(2, 1, 1, 4)
    assert lm.surjective
    with pytest.raises(ValueError):
        torus_power_filtration(4, 1, 1, 6)
    with pytest.raises(ValueError):
        torus_power_filtration(2, 2, 1, 6)


def test_torus_filtration_residue_extension_and_ramified():
    lm = torus_power_filtration(25, 1, 1, 3)  # q = 25 unramified
    assert lm.surjective
    lm = torus_power_filtration(5, 2, 1, 3)  # e = 2 tame
    assert lm.surjective
    lm = torus_power_filtration(7, 3, 1, 3)  # e = 3 tame
    assert lm.surjective


def test_torus_filtration_oracle_small_ramified():
    """Exhaustive oracle for e = 2: squares etc. inside Z[x]/(x^2-p, p^K)."""
    p, K, m = 5, 3, 1
    lm = torus_power_filtration(p, 2, m, K)
    # group (1 + pi O)/(1 + pi^(2K) O): enumerate and check the map is a
    # homomorphism onto Z/p by brute force
    mod = p**K
    elems = []
    for a0 in range(0, mod, p):  # coefficient of 1, minus 1: multiples of pi^2 -> p
        for b0 in range(0, mod):  # coefficient of x
            elems.append((1 + a0, b0))

    def mul(u, v):
        (a, b), (c, d) = u, v
        return ((a * c + p * b * d) % mod, (a * d + b * c) % mod)

    def norm_class(u):
        a, b = u
        w = (a * a - p * b * b) % mod
        assert (w - 1) % (p**m) == 0
        return ((w - 1) // p**m) % (p**m)

    image = {norm_class(u) for u in elems}
    assert image == set(range(p))
    for u in elems[:40]:
        for v in elems[:40]:
            assert norm_class(mul(u, v)) == (norm_class(u) + norm_class(v)) % p


@pytest.mark.parametrize(
    "q, e, m, K",
    [(3, 1, 2, 4), (49, 4, 3, 6), (125, 3, 3, 6), (2, 1, 1, 4), (5, 2, 1, 3), (7, 3, 1, 3)],
)
def test_filtration_pairs_match_fresh_norms(q, e, m, K):
    """Reference for the pair check: each product of two generators is
    formed in the ring and its norm taken afresh, not read off N(a) N(b)."""
    lm = torus_power_filtration(q, e, m, K)
    p, f = kernel.prime_power(q)
    ring = TruncatedRing(p, f, e, K)
    base_exp = m if p != 2 else (1 if m == 1 else m + 1)
    levels = range(
        filtration_level_exponent(p, e, m), min(filtration_level_exponent(p, e, 2 * m), e * K)
    )
    units = [
        ring.add(ring.one(), ring.mul(ring.uniformizer_power(j), b))
        for j in levels
        for (_, b) in ring.basis()
    ]

    def level_class(u):
        return _unit_level_class(ring, ring.norm_to_unramified(u), base_exp, m)

    assert [level_class(u) for u in units] == list(lm.images)
    for i1, a in enumerate(units):
        for i2 in range(i1, len(units)):
            prod = ring.mul(a, units[i2])
            assert level_class(prod) == (lm.images[i1] + lm.images[i2]) % p**m


# ---------------------------------------------------------------------------
# the norm to the unramified part vs the Leibniz determinant
# ---------------------------------------------------------------------------


def _perm_sign(perm) -> int:
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def leibniz_norm(ring: TruncatedRing, a):
    """Oracle: det of multiplication by a over the coefficient ring, summed
    over all e! permutations."""
    R, e = ring.ring, ring.e
    cols = [ring.mul(a, ring.uniformizer_power(t)) for t in range(e)]
    total = R.zero()
    for perm in itertools.permutations(range(e)):
        term = cols[0][perm[0]]
        for col in range(1, e):
            term = R.mul(term, cols[col][perm[col]])
        total = R.add(total, term) if _perm_sign(perm) > 0 else R.sub(total, term)
    return total


def _random_element(ring: TruncatedRing, rng: random.Random):
    return tuple(
        tuple(rng.randrange(ring.mod) for _ in range(ring.f)) for _ in range(ring.e)
    )


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p, e", [(7, 2), (7, 3), (7, 4), (11, 6), (5, 1)])
def test_norm_matches_leibniz_and_is_multiplicative(p, e, f):
    ring = TruncatedRing(p, f, e, 3)
    rng = random.Random(p * 100 + e * 10 + f)
    for _ in range(4):
        a, b = _random_element(ring, rng), _random_element(ring, rng)
        na, nb = ring.norm_to_unramified(a), ring.norm_to_unramified(b)
        assert na == leibniz_norm(ring, a)
        assert ring.norm_to_unramified(ring.mul(a, b)) == ring.ring.mul(na, nb)
    # an element c of the coefficient ring has norm c^e
    c = ring.ring.reduce([2, 1][:f])
    scalar = (c,) + (ring.ring.zero(),) * (e - 1)
    assert ring.norm_to_unramified(scalar) == ring.ring.pow(c, e)


@pytest.mark.parametrize("q, e, bound", [(49, 4, 16), (125, 3, 12)])
def test_norm_coefficient_ring_product_budget(q, e, bound):
    p = 7 if q == 49 else 5
    ring = TruncatedRing(p, 1, e, 6)
    calls = []
    mul = ring.ring.mul

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    ring.ring.mul = counted
    a = _random_element(ring, random.Random(e))
    ring.norm_to_unramified(a)
    assert len(calls) <= bound
