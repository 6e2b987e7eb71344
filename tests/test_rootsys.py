"""Root-system layer: closure counts, Weyl words, eigenvalue exponents.

Oracles used here:
  * Euclidean-realization closure (Fractions) for coroot counts, independent
    of the expansion-coordinate path in the package.
  * sympy charpoly as an independent route to eigenvalue exponents.
  * direct matrix powers for element orders.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from forge import linalg
from forge.rootsys import (
    Coroot,
    DiagramAutomorphism,
    RootSystemType,
    build_root_system,
    coxeter_number,
    coxeter_number_product,
    cyclotomic_exponents,
    is_elliptic,
    longest_element,
    minus_one_in_W_delta,
    standard_involution,
    trivial_automorphism,
    weyl_apply,
    weyl_from_word,
    weyl_identity,
    weyl_order,
)

ALL_TYPES = (
    [RootSystemType("A", s) for s in range(1, 9)]
    + [RootSystemType("B", s) for s in range(2, 9)]
    + [RootSystemType("C", s) for s in range(3, 9)]
    + [RootSystemType("D", s) for s in range(4, 9)]
    + [RootSystemType("E", s) for s in (6, 7, 8)]
    + [RootSystemType("F", 4), RootSystemType("G", 2)]
)


# ---------------------------------------------------------------------------
# oracle: closure over a Euclidean realization with exact Fractions
# ---------------------------------------------------------------------------


def euclidean_simple_roots(t: RootSystemType):
    s = t.rank
    dim = s + 1 if t.family == "A" else (3 if t.family == "G" else s)

    def e(i, c=1):
        v = [Fraction(0)] * dim
        v[i] = Fraction(c)
        return tuple(v)

    def vsub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def vadd(a, b):
        return tuple(x + y for x, y in zip(a, b))

    if t.family == "A":
        return [vsub(e(i), e(i + 1)) for i in range(s)]
    if t.family in ("B", "D", "C"):
        chain = [vsub(e(i), e(i + 1)) for i in range(s - 1)]
        if t.family == "B":
            return chain + [e(s - 1)]
        if t.family == "C":
            return chain + [e(s - 1, 2)]
        return chain[: s - 1] + [vadd(e(s - 2), e(s - 1))]
    if t.family == "F":
        half = tuple(Fraction(c, 2) for c in (1, -1, -1, -1))
        return [vsub(e(1), e(2)), vsub(e(2), e(3)), e(3), half]
    if t.family == "G":
        return [vsub(e(0), e(1)), (Fraction(-2), Fraction(1), Fraction(1))]
    # E6/E7/E8: Bourbaki realization in R^8, restricted to the first `s` roots
    a1 = (
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(-1, 2),
        Fraction(1, 2),
    )
    roots8 = [a1, tuple(map(Fraction, (1, 1, 0, 0, 0, 0, 0, 0)))]
    for i in range(6):
        v = [Fraction(0)] * 8
        v[i + 1] = Fraction(1)
        v[i] = Fraction(-1)
        roots8.append(tuple(v))
    return roots8[: t.rank]


def oracle_coroot_count(t: RootSystemType) -> int:
    simples = euclidean_simple_roots(t)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def coroot(v):
        n = dot(v, v)
        return tuple(2 * x / n for x in v)

    cors = [coroot(v) for v in simples]
    seen = set(cors)
    frontier = list(seen)
    while frontier:
        new = []
        for v in frontier:
            for c in cors:
                pair = dot(v, c) * 2 / dot(c, c)
                w = tuple(x - pair * y for x, y in zip(v, c))
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return len(seen)


# ---------------------------------------------------------------------------
# construction and counts
# ---------------------------------------------------------------------------


def test_rank_constraints():
    for fam, bad in [("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1)]:
        with pytest.raises(ValueError):
            RootSystemType(fam, bad)


def test_cartan_matrices_valid():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        c = rs.cartan
        for i in range(t.rank):
            assert c[i][i] == 2
            for j in range(t.rank):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)
                    assert c[i][j] * c[j][i] in (0, 1, 2, 3)


def test_coroot_count_small_types_match_euclidean_oracle():
    for t in [
        RootSystemType.parse(x)
        for x in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "G2", "E6")
    ]:
        rs = build_root_system(t)
        assert len(rs.coroots) == oracle_coroot_count(t), str(t)


def test_named_counts():
    assert len(build_root_system(RootSystemType.parse("A2")).coroots) == 6
    assert len(build_root_system(RootSystemType.parse("D5")).coroots) == 40
    assert len(build_root_system(RootSystemType.parse("E6")).coroots) == 72


def test_e6_positive_coroots_match_published_families():
    rs = build_root_system(RootSystemType.parse("E6"))

    def vec(pairs):
        v = [0] * 6
        for idx, c in pairs:
            v[idx - 1] += c
        return tuple(v)

    fam = []
    for j in range(2, 7):
        fam.append(vec([(k, 1) for k in range(1, j + 1)] + [(2, -1)]))
    for i in range(3, 7):
        for j in range(i, 7):
            fam.append(vec([(k, 1) for k in range(i, j + 1)]))
    for j in range(3, 7):
        fam.append(vec([(k, 1) for k in range(2, j + 1)] + [(3, -1)]))
    for i in (1, 2):
        fam.append(vec([(k, 1) for k in range(i, 5)]))
    for i in (1, 2):
        for j in (5, 6):
            fam.append(vec([(k, 1) for k in range(i, j + 1)]))
    for i in (1, 2):
        for j in (5, 6):
            fam.append(vec([(k, 1) for k in range(i, j + 1)] + [(4, 1)]))
    fam += [
        (0, 1, 1, 2, 2, 1),
        (1, 1, 1, 2, 2, 1),
        (1, 1, 2, 2, 1, 0),
        (1, 1, 2, 2, 1, 1),
        (1, 1, 2, 2, 2, 1),
        (1, 1, 2, 3, 2, 1),
        (1, 2, 2, 3, 2, 1),
    ]
    assert len(fam) == 36
    assert set(fam) == {c.expansion for c in rs.positive_coroots}


# ---------------------------------------------------------------------------
# Coxeter numbers
# ---------------------------------------------------------------------------


def test_coxeter_table():
    for s in range(1, 9):
        assert coxeter_number(RootSystemType("A", s)) == s + 1
    for s in range(2, 9):
        assert coxeter_number(RootSystemType("B", s)) == 2 * s
    for s in range(3, 9):
        assert coxeter_number(RootSystemType("C", s)) == 2 * s
    for s in range(4, 9):
        assert coxeter_number(RootSystemType("D", s)) == 2 * s - 2
    assert coxeter_number(RootSystemType("E", 6)) == 12
    assert coxeter_number(RootSystemType("E", 7)) == 18
    assert coxeter_number(RootSystemType("E", 8)) == 30
    assert coxeter_number(RootSystemType("F", 4)) == 12
    assert coxeter_number(RootSystemType("G", 2)) == 6


def test_coxeter_product_and_torus():
    assert coxeter_number_product([]) == 1
    assert (
        coxeter_number_product([RootSystemType("A", 2), RootSystemType("G", 2)]) == 6
    )


# ---------------------------------------------------------------------------
# Weyl elements
# ---------------------------------------------------------------------------


def test_empty_word_is_identity():
    rs = build_root_system(RootSystemType.parse("A3"))
    w = weyl_from_word(rs, [])
    assert w.matrix == linalg.identity(3)


@given(st.sampled_from(ALL_TYPES), st.data())
def test_word_is_the_product_of_reflection_matrices(t, data):
    rs = build_root_system(t)
    word = data.draw(st.lists(st.integers(1, t.rank), max_size=40))
    want = linalg.identity(t.rank)
    for i in word:
        want = linalg.mat_mul(want, rs.reflections[i - 1])
    assert weyl_from_word(rs, word).matrix == want


def test_word_index_out_of_range():
    rs = build_root_system(RootSystemType.parse("A2"))
    with pytest.raises(ValueError):
        weyl_from_word(rs, [3])


def test_a2_coxeter_order_three_matrix_power_oracle():
    rs = build_root_system(RootSystemType.parse("A2"))
    w = weyl_from_word(rs, [1, 2])
    m2 = linalg.mat_mul(w.matrix, w.matrix)
    m3 = linalg.mat_mul(m2, w.matrix)
    assert m3 == linalg.identity(2) and m2 != linalg.identity(2)
    assert weyl_order(w) == 3


def test_an_coxeter_order():
    for s in (2, 3, 4, 7):
        rs = build_root_system(RootSystemType("A", s))
        w = weyl_from_word(rs, range(1, s + 1))
        assert weyl_order(w) == s + 1
        for i in range(1, s):
            img = weyl_apply(w, rs.simple_coroots[i - 1])
            assert img.expansion == rs.simple_coroots[i].expansion
        img = weyl_apply(w, rs.simple_coroots[s - 1])
        assert img.expansion == tuple([-1] * s)


def test_e6_battery():
    rs = build_root_system(RootSystemType.parse("E6"))
    wh = weyl_from_word(rs, [2, 3, 5, 1, 4, 6])
    assert weyl_order(wh) == 12
    assert cyclotomic_exponents(wh, 12) == (1, 4, 5, 7, 8, 11)
    w = wh.power(4)
    assert is_elliptic(w)
    expected = {
        1: (-1, -1, -1, -1, 0, 0),
        2: (1, 0, 1, 1, 1, 1),
        3: (1, 1, 1, 2, 1, 0),
        4: (-1, -1, -2, -3, -2, -1),
        5: (0, 1, 1, 2, 1, 1),
        6: (0, -1, 0, -1, -1, -1),
    }
    for i, img in expected.items():
        assert weyl_apply(w, rs.simple_coroots[i - 1]).expansion == img


def test_d_family_coxeter_action():
    for s in (5, 7):
        rs = build_root_system(RootSystemType("D", s))
        w = weyl_from_word(rs, range(1, s + 1))
        assert weyl_order(w) == 2 * s - 2
        for i in range(1, s - 2):
            assert (
                weyl_apply(w, rs.simple_coroots[i - 1]).expansion
                == rs.simple_coroots[i].expansion
            )
        assert weyl_apply(w, rs.simple_coroots[s - 3]).expansion == (1,) * s
        assert weyl_apply(w, rs.simple_coroots[s - 2]).expansion == tuple(
            [-1] * (s - 1) + [0]
        )
        assert weyl_apply(w, rs.simple_coroots[s - 1]).expansion == tuple(
            [-1] * (s - 2) + [0, -1]
        )


def test_weyl_apply_identity_and_dimension_error():
    rs = build_root_system(RootSystemType.parse("B3"))
    ident = weyl_identity(rs)
    for c in rs.coroots:
        assert weyl_apply(ident, c) == c
    other = build_root_system(RootSystemType.parse("A2"))
    with pytest.raises(ValueError):
        weyl_apply(ident, other.simple_coroots[0])


def test_weyl_order_errors_on_infinite_order():
    shear = Coroot((1, 1))  # not used; just building a non-Weyl matrix below
    from forge.rootsys import WeylElement

    bad = WeylElement(((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        weyl_order(bad, bound=50)
    del shear


def test_is_elliptic_basics():
    rs = build_root_system(RootSystemType.parse("E6"))
    assert not is_elliptic(weyl_identity(rs))
    minus = linalg.mat_scale(-1, linalg.identity(6))
    from forge.rootsys import WeylElement

    assert is_elliptic(WeylElement(minus))


def test_cyclotomic_exponents_identity_and_a2():
    rs = build_root_system(RootSystemType.parse("A2"))
    assert cyclotomic_exponents(weyl_identity(rs), 1) == (0, 0)
    w = weyl_from_word(rs, [1, 2])
    assert cyclotomic_exponents(w, 3) == (1, 2)
    with pytest.raises(ValueError):
        cyclotomic_exponents(w, 2)


COXETER_EXPONENTS = {
    "A": lambda s: list(range(1, s + 1)),
    "B": lambda s: list(range(1, 2 * s, 2)),
    "C": lambda s: list(range(1, 2 * s, 2)),
    "D": lambda s: sorted(list(range(1, 2 * s - 2, 2)) + [s - 1]),
    "E": lambda s: {
        6: [1, 4, 5, 7, 8, 11],
        7: [1, 5, 7, 9, 11, 13, 17],
        8: [1, 7, 11, 13, 17, 19, 23, 29],
    }[s],
    "F": lambda s: [1, 5, 7, 11],
    "G": lambda s: [1, 5],
}


def test_coxeter_element_exponents_all_types_with_sympy_charpoly_oracle():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        w = weyl_from_word(rs, range(1, t.rank + 1))
        h = coxeter_number(t)
        assert weyl_order(w) == h
        exps = cyclotomic_exponents(w, h)
        assert len(exps) == t.rank
        assert list(exps) == COXETER_EXPONENTS[t.family](t.rank)
        # independent route: sympy characteristic polynomial
        m = sympy.Matrix(w.matrix)
        sym_poly = sympy.Poly(m.charpoly().as_expr(), sympy.Symbol("lambda"))
        own_poly = sympy.Poly(
            list(linalg.charpoly(w.matrix)), sympy.Symbol("lambda")
        )
        assert sym_poly == own_poly


# ---------------------------------------------------------------------------
# closure, highest coroot, longest element
# ---------------------------------------------------------------------------


def test_reflection_closure_under_all_weyl_images():
    for name in ("A3", "B3", "D4", "G2", "F4"):
        rs = build_root_system(RootSystemType.parse(name))
        w = weyl_from_word(rs, list(range(1, rs.rank + 1)) * 2)
        for c in rs.coroots:
            assert rs.contains(weyl_apply(w, c).expansion)


@given(st.data())
def test_random_words_permute_coroots(data):
    name = data.draw(st.sampled_from(["A2", "B2", "C3", "D4", "G2"]))
    rs = build_root_system(RootSystemType.parse(name))
    word = data.draw(st.lists(st.integers(1, rs.rank), max_size=12))
    w = weyl_from_word(rs, word)
    images = {weyl_apply(w, c).expansion for c in rs.coroots}
    assert images == {c.expansion for c in rs.coroots}


def test_highest_coroot_height_is_coxeter_minus_one():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        assert rs.highest_coroot().height == coxeter_number(t) - 1


def test_coroot_heights_bounded_and_nonzero():
    for t in ALL_TYPES:
        rs = build_root_system(t)
        h = coxeter_number(t)
        for c in rs.coroots:
            assert 0 < abs(c.height) < h


def test_longest_element_involution_and_negation():
    for name in ("A2", "A3", "B2", "B4", "C3", "D4", "D5", "E6", "F4", "G2"):
        rs = build_root_system(RootSystemType.parse(name))
        w0 = longest_element(rs)
        assert weyl_order(w0) in (1, 2)
        pos = {c.expansion for c in rs.positive_coroots}
        neg = {weyl_apply(w0, c).expansion for c in rs.positive_coroots}
        assert neg == {tuple(-x for x in v) for v in pos}


def test_minus_one_in_w_delta():
    e6 = build_root_system(RootSystemType.parse("E6"))
    assert not minus_one_in_W_delta(e6, trivial_automorphism(e6))
    assert minus_one_in_W_delta(e6, standard_involution(e6))

    d4 = build_root_system(RootSystemType.parse("D4"))
    assert minus_one_in_W_delta(d4, trivial_automorphism(d4))

    b2 = build_root_system(RootSystemType.parse("B2"))
    assert minus_one_in_W_delta(b2, trivial_automorphism(b2))

    a3 = build_root_system(RootSystemType.parse("A3"))
    assert not minus_one_in_W_delta(a3, trivial_automorphism(a3))
    assert minus_one_in_W_delta(a3, standard_involution(a3))

    d5 = build_root_system(RootSystemType.parse("D5"))
    assert not minus_one_in_W_delta(d5, trivial_automorphism(d5))
    assert minus_one_in_W_delta(d5, standard_involution(d5))


def test_diagram_automorphism_validation_and_triality():
    d4 = build_root_system(RootSystemType.parse("D4"))
    tri = DiagramAutomorphism((3, 2, 4, 1))
    tri.validate(d4)
    assert tri.order() == 3
    with pytest.raises(ValueError):
        minus_one_in_W_delta(d4, tri)
    e6 = build_root_system(RootSystemType.parse("E6"))
    with pytest.raises(ValueError):
        DiagramAutomorphism((2, 1, 3, 4, 5, 6)).validate(e6)
