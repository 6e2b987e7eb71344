"""Coefficient ring, finite models, double-coset operators, theorem checks.

Oracles: polynomial reduction by hand for the ring, orbit/coset counting by
enumeration for the spaces and operators.
"""

import functools
import math

import pytest
from hypothesis import given, strategies as st

from forge import kernel, linalg
from forge.congruence import (
    AM_PSI,
    AM_QUOTIENT,
    TRIVIAL,
    AmRing,
    FiniteModel,
    MatrixRep,
    build_space,
    builtin_cyclic_model,
    builtin_free_model,
    builtin_nonfree_model,
    builtin_zero_lambda_model,
    decompose_rational,
    generating_hecke_operators,
    hecke_operator,
    nonconstant_check,
    quotient_map_check,
    trivial_action_level,
    verify_congruence_theorem,
)
from forge.finitegroups import (
    CyclicGroup,
    DirectProduct,
    HeisenbergGroup,
    SymmetricGroup,
    closure,
)
from oracles import (
    act,
    base_set,
    cyclotomic_poly,
    double_coset_representatives,
    hecke_by_enumeration,
    hecke_by_scan,
    lambda_by_walk,
    poly_mul,
    u_p_elements,
)


# ---------------------------------------------------------------------------
# the coefficient ring
# ---------------------------------------------------------------------------


def test_ring_p3_m1_shape_and_quotient():
    ring = AmRing(3, 1, 2)
    assert ring.deg == 2  # free rank p^m - 1 over Z/p^K
    t = ring.psi(1)
    t_minus_1 = ring.sub(t, ring.one())
    assert ring.mod_T_minus_1(t_minus_1) == 0
    assert ring.mod_T_minus_1(ring.one()) == 1


def test_ring_rank_p3_m2():
    ring = AmRing(3, 2, 2)
    assert ring.deg == 8
    with pytest.raises(ValueError):
        AmRing(3, 2, 1)


def test_t_cubed_reduction_oracle_p3_m1():
    # T * T * T reduces to 1 via T^2 = -1 - T
    ring = AmRing(3, 1, 1)
    t = ring.psi(1)
    t2 = ring.mul(t, t)
    assert t2 == ring.from_coeffs([-1, -1])
    assert ring.mul(t2, t) == ring.one()


def test_t_pm_is_one():
    for p, m in ((3, 1), (3, 2), (5, 1)):
        ring = AmRing(p, m, m)
        assert ring.pow(ring.psi(1), p**m) == ring.one()


def test_psi_is_multiplicative_and_inverse():
    ring = AmRing(3, 2, 2)
    for a in range(9):
        for b in range(9):
            assert ring.mul(ring.psi(a), ring.psi(b)) == ring.psi(a + b)
        assert ring.mul(ring.psi(a), ring.psi(9 - a)) == ring.one()
        assert ring.mod_T_minus_1(ring.psi(a)) == 1
    assert ring.psi(0) == ring.one()


@given(st.data())
def test_ring_axioms_random_triples(data):
    p, m = data.draw(st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2)]))
    ring = AmRing(p, m, m)
    coeffs = st.lists(
        st.integers(0, p**m - 1), min_size=ring.deg, max_size=ring.deg
    )
    x = ring.from_coeffs(data.draw(coeffs))
    y = ring.from_coeffs(data.draw(coeffs))
    z = ring.from_coeffs(data.draw(coeffs))
    assert ring.mul(x, ring.mul(y, z)) == ring.mul(ring.mul(x, y), z)
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.mul(x, y) == ring.mul(y, x)


def test_quotient_is_ring_homomorphism():
    ring = AmRing(3, 2, 2)
    import random

    rng = random.Random(7)
    for _ in range(60):
        x = ring.from_coeffs([rng.randrange(81) for _ in range(8)])
        y = ring.from_coeffs([rng.randrange(81) for _ in range(8)])
        assert ring.mod_T_minus_1(ring.add(x, y)) == (
            ring.mod_T_minus_1(x) + ring.mod_T_minus_1(y)
        ) % 9
        assert ring.mod_T_minus_1(ring.mul(x, y)) == (
            ring.mod_T_minus_1(x) * ring.mod_T_minus_1(y)
        ) % 9


def test_fixed_module_bases():
    ring = AmRing(3, 2, 2)
    assert len(ring.fixed_module_basis(0)) == 0
    assert len(ring.fixed_module_basis(1)) == 2
    assert len(ring.fixed_module_basis(2)) == 8
    # degree bookkeeping of the cyclotomic factorization: 2 + 6 = 8
    assert len(cyclotomic_poly(3)) - 1 == 2
    assert len(cyclotomic_poly(9)) - 1 == 6


def test_cyclotomic_cofactor_is_the_product_of_levels():
    # the modulus 1 + T + ... + T^(p^m - 1) is prod_(j <= m) Phi_(p^j), and
    # the cofactor is the image of prod_(j > t) Phi_(p^j), both by the oracle
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3):
            ring = AmRing(p, m)
            levels = [list(cyclotomic_poly(p**j)) for j in range(1, m + 1)]
            assert functools.reduce(poly_mul, levels) == [1] * p**m, (p, m)
            for t in range(m + 1):
                cofactor = functools.reduce(poly_mul, levels[t:], [1])
                assert ring.cyclotomic_cofactor(t) == ring.from_coeffs(cofactor[::-1]), (p, m, t)


def test_fixed_module_basis_is_the_mul_chain():
    # the shift by T against cofactor * T^i through full ring products
    for p in (3, 5, 7):
        for m in (1, 2, 3):
            ring = AmRing(p, m)
            T = ring.psi(1)
            for t in range(m + 1):
                chain = [ring.cyclotomic_cofactor(t)]
                for _ in range(p**t - 2):
                    chain.append(ring.mul(T, chain[-1]))
                assert ring.fixed_module_basis(t) == (chain if t else []), (p, m, t)


# ---------------------------------------------------------------------------
# models, orbits, stabilizers
# ---------------------------------------------------------------------------


def test_lambda_homomorphism_rejects_bad_images():
    with pytest.raises(ValueError):
        FiniteModel(
            SymmetricGroup(2), CyclicGroup(9), [(1, 0)], [3], [1], 3, 2
        )  # 3 has additive order 3, image 1 has order 9


@pytest.mark.parametrize(
    "u_s, u_p, delta",
    [([(5, 0, 2)], [1], []), ([(1, 0, 2)], [9], []), ([(1, 0, 2)], [1], [((0, 1, 2), 9)])],
    ids=["u_s", "u_p", "delta"],
)
def test_model_rejects_generators_outside_their_group(u_s, u_p, delta):
    with pytest.raises(ValueError, match="not an element of its group"):
        FiniteModel(SymmetricGroup(3), CyclicGroup(9), u_s, u_p, [1], 3, 2, delta_gens=delta)


def test_order_bound_admits_the_bound_and_no_more():
    from forge.finitegroups import ORDER_BOUND

    assert ORDER_BOUND == 10**6
    for group in (SymmetricGroup(9), CyclicGroup(10**6), HeisenbergGroup(100)):
        group.check_order()  # 362,880 and 10^6 elements: at or under the bound
    for group in (SymmetricGroup(10), CyclicGroup(10**6 + 1), HeisenbergGroup(101)):
        with pytest.raises(ValueError, match="ORDER_BOUND"):
            group.check_order()
    with pytest.raises(ValueError, match="ORDER_BOUND"):
        FiniteModel(SymmetricGroup(10**30), CyclicGroup(9), [], [1], [1], 3, 2)
    with pytest.raises(ValueError, match="ORDER_BOUND"):
        FiniteModel(SymmetricGroup(3), CyclicGroup(9), [], [1], [1], 3, 10**30)


def test_order_bound_holds_for_the_groups_a_model_lists():
    # Z/1000 x Z/1001 has 1,001,000 elements: listed when lambda is walked
    # on it whole, never when lambda is split and its factors are listed
    s3, swap = SymmetricGroup(3), (1, 0, 2)
    gamma_p = DirectProduct(CyclicGroup(1000), CyclicGroup(1001))
    with pytest.raises(ValueError, match="ORDER_BOUND"):
        FiniteModel(s3, gamma_p, [swap], [(1, 1)], [1], 2, 3)
    model = FiniteModel(s3, gamma_p, [swap], [(1, 0), (0, 1)], [1, 0], 2, 3)
    assert len(model.orbit_data[0]) == 3
    assert "elements" not in vars(gamma_p)


def test_free_model_orbits_are_cosets():
    model = builtin_cyclic_model(3, 1)
    reps, _, stab = model.orbit_data
    # free right action: orbit count = index of U in the product group
    assert len(reps) == 3  # [S3 : <swap>]
    assert all(t == model.m for t in stab)
    assert len(base_set(model)) == 6 * 3


def test_free_model_dimension_formula():
    model = builtin_free_model(3, 1)
    triv = build_space(model, TRIVIAL)
    # dim = |Z| / |U_p x U_s| for free actions
    assert triv.dimension == len(base_set(model)) // (len(model.u_s) * len(u_p_elements(model)))


def test_nonfree_model_stabilizers():
    model = builtin_nonfree_model(3, 2)
    reps, _, stab = model.orbit_data
    assert all(t == 1 for t in stab)  # lambda(Stab) = p^(m-1) Z / p^m


def test_model_config_round_trip():
    for model in (builtin_free_model(3, 1), builtin_nonfree_model(3, 2)):
        cfg = model.to_config()
        again = FiniteModel.from_config(cfg)
        assert again.to_config() == cfg
        assert again.orbit_data[2] == model.orbit_data[2]


def test_closure_values_and_disagreements():
    c6 = CyclicGroup(6)
    values, clashes = closure(0, [2, 3], c6.mul)
    assert list(values.items()) == [(x, None) for x in (0, 2, 3, 4, 5, 1)]
    assert clashes == []
    # 1 -> 2 in Z/12 is a homomorphism on Z/6
    values, clashes = closure(0, [1], c6.mul, lambda v, _, k: (v + 2) % 12, 0)
    assert list(values.items()) == [(0, 0), (1, 2), (2, 4), (3, 6), (4, 8), (5, 10)]
    assert clashes == []
    # 1 -> 1 is not: the edge 5 -> 0 carries 6 where 0 is stored
    values, clashes = closure(0, [1], c6.mul, lambda v, _, k: (v + 1) % 12, 0)
    assert list(values.values()) == [0, 1, 2, 3, 4, 5]
    assert clashes == [(6, 0)]
    # the carry is handed the edge's source point
    values, clashes = closure(0, [1], c6.mul, lambda v, x, k: x, None)
    assert list(values.items()) == [(0, None), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]
    assert clashes == [(5, None)]


def scanned_stab_exponents(model: FiniteModel) -> tuple:
    """Reference: lambda(Stab) found by acting with all of U_S x U_p."""
    mod = model.p**model.m
    u_p, lam = u_p_elements(model), lambda_by_walk(model)
    out = []
    for z0 in model.orbit_data[0]:
        images = {0}
        for us in model.u_s:
            for up in u_p:
                if act(model, z0, (us, up)) == z0:
                    images.add(lam[up])
        g = math.gcd(mod, *images)
        t = kernel.vp(g, model.p)
        assert g == model.p**t
        out.append(t)
    return tuple(out)


def delta_models() -> list:
    s3 = SymmetricGroup(3)
    swap, cyc, tau = (1, 0, 2), (1, 2, 0), (2, 1, 0)
    heis9 = DirectProduct(HeisenbergGroup(3), CyclicGroup(9))
    heis_gens = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 0), 1)]
    return [
        FiniteModel(s3, CyclicGroup(9), [], [1], [1], 3, 2, delta_gens=[(swap, 3)]),
        FiniteModel(s3, CyclicGroup(27), [cyc], [3], [1], 3, 2, delta_gens=[(swap, 9)]),
        FiniteModel(s3, CyclicGroup(25), [swap], [1], [2], 5, 2, delta_gens=[(swap, 5)]),
        FiniteModel(
            s3,
            DirectProduct(CyclicGroup(9), CyclicGroup(3)),
            [swap],
            [(1, 0), (0, 1)],
            [1, 3],
            3,
            2,
            delta_gens=[(cyc, (3, 1))],
        ),
        FiniteModel(
            s3, heis9, [swap], heis_gens, [3, 0, 1], 3, 2, delta_gens=[(swap, ((0, 0, 1), 3))]
        ),
        # tau's conjugates meet U_S = <swap> on some orbits only: mixed t
        FiniteModel(s3, CyclicGroup(4), [swap], [1], [1], 2, 2, delta_gens=[(tau, 2)]),
        FiniteModel(s3, CyclicGroup(8), [swap], [1], [1], 2, 3, delta_gens=[(tau, 4)]),
    ]


def test_schreier_stabilizers_match_the_scan_on_builtin_models():
    for p in (3, 5):
        for m in (1, 2):
            for build in (
                builtin_free_model,
                builtin_nonfree_model,
                builtin_cyclic_model,
                builtin_zero_lambda_model,
            ):
                model = build(p, m)
                assert model.orbit_data[2] == scanned_stab_exponents(model), model.name


def test_schreier_stabilizers_match_the_scan_with_nontrivial_delta():
    exponents = []
    for model in delta_models():
        exponents.append(model.orbit_data[2])
        assert exponents[-1] == scanned_stab_exponents(model)
    assert exponents == [(1, 1, 1), (1, 1, 1), (1, 1), (2,), (1, 1), (2, 1), (3, 2)]


def walked_orbit_data(model: FiniteModel):
    """Reference: the Schreier walk of U over the whole base set; with
    Delta = 1 it is all of Gamma_S x Gamma_p, acted on by the product's own
    multiplication.  Returns (reps, orbit_index, lam_to, stab_exponents),
    the last three as tables over every base-set point."""
    es, ep = model.gamma_s.identity(), model.gamma_p.identity()
    gens = [(gs, ep) for gs in model.u_s_gens] + [(es, gp) for gp in model.u_p_gens]
    lam_gens = [0] * len(model.u_s_gens) + [model.lam[gp] for gp in model.u_p_gens]
    mod = model.p**model.m
    orbit_index, lam_to, reps, stab_exponents = {}, {}, [], []
    for z0 in base_set(model):
        if z0 in orbit_index:
            continue
        orbit, clashes = closure(
            z0,
            gens,
            lambda z, g: act(model, z, g),
            lambda lam, _, k: (lam + lam_gens[k]) % mod,
            0,
        )
        stab_exponents.append(kernel.vp(math.gcd(mod, *(a - b for a, b in clashes)), model.p))
        orbit_index.update(dict.fromkeys(orbit, len(reps)))
        lam_to.update(orbit)
        reps.append(z0)
    return tuple(reps), orbit_index, lam_to, tuple(stab_exponents)


def assert_locate_is_the_walk(model: FiniteModel) -> None:
    """orbit_data against one walk, locate at every point of Gamma_S x
    Gamma_p.  The orbit index is exact.  Transporters to z differ by the
    stabilizer, so lambda is compared mod lambda(Stab) = p^t, all that a
    transporter fixes; with Delta = 1 the walk gives t = m, the transporter
    is unique and the comparison exact."""
    reps, orbit_index, lam_to, stab = walked_orbit_data(model)
    got_reps, locate, got_stab = model.orbit_data
    assert (got_reps, got_stab) == (reps, stab), model.name
    assert len(orbit_index) == len(base_set(model))
    e = model.product.identity()
    for z in model.product.elements:
        point = act(model, z, e)  # z's coset Delta*z in the base set
        j, lam = locate(z)
        assert j == orbit_index[point], (model.name, z)
        assert (lam - lam_to[point]) % model.p ** stab[j] == 0, (model.name, z)


def hand_built_model() -> FiniteModel:
    """U_S of index 3 in S_3 and U_p = Z/3 x Z/9 of index 9 in Heis(3) x Z/9:
    both factors have several orbits, and lambda is nonzero on each
    generator."""
    return FiniteModel(
        SymmetricGroup(3),
        DirectProduct(HeisenbergGroup(3), CyclicGroup(9)),
        [(1, 0, 2)],
        [((1, 0, 0), 0), ((0, 0, 0), 1)],
        [3, 1],
        3,
        2,
        name="hand-built",
    )


def free_models() -> list:
    models = [
        build(p, m)
        for p in (3, 5)
        for m in (1, 2, 3)
        for build in (builtin_free_model, builtin_cyclic_model, builtin_zero_lambda_model)
    ]
    return models + [hand_built_model()]


def test_free_orbit_data_equals_the_walk():
    models = free_models()
    for model in models:
        assert_locate_is_the_walk(model)
    reps, locate, stab = models[-1].orbit_data
    assert len(reps) == 3 * 9 and stab == (2,) * 27
    assert len({locate(z)[0] for z in base_set(models[-1])}) == 27


def test_locate_equals_the_walk_with_nontrivial_delta():
    for model in delta_models():
        assert_locate_is_the_walk(model)


def lambda_of(model: FiniteModel, u) -> int:
    """lambda(u) from the model's own tables: one per factor it walked."""
    if len(model._lam_factors) == 1:
        return model._lam_factors[0][1][u]
    (_, left), (_, right) = model._lam_factors
    return (left[u[0]] + right[u[1]]) % model.p**model.m


def test_split_lambda_equals_the_walk():
    s3, swap = SymmetricGroup(3), (1, 0, 2)
    z9_z3 = DirectProduct(CyclicGroup(9), CyclicGroup(3))
    # (1, 1) is nontrivial in both factors: lambda is walked whole
    diagonal = FiniteModel(s3, z9_z3, [swap], [(1, 1)], [1], 3, 2, name="diagonal")
    # one split level: the left factor Z/9 x Z/3 is walked whole
    nested = FiniteModel(
        s3,
        DirectProduct(z9_z3, CyclicGroup(3)),
        [swap],
        [((3, 1), 0), ((0, 0), 1)],
        [3, 6],
        3,
        2,
        name="nested",
    )
    # no generator in the right factor: U_R = 1, a coset per element of Z/3
    left_only = FiniteModel(s3, z9_z3, [swap], [(3, 0)], [3], 3, 2, name="left-only")
    models = [
        model
        for model in (*free_models(), *delta_models(), diagonal, nested, left_only)
        if isinstance(model.gamma_p, DirectProduct)
    ]
    assert len(models) == 6 + 1 + 2 + 3
    for model in models:
        assert len(model._lam_factors) == (1 if model is diagonal else 2), model.name
        walked = lambda_by_walk(model)
        assert all(lambda_of(model, u) == lam for u, lam in walked.items()), model.name
    # the two tests above check locate against the walk on the other models
    for model in (diagonal, nested, left_only):
        assert_locate_is_the_walk(model)
    assert [len(model.orbit_data[0]) for model in (diagonal, nested, left_only)] == [
        3 * 3,
        3 * 9,
        3 * 3 * 3,
    ]
    # images that fail in one factor only: (0, 1) of order 3 sent to 1 of
    # order 9, then (3, 0) of order 3 sent to 1 while (0, 1) goes to 3
    for gens, images in (([(1, 0), (0, 1)], [1, 1]), ([(3, 0), (0, 1)], [1, 3])):
        with pytest.raises(ValueError, match="lambda is not a homomorphism"):
            FiniteModel(s3, z9_z3, [swap], gens, images, 3, 2)


def test_no_model_lists_the_product():
    builtin = [
        build(p, m)
        for p in (3, 5)
        for m in (1, 2, 3)
        for build in (
            builtin_free_model,
            builtin_nonfree_model,
            builtin_cyclic_model,
            builtin_zero_lambda_model,
        )
    ]
    free = builtin_free_model(5, 3)
    # Heis(5) x Z/125 at p with Delta != 1: 6 * 5^3 * 5^3 product elements
    heis = FiniteModel(
        free.gamma_s,
        free.gamma_p,
        free.u_s_gens,
        free.u_p_gens,
        [free.lam[g] for g in free.u_p_gens],
        5,
        3,
        delta_gens=[((1, 0, 2), ((0, 0, 1), 25))],
    )
    for model in (*builtin, *delta_models(), free, heis):
        verify_congruence_theorem(model, N=2)
        quotient_map_check(model)
        assert "elements" not in vars(model.product), model.name
    # lambda was split: Gamma_p's 5^3 * 5^3 elements are never listed either
    assert "elements" not in vars(free.gamma_p)
    # U_p is all of Gamma_p, where lambda(a, b, c; k) = a * 5^2 + k, and
    # (2, 1, 0) lies in the last coset of <swap>
    reps, locate, stab = free.orbit_data
    assert len(reps) == 3 and stab == (3, 3, 3)
    assert locate(((2, 1, 0), ((4, 3, 2), 17))) == (2, (4 * 5**2 + 17) % 5**3)


# ---------------------------------------------------------------------------
# Hecke operators
# ---------------------------------------------------------------------------


def test_identity_operator_is_identity_matrix():
    model = builtin_cyclic_model(3, 1)
    op = hecke_operator(model, model.gamma_s.identity())
    triv = build_space(model, TRIVIAL)
    assert op.matrix(triv) == linalg.identity(triv.dimension)


def test_coset_decomposition_s3_oracle():
    model = builtin_cyclic_model(3, 1)
    cycle = (1, 2, 0)  # a 3-cycle in S3
    op = hecke_operator(model, cycle)
    # oracle: |U g U| / |U| by direct enumeration
    g3 = model.gamma_s
    double = {
        g3.mul(g3.mul(h1, cycle), h2) for h1 in model.u_s for h2 in model.u_s
    }
    assert len(op.coset_reps) == len(double) // len(model.u_s)
    assert len(op.coset_reps) == 2


def test_operator_matrices_integer_and_row_sums():
    model = builtin_free_model(3, 1)
    triv = build_space(model, TRIVIAL)
    for op in generating_hecke_operators(model):
        mat = op.matrix(triv)
        total = len(op.coset_reps)
        for row in range(len(mat)):
            assert sum(mat[row][col] for col in range(len(mat))) % 3 == total % 3


def test_hecke_matrices_match_the_enumeration():
    # every generating operator on the multi-coset model and on every model
    # with Delta != 1, trivial and quotient coefficients alike
    for model in (hand_built_model(), *delta_models()):
        triv, quot = build_space(model, TRIVIAL), build_space(model, AM_QUOTIENT)
        for op in generating_hecke_operators(model):
            expect = hecke_by_enumeration(model, op.coset_reps)
            assert op.matrix(triv) == op.matrix(quot) == expect, (model.name, op.gamma)


def coset_walk_models() -> list:
    """The builtin, Delta and hand-built models, and U_S in Gamma_S beyond
    them: trivial, non-normal and normal in S_3 and S_4, subgroups of Z/12
    and of Heis(3), and U_S in S_3 x Z/4 inside one factor or neither."""
    s3, s4 = SymmetricGroup(3), SymmetricGroup(4)
    pairs = [
        (s3, []),
        (s3, [(1, 0, 2)]),
        (s3, [(1, 2, 0)]),
        (s3, [(1, 0, 2), (1, 2, 0)]),
        (s4, []),
        (s4, [(1, 0, 2, 3)]),
        (s4, [(1, 2, 3, 0)]),
        (s4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
        (s4, [(1, 0, 3, 2), (2, 3, 0, 1)]),  # the normal Klein four-group
        (s4, [(1, 2, 0, 3), (0, 2, 3, 1)]),  # A_4
        (CyclicGroup(12), []),
        (CyclicGroup(12), [4]),
        (CyclicGroup(12), [3, 2]),
        (HeisenbergGroup(3), [(1, 0, 0)]),
        (HeisenbergGroup(3), [(0, 0, 1)]),
        (HeisenbergGroup(3), [(1, 0, 0), (0, 1, 1)]),
        (DirectProduct(s3, CyclicGroup(4)), [((1, 0, 2), 0)]),
        (DirectProduct(s3, CyclicGroup(4)), [((1, 0, 2), 1)]),
        (DirectProduct(s3, CyclicGroup(4)), [((1, 2, 0), 2), ((0, 1, 2), 1)]),
    ]
    builtin = [
        build(3, m)
        for m in (1, 2)
        for build in (
            builtin_free_model,
            builtin_nonfree_model,
            builtin_cyclic_model,
            builtin_zero_lambda_model,
        )
    ]
    extra = [
        FiniteModel(group, CyclicGroup(2), gens, [1], [1], 2, 1, name=f"coset-pair-{i}")
        for i, (group, gens) in enumerate(pairs)
    ]
    return [*builtin, *delta_models(), hand_built_model(), *extra]


def test_hecke_operators_equal_the_scanning_oracles():
    # the walk on the U_S coset table gives the operators, their order and
    # each operator's left cosets exactly as scanning the element sets does
    for model in coset_walk_models():
        want = [
            (g, hecke_by_scan(model, g))
            for g in double_coset_representatives(model.gamma_s, model.u_s)
        ]
        got = [(op.gamma, op.coset_reps) for op in generating_hecke_operators(model)]
        assert got == want, model.name
        for gamma in model.gamma_s.elements:
            assert hecke_operator(model, gamma).coset_reps == hecke_by_scan(model, gamma), (
                model.name,
                gamma,
            )


def test_gamma_must_be_away_from_p():
    model = builtin_cyclic_model(3, 1)
    with pytest.raises(ValueError):
        hecke_operator(model, (0, 1))


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------


def test_congruence_theorem_zero_lambda_trivially_identical():
    rep = verify_congruence_theorem(builtin_zero_lambda_model(3, 1))
    assert rep.passed


def test_congruence_theorem_builtin_models():
    for m in (1, 2):
        for N in (1, 2):
            rep = verify_congruence_theorem(builtin_free_model(3, m), N=N)
            assert rep.passed, (m, N)
            assert all(h["equal"] for h in rep.details["hecke"])


def test_congruence_theorem_also_on_nonfree():
    # the mod-p^m comparison holds regardless of freeness
    rep = verify_congruence_theorem(builtin_nonfree_model(3, 2))
    assert rep.passed


def test_decompose_rational_free_model():
    model = builtin_free_model(3, 2)
    space = build_space(model, AM_PSI)
    out = decompose_rational(space)
    norbits = len(space.orbit_reps)
    assert out["component_ranks"] == {1: norbits, 2: norbits}
    assert out["rational_dimension"] == norbits * 8  # (p^m - 1) per orbit
    assert out["degrees"] == {1: 2, 2: 6}


def test_decompose_rational_nonfree_model():
    model = builtin_nonfree_model(3, 2)
    space = build_space(model, AM_PSI)
    out = decompose_rational(space)
    norbits = len(space.orbit_reps)
    # stabilizer exponent 1 everywhere: only the level-1 component survives
    assert out["component_ranks"] == {1: norbits, 2: 0}
    assert out["rational_dimension"] == norbits * 2


def test_dimension_bookkeeping_free_action():
    model = builtin_free_model(3, 1)
    triv = build_space(model, TRIVIAL)
    full = build_space(model, AM_PSI)
    assert full.rational_rank() == (3 - 1) * triv.dimension


def test_quotient_map_check_free_vs_nonfree():
    ok, details = quotient_map_check(builtin_free_model(3, 1))
    assert ok
    assert all(row["surjective"] for row in details["orbits"])
    ok, details = quotient_map_check(builtin_nonfree_model(3, 2))
    assert not ok
    assert all(row["image_size"] == 3 for row in details["orbits"])
    ok, _ = quotient_map_check(builtin_zero_lambda_model(3, 2))
    assert ok  # zero character: quotient map bijective regardless of freeness


@functools.lru_cache(maxsize=None)
def bareiss_quotient_size(p: int, m: int, t: int) -> int:
    """Reference: |Fix/(T-1)Fix| from the determinant of T - 1 on the
    fixed-module basis at K = m + 1.  The coordinate matrix of the basis
    solves the shifted basis in one elimination; the centered lift of the
    result is C_g - 1, g = 1 + T + ... + T^(p^t - 1), whose integer
    determinant fraction-free Bareiss computes.  It depends on (p, m, t)
    only."""
    ring = AmRing(p, m, m + 1)
    basis = ring.fixed_module_basis(t)
    if not basis:
        return 1
    coord = linalg.mat_freeze([[b[c] for b in basis] for c in range(ring.deg)])
    shifted = [ring.sub(ring.mul(ring.psi(1), b), b) for b in basis]
    cols = linalg.solve_unit_pivot(coord, shifted, ring.p, ring.K)
    half = ring.mod // 2
    mat = tuple(zip(*([c - ring.mod if c > half else c for c in col] for col in cols)))
    n = len(basis)
    companion_minus_one = tuple(
        tuple(-1 - (i == c) if c == n - 1 else (i == c + 1) - (i == c) for c in range(n))
        for i in range(n)
    )
    assert mat == companion_minus_one
    det = linalg.det(mat)
    assert abs(det) == p**t  # +-g(1), exactly: p^t up to the unit -1
    return p ** kernel.vp(det % ring.mod, p)


def test_quotient_size_identity_matches_bareiss():
    models = [
        build(p, m)
        for p in (3, 5)
        for m in (1, 2, 3)
        for build in (builtin_free_model, builtin_cyclic_model, builtin_zero_lambda_model)
    ]
    models += [builtin_nonfree_model(p, m) for p in (3, 5) for m in (1, 2)]
    models += delta_models()
    seen = set()
    for model in models:
        _, details = quotient_map_check(model)
        for row, t in zip(details["orbits"], model.orbit_data[2]):
            assert row["stab_exponent"] == t
            assert row["quotient_size"] == bareiss_quotient_size(model.p, model.m, t)
            assert row["image_size"] == row["quotient_size"], model.name
            seen.add((model.p, model.m, t))
    # killed (t = 0), partial (0 < t < m) and free (t = m) orbits all occur
    assert {(3, 1, 0), (5, 1, 0), (3, 2, 1), (5, 2, 1), (2, 3, 2), (5, 3, 3)} <= seen


def test_quotient_map_check_asserts_the_basis_against_the_exponent(monkeypatch):
    # p * cofactor is still T^(p^t)-fixed, but its class is p^(m-t+1): the
    # image shrinks below the p^t the identity gives, and the check says so
    cofactor = AmRing.cyclotomic_cofactor
    monkeypatch.setattr(
        AmRing, "cyclotomic_cofactor", lambda ring, t: ring.smul(ring.p, cofactor(ring, t))
    )
    for model in (builtin_free_model(3, 1), builtin_nonfree_model(3, 2), delta_models()[-1]):
        with pytest.raises(AssertionError, match="image and quotient sizes disagree"):
            quotient_map_check(model)


def test_space_builds_one_fixed_basis_per_stabilizer_exponent(monkeypatch):
    calls = []
    basis = AmRing.fixed_module_basis
    monkeypatch.setattr(
        AmRing, "fixed_module_basis", lambda ring, t: calls.append(t) or basis(ring, t)
    )
    for model in (builtin_free_model(3, 1), builtin_nonfree_model(3, 2), *delta_models()):
        calls.clear()
        space = build_space(model, AM_PSI)
        assert sorted(calls) == sorted(set(space.stab_exponents))
        assert space.orbit_bases == [basis(space.ring, t) for t in space.stab_exponents]
        # a second request returns the model's space without building again
        calls.clear()
        assert build_space(model, AM_PSI) is space and calls == []


def test_killed_orbit_contributes_zero_submodule():
    model = builtin_nonfree_model(3, 1)  # stabilizer exponent 0: killed
    space = build_space(model, AM_PSI)
    assert all(t == 0 for t in space.stab_exponents)
    assert space.dimension == 0
    assert space.rational_rank() == 0


def test_full_ring_hecke_functoriality_free_model():
    # with a free action the full-ring operator matrix is the trivial one
    # tensored with the regular module: block structure over the T-basis
    model = builtin_cyclic_model(3, 1)
    triv = build_space(model, TRIVIAL)
    full = build_space(model, AM_PSI)
    for op in generating_hecke_operators(model):
        m_triv = op.matrix(triv)
        m_full = op.matrix(full)
        k, r = triv.dimension, 2  # ring rank p^m - 1 = 2
        assert len(m_full) == k * r
        for bi in range(k):
            for bj in range(k):
                block = [
                    [m_full[bi * r + i][bj * r + j] for j in range(r)]
                    for i in range(r)
                ]
                expect = [
                    [m_triv[bi][bj] if i == j else 0 for j in range(r)]
                    for i in range(r)
                ]
                assert block == expect


def test_full_ring_operator_commutes_with_quotient_map_nonfree():
    # naturality on models with partial fixed modules: reducing full-ring
    # functions at T=1 then applying the operator equals applying the
    # operator first; checked as matrix identity Q M_full = M_quot Q
    for model in (builtin_nonfree_model(3, 2), *delta_models()):
        full = build_space(model, AM_PSI)
        quot = build_space(model, AM_QUOTIENT)
        ring = full.ring
        p_m = model.p**model.m
        dim, korb = full.dimension, len(full.orbit_reps)
        assert dim == sum(model.p**t - 1 for t in full.stab_exponents)
        q_rows = [[0] * dim for _ in range(korb)]
        for col, (j, i) in enumerate(full.basis_index):
            q_rows[j][col] = ring.mod_T_minus_1(full.orbit_bases[j][i])
        for op in generating_hecke_operators(model):
            m_full = op.matrix(full)
            m_quot = op.matrix(quot)
            left = [
                [sum(q_rows[r][k] * m_full[k][c] for k in range(dim)) % p_m for c in range(dim)]
                for r in range(korb)
            ]
            right = [
                [sum(m_quot[r][k] * q_rows[k][c] for k in range(korb)) % p_m for c in range(dim)]
                for r in range(korb)
            ]
            assert left == right, (model.name, op.gamma)


# ---------------------------------------------------------------------------
# non-constant coefficients
# ---------------------------------------------------------------------------


def unipotent_rep(model, scale_exponent: int, K: int) -> MatrixRep:
    p = model.p
    images = {}
    for g in model.u_p_gens:
        z = g if isinstance(g, int) else 1
        images[g] = ((1, (p**scale_exponent * z) % p**K), (0, 1))
    return MatrixRep(2, K, images)


def test_nonconstant_trivial_rep_reduces_to_constant_case():
    model = builtin_cyclic_model(3, 2)
    rep = MatrixRep(2, 3, {g: linalg.identity(2) for g in model.u_p_gens})
    out = nonconstant_check(model, rep, 2)
    assert out.passed and not out.details["shrink"]
    assert out.details["dimV"] == 2


def test_nonconstant_pass_then_shrink():
    model = builtin_cyclic_model(3, 3)
    rep = unipotent_rep(model, 2, 3)  # trivial mod p^2, not mod p^3
    assert trivial_action_level(rep, 3) == 2
    out = nonconstant_check(model, rep, 2)
    assert out.passed and not out.details["shrink"]
    out = nonconstant_check(model, rep, 3)
    assert not out.passed and out.details["shrink"]
    assert out.details["trivial_level"] == 2


def test_nonconstant_dim1_nontrivial_mod_p():
    model = builtin_cyclic_model(3, 1)
    images = {1: ((1 + 3,),)}  # 1x1 matrices mod 9: nontrivial mod 9, trivial mod 3
    rep = MatrixRep(1, 2, images)
    assert trivial_action_level(rep, 3) == 1
    out = nonconstant_check(model, rep, 1)
    assert out.passed
    # scale to be nontrivial already mod p
    images = {1: ((2,),)}
    with pytest.raises(ValueError):
        # 2 has multiplicative order 6 mod 9 but additive generator has
        # order 3: not a representation of Z/3
        nonconstant_check(model, MatrixRep(1, 2, images), 1)


def test_abstract_unity_reduction_counterexample():
    """A lattice endomorphism whose reduction is the identity: the mod-p^m
    algebra quotient loses the nilpotent direction (matrix-level model of
    the hecke-quotient caveat)."""
    p, m = 3, 1
    alpha = ((1, 0), (0, 1 + p**m))
    # alpha - 1 reduces to 0 mod p^m but does not lie in p^m * Z[alpha]
    lattice = [((1, 0), (0, 1)), alpha]  # generators of Z[alpha] as a module
    target = linalg.mat_sub(alpha, linalg.identity(2))
    # solve target = p^m * (a*I + b*alpha) over the integers: impossible
    solutions = []
    for a in range(-(p ** (2 * m)), p ** (2 * m) + 1):
        for b in range(-(p ** (2 * m)), p ** (2 * m) + 1):
            cand = linalg.mat_add(
                linalg.mat_scale(a * p**m, lattice[0]),
                linalg.mat_scale(b * p**m, lattice[1]),
            )
            if all(
                (cand[i][j] - target[i][j]) % p ** (2 * m) == 0
                for i in range(2)
                for j in range(2)
            ):
                solutions.append((a, b))
    assert not solutions
