"""Finite congruence models: the cyclic-level coefficient ring, equivariant
function spaces, double-coset operators, and the exact mod-p^m comparisons.

The coefficient ring is Z_p[T]/(1+T+...+T^(p^m-1)) truncated at p^K; its
quotient by (T-1) is Z/p^m through evaluation at T=1.  A model is a product
group Gamma_S x Gamma_p with level structure U_S x U_p, a global subgroup
Delta acting on the left, and a character lambda on U_p valued in Z/p^m.
Function spaces are computed by orbit enumeration with exact stabilizer
bookkeeping; operators away from p are double-coset sums confined to the
Gamma_S factor, so they commute with the U_p-equivariance by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import kernel, linalg
from .cyclotomic import cyclotomic_poly
from .finitegroups import (
    DirectProduct,
    FiniteGroup,
    closure,
    double_coset_representatives,
    group_from_config,
    left_coset_representatives,
)

# ---------------------------------------------------------------------------
# coefficient ring
# ---------------------------------------------------------------------------


class AmRing(kernel.IntPolyRing):
    """Z_p[T]/(1 + T + ... + T^(p^m - 1)) with coefficients mod p^K."""

    def __init__(self, p: int, m: int, K: Optional[int] = None):
        K = m if K is None else K
        if K < m:
            raise ValueError("coefficient precision K must be at least m")
        self.p, self.m, self.K = p, m, K
        super().__init__((1,) * p**m, p**K)  # free rank deg = p^m - 1 over Z/p^K

    # -- elements ---------------------------------------------------------
    def from_coeffs(self, coeffs: Sequence[int]) -> tuple:
        return self.reduce(list(coeffs))

    # -- the character and the quotient ------------------------------------
    def psi(self, a: int) -> tuple:
        """The unit T^a for a mod p^m."""
        a %= self.p**self.m
        if a < self.deg:
            return tuple(1 if i == a else 0 for i in range(self.deg))
        return self.reduce([0] * a + [1])

    def mod_T_minus_1(self, a: tuple) -> int:
        """Evaluation at T = 1, valued in Z/p^m."""
        return sum(a) % self.p**self.m

    # -- cyclotomic structure ----------------------------------------------
    def modulus_poly(self) -> list[int]:
        return [1] * (self.deg + 1)

    def cyclotomic_cofactor(self, t: int) -> tuple:
        """Image of prod_(j > t) Phi_(p^j), the annihilator-module generator
        of the T^(p^t)-fixed part."""
        if not 0 <= t <= self.m:
            raise ValueError("t out of range")
        poly = [1]
        for j in range(t + 1, self.m + 1):
            poly = linalg.poly_mul(poly, list(cyclotomic_poly(self.p**j)))
        return self.from_coeffs(list(reversed(poly)))

    def fixed_module_basis(self, t: int) -> list[tuple]:
        """Basis of the T^(p^t)-fixed submodule: cofactor * T^i, a free
        direct summand of rank p^t - 1; verified to be fixed."""
        gen = self.cyclotomic_cofactor(t)
        basis = []
        cur = gen
        for _ in range(self.p**t - 1):
            basis.append(cur)
            cur = self.mul(cur, self.psi(1))
        killer = self.sub(self.pow(self.psi(1), self.p**t), self.one())
        for b in basis:
            assert self.is_zero(self.mul(killer, b))
        return basis


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class FiniteModel:
    """A product-group shadow of a level structure with a p-part character."""

    def __init__(
        self,
        gamma_s: FiniteGroup,
        gamma_p: FiniteGroup,
        u_s_gens: Sequence,
        u_p_gens: Sequence,
        lam_gen_images: Sequence[int],
        p: int,
        m: int,
        delta_gens: Sequence = (),
        name: str = "model",
    ):
        if not kernel.is_prime(p):
            raise ValueError(f"p must be prime, got p = {p}")
        if m < 1:
            raise ValueError(f"m must be at least 1, got m = {m}")
        self.gamma_s, self.gamma_p = gamma_s, gamma_p
        self.p, self.m = p, m
        self.name = name
        self.product = DirectProduct(gamma_s, gamma_p)
        for gens, group in ((u_s_gens, gamma_s), (u_p_gens, gamma_p), (delta_gens, self.product)):
            if gens and not set(group.elements).issuperset(gens):
                raise ValueError(f"a generator in {list(gens)} is not an element of its group")
        self.u_s_gens = tuple(u_s_gens)
        self.u_p_gens = tuple(u_p_gens)
        self.u_s = gamma_s.generated_subgroup(self.u_s_gens)
        self.delta_gens = tuple(delta_gens)
        self.delta = self.product.generated_subgroup(self.delta_gens)
        self.lam = self._lambda_table(lam_gen_images)
        self.u_p = tuple(sorted(self.lam))

    def _lambda_table(self, gen_images: Sequence[int]) -> dict:
        """Propagate generator images through the subgroup; the walk compares
        lambda(x*g) with lambda(x) + lambda(g) once on every edge, which
        certifies the homomorphism property exactly."""
        if len(gen_images) != len(self.u_p_gens):
            raise ValueError("one image per u_p generator required")
        mod = self.p**self.m
        table, clashes = closure(
            self.gamma_p.identity(),
            self.u_p_gens,
            self.gamma_p.mul,
            lambda lam, k: (lam + gen_images[k]) % mod,
            0,
        )
        if clashes:
            raise ValueError("lambda is not a homomorphism")
        return table

    # -- base set -----------------------------------------------------------
    @cached_property
    def base_set(self) -> tuple:
        """Right cosets Delta\\(Gamma_S x Gamma_p), canonical representatives;
        with Delta trivial each coset is one element and stands for itself."""
        if len(self.delta) == 1:
            return self.product.elements
        coset_of = {}
        reps = []
        for g in self.product.elements:
            if g in coset_of:
                continue
            coset = sorted(self.product.mul(d, g) for d in self.delta)
            rep = coset[0]
            reps.append(rep)
            for x in coset:
                coset_of[x] = rep
        self._coset_of = coset_of
        return tuple(sorted(reps))

    def act(self, z, g) -> object:
        """Right action of the product group on the base set."""
        if len(self.delta) == 1:
            return self.product.mul(z, g)
        _ = self.base_set
        return self._coset_of[self.product.mul(z, g)]

    # -- orbits and stabilizers ----------------------------------------------
    @cached_property
    def orbit_data(self):
        """Orbits of U = U_S x U_p with transporter lambda-values.

        Returns (reps, orbit_index, lam_to, stab_exponents) where reps are
        the orbit minima in increasing order, lam_to[z] is lambda of the
        p-part of a transporter from the orbit representative to z, and
        stab_exponents[j] is t with lambda(Stab) = p^t * Z/p^m.

        With Delta trivial, U acts on Gamma_S x Gamma_p by right
        multiplication, factor by factor, and freely: z*u = z forces u = 1.
        Hence the orbit of (s, g) is the product s*U_S x g*U_p of a U_S-orbit
        on Gamma_S and a U_p-orbit on Gamma_p; its minimum in the product
        order is the pair of the factor minima; the transporter from
        (s0, g0) to (s, g) is the unique u = (s0^-1 s, g0^-1 g), so lam_to
        is the Gamma_p walk's lambda-value at g alone; and Stab = 1 gives
        lambda(Stab) = 0 = p^m * Z/p^m, i.e. t = m on every orbit.  Two
        factor walks replace the walk over the product.  Otherwise the
        walk runs on the base set and reads the stabilizers off its
        Schreier generators.
        """
        if len(self.delta) == 1:
            return self._free_orbit_data()
        es, ep = self.gamma_s.identity(), self.gamma_p.identity()
        gens = [(gs, ep) for gs in self.u_s_gens] + [(es, gp) for gp in self.u_p_gens]
        lam_gens = [0] * len(self.u_s_gens) + [self.lam[gp] for gp in self.u_p_gens]
        mod = self.p**self.m
        orbit_index: dict = {}
        lam_to: dict = {}
        reps = []
        stab_exponents = []
        for z0 in self.base_set:
            if z0 in orbit_index:
                continue
            orbit, clashes = closure(
                z0, gens, self.act, lambda lam, k: (lam + lam_gens[k]) % mod, 0
            )
            # a clash on the edge z -> z*g differs by lambda of the Schreier
            # generator t_z * g * t_(z*g)^(-1); these generate Stab(z0)
            g = math.gcd(mod, *(a - b for a, b in clashes))
            stab_exponents.append(kernel.vp(g, self.p))
            orbit_index.update(dict.fromkeys(orbit, len(reps)))
            lam_to.update(orbit)
            reps.append(z0)
        return tuple(reps), orbit_index, lam_to, tuple(stab_exponents)

    def _free_orbit_data(self):
        """orbit_data for Delta trivial, as products of factor orbits."""
        mod = self.p**self.m

        def right_orbits(group, gens, lam_gens):
            # each element's orbit index and transporter lambda, the minima
            index, lam, mins = {}, {}, []
            for x0 in group.elements:
                if x0 in index:
                    continue
                orbit, clashes = closure(
                    x0, gens, group.mul, lambda v, k: (v + lam_gens[k]) % mod, 0
                )
                assert not clashes, "right multiplication is not free"
                index.update(dict.fromkeys(orbit, len(mins)))
                lam.update(orbit)
                mins.append(x0)
            return index, lam, mins

        s_index, _, s_mins = right_orbits(self.gamma_s, self.u_s_gens, [0] * len(self.u_s_gens))
        p_index, p_lam, p_mins = right_orbits(
            self.gamma_p, self.u_p_gens, [self.lam[gp] for gp in self.u_p_gens]
        )
        width = len(p_mins)
        reps = tuple((s, g) for s in s_mins for g in p_mins)
        orbit_index = {
            (s, g): i * width + j for s, i in s_index.items() for g, j in p_index.items()
        }
        lam_to = {(s, g): lam for s in s_index for g, lam in p_lam.items()}
        return reps, orbit_index, lam_to, (self.m,) * len(reps)

    # -- serialization --------------------------------------------------------
    def to_config(self) -> dict:
        return {
            "name": self.name,
            "gamma_s": self.gamma_s.to_config(),
            "gamma_p": self.gamma_p.to_config(),
            "u_s": [_el_to_json(g) for g in self.u_s_gens],
            "u_p": [_el_to_json(g) for g in self.u_p_gens],
            "delta": [_el_to_json(g) for g in self.delta_gens],
            "lambda": {"images": [self.lam[g] for g in self.u_p_gens]},
            "p": self.p,
            "m": self.m,
        }

    @staticmethod
    def from_config(config: dict) -> "FiniteModel":
        """The model a parsed model file encodes; ValueError unless it is well
        formed and re-serializes to the same JSON value."""
        kernel.reject_float_and_bool(config)
        try:
            model = FiniteModel(
                group_from_config(config["gamma_s"]),
                group_from_config(config["gamma_p"]),
                [_el_from_json(g) for g in config["u_s"]],
                [_el_from_json(g) for g in config["u_p"]],
                config["lambda"]["images"],
                config["p"],
                config["m"],
                delta_gens=[_el_from_json(g) for g in config["delta"]],
                name=config["name"],
            )
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed model: {type(exc).__name__}: {exc}") from exc
        if model.to_config() != config:
            raise ValueError("non-canonical model: it does not re-serialize to its input")
        return model


def _el_to_json(el):
    if isinstance(el, tuple):
        return [_el_to_json(x) for x in el]
    return el


def _el_from_json(el):
    if isinstance(el, list):
        return tuple(_el_from_json(x) for x in el)
    return el


# ---------------------------------------------------------------------------
# built-in demonstration models
# ---------------------------------------------------------------------------


def builtin_free_model(p: int, m: int) -> FiniteModel:
    """S_3 away from p; Heisenberg x cyclic at p with a surjective lambda.

    Delta is trivial, so the level structure acts freely on the base set.
    """
    from .finitegroups import CyclicGroup, HeisenbergGroup, SymmetricGroup

    gamma_s = SymmetricGroup(3)
    gamma_p = DirectProduct(HeisenbergGroup(p), CyclicGroup(p**m))
    swap = (1, 0, 2)
    u_p_gens = [(h, c) for (h, c) in [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 0), 1)]]
    lam_images = [p ** (m - 1) % p**m, 0, 1]
    return FiniteModel(
        gamma_s,
        gamma_p,
        [swap],
        u_p_gens,
        lam_images,
        p,
        m,
        name=f"free-heisenberg-p{p}-m{m}",
    )


def builtin_nonfree_model(p: int, m: int) -> FiniteModel:
    """Cyclic p-part with a global subgroup meeting lambda nontrivially."""
    from .finitegroups import CyclicGroup, SymmetricGroup

    gamma_s = SymmetricGroup(3)
    gamma_p = CyclicGroup(p**m)
    swap = (1, 0, 2)
    delta_gen = (gamma_s.identity(), p ** (m - 1) % p**m)
    return FiniteModel(
        gamma_s,
        gamma_p,
        [swap],
        [1],
        [1],
        p,
        m,
        delta_gens=[delta_gen],
        name=f"nonfree-cyclic-p{p}-m{m}",
    )


def builtin_cyclic_model(p: int, m: int) -> FiniteModel:
    """Free model with a plain cyclic p-part; the identity character."""
    from .finitegroups import CyclicGroup, SymmetricGroup

    gamma_s = SymmetricGroup(3)
    gamma_p = CyclicGroup(p**m)
    return FiniteModel(
        gamma_s, gamma_p, [(1, 0, 2)], [1], [1], p, m, name=f"free-cyclic-p{p}-m{m}"
    )


def builtin_zero_lambda_model(p: int, m: int) -> FiniteModel:
    from .finitegroups import CyclicGroup, SymmetricGroup

    return FiniteModel(
        SymmetricGroup(3),
        CyclicGroup(p**m),
        [(1, 0, 2)],
        [1],
        [0],
        p,
        m,
        name=f"zero-lambda-p{p}-m{m}",
    )


# ---------------------------------------------------------------------------
# equivariant spaces
# ---------------------------------------------------------------------------

TRIVIAL = "trivial"
AM_PSI = "am_psi"
AM_QUOTIENT = "am_quotient"


class EquivariantSpace:
    """Functions on the base set, equivariant for the level character.

    kind "trivial": values in Z/p^m with trivial action (one basis function
    per orbit); "am_quotient": values in the T=1 quotient with the induced
    (trivial) action, built honestly through the ring; "am_psi": values in
    the full coefficient ring with the character action, one fixed-module
    basis block per orbit.
    """

    def __init__(self, model: FiniteModel, kind: str):
        self.model = model
        self.kind = kind
        self.ring = AmRing(model.p, model.m)
        reps, orbit_index, lam_to, stab_exp = model.orbit_data
        self.orbit_reps = reps
        self.orbit_index = orbit_index
        self.lam_to = lam_to
        self.stab_exponents = stab_exp
        if kind == AM_QUOTIENT:
            # induced action on the quotient must be trivial: T^a evaluates to 1
            for gp in model.u_p_gens:
                if self.ring.mod_T_minus_1(self.ring.psi(model.lam[gp])) != 1:
                    raise AssertionError("induced quotient action is not trivial")
        if kind == AM_PSI:
            bases = {t: self.ring.fixed_module_basis(t) for t in set(stab_exp)}
            self.orbit_bases = [bases[t] for t in stab_exp]
            self.basis_index = [
                (j, i)
                for j in range(len(reps))
                for i in range(len(self.orbit_bases[j]))
            ]
        else:
            self.orbit_bases = None
            self.basis_index = [(j, 0) for j in range(len(reps))]

    @property
    def dimension(self) -> int:
        """Rank over the base coefficient ring (Z/p^m or Z/p^K blocks)."""
        return len(self.basis_index)

    def rational_rank(self) -> int:
        """Free rank of the full-ring space over Z_p at exact level."""
        if self.kind != AM_PSI:
            raise ValueError("rational rank applies to the full-ring space")
        return sum(self.model.p**t - 1 for t in self.stab_exponents)


def build_space(model: FiniteModel, coeff: str) -> EquivariantSpace:
    if coeff not in (TRIVIAL, AM_PSI, AM_QUOTIENT):
        raise ValueError(f"unknown coefficient kind {coeff!r}")
    return EquivariantSpace(model, coeff)


# ---------------------------------------------------------------------------
# Hecke operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeOperator:
    gamma: object
    coset_reps: tuple

    def matrix(self, space: EquivariantSpace) -> tuple:
        model = space.model
        ep = model.gamma_p.identity()
        translates = [(g, ep) for g in self.coset_reps]
        if space.kind in (TRIVIAL, AM_QUOTIENT):
            k = len(space.orbit_reps)
            rows = [[0] * k for _ in range(k)]
            for jcol in range(k):
                for krow, z in enumerate(space.orbit_reps):
                    count = 0
                    for t in translates:
                        z2 = model.act(z, t)
                        if space.orbit_index[z2] == jcol:
                            if space.kind == AM_QUOTIENT:
                                # transporter acts through the quotient ring
                                cls = space.ring.mod_T_minus_1(
                                    space.ring.psi(-space.lam_to[z2])
                                )
                                count += cls
                            else:
                                count += 1
                    rows[krow][jcol] = count % model.p**model.m
            return linalg.mat_freeze(rows)
        # full-ring coefficients: evaluate, then solve each target orbit's
        # images in its fixed basis at once
        ring = space.ring
        dim = space.dimension
        rows = [[0] * dim for _ in range(dim)]
        images: list = [[] for _ in space.orbit_reps]  # (column, value) per target orbit
        for col, (j, i) in enumerate(space.basis_index):
            b = space.orbit_bases[j][i]
            for krow_orbit, z in enumerate(space.orbit_reps):
                value = ring.zero()
                for t in translates:
                    z2 = model.act(z, t)
                    if space.orbit_index[z2] == j:
                        value = ring.add(
                            value, ring.mul(ring.psi(-space.lam_to[z2]), b)
                        )
                if not ring.is_zero(value):
                    images[krow_orbit].append((col, value))
        for krow_orbit, found in enumerate(images):
            if not found:
                continue
            basis_k = space.orbit_bases[krow_orbit]
            assert basis_k, "operator image met a killed orbit"
            bmat = linalg.mat_freeze(
                [[bb[coord] for bb in basis_k] for coord in range(ring.deg)]
            )
            sols = linalg.solve_unit_pivot(bmat, [v for _, v in found], ring.p, ring.K)
            row_base = space.basis_index.index((krow_orbit, 0))
            for (col, _), sol in zip(found, sols):
                for i2, c in enumerate(sol):
                    rows[row_base + i2][col] = c
        return linalg.mat_freeze(rows)


def hecke_operator(model: FiniteModel, gamma) -> HeckeOperator:
    """Double-coset operator for gamma in the away-from-p factor."""
    if gamma not in set(model.gamma_s.elements):
        raise ValueError("gamma must lie in the away-from-p group")
    double = {
        model.gamma_s.mul(model.gamma_s.mul(h1, gamma), h2)
        for h1 in model.u_s
        for h2 in model.u_s
    }
    reps = left_coset_representatives(model.gamma_s, double, model.u_s)
    return HeckeOperator(gamma, tuple(reps))


def generating_hecke_operators(model: FiniteModel) -> list[HeckeOperator]:
    return [
        hecke_operator(model, g)
        for g in double_coset_representatives(model.gamma_s, model.u_s)
    ]


# ---------------------------------------------------------------------------
# theorem-level checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CongruenceReport:
    model: str
    passed: bool
    details: dict

    def to_json(self) -> str:
        return json.dumps(
            {"model": self.model, "passed": self.passed, "details": self.details},
            sort_keys=True,
        )


def _block_diag(mat: linalg.Matrix, n: int) -> linalg.Matrix:
    k = len(mat)
    rows = [[0] * (k * n) for _ in range(k * n)]
    for b in range(n):
        for i in range(k):
            for j in range(k):
                rows[b * k + i][b * k + j] = mat[i][j]
    return linalg.mat_freeze(rows)


def verify_congruence_theorem(model: FiniteModel, N: int = 1) -> CongruenceReport:
    """Exact comparison of the trivial-coefficient space with the quotient
    coefficient space: dimensions, the canonical identification, and every
    generating double-coset operator."""
    if N < 1:
        raise ValueError(f"N must be at least 1, got N = {N}")
    triv = build_space(model, TRIVIAL)
    quot = build_space(model, AM_QUOTIENT)
    details: dict = {"orbits": len(triv.orbit_reps), "N": N}
    ok = triv.dimension == quot.dimension
    details["dimension"] = triv.dimension * N
    operators = generating_hecke_operators(model)
    hecke_rows = []
    for op in operators:
        m_triv = op.matrix(triv)
        m_quot = op.matrix(quot)
        same = m_triv == m_quot
        m_triv_n = _block_diag(m_triv, N)
        m_quot_n = _block_diag(m_quot, N)
        hecke_rows.append(
            {
                "gamma": _el_to_json(op.gamma),
                "cosets": len(op.coset_reps),
                "equal": bool(same and m_triv_n == m_quot_n),
                "matrix": [list(r) for r in m_triv],
            }
        )
        ok = ok and same and m_triv_n == m_quot_n
    details["hecke"] = hecke_rows
    return CongruenceReport(model.name, bool(ok), details)


def decompose_rational(space: EquivariantSpace) -> dict:
    """Component ranks of the full-ring space over each cyclotomic level.

    Rank at level j counts orbits whose stabilizer character dies on the
    order-p^j quotient; the Euler-phi-weighted sum must equal the free rank.
    """
    if space.kind != AM_PSI:
        raise ValueError("decomposition applies to the full-ring space")
    p, m = space.model.p, space.model.m
    # the modulus factors as the product of the cyclotomic levels
    poly = [1]
    for j in range(1, m + 1):
        poly = linalg.poly_mul(poly, list(cyclotomic_poly(p**j)))
    assert poly == space.ring.modulus_poly()
    ranks = {}
    for j in range(1, m + 1):
        ranks[j] = sum(1 for t in space.stab_exponents if t >= j)
    total = sum(ranks[j] * (p**j - p ** (j - 1)) for j in ranks)
    rational_dim = space.rational_rank()
    assert total == rational_dim, "component ranks do not sum to the free rank"
    return {
        "component_ranks": ranks,
        "rational_dimension": rational_dim,
        "degrees": {j: p**j - p ** (j - 1) for j in range(1, m + 1)},
    }


def quotient_map_check(model: FiniteModel) -> tuple[bool, dict]:
    """Whether reducing full-ring functions mod (T-1) hits every quotient
    function; true exactly when every orbit has t = m, as on free-action
    models.

    On an orbit with stabilizer exponent t the functions form the
    T^(p^t)-fixed module Fix, free on b_i = c * T^i (i < p^t - 1), c the
    cofactor prod_(j > t) Phi_(p^j).  The image at T = 1 is generated by
    the classes of the b_i, all equal to c(1) = p^(m-t), so it has order
    p^t; the image is everything exactly when t = m, which a free action
    gives on every orbit (see FiniteModel.orbit_data).

    The quotient size is p^t by an identity.  Let g = prod_(1<=j<=t)
    Phi_(p^j), monic of degree p^t - 1, so g * c is the ring's modulus.
    Then h -> c * h is an isomorphism Z/p^K[T]/(g) -> Fix sending T^i to
    b_i: it is injective because c * h, of degree below that of the monic
    g * c, is zero only if h is, and its image is Fix.  T acts on
    Z/p^K[T]/(g) as the companion matrix C_g, so det(T - 1) =
    det(C_g - 1) = +-g(1) = +-p^t, and directly
    Fix/(T-1)Fix = Z/p^K[T]/(g, T - 1) = Z/(p^K, g(1)) = Z/(p^t) for every
    K >= m >= t.  The image size, read off the basis classes, must agree
    with it: that checks fixed_module_basis and cyclotomic_cofactor against
    the stabilizer exponent the orbit walk found.
    """
    space = build_space(model, AM_PSI)
    ring = space.ring
    p, m = model.p, model.m
    rows = []
    overall = True
    for j, t in enumerate(space.stab_exponents):
        classes = [ring.mod_T_minus_1(b) for b in space.orbit_bases[j]]
        g = math.gcd(p**m, *classes)
        image_size = p**m // g
        surj = g == 1
        quot_size = p**t
        rows.append(
            {
                "orbit": j,
                "stab_exponent": t,
                "image_size": image_size,
                "quotient_size": quot_size,
                "surjective": surj,
            }
        )
        assert image_size == quot_size, "image and quotient sizes disagree"
        overall = overall and surj
    return overall, {"orbits": rows}


@dataclass(frozen=True)
class MatrixRep:
    """A representation of the p-part level group by matrices mod p^K."""

    dim: int
    K: int
    images: dict  # u_p generator -> matrix tuple

    def table(self, model: FiniteModel) -> dict:
        """Matrices on all of U_p; raises unless the table closes into a
        genuine representation (checked against every wrap-around relation)."""
        mod = model.p**self.K
        mats = list(self.images.values())
        table, clashes = closure(
            model.gamma_p.identity(),
            list(self.images),
            model.gamma_p.mul,
            lambda mat, k: linalg.mat_mod(linalg.mat_mul(mat, mats[k]), mod),
            linalg.identity(self.dim),
        )
        if clashes:
            raise ValueError("matrix table is not a representation")
        return table

    def matrix(self, model: FiniteModel, up) -> linalg.Matrix:
        return self.table(model)[up]


def trivial_action_level(rep: MatrixRep, p: int) -> int:
    """Largest m' with the representation trivial mod p^(m')."""
    best = rep.K
    ident = linalg.identity(rep.dim)
    for mat in rep.images.values():
        for row_m, row_i in zip(mat, ident):
            for x, y in zip(row_m, row_i):
                d = (x - y) % p**rep.K
                best = min(best, kernel.vp(d, p) if d else rep.K)
    return best


def nonconstant_check(model: FiniteModel, rep: MatrixRep, m: int) -> CongruenceReport:
    """Theorem-level comparison for matrix coefficients mod p^m.

    If the level group does not yet act trivially mod p^m, report the
    shrink signal with the attained level instead of failing.
    """
    for g in model.u_p_gens:
        if g not in rep.images:
            raise ValueError("representation must be given on the u_p generators")
    rep.table(model)  # raises unless the images define a representation
    m_prime = trivial_action_level(rep, model.p)
    if m > m_prime:
        return CongruenceReport(
            model.name,
            False,
            {"shrink": True, "m": m, "trivial_level": m_prime},
        )
    base = verify_congruence_theorem(model, N=rep.dim)
    details = dict(base.details)
    details.update({"shrink": False, "m": m, "trivial_level": m_prime, "dimV": rep.dim})
    return CongruenceReport(model.name, base.passed, details)
