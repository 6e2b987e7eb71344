"""Finite congruence models: the cyclic-level coefficient ring, equivariant
function spaces, double-coset operators, and the exact mod-p^m comparisons.

The coefficient ring is Z_p[T]/(1+T+...+T^(p^m-1)) truncated at p^K; its
quotient by (T-1) is Z/p^m through evaluation at T=1.  A model is a product
group Gamma_S x Gamma_p with level structure U_S x U_p, a global subgroup
Delta acting on the left, and a character lambda on U_p valued in Z/p^m.
Function spaces live on the double cosets, found by walking Delta on the
left cosets of the level with exact stabilizer bookkeeping; operators away
from p are double-coset sums confined to the Gamma_S factor, so they commute
with the U_p-equivariance by construction, and their left cosets come from
the same walk, U_S acting on the U_S coset table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import kernel, linalg
from .finitegroups import DirectProduct, FiniteGroup, check_bound, closure, group_from_config

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
    def cyclotomic_cofactor(self, t: int) -> tuple:
        """Image of prod_(j > t) Phi_(p^j), the annihilator-module generator
        of the T^(p^t)-fixed part.  Phi_(p^j)(T) = (T^(p^j) - 1) /
        (T^(p^(j-1)) - 1), so the product is (T^(p^m) - 1) / (T^(p^t) - 1),
        the sum of T^i over the multiples i of p^t below p^m; at t = 0 that
        is the modulus, and the image is 0."""
        if not 0 <= t <= self.m:
            raise ValueError("t out of range")
        step = self.p**t
        return self.from_coeffs([int(i % step == 0) for i in range(self.p**self.m)])

    def fixed_module_basis(self, t: int) -> list[tuple]:
        """Basis of the T^(p^t)-fixed submodule: cofactor * T^i, a free
        direct summand of rank p^t - 1.  The cofactor is verified to be
        fixed, and so then is each cofactor * T^i: T^(p^t) - 1 kills it
        times T^i, the ring being commutative.  The cofactor has degree
        p^m - p^t, so cofactor * T^i has degree at most p^m - 2 < deg: it
        is the cofactor's coefficients shifted up i places, unreduced."""
        gen = self.cyclotomic_cofactor(t)
        assert self.is_zero(self.mul(self.sub(self.psi(self.p**t), self.one()), gen))
        return [(0,) * i + gen[: self.deg - i] for i in range(self.p**t - 1)]


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
        check_bound((p for _ in range(m)), f"p^m = {p}^{m}")
        listed = (gamma_p.left, gamma_p.right) if isinstance(gamma_p, DirectProduct) else (gamma_p,)
        for group in (gamma_s, *listed):  # what the membership tests below list
            group.check_order()
        self.gamma_s, self.gamma_p = gamma_s, gamma_p
        self.p, self.m = p, m
        self.name = name
        self.product = DirectProduct(gamma_s, gamma_p)
        for gens, group in ((u_s_gens, gamma_s), (u_p_gens, gamma_p), (delta_gens, self.product)):
            if not all(g in group for g in gens):
                raise ValueError(f"a generator in {list(gens)} is not an element of its group")
        self.u_s_gens = tuple(u_s_gens)
        self.u_p_gens = tuple(u_p_gens)
        self.u_s = gamma_s.generated_subgroup(self.u_s_gens)
        self.delta_gens = tuple(delta_gens)
        self._lam_factors = self._lambda_tables(lam_gen_images)
        # lambda at the generators; the walks have checked each image there
        self.lam = {g: a % p**m for g, a in zip(self.u_p_gens, lam_gen_images)}
        self.spaces: dict = {}  # coefficient kind -> EquivariantSpace, see build_space

    def _lambda_tables(self, gen_images: Sequence[int]) -> list:
        """lambda on U_p as (group, table) pairs, one per factor walked; a walk
        compares lambda(x*g) with lambda(x) + lambda(g) once on every edge,
        which certifies the homomorphism property exactly.  If Gamma_p = L x
        R and each generator lies in L x 1 or 1 x R, U_p = U_L x U_R and,
        Z/p^m being abelian, lambda(x, y) = lambda_L(x) + lambda_R(y).
        orbit_data lists each group walked, so it is checked against
        ORDER_BOUND first."""
        if len(gen_images) != len(self.u_p_gens):
            raise ValueError("one image per u_p generator required")
        group, mod = self.gamma_p, self.p**self.m
        pairs = list(zip(self.u_p_gens, gen_images))
        walks = [(group, pairs)]
        if isinstance(group, DirectProduct):
            e_left, e_right = group.left.identity(), group.right.identity()
            if all(g[0] == e_left or g[1] == e_right for g, _ in pairs):
                walks = [
                    (group.left, [(g[0], a) for g, a in pairs if g[1] == e_right]),
                    (group.right, [(g[1], a) for g, a in pairs if g[1] != e_right]),
                ]
        tables = []
        for factor, gens in walks:
            factor.check_order()
            table, clashes = closure(
                factor.identity(),
                [g for g, _ in gens],
                factor.mul,
                lambda lam, _, k: (lam + gens[k][1]) % mod,
                0,
            )
            if clashes:
                raise ValueError("lambda is not a homomorphism")
            tables.append((factor, table))
        return tables

    # -- orbits and stabilizers ----------------------------------------------
    @cached_property
    def u_s_cosets(self) -> tuple:
        """The left cosets of U_S in Gamma_S as (lookup, minima), each value 0."""
        return _left_cosets(self.gamma_s, dict.fromkeys(self.u_s, 0))

    @cached_property
    def orbit_data(self):
        """Orbits Delta\\(Gamma_S x Gamma_p)/U, U = U_S x U_p, with
        transporter lambda-values.

        Returns (reps, locate, stab_exponents) where reps are the double
        coset minima in increasing order, locate(z) is (j, lam) for any z in
        Gamma_S x Gamma_p, with j the index of z's double coset and lam
        lambda of the p-part of some u in U with z in Delta*reps[j]*u, and
        stab_exponents[j] is t with lambda(Stab) = p^t * Z/p^m, Stab the
        stabilizer of Delta*reps[j] in U.

        First the left cosets x*U: x*(U_S x U_p) = x_S*U_S x x_p*U_p, and
        a coset of U_L x U_R is the product of factor cosets, so they are
        read off u_s and the lambda tables, which _lambda_tables has already
        walked and certified, one lookup per factor: |Gamma_S| + |Gamma_p|
        entries, or |Gamma_S| + |L| + |R| when lambda was split, and never
        the product.  Then Delta's generators walk the coset indices,
        d*(x*U) = (d*x)*U, from each coset minimum x0 not yet reached, in
        increasing order; the first minimum reached in a double coset is
        its minimum.  A coset whose minimum is x = e*x0*u (e in Delta, u in
        U) holds lambda(u); if d*x = x'*u' with x' its coset's minimum, the
        edge to x'*U carries lambda(u) - lambda(u').  Two values at one
        coset differ by lambda(x0^(-1)*s*x0) for a Schreier generator s of
        Stab_Delta(x0*U), and x0^(-1) * Stab_Delta(x0*U) * x0 = Stab, so the
        gcd of the clashes gives t.  With no generator of Delta each coset
        is its own orbit, nothing clashes and t = m: U acts freely.
        """
        mod = self.p**self.m
        parts = [_left_cosets(group, table) for group, table in self._lam_factors]
        p_part = parts[0] if len(parts) == 1 else _coset_product(*parts, mod)
        cosets = _coset_product(self.u_s_cosets, p_part, mod)
        find, mins = cosets
        where: dict = {}  # coset index -> (orbit index, lambda at its minimum)
        reps = []
        stab_exponents = []
        for c0, x0 in enumerate(mins):
            if c0 in where:
                continue
            orbit, clashes = _walk_cosets(cosets, self.delta_gens, self.product.mul, c0, mod)
            g = math.gcd(mod, *(a - b for a, b in clashes))
            stab_exponents.append(kernel.vp(g, self.p))
            where.update((c, (len(reps), lam)) for c, lam in orbit.items())
            reps.append(x0)

        def locate(z):
            c, lam = find(z)
            j, lam0 = where[c]
            return j, (lam0 + lam) % mod

        return tuple(reps), locate, tuple(stab_exponents)

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


def _left_cosets(group: FiniteGroup, sub: dict) -> tuple:
    """Left cosets x*H of H = sub's keys, by one walk over the sorted
    elements: the first element not yet seen is its coset's minimum x0,
    and x0*h gets (coset index, sub[h]).  Returns the lookup of that table
    and the minima."""
    where: dict = {}
    mins = []
    for x0 in group.elements:
        if x0 not in where:
            where.update((group.mul(x0, h), (len(mins), v)) for h, v in sub.items())
            mins.append(x0)
    return where.__getitem__, mins


def _walk_cosets(cosets: tuple, gens: Sequence, mul, c0: int, mod: int) -> tuple:
    """The closure of coset c0 of a table cosets = (lookup, minima) under
    d*(x*H) = (d*x)*H for d in gens, acting on the left.  Each edge to the
    coset of d*x = x'*h, x' its minimum, carries the value at x minus the
    table's value at h, mod `mod`; returns closure's values and clashes."""
    find, mins = cosets
    return closure(
        c0,
        gens,
        lambda c, d: find(mul(d, mins[c]))[0],
        lambda lam, c, k: (lam - find(mul(gens[k], mins[c]))[1]) % mod,
        0,
    )


def _coset_product(left: tuple, right: tuple, mod: int) -> tuple:
    """Cosets of a product from each factor's (lookup, minima): (x, y)*(H x K)
    = x*H x y*K has the pair of minima as its minimum; the values add."""
    (find_left, mins_left), (find_right, mins_right) = left, right
    width = len(mins_right)

    def locate(z):
        (i, a), (j, b) = find_left(z[0]), find_right(z[1])
        return i * width + j, (a + b) % mod

    return locate, [(x, y) for x in mins_left for y in mins_right]


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
    """Functions on Delta\\(Gamma_S x Gamma_p), equivariant for the level
    character.

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
        reps, self.locate, stab_exp = model.orbit_data
        self.orbit_reps, self.stab_exponents = reps, stab_exp
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
    """The model's space for coeff, built once per model and kind."""
    if coeff not in (TRIVIAL, AM_PSI, AM_QUOTIENT):
        raise ValueError(f"unknown coefficient kind {coeff!r}")
    if coeff not in model.spaces:
        model.spaces[coeff] = EquivariantSpace(model, coeff)
    return model.spaces[coeff]


# ---------------------------------------------------------------------------
# Hecke operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeOperator:
    gamma: object
    coset_reps: tuple

    def matrix(self, space: EquivariantSpace) -> tuple:
        """Row k holds the translates z_k*t of the k-th orbit minimum by the
        coset representatives, each added into the column of its orbit:
        one pass over the translates per row."""
        model = space.model
        ring = space.ring
        ep = model.gamma_p.identity()
        translates = [(g, ep) for g in self.coset_reps]
        located = [
            [space.locate(model.product.mul(z, t)) for t in translates] for z in space.orbit_reps
        ]
        if space.kind in (TRIVIAL, AM_QUOTIENT):
            k = len(space.orbit_reps)
            rows = [[0] * k for _ in range(k)]
            quotient = space.kind == AM_QUOTIENT
            for row, found in zip(rows, located):
                for j, lam in found:
                    # the transporter acts through the quotient ring
                    row[j] += ring.mod_T_minus_1(ring.psi(-lam)) if quotient else 1
            return linalg.mat_freeze([[c % model.p**model.m for c in row] for row in rows])
        # full-ring coefficients: the image of basis function (j, i) at z_k
        # is (sum of psi(-lam) over the translates landing in orbit j) * b_i;
        # solve each target orbit's images in its fixed basis at once
        dim = space.dimension
        rows = [[0] * dim for _ in range(dim)]
        for krow_orbit, found in enumerate(located):
            sums: dict = {}
            for j, lam in found:
                sums[j] = ring.add(sums.get(j, ring.zero()), ring.psi(-lam))
            images = [
                (col, ring.mul(sums[j], space.orbit_bases[j][i]))
                for col, (j, i) in enumerate(space.basis_index)
                if j in sums
            ]
            images = [(col, v) for col, v in images if not ring.is_zero(v)]
            if not images:
                continue
            basis_k = space.orbit_bases[krow_orbit]
            assert basis_k, "operator image met a killed orbit"
            bmat = linalg.mat_freeze(
                [[bb[coord] for bb in basis_k] for coord in range(ring.deg)]
            )
            sols = linalg.solve_unit_pivot(bmat, [v for _, v in images], ring.p, ring.K)
            row_base = space.basis_index.index((krow_orbit, 0))
            for (col, _), sol in zip(images, sols):
                for i2, c in enumerate(sol):
                    rows[row_base + i2][col] = c
        return linalg.mat_freeze(rows)


def hecke_operator(model: FiniteModel, gamma) -> HeckeOperator:
    """Double-coset operator for gamma in the away-from-p factor.  U_S's
    generators walk the U_S coset table on the left from gamma*U_S, and
    U_S*gamma*U_S is the union of the h*gamma*U_S, h in U_S, so the walk
    reaches exactly its left cosets; their minima, sorted, are the coset
    representatives."""
    if gamma not in model.gamma_s:
        raise ValueError("gamma must lie in the away-from-p group")
    find, mins = model.u_s_cosets
    cosets, _ = _walk_cosets(model.u_s_cosets, model.u_s_gens, model.gamma_s.mul, find(gamma)[0], 1)
    return HeckeOperator(gamma, tuple(mins[c] for c in sorted(cosets)))


def generating_hecke_operators(model: FiniteModel) -> list[HeckeOperator]:
    """One operator per double coset in U_S\\Gamma_S/U_S, by its minimum:
    the U_S coset minima are taken in increasing order, and as in
    FiniteModel.orbit_data the first one not yet reached is the minimum of
    its double coset."""
    operators: list[HeckeOperator] = []
    reached: set = set()
    for x0 in model.u_s_cosets[1]:
        if x0 not in reached:
            operators.append(hecke_operator(model, x0))
            reached.update(operators[-1].coset_reps)
    return operators


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
        hecke_rows.append(
            {
                "gamma": _el_to_json(op.gamma),
                "cosets": len(op.coset_reps),
                "equal": same,
                "matrix": [list(r) for r in m_triv],
            }
        )
        ok = ok and same
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
            lambda mat, _, k: linalg.mat_mul(mat, mats[k], mod),
            linalg.identity(self.dim),
        )
        if clashes:
            raise ValueError("matrix table is not a representation")
        return table


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
