"""Exact root-system combinatorics on the integer coroot lattice.

Coroots live in the simple-coroot basis itself (ambient lattice Z^rank), so
every operation below is integer arithmetic.  A Weyl element is an integer
matrix acting on that lattice; words multiply as function composition, the
rightmost letter acting first.  Reflection closure enumerates the full
coroot set and is the ground truth for counts, positivity and closure
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import linalg
from .cyclotomic import cyclotomic_poly
from .finitegroups import closure
from .linalg import Matrix, Vector

FAMILIES = "ABCDEFG"

_RANK_RULES = {
    "A": lambda s: s >= 1,
    "B": lambda s: s >= 2,
    "C": lambda s: s >= 3,
    "D": lambda s: s >= 4,
    "E": lambda s: s in (6, 7, 8),
    "F": lambda s: s == 4,
    "G": lambda s: s == 2,
}


@dataclass(frozen=True)
class RootSystemType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not _RANK_RULES[self.family](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "RootSystemType":
        """Parse notations like 'E6', 'D_5', 'A8'."""
        t = text.strip().replace("_", "")
        return cls(t[0].upper(), int(t[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def coxeter_number(t: RootSystemType) -> int:
    s = t.rank
    if t.family == "A":
        return s + 1
    if t.family in ("B", "C"):
        return 2 * s
    if t.family == "D":
        return 2 * s - 2
    if t.family == "E":
        return {6: 12, 7: 18, 8: 30}[s]
    return 12 if t.family == "F" else 6


def coxeter_number_product(types: Iterable[RootSystemType]) -> int:
    """Coxeter number of a product of irreducible factors; 1 for a torus."""
    return max((coxeter_number(t) for t in types), default=1)


def cartan_matrix(t: RootSystemType) -> Matrix:
    """Pairings <alpha_i, coroot alpha_j> in the standard realization."""
    s = t.rank
    c = [[2 if i == j else 0 for j in range(s)] for i in range(s)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if t.family in ("A", "B", "C"):
        for i in range(s - 1):
            bond(i, i + 1)
        if t.family == "B":
            bond(s - 2, s - 1, -2, -1)
        elif t.family == "C":
            bond(s - 2, s - 1, -1, -2)
    elif t.family == "D":
        for i in range(s - 2):
            bond(i, i + 1)
        bond(s - 3, s - 1)
        c[s - 2][s - 1] = c[s - 1][s - 2] = 0
    elif t.family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: s - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif t.family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif t.family == "G":
        bond(0, 1, -1, -3)
    return linalg.mat_freeze(c)


def reflection_matrix(cartan: Matrix, i: int) -> Matrix:
    """Simple reflection s_i on the coroot lattice (0-based index)."""
    n = len(cartan)
    rows = [list(r) for r in linalg.identity(n)]
    for j in range(n):
        rows[i][j] -= cartan[i][j]
    return linalg.mat_freeze(rows)


@dataclass(frozen=True)
class Coroot:
    """A coroot as its expansion in the simple-coroot basis."""

    expansion: Vector

    @property
    def height(self) -> int:
        return sum(self.expansion)

    def __neg__(self) -> "Coroot":
        return Coroot(tuple(-x for x in self.expansion))


class RootSystem:
    """An irreducible root system with its full coroot set."""

    def __init__(self, rs_type: RootSystemType):
        self.type = rs_type
        self.rank = rs_type.rank
        self.cartan = cartan_matrix(rs_type)
        self.simple_coroots = tuple(
            Coroot(tuple(1 if j == i else 0 for j in range(self.rank)))
            for i in range(self.rank)
        )
        self.reflections = tuple(
            reflection_matrix(self.cartan, i) for i in range(self.rank)
        )
        self.coroots = self._closure()
        self._coroot_set = {c.expansion for c in self.coroots}

    def _closure(self) -> tuple[Coroot, ...]:
        seen: dict = {}
        for c in self.simple_coroots:
            if c.expansion not in seen:
                orbit, _ = closure(
                    c.expansion, self.reflections, lambda v, refl: linalg.mat_vec(refl, v)
                )
                seen.update(orbit)
        return tuple(Coroot(v) for v in sorted(seen))

    @property
    def positive_coroots(self) -> tuple[Coroot, ...]:
        return tuple(c for c in self.coroots if c.height > 0)

    def contains(self, v: Vector) -> bool:
        return tuple(v) in self._coroot_set

    def highest_coroot(self) -> Coroot:
        top = max(self.positive_coroots, key=lambda c: c.height)
        assert sum(1 for c in self.positive_coroots if c.height == top.height) == 1
        return top

    def pairing(self, i: int, coroot: Coroot) -> int:
        """<alpha_i, coroot> for the 0-based simple root index i."""
        return sum(self.cartan[i][j] * coroot.expansion[j] for j in range(self.rank))


@lru_cache(maxsize=None)
def build_root_system(rs_type: RootSystemType) -> RootSystem:
    return RootSystem(rs_type)


@dataclass(frozen=True)
class WeylElement:
    matrix: Matrix

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(linalg.mat_mul(self.matrix, other.matrix))

    def power(self, e: int) -> "WeylElement":
        return WeylElement(linalg.mat_pow(self.matrix, e))

    @property
    def rank(self) -> int:
        return len(self.matrix)


def weyl_identity(rs: RootSystem) -> WeylElement:
    return WeylElement(linalg.identity(rs.rank))


def weyl_from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product of simple reflections; the rightmost letter acts first.

    Built from the right by left multiplications: s_i changes only
    coordinate i, v_i -> v_i - <alpha_i, v>, so each letter rewrites one row
    from the rows its Cartan row touches, not a full matrix product."""
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
    rows = [list(row) for row in linalg.identity(rs.rank)]
    for i in reversed(word):
        terms = [(c, rows[j]) for j, c in enumerate(rs.cartan[i - 1]) if c]
        rows[i - 1] = [x - sum(c * r[k] for c, r in terms) for k, x in enumerate(rows[i - 1])]
    return WeylElement(linalg.mat_freeze(rows))


def weyl_apply(w: WeylElement, coroot: Coroot) -> Coroot:
    if len(w.matrix) != len(coroot.expansion):
        raise ValueError("dimension mismatch")
    return Coroot(linalg.mat_vec(w.matrix, coroot.expansion))


def weyl_order(w: WeylElement, bound: int = 10000) -> int:
    ident = linalg.identity(len(w.matrix))
    m = w.matrix
    for k in range(1, bound + 1):
        if m == ident:
            return k
        m = linalg.mat_mul(m, w.matrix)
    raise ValueError(f"order exceeds bound {bound}; not a finite-order lattice element")


def is_elliptic(w: WeylElement) -> bool:
    """True iff w has no nonzero fixed vector on the coroot span."""
    m = linalg.mat_sub(w.matrix, linalg.identity(len(w.matrix)))
    return linalg.det(m) != 0


def cyclotomic_exponents(w: WeylElement, order: int) -> tuple[int, ...]:
    """Exponents k (with multiplicity) such that zeta_order^k is an eigenvalue.

    Exact: the characteristic polynomial is factored against the cyclotomic
    polynomials Phi_d for d | order, which must exhaust it.
    """
    if linalg.mat_pow(w.matrix, order) != linalg.identity(len(w.matrix)):
        raise ValueError("w^order is not the identity")
    poly = list(linalg.charpoly(w.matrix))
    exponents: list[int] = []
    for d in range(1, order + 1):
        if order % d:
            continue
        phi = list(cyclotomic_poly(d))
        while len(poly) >= len(phi):
            q, r = linalg.poly_divmod(poly, phi)
            if any(r):
                break
            poly = q
            exponents.extend(
                (order // d) * j % order for j in range(d) if math.gcd(j, d) == 1
            )
    assert len(poly) == 1, "characteristic polynomial not a product of cyclotomics"
    return tuple(sorted(exponents))


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """The longest element w_0, by greedy descent on a dominant vector;
    cached per root system, which `build_root_system` makes once per type."""
    lam = [0] * rs.rank
    for c in rs.positive_coroots:
        for j in range(rs.rank):
            lam[j] += c.expansion[j]
    word: list[int] = []
    while True:
        for i in range(rs.rank):
            if sum(rs.cartan[i][j] * lam[j] for j in range(rs.rank)) > 0:
                lam = list(linalg.mat_vec(rs.reflections[i], tuple(lam)))
                word.append(i + 1)
                break
        else:
            break
    word.reverse()  # recorded in application order; word stores leftmost-last-applied
    return weyl_from_word(rs, word)


@dataclass(frozen=True)
class DiagramAutomorphism:
    """Permutation of simple-coroot indices preserving the Cartan pairings."""

    permutation: tuple[int, ...]  # 1-based images: i -> permutation[i-1]

    def matrix(self) -> Matrix:
        n = len(self.permutation)
        rows = [[0] * n for _ in range(n)]
        for i, img in enumerate(self.permutation):
            rows[img - 1][i] = 1
        return linalg.mat_freeze(rows)

    @property
    def is_trivial(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.permutation))

    def order(self) -> int:
        k, perm = 1, list(self.permutation)
        cur = perm
        while cur != list(range(1, len(perm) + 1)):
            cur = [perm[i - 1] for i in cur]
            k += 1
        return k

    def validate(self, rs: RootSystem) -> None:
        n = rs.rank
        if sorted(self.permutation) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..rank")
        for i in range(n):
            for j in range(n):
                pi, pj = self.permutation[i] - 1, self.permutation[j] - 1
                if rs.cartan[pi][pj] != rs.cartan[i][j]:
                    raise ValueError("permutation does not preserve the Cartan pairings")


def trivial_automorphism(rs: RootSystem) -> DiagramAutomorphism:
    return DiagramAutomorphism(tuple(range(1, rs.rank + 1)))


def standard_involution(rs: RootSystem) -> DiagramAutomorphism:
    """The nontrivial diagram involution where one exists."""
    t, s = rs.type, rs.rank
    if t.family == "A" and s >= 2:
        perm = tuple(s - i for i in range(s))
    elif t.family == "D":
        perm = tuple(range(1, s - 1)) + (s, s - 1)
    elif t.family == "E" and s == 6:
        perm = (6, 2, 5, 4, 3, 1)
    else:
        raise ValueError(f"no nontrivial diagram involution for {t}")
    delta = DiagramAutomorphism(perm)
    delta.validate(rs)
    return delta


def minus_one_in_W_delta(rs: RootSystem, delta: DiagramAutomorphism) -> bool:
    """Whether some w in the Weyl group satisfies w*delta = -1 on the lattice.

    Decided through the longest element: for trivial delta this is w_0 = -1;
    for the diagram involution it is -w_0 = delta.  Order-3 automorphisms
    (D4 triality) are not decided here and raise.
    """
    delta.validate(rs)
    w0 = longest_element(rs)
    minus_id = linalg.mat_scale(-1, linalg.identity(rs.rank))
    if delta.is_trivial:
        return w0.matrix == minus_id
    if delta.order() == 2:
        return linalg.mat_scale(-1, w0.matrix) == delta.matrix()
    raise ValueError("criterion undecided for automorphisms of order > 2")

