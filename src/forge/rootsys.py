"""Exact root-system combinatorics on the integer coroot lattice.

Coroots live in the simple-coroot basis itself (ambient lattice Z^rank), so
every operation below is integer arithmetic.  A Weyl element is an integer
matrix acting on that lattice; words multiply as function composition, the
rightmost letter acting first.  The positive coroots come in height order
from the simple ones by the root-string rule (Humphreys, GTM 9, 10.2), each
one step above a recorded parent; the negative ones are their negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import linalg
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


@dataclass(frozen=True)
class Coroot:
    """A coroot as its expansion in the simple-coroot basis."""

    expansion: Vector

    @property
    def height(self) -> int:
        return sum(self.expansion)


class RootSystem:
    """An irreducible root system with its full coroot set.

    `by_height` lists the positive coroots in height order as triples
    (coroot, parent, j): the coroot is by_height[parent] + alpha_j^vee, or
    alpha_j^vee when parent is None.  `positive_coroots` is their sorted
    set, positive_coroots[k] = by_height[height_order[k]][0].  `coroots` is
    sorted: negative coroots sort below positive ones and negation reverses
    the order."""

    def __init__(self, rs_type: RootSystemType):
        self.type = rs_type
        self.rank = rs_type.rank
        self.cartan = cartan_matrix(rs_type)
        self.simple_coroots = tuple(Coroot(e) for e in linalg.identity(self.rank))
        self.by_height = self._by_height()
        self.height_order = tuple(sorted(range(len(self.by_height)), key=lambda k: self.by_height[k][0].expansion))
        self.positive_coroots = tuple(self.by_height[k][0] for k in self.height_order)
        negative = tuple(Coroot(tuple(-x for x in c.expansion)) for c in reversed(self.positive_coroots))
        self.coroots = negative + self.positive_coroots

    def _by_height(self) -> tuple[tuple[Coroot, Optional[int], int], ...]:
        """Root-string rule: for a positive coroot beta, beta + alpha_j^vee is
        a coroot iff r - <alpha_j, beta> > 0, where r is the length of the
        alpha_j^vee-string below beta.  A positive coroot of height h > 1 is
        one of height h - 1 plus a simple coroot, and the queue runs height
        by height, so that string is complete when beta is reached."""
        table = [(c, None, j) for j, c in enumerate(self.simple_coroots)]
        seen = {c.expansion for c in self.simple_coroots}
        for k, (beta, _, _) in enumerate(table):  # grows while it runs
            b = beta.expansion
            for j in range(self.rank):
                r = 0
                while b[:j] + (b[j] - r - 1,) + b[j + 1 :] in seen:
                    r += 1
                up = b[:j] + (b[j] + 1,) + b[j + 1 :]
                if r > self.pairing(j, b) and up not in seen:
                    seen.add(up)
                    table.append((Coroot(up), k, j))
        return tuple(table)

    def pairing(self, i: int, v: Vector) -> int:
        """<alpha_i, v> for the 0-based simple root index i and a vector v
        in the simple-coroot basis."""
        return sum(c * x for c, x in zip(self.cartan[i], v))


@lru_cache(maxsize=None)
def build_root_system(rs_type: RootSystemType) -> RootSystem:
    return RootSystem(rs_type)


@dataclass(frozen=True)
class WeylElement:
    matrix: Matrix

    def power(self, e: int) -> "WeylElement":
        return WeylElement(linalg.mat_pow(self.matrix, e))


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


def is_elliptic(w: WeylElement) -> bool:
    """True iff w has no nonzero fixed vector on the coroot span."""
    m = linalg.mat_sub(w.matrix, linalg.identity(len(w.matrix)))
    return linalg.det(m) != 0


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """The longest element w_0, by greedy descent on a dominant vector;
    cached per root system, which `build_root_system` makes once per type."""
    lam = [sum(col) for col in zip(*(c.expansion for c in rs.positive_coroots))]
    word: list[int] = []
    while True:
        for i in range(rs.rank):
            pair = rs.pairing(i, lam)
            if pair > 0:
                lam[i] -= pair  # s_i changes only coordinate i
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

