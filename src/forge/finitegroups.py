"""Small finite groups with explicit element sets.

Just enough structure for equivariant-function models: symmetric, cyclic
and Heisenberg groups, direct products, generated subgroups, coset
bookkeeping, and the breadth-first closure walk they and the models share.  Elements are hashable tuples/ints with a total order so that
coset representatives and reports are deterministic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Sequence


def closure(
    start,
    gens: Sequence,
    act: Callable,
    carry: Callable = lambda value, k: value,
    value=None,
) -> tuple[dict, list]:
    """Breadth-first closure of `start` under x -> act(x, g) for g in gens.

    `start` holds `value`; the first edge x -> act(x, gens[k]) that reaches
    a point gives it carry(value at x, k).  Every other edge carries a value
    too, and where it differs from the one already stored the pair (carried,
    stored) is recorded, so each edge is compared exactly once.  Returns the
    values in breadth-first order and the list of those disagreements.
    """
    values = {start: value}
    clashes = []
    frontier = [start]
    for x in frontier:  # appended to while it is walked: a FIFO queue
        for k, g in enumerate(gens):
            y = act(x, g)
            v = carry(values[x], k)
            if y not in values:
                values[y] = v
                frontier.append(y)
            elif v != values[y]:
                clashes.append((v, values[y]))
    return values, clashes


class FiniteGroup:
    """Base: subclasses define identity, mul and elements."""

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    @cached_property
    def elements(self) -> tuple:
        return tuple(sorted(self._elements()))

    def _elements(self) -> Iterable:
        raise NotImplementedError

    @property
    def order(self) -> int:
        return len(self.elements)

    def generated_subgroup(self, gens: Iterable) -> tuple:
        return tuple(sorted(closure(self.identity(), list(gens), self.mul)[0]))

    def to_config(self) -> dict:
        raise NotImplementedError


class SymmetricGroup(FiniteGroup):
    """S_n on {0..n-1}; elements are image tuples."""

    def __init__(self, n: int):
        self.n = n

    def identity(self):
        return tuple(range(self.n))

    def mul(self, a, b):
        # (a*b)(x) = a(b(x)): right factor acts first
        return tuple(a[b[i]] for i in range(self.n))

    def _elements(self):
        import itertools

        return itertools.permutations(range(self.n))

    def to_config(self):
        return {"kind": "symmetric", "n": self.n}


class CyclicGroup(FiniteGroup):
    def __init__(self, order: int):
        self._order = order

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self._order

    def _elements(self):
        return range(self._order)

    def to_config(self):
        return {"kind": "cyclic", "order": self._order}


class HeisenbergGroup(FiniteGroup):
    """Upper unitriangular 3x3 matrices over F_p as triples (a, b, c)."""

    def __init__(self, p: int):
        self.p = p

    def identity(self):
        return (0, 0, 0)

    def mul(self, x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d) % self.p, (b + e) % self.p, (c + f + a * e) % self.p)

    def _elements(self):
        p = self.p
        return ((a, b, c) for a in range(p) for b in range(p) for c in range(p))

    def to_config(self):
        return {"kind": "heisenberg", "p": self.p}


class DirectProduct(FiniteGroup):
    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        self.left = left
        self.right = right

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def _elements(self):
        return ((x, y) for x in self.left.elements for y in self.right.elements)

    def to_config(self):
        return {
            "kind": "product",
            "left": self.left.to_config(),
            "right": self.right.to_config(),
        }


def group_from_config(config: dict) -> FiniteGroup:
    kind = config["kind"]
    if kind == "symmetric":
        return SymmetricGroup(config["n"])
    if kind == "cyclic":
        return CyclicGroup(config["order"])
    if kind == "heisenberg":
        return HeisenbergGroup(config["p"])
    if kind == "product":
        return DirectProduct(
            group_from_config(config["left"]), group_from_config(config["right"])
        )
    raise ValueError(f"unknown group kind {kind!r}")


def left_coset_representatives(
    group: FiniteGroup, double_coset: Iterable, subgroup: Iterable
) -> list:
    """Decompose a union of left cosets g*H into representatives."""
    remaining = set(double_coset)
    reps = []
    while remaining:
        g = min(remaining)
        reps.append(g)
        for h in subgroup:
            remaining.discard(group.mul(g, h))
    return reps


def double_coset_representatives(group: FiniteGroup, subgroup: Iterable) -> list:
    """Representatives of H\\G/H, smallest element first."""
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
