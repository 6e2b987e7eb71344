"""Small finite groups with explicit element sets.

Just enough structure for equivariant-function models: symmetric, cyclic
and Heisenberg groups, direct products, generated subgroups, a bound on the
groups a model lists, and the breadth-first closure walk they and the models
share.  Elements are hashable tuples/ints with a total order so that coset
representatives and reports are deterministic.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Sequence

ORDER_BOUND = 10**6  # the largest order of a group a model lists, and of p^m


def check_bound(factors: Iterable[int], what) -> None:
    """ValueError naming ORDER_BOUND when the product of `factors` is above
    it.  The product stops there: n! by n = 10, p^m by m = 20."""
    order = 1
    for f in factors:
        order *= f
        if order > ORDER_BOUND:
            raise ValueError(f"order bound exceeded: {what} is above ORDER_BOUND = {ORDER_BOUND}")


def closure(
    start,
    gens: Sequence,
    act: Callable,
    carry: Callable = lambda value, x, k: value,
    value=None,
) -> tuple[dict, list]:
    """Breadth-first closure of `start` under x -> act(x, g) for g in gens.

    `start` holds `value`; the first edge x -> act(x, gens[k]) that reaches
    a point gives it carry(value at x, x, k).  Every other edge carries a
    value too, and where it differs from the one already stored the pair
    (carried, stored) is recorded, so each edge is compared exactly once.
    Returns the values in breadth-first order and the list of those
    disagreements.
    """
    values = {start: value}
    clashes = []
    frontier = [start]
    for x in frontier:  # appended to while it is walked: a FIFO queue
        for k, g in enumerate(gens):
            y = act(x, g)
            v = carry(values[x], x, k)
            if y not in values:
                values[y] = v
                frontier.append(y)
            elif v != values[y]:
                clashes.append((v, values[y]))
    return values, clashes


class FiniteGroup:
    """Base: subclasses define identity(), mul(a, b), _elements(),
    order_factors() (whose product is the order) and to_config()."""

    @cached_property
    def elements(self) -> tuple:
        return tuple(sorted(self._elements()))

    def __contains__(self, x) -> bool:
        return x in set(self.elements)

    def check_order(self) -> None:
        """ValueError naming ORDER_BOUND if |G| is above it; nothing listed."""
        check_bound(self.order_factors(), f"the order of {self.to_config()}")

    def generated_subgroup(self, gens: Iterable) -> tuple:
        return tuple(sorted(closure(self.identity(), list(gens), self.mul)[0]))


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
        return itertools.permutations(range(self.n))

    def order_factors(self):
        return range(2, self.n + 1)

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

    def order_factors(self):
        return [self._order]

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

    def order_factors(self):
        return [self.p] * 3

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

    def order_factors(self):
        return itertools.chain(self.left.order_factors(), self.right.order_factors())

    def __contains__(self, x) -> bool:  # factor by factor, the product unlisted
        return isinstance(x, tuple) and len(x) == 2 and x[0] in self.left and x[1] in self.right

    def to_config(self):
        return {
            "kind": "product",
            "left": self.left.to_config(),
            "right": self.right.to_config(),
        }


def group_from_config(config: dict) -> FiniteGroup:
    """The group a config encodes, each factor that is no product checked
    against ORDER_BOUND before anything is listed."""
    kind = config["kind"]
    if kind == "symmetric":
        group = SymmetricGroup(config["n"])
    elif kind == "cyclic":
        group = CyclicGroup(config["order"])
    elif kind == "heisenberg":
        group = HeisenbergGroup(config["p"])
    elif kind == "product":
        return DirectProduct(group_from_config(config["left"]), group_from_config(config["right"]))
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    group.check_order()
    return group
