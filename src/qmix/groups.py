"""Finite groups and their regular representations.

Groups are stored as dense Cayley tables over integer element ids
0..order-1.  Symmetric and cyclic groups come with constructors; any other
group can be built from its Cayley table as an array.  The left regular
representation realizes each element as a permutation matrix acting by
left multiplication on the group-element basis, which is the workhorse
for deciding unitarity of group-algebra elements downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Perm",
    "FiniteGroup",
    "CoeffVector",
    "symmetric_group",
    "cyclic_group",
    "left_regular",
    "right_regular",
    "regular_lincomb",
]

# Orders up to this bound get an exhaustive associativity check at
# construction; larger tables trust the caller.
_ASSOC_CHECK_MAX = 24


@dataclass(frozen=True)
class Perm:
    """Permutation of {1..n} in one-line notation.

    ``images[i-1]`` is the image of ``i``.  Composition follows function
    application: ``(p * q)(i) = p(q(i))``, compatible with multiplying
    the corresponding permutation matrices.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Perm") -> "Perm":
        """Composition self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Perm(tuple(self.images[j - 1] for j in other.images))

    def __mul__(self, other: "Perm") -> "Perm":
        return self.compose(other)

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Perm(tuple(inv))


# S3 element order used by every indexed formula in this package:
# identity, the two 3-cycles, then the three transpositions.
_S3_ORDER = [
    (1, 2, 3),
    (3, 1, 2),
    (2, 3, 1),
    (1, 3, 2),
    (2, 1, 3),
    (3, 2, 1),
]


@dataclass
class FiniteGroup:
    """A finite group presented by its Cayley table.

    ``cayley[i, j]`` is the id of the product (element i) * (element j).
    Construction validates the Latin-square property, the existence of a
    two-sided identity and inverses, and (for order <= 24) associativity
    on all triples.
    """

    cayley: np.ndarray
    perms: tuple[Perm, ...] | None = None  # set for symmetric groups
    identity_id: int = field(init=False)
    inverses: np.ndarray = field(init=False)

    def __post_init__(self):
        T = np.asarray(self.cayley, dtype=np.intp)
        n = T.shape[0]
        if T.shape != (n, n) or n == 0:
            raise ValueError("cayley table must be square and non-empty")
        if T.min() < 0 or T.max() >= n:
            raise ValueError("cayley entries out of range")
        full = np.arange(n)
        if not (np.sort(T, axis=1) == full[None, :]).all():
            raise ValueError("cayley table is not a Latin square (rows)")
        if not (np.sort(T, axis=0) == full[:, None]).all():
            raise ValueError("cayley table is not a Latin square (columns)")
        ident = [e for e in range(n) if (T[e] == full).all() and (T[:, e] == full).all()]
        if len(ident) != 1:
            raise ValueError("no two-sided identity element")
        e = ident[0]
        inv = np.empty(n, dtype=np.intp)
        for g in range(n):
            cands = np.flatnonzero(T[g] == e)
            if cands.size != 1 or T[cands[0], g] != e:
                raise ValueError(f"element {g} has no two-sided inverse")
            inv[g] = cands[0]
        if n <= _ASSOC_CHECK_MAX and not np.array_equal(T[T], T[:, T]):
            raise ValueError("cayley table is not associative")
        self.cayley = T
        self.identity_id = e
        self.inverses = inv

    def __eq__(self, other) -> bool:
        """Groups are equal when their Cayley tables are; perms only name elements."""
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or np.array_equal(self.cayley, other.cayley)

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    @property
    def elements(self) -> range:
        return range(self.order)

    def mul(self, g: int, h: int) -> int:
        return int(self.cayley[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverses[g])


def symmetric_group(n: int) -> FiniteGroup:
    """All n! permutations of {1..n} as a FiniteGroup.

    For n = 3 the element order is fixed to the convention used by every
    indexed coefficient formula in this package (identity, the two
    3-cycles, then the three transpositions); other n use lexicographic
    order of one-line images, which also puts the identity first.
    """
    if not 1 <= n <= 5:
        raise ValueError("symmetric_group supports 1 <= n <= 5")
    if n == 3:
        images = _S3_ORDER
    else:
        images = sorted(itertools.permutations(range(1, n + 1)))
    perms = tuple(Perm(t) for t in images)
    index = {p.images: i for i, p in enumerate(perms)}
    table = [[index[(perms[i] * perms[j]).images] for j in range(len(perms))]
             for i in range(len(perms))]
    return FiniteGroup(np.array(table), perms=perms)


def cyclic_group(n: int) -> FiniteGroup:
    """Integers mod n under addition."""
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    table = (i[:, None] + i[None, :]) % n
    return FiniteGroup(table)


def left_regular(group: FiniteGroup, g: int) -> np.ndarray:
    """Permutation matrix of g acting by left multiplication.

    Entry (x, y) is 1 exactly when g = x * y^{-1}, i.e. column y carries
    basis vector |y> to |g*y>.
    """
    if not 0 <= g < group.order:
        raise ValueError(f"invalid element id {g}")
    L = np.zeros((group.order, group.order), dtype=complex)
    L[group.cayley[g], np.arange(group.order)] = 1.0
    return L


def right_regular(group: FiniteGroup, g: int) -> np.ndarray:
    """Permutation matrix of g acting by right inverse multiplication, |y> -> |y*g^{-1}>."""
    if not 0 <= g < group.order:
        raise ValueError(f"invalid element id {g}")
    R = np.zeros((group.order, group.order), dtype=complex)
    ginv = group.inv(g)
    R[group.cayley[np.arange(group.order), ginv], np.arange(group.order)] = 1.0
    return R


@dataclass
class CoeffVector:
    """One complex coefficient per group element: an element of the group algebra."""

    group: FiniteGroup
    coeffs: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.coeffs, dtype=complex)
        if z.shape != (self.group.order,):
            raise ValueError("coefficient count must equal group order")
        self.coeffs = z

    @classmethod
    def indicator(cls, group: FiniteGroup, g: int) -> "CoeffVector":
        z = np.zeros(group.order, dtype=complex)
        z[g] = 1.0
        return cls(group, z)


def _is_over(z: CoeffVector, group: FiniteGroup) -> bool:
    """Whether z is a vector over ``group``: that group, or one with the same Cayley table."""
    return z.group == group


def regular_lincomb(z: CoeffVector) -> np.ndarray:
    """The matrix sum_g z_g L_g in the left regular representation."""
    G = z.group
    M = np.zeros((G.order, G.order), dtype=complex)
    cols = np.arange(G.order)
    for g in range(G.order):
        M[G.cayley[g], cols] += z.coeffs[g]
    return M
