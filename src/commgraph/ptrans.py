"""Partial transformations on a finite ground set {0..n-1}.

Elements are immutable.  Composition is the right action throughout:
``x(ab) = (xa)b``, i.e. ``compose(a, b)`` applies ``a`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

UNDEF = -1

ElementId = int


class SizeMismatchError(ValueError):
    """Operands live on ground sets of different sizes."""


@dataclass(frozen=True, slots=True)
class PTrans:
    """A partial self-map of {0..n-1}; ``images[x] == UNDEF`` means x has no image."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set must have at least one point, got n={self.n}")
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.n:
            raise ValueError(f"expected {self.n} image entries, got {len(images)}")
        for x, v in enumerate(images):
            if v != UNDEF and not 0 <= v < self.n:
                raise ValueError(f"image of point {x} out of range: {v}")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_pairs(cls, n: int, mapping: Mapping[int, int]) -> "PTrans":
        imgs = [UNDEF] * n
        for x, v in mapping.items():
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range for n={n}")
            imgs[x] = v
        return cls(n, tuple(imgs))

    @classmethod
    def decode(cls, value: ElementId, n: int) -> "PTrans":
        """Inverse of :meth:`encode`: mixed-radix digits base n+1, digit n = UNDEF."""
        if not 0 <= value < (n + 1) ** n:
            raise ValueError(f"element id {value} out of range for n={n}")
        imgs = []
        for _ in range(n):
            value, d = divmod(value, n + 1)
            imgs.append(UNDEF if d == n else d)
        return cls(n, tuple(imgs))

    def encode(self) -> ElementId:
        """Dense id in {0..(n+1)^n - 1}; digit of point x is images[x], UNDEF -> n."""
        value = 0
        for v in reversed(self.images):
            value = value * (self.n + 1) + (self.n if v == UNDEF else v)
        return value

    # -- structure -----------------------------------------------------------

    def dom(self) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self.images) if v != UNDEF)

    def im(self) -> frozenset[int]:
        return frozenset(v for v in self.images if v != UNDEF)

    def rank(self) -> int:
        return len(self.im())

    def preimage(self, y: int) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self.images) if v == y)

    def is_empty(self) -> bool:
        return all(v == UNDEF for v in self.images)

    def is_full(self) -> bool:
        return all(v != UNDEF for v in self.images)

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images))

    def is_permutation(self) -> bool:
        return self.is_full() and len(set(self.images)) == self.n

    def is_idempotent(self) -> bool:
        return compose(self, self) == self

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "PTrans") -> "PTrans":
        return compose(self, other)

    def __pow__(self, k: int) -> "PTrans":
        return power(self, k)

    def restrict(self, points: Iterable[int]) -> "PTrans":
        keep = set(points)
        return PTrans(self.n, tuple(v if x in keep else UNDEF for x, v in enumerate(self.images)))

    def cycle_decomposition(self) -> list[tuple[int, ...]]:
        """Disjoint cycles covering the ground set, each starting at its minimum,
        sorted by minimum.  Only defined for permutations."""
        if not self.is_permutation():
            raise ValueError("cycle decomposition requires a permutation")
        seen = [False] * self.n
        cycles = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            cycles.append(tuple(cyc))
        return cycles

    def is_full_cycle(self) -> bool:
        cycles = self.cycle_decomposition()
        return len(cycles) == 1 and len(cycles[0]) == self.n

    def __str__(self) -> str:
        return " ".join("-" if v == UNDEF else str(v + 1) for v in self.images)

    def __repr__(self) -> str:
        return f"PTrans({self.n}, [{self}])"


# -- constructors --------------------------------------------------------------


def identity(n: int) -> PTrans:
    return PTrans(n, tuple(range(n)))


def empty(n: int) -> PTrans:
    return PTrans(n, (UNDEF,) * n)


def point_map(n: int, x: int, x_prime: int) -> PTrans:
    """The map with domain {x} sending x to x_prime."""
    if not (0 <= x < n and 0 <= x_prime < n):
        raise ValueError(f"point map indices out of range for n={n}: ({x}, {x_prime})")
    return PTrans.from_pairs(n, {x: x_prime})


def partial_identity(n: int, points: Iterable[int]) -> PTrans:
    """The identity restricted to the given set of points."""
    pts = set(points)
    for x in pts:
        if not 0 <= x < n:
            raise ValueError(f"point {x} out of range for n={n}")
    return PTrans(n, tuple(x if x in pts else UNDEF for x in range(n)))


def compose(a: PTrans, b: PTrans) -> PTrans:
    """Right-action product: x(ab) = (xa)b, so ``a`` acts first."""
    if a.n != b.n:
        raise SizeMismatchError(f"cannot compose maps on {a.n} and {b.n} points")
    bi = b.images
    return PTrans(a.n, tuple(UNDEF if v == UNDEF else bi[v] for v in a.images))


def power(t: PTrans, k: int) -> PTrans:
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    acc = t
    for _ in range(k - 1):
        acc = compose(acc, t)
    return acc


def idempotent_power(t: PTrans) -> PTrans:
    """The unique idempotent among the powers t, t^2, ... (exists: the semigroup is finite)."""
    acc = t
    while not acc.is_idempotent():
        acc = compose(acc, t)
    return acc
