"""Permutations of {1, ..., n}, their cycle structure, and cyclic shifts.

All public indices are 1-based: a ``Permutation`` with ``images == (3, 1, 2)``
sends 1 to 3, 2 to 1 and 3 to 2.  Cycle decompositions are canonical: every
cycle is rotated to start at its smallest element and cycles are sorted by
that element, so equal permutations always decompose identically.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import ParameterError


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} stored as its tuple of images.

    >>> s = Permutation((3, 1, 2))
    >>> s(1), s(2), s(3)
    (3, 1, 2)
    >>> s.inverse()(3)
    1
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.images, (str, bytes, bytearray)) or not isinstance(self.images, Sequence):
            raise ParameterError(f"permutation images must be a sequence of integers (got {type(self.images).__name__})")
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if n == 0:
            raise ParameterError("permutation needs degree >= 1 (got empty images)")
        for k, i in enumerate(images, start=1):
            if not isinstance(i, int) or isinstance(i, bool):
                raise ParameterError(f"permutation images must be integers (got {i!r} as the image of {k})")
        if sorted(images) != list(range(1, n + 1)):  # name the first image out of range or repeated
            bad, first = f"images are not a bijection of {{1, ..., {n}}}", {}
            for k, i in enumerate(images, start=1):
                if not 1 <= i <= n:
                    raise ParameterError(f"{bad}: {_int_text(i)} is the image of {k}, outside the range")
                if i in first:
                    missing = min(set(range(1, n + 1)).difference(images))
                    raise ParameterError(f"{bad}: {i} is the image of both {first[i]} and {k}, and {missing} is missing")
                first[i] = k

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ParameterError(f"index {i} outside {{1, ..., {self.n}}}")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: ``(self.compose(other))(i) == self(other(i))``."""
        if other.n != self.n:
            raise ParameterError(
                f"cannot compose permutations of degrees {self.n} and {other.n}"
            )
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    @cached_property
    def decomposition(self) -> CycleDecomposition:
        """The canonical cycle decomposition, computed on first use and kept."""
        seen = [False] * self.n
        cycles: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            j = self.images[start - 1]
            while j != start:
                cycle.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            cycles.append(tuple(cycle))
        return CycleDecomposition(n=self.n, cycles=tuple(cycles))


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles of a permutation, in canonical order.

    ``cycles`` includes fixed points as 1-cycles, so the lengths always sum
    to ``n``.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)

    @property
    def l_min(self) -> int:
        return min(self.lengths)

    @property
    def l_max(self) -> int:
        return max(self.lengths)


def identity(n: int) -> Permutation:
    """The identity permutation of {1, ..., n}: the full shift tau(n, n)."""
    return tau(n, n)


def tau(n: int, k: int) -> Permutation:
    """The cyclic shift i -> i + k reduced mod n into {1, ..., n}.

    >>> tau(3, 2).images
    (3, 1, 2)
    >>> tau(6, 4).images
    (5, 6, 1, 2, 3, 4)

    n and k must be Python ints, not bools or numpy integers.
    """
    for value, name in ((n, "n"), (k, "k")):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterError(f"{name} must be an int, not {type(value).__name__} (got {name}={value!r})")
    if n < 1:
        raise ParameterError(f"degree must be >= 1 (got n={n})")
    if not 1 <= k <= n:
        raise ParameterError(f"shift k must satisfy 1 <= k <= n (got k={k}, n={n})")
    return Permutation(tuple((i + k - 1) % n + 1 for i in range(1, n + 1)))


def cycle_decompose(sigma: Permutation) -> CycleDecomposition:
    """Canonical disjoint-cycle decomposition, built once per permutation.

    >>> cycle_decompose(tau(3, 2)).cycles
    ((1, 3, 2),)
    >>> cycle_decompose(tau(6, 3)).cycles
    ((1, 4), (2, 5), (3, 6))
    """
    return sigma.decomposition


def from_cycles(n: int, cycles: tuple[tuple[int, ...], ...]) -> Permutation:
    """Rebuild a permutation of {1, ..., n} from disjoint cycles."""
    images = [0] * n
    for cycle in cycles:
        for pos, i in enumerate(cycle):
            if not 1 <= i <= n:
                raise ParameterError(f"cycle entry {i} outside {{1, ..., {n}}}")
            if images[i - 1]:
                raise ParameterError(f"cycles are not disjoint at element {i}")
            images[i - 1] = cycle[(pos + 1) % len(cycle)]
    if 0 in images:
        missing = images.index(0) + 1
        raise ParameterError(f"element {missing} missing from the cycle list")
    return Permutation(tuple(images))


def is_involution(sigma: Permutation) -> bool:
    """True when sigma composed with itself is the identity: no cycle is longer than 2."""
    return cycle_decompose(sigma).l_max <= 2


def is_single_cycle(sigma: Permutation) -> bool:
    """True when sigma is one cycle through all n points."""
    return len(cycle_decompose(sigma).cycles) == 1


def parse_permutation(text: str, n: Optional[int] = None) -> Permutation:
    """Parse the textual permutation formats used at tool boundaries.

    Three formats are accepted:

    * ``"tau:n:k"``    -- the cyclic shift ``tau(n, k)``
    * ``"id:n"``       -- the identity of degree n
    * ``"images:3,1,2"`` -- explicit 1-based image list

    With ``n`` given, a degree other than ``n`` raises ParameterError before
    any image tuple is built, so a short text cannot ask for a huge one.

    >>> parse_permutation("tau:3:2").images
    (3, 1, 2)
    >>> parse_permutation("images:2,1,4,3").images
    (2, 1, 4, 3)
    """
    if not isinstance(text, str):
        raise ParameterError(f"sigma must be a string (got {type(text).__name__})")
    head, _, rest = text.partition(":")
    if head == "tau":
        n_text, _, k_text = rest.partition(":")
        return tau(_check_degree(_component(n_text), n), _component(k_text))
    if head == "id":
        return identity(_check_degree(_component(rest), n))
    if head == "images":
        images = tuple(map(_component, rest.split(",")))
        _check_degree(len(images), n)
        return Permutation(images)
    raise ParameterError(
        f"unrecognized sigma format {_clip(head)}: expected 'tau:n:k', 'id:n' or 'images:i1,i2,...'"
    )


def _component(part: str) -> int:
    """One integer field of a sigma text; ParameterError naming the field otherwise."""
    try:
        return int(part)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", part):  # int's own syntax: only the digit limit refused it
            raise ParameterError(f"sigma has an integer component past Python's digit limit {_clip(part)}") from None
        raise ParameterError(f"sigma has a non-integer component {_clip(part)}") from None


def _clip(text: str) -> str:
    """repr of a piece of a sigma text: its first 40 characters and '...' when longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


def _int_text(i: int) -> str:
    """An image for a message: its digits while it fits 64 bits, else its size."""
    return str(i) if i.bit_length() <= 64 else f"an integer of {i.bit_length()} bits"


def _check_degree(degree: int, n: Optional[int]) -> int:
    """``degree``, or ParameterError when an expected degree ``n`` differs from it."""
    if n is not None and degree != n:
        raise ParameterError(f"sigma has degree {degree}, which does not match n={n}")
    return degree


def format_permutation(sigma: Permutation) -> str:
    """Canonical textual form, round-trippable through parse_permutation."""
    return "images:" + ",".join(str(i) for i in sigma.images)
