"""Structural physical approximation (SPA): mix the normalized Choi matrix
with white noise until it turns PSD, and certify separability at a = n - 1.

For W = C / Tr(C) the noisy family is W(lam) = (1 - lam)/n^2 * I + lam * W.
The first PSD point is lam* = 1 / (1 + n^2 ||W^-||), equivalently
SPA = (||C^-|| I + C) / (Tr(C) + n^2 ||C^-||).  ||C^-|| and Tr(C) come from
the structured Choi matrix that the map keeps (:func:`choi_structure`): the
negative eigenvalues of C are those of its n x n core, so the core's least
eigenvalue, one secular-equation root, gives lam* exactly; it is solved when
first read.  Claimed closed-form values (such as ||C^-|| = 1 at a = n - 1)
are asserted in the tests against a dense eigensolve, never assumed.

At a = n - 1 with every cycle of sigma of length >= 2 the SPA is separable
for every c > 0, positive map or not.  Proof: C = sum_{i != k} D[i, k]
|ik><ik| + K on span{|ii>}, with D[i, k] = c_k at k = sigma^(-1)(i) and 0
elsewhere off the diagonal (no fixed point puts a c_i on the diagonal), and
core K = (n - 1) I - J, whatever c.  K's eigenvalues are -1 (on the all-ones
vector) and n - 1, and the rest of C is a non-negative diagonal, so
nu = ||C^-|| = 1 and nu I + C = sum_{i != k} (1 + D[i, k]) |ik><ik| + n I - J
on span{|ii>}.  The n(n-1)/2 two-level blocks sigma_ij (i < j) sum to exactly
that but for the c's: each puts 1 at |ii>, |jj>, |ij> and |ji> and -1 between
|ii> and |jj>, so together they give n I - J on span{|ii>} (n - 1 pairs
meet at each |ii>) and 1 at every |ik>, i != k.  What is left is
c_k |ik><ik| at k = sigma^(-1)(i), a product term with c_k > 0.  Each
sigma_ij factors through a 4 x 4 seed R as (D_ij (x) D_ij) R (D_ij (x) D_ij)*
with R and its partial transpose PSD: R is the identity with -1 at (1, 4)
and (4, 1), whose partial transpose holds -1 at (2, 3) and (3, 2) instead.
So every term is PSD and PPT, and separable (a PPT state of two qubits is,
Horodecki et al., Phys. Lett. A 223, 1996); positivity is never read.  The
tests build R, and the dense noisy family W(lam), as oracles
(``tests/matrix_helpers.py``).  Each term is held as its kind, indices and
weight, and their sum is checked against the structured SPA in O(n^2); the
SPA matrix and each term's matrix are built only when read
(:func:`cyclemaps.dmap.assemble`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dmap import ChoiStructure, MapParams, assemble, choi_structure, parts_distance, require_dense_size
from .errors import PreconditionError
from .matlin import DECISION_TOL
from .perm import cycle_decompose


@dataclass(frozen=True)
class SpaState:
    """The mixing data of the SPA, read from the map's Choi structure; the
    density matrix is built on first access."""

    structure: ChoiStructure

    @property
    def trace_choi(self) -> float:
        return self.structure.trace

    @property
    def w_minus_norm(self) -> float:
        """||W^-|| = ||C^-|| / Tr(C)."""
        return self.structure.negative_norm / self.trace_choi

    @property
    def lambda_star(self) -> float:
        """1 / (1 + n^2 ||W^-||), the first PSD point of the noisy family."""
        return 1.0 / (1.0 + self.structure.n**2 * self.w_minus_norm)

    @property
    def _scale(self) -> float:
        """1 / (Tr(C) + n^2 ||C^-||), the SPA's normalization."""
        return 1.0 / (self.trace_choi + self.structure.n ** 2 * self.structure.negative_norm)

    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        """SPA = (||C^-|| I + C) / (Tr(C) + n^2 ||C^-||) as :func:`assemble`'s (diag, core)."""
        n, neg, scale = self.structure.n, self.structure.negative_norm, self._scale
        d, k = self.structure.parts()
        return (neg + d) * scale, (neg * np.eye(n) + k) * scale

    @cached_property
    def matrix(self) -> np.ndarray:
        """The SPA, dense n^2 x n^2."""
        require_dense_size(self.structure.n)
        return assemble(self.structure.n, *self.parts())


@dataclass(frozen=True)
class SpaTerm:
    """One separable ingredient: its kind, the 1-based indices it lives on, its
    weight in the convex combination and n; the raw matrix is built when read."""

    kind: str
    indices: tuple[int, int]
    weight: float
    n: int

    @cached_property
    def matrix(self) -> np.ndarray:
        require_dense_size(self.n)
        diag, core = np.zeros((self.n, self.n)), np.zeros((self.n, self.n))
        self._add_to(diag, core, 1.0)
        return assemble(self.n, diag, core)

    def _add_to(self, diag: np.ndarray, core: np.ndarray, weight: float) -> None:
        """Add weight times the matrix to :func:`assemble`'s (diag, core): R written onto
        |ii>, |ij>, |ji>, |jj> for a pair (i, j), a unit at |ij> for a diagonal term."""
        i, j = self.indices[0] - 1, self.indices[1] - 1
        diag[i, j] += weight
        if self.kind == "pair":
            diag[j, i] += weight
            core[np.ix_((i, j), (i, j))] += weight * np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class SeparableDecomposition:
    """SPA = sum_t weight_t * matrix_t with every term manifestly separable;
    ``state`` is the SPA state it decomposes."""

    terms: tuple[SpaTerm, ...]
    state: SpaState
    residual: float

    @property
    def normalization(self) -> float:
        """1 / (Tr(C) + n^2 ||C^-||), the weight of each pair term."""
        return self.state._scale


def spa_state(p: MapParams) -> SpaState:
    """Compute the SPA of the map's witness direction from the Choi spectrum.

    Raises PreconditionError when Tr C = n(a - 1) + sum(c) <= 0.  Nothing is
    solved here: the core's least eigenvalue is solved when a field that
    needs it is first read."""
    structure = choi_structure(p)
    trace = structure.trace  # the SPA normalizes by it
    if not trace > 0.0:
        raise PreconditionError(
            f"the SPA normalizes by Tr C = n(a - 1) + sum(c), which must be positive (got {trace})"
        )
    return SpaState(structure=structure)


def separable_decomposition(p: MapParams) -> SeparableDecomposition:
    """Write the SPA at a = n - 1 as an explicit convex mix of separable terms.

    Preconditions, checked in this order: Tr C > 0 (:func:`spa_state`, whose
    result the decomposition keeps), a = n - 1 (within DECISION_TOL, as every
    boundary) and every cycle of sigma of length >= 2.  Positivity is not
    needed (module docstring).  Each two-level term sigma_ij is its
    factorization (D_ij (x) D_ij) R (D_ij (x) D_ij)*, with D_ij the n x 2
    isometry onto coordinates i, j: R written onto |ii>, |ij>, |ji>, |jj>.
    Each diagonal term is one unit entry at |i, sigma^(-1)(i)>.  ``residual``
    compares the weighted sum of the terms with the SPA entry by entry, in
    O(n^2).
    """
    state = spa_state(p)
    n = p.n
    if abs(p.a - (n - 1.0)) > DECISION_TOL:
        raise PreconditionError(f"requires a = n - 1 = {n - 1} (got a = {p.a})")
    l_min = cycle_decompose(p.sigma).l_min
    if l_min < 2:
        raise PreconditionError(
            f"requires every cycle of sigma of length >= 2 (got a cycle of length {l_min})"
        )
    normalization = state._scale

    inv = p.sigma.inverse()
    terms = [SpaTerm("pair", (i, j), normalization, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    terms += [SpaTerm("diagonal", (i, inv(i)), p.c[inv(i) - 1] * normalization, n) for i in range(1, n + 1)]

    diag, core = np.zeros((n, n)), np.zeros((n, n))
    for t in terms:
        t._add_to(diag, core, t.weight)
    residual = parts_distance((diag, core), state.parts())
    return SeparableDecomposition(terms=tuple(terms), state=state, residual=residual)
