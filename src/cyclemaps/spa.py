"""Structural physical approximation (SPA): mix the normalized Choi matrix
with white noise until it turns PSD, and certify separability at a = n - 1.

For W = C / Tr(C) the noisy family is W(lam) = (1 - lam)/n^2 * I + lam * W.
The first PSD point is lam* = 1 / (1 + n^2 ||W^-||), equivalently
SPA = (||C^-|| I + C) / (Tr(C) + n^2 ||C^-||).  ||C^-|| and Tr(C) come from
the structured Choi matrix that the map keeps (:func:`choi_structure`): the
negative eigenvalues of C are those of its n x n core, so the core's least
eigenvalue, one secular-equation root, gives lam* exactly.  :class:`SpaState`
keeps the positivity verdict, which the separable decomposition reads.  Claimed
closed-form values (such as ||C^-|| = 1 at a = n - 1) are asserted in the
tests against a dense eigensolve, never assumed.

At a = n - 1 with every cycle of sigma of length >= 2 the SPA is separable
outright: n^2 * SPA splits into the two-level blocks sigma_ij plus weighted
diagonal product terms, and each sigma_ij factors through a 4 x 4 seed R as
(D_ij (x) D_ij) R (D_ij (x) D_ij)* with R and its partial transpose PSD.
Each term is held as its kind, indices and weight, and their sum is checked
against the structured SPA in O(n^2); the SPA matrix, the noisy family and
each term's matrix are built only when read (:func:`cyclemaps.dmap.assemble`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import BOUNDARY_TOL, NO, YES, Verdict, positivity_verdict
from .dmap import ChoiStructure, MapParams, assemble, choi_structure, parts_distance, require_dense_size
from .errors import ParameterError, PreconditionError
from .matlin import DEFAULT_PSD_TOL, min_eigenvalue, partial_transpose, require_hermitian
from .perm import cycle_decompose


@dataclass(frozen=True)
class SpaState:
    """The mixing data of the SPA, and the positivity verdict of the map it
    came from (``positive``); the density matrix is built on first access."""

    structure: ChoiStructure
    lambda_star: float
    w_minus_norm: float
    trace_choi: float
    positive: Verdict

    @property
    def positivity_warning(self) -> bool:
        """True when the map's positivity verdict is "no"."""
        return self.positive.status == NO

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


def r_matrix() -> np.ndarray:
    """The 4 x 4 seed of the two-level blocks: identity with -1 in the
    (1, 4) / (4, 1) corners.  PSD with spectrum {0, 1, 1, 2}, and so is its
    partial transpose."""
    r = np.eye(4)
    r[0, 3] = -1.0
    r[3, 0] = -1.0
    return r


def _positive_trace(p: MapParams) -> float:
    """Tr C, by which the SPA normalizes; a non-positive trace has no SPA."""
    trace = choi_structure(p).trace
    if not trace > 0.0:
        raise PreconditionError(
            f"the SPA normalizes by Tr C = n(a - 1) + sum(c), which must be positive (got {trace})"
        )
    return trace


def spa_state(p: MapParams) -> SpaState:
    """Compute the SPA of the map's witness direction from the Choi spectrum.

    Raises PreconditionError when Tr C = n(a - 1) + sum(c) <= 0."""
    positive = positivity_verdict(p)
    trace = _positive_trace(p)
    structure = choi_structure(p)
    w_minus_norm = structure.negative_norm / trace
    lambda_star = 1.0 / (1.0 + p.n**2 * w_minus_norm)
    return SpaState(
        structure=structure,
        lambda_star=lambda_star,
        w_minus_norm=w_minus_norm,
        trace_choi=trace,
        positive=positive,
    )


def spa_interpolation(p: MapParams, lam: float) -> np.ndarray:
    """The noisy family W(lam) = (1 - lam)/n^2 * I + lam * C/Tr(C)."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lam must lie in [0, 1] (got {lam})")
    trace = _positive_trace(p)
    require_dense_size(p.n)
    noise = (1.0 - lam) / p.n**2
    d, k = choi_structure(p).parts()
    return assemble(p.n, noise + lam * d / trace, noise * np.eye(p.n) + lam * k / trace)


def separable_decomposition(p: MapParams) -> SeparableDecomposition:
    """Write the SPA at a = n - 1 as an explicit convex mix of separable terms.

    Preconditions, checked in this order: Tr C > 0 (:func:`spa_state`, whose
    result the decomposition keeps), a = n - 1 (within BOUNDARY_TOL, as every
    boundary), every cycle of sigma of length >= 2, and positivity
    established by a decisive criterion.  Each two-level term sigma_ij is its
    factorization (D_ij (x) D_ij) R (D_ij (x) D_ij)*, with D_ij the n x 2
    isometry onto coordinates i, j: R written onto |ii>, |ij>, |ji>, |jj>.
    Each diagonal term is one unit entry at |i, sigma^(-1)(i)>.  ``residual``
    compares the weighted sum of the terms with the SPA entry by entry, in
    O(n^2).
    """
    state = spa_state(p)
    n = p.n
    if abs(p.a - (n - 1.0)) > BOUNDARY_TOL:
        raise PreconditionError(f"requires a = n - 1 = {n - 1} (got a = {p.a})")
    l_min = cycle_decompose(p.sigma).l_min
    if l_min < 2:
        raise PreconditionError(
            f"requires every cycle of sigma of length >= 2 (got a cycle of length {l_min})"
        )
    if state.positive.status != YES:
        raise PreconditionError(
            f"requires established positivity; the verdict here is '{state.positive.status}'"
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


def ppt_check(m: np.ndarray, k: int, n: int, tol: float = DEFAULT_PSD_TOL) -> tuple[bool, float]:
    """Is the partial transpose of a Hermitian matrix on C^k (x) C^n PSD?
    Returns the verdict and the minimum eigenvalue of the partial transpose."""
    m = require_hermitian(m)
    pt_min = min_eigenvalue(partial_transpose(m, k, n))
    return pt_min >= -tol, pt_min
