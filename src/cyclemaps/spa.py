"""Structural physical approximation (SPA): mix the normalized Choi matrix
with white noise until it turns PSD, and certify separability at a = n - 1.

For W = C / Tr(C) the noisy family is W(lam) = (1 - lam)/n^2 * I + lam * W.
The first PSD point is lam* = 1 / (1 + n^2 ||W^-||), equivalently
SPA = (||C^-|| I + C) / (Tr(C) + n^2 ||C^-||).  ||C^-|| and Tr(C) come from
the structured Choi matrix (:class:`cyclemaps.dmap.ChoiStructure`): the
negative eigenvalues of C are those of its n x n core, so the core's least
eigenvalue, one secular-equation root, gives lam* exactly, and the n^2 x n^2
SPA matrix is assembled only when it is read.  Claimed closed-form values (such as ||C^-|| = 1 at
a = n - 1) are asserted in the tests against a dense eigensolve, never
assumed.

At a = n - 1 with every cycle of sigma of length >= 2 the SPA is separable
outright: n^2 * SPA splits into the two-level blocks sigma_ij plus weighted
diagonal product terms, and each sigma_ij factors through a 4 x 4 seed R as
(D_ij (x) D_ij) R (D_ij (x) D_ij)* with R and its partial transpose PSD.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import BOUNDARY_TOL, NO, YES, positivity_verdict
from .dmap import ChoiStructure, MapParams, choi_structure
from .errors import ParameterError, PreconditionError
from .matlin import DEFAULT_PSD_TOL, min_eigenvalue, partial_transpose, require_hermitian
from .perm import cycle_decompose


@dataclass(frozen=True)
class SpaState:
    """The mixing data of the SPA; the density matrix is built on first access."""

    structure: ChoiStructure
    lambda_star: float
    w_minus_norm: float
    trace_choi: float
    positivity_warning: bool

    @cached_property
    def matrix(self) -> np.ndarray:
        """SPA = (||C^-|| I + C) / (Tr(C) + n^2 ||C^-||), dense n^2 x n^2."""
        n2 = self.structure.n ** 2
        neg_norm = self.structure.negative_norm
        c = self.structure.dense()
        return (neg_norm * np.eye(n2, dtype=complex) + c) / (self.trace_choi + n2 * neg_norm)


@dataclass(frozen=True)
class SpaTerm:
    """One separable ingredient: its kind, the 1-based indices it lives on,
    the raw (unweighted) matrix and its weight in the convex combination."""

    kind: str
    indices: tuple[int, ...]
    weight: float
    matrix: np.ndarray


@dataclass(frozen=True)
class SeparableDecomposition:
    """SPA = sum_t weight_t * matrix_t with every term manifestly separable."""

    terms: tuple[SpaTerm, ...]
    normalization: float
    residual: float


def r_matrix() -> np.ndarray:
    """The 4 x 4 seed of the two-level blocks: identity with -1 in the
    (1, 4) / (4, 1) corners.  PSD with spectrum {0, 1, 1, 2}, and so is its
    partial transpose."""
    r = np.eye(4, dtype=complex)
    r[0, 3] = -1.0
    r[3, 0] = -1.0
    return r


def _positive_trace(structure: ChoiStructure) -> float:
    """Tr C, by which the SPA normalizes; a non-positive trace has no SPA."""
    trace = structure.trace
    if not trace > 0.0:
        raise PreconditionError(
            f"the SPA normalizes by Tr C = n(a - 1) + sum(c), which must be positive (got {trace})"
        )
    return trace


def spa_state(p: MapParams) -> SpaState:
    """Compute the SPA of the map's witness direction from the Choi spectrum.

    Raises PreconditionError when Tr C = n(a - 1) + sum(c) <= 0."""
    structure = choi_structure(p)
    trace = _positive_trace(structure)
    w_minus_norm = structure.negative_norm / trace
    lambda_star = 1.0 / (1.0 + p.n**2 * w_minus_norm)
    warning = positivity_verdict(p).status == NO
    return SpaState(
        structure=structure,
        lambda_star=lambda_star,
        w_minus_norm=w_minus_norm,
        trace_choi=trace,
        positivity_warning=warning,
    )


def spa_interpolation(p: MapParams, lam: float) -> np.ndarray:
    """The noisy family W(lam) = (1 - lam)/n^2 * I + lam * C/Tr(C)."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lam must lie in [0, 1] (got {lam})")
    structure = choi_structure(p)
    trace = _positive_trace(structure)
    return (1.0 - lam) / p.n**2 * np.eye(p.n**2, dtype=complex) + lam * structure.dense() / trace


def separable_decomposition(p: MapParams) -> SeparableDecomposition:
    """Write the SPA at a = n - 1 as an explicit convex mix of separable terms.

    Preconditions: a = n - 1 (within BOUNDARY_TOL, as every boundary), every
    cycle of sigma of length >= 2, and positivity established by a decisive
    criterion.  Each two-level term sigma_ij is built as its factorization
    (D_ij (x) D_ij) R (D_ij (x) D_ij)*, with D_ij the n x 2 isometry onto
    coordinates i, j: R written onto |ii>, |ij>, |ji>, |jj>.  Each diagonal
    term is one unit entry at |i, sigma^(-1)(i)>.
    """
    n = p.n
    if abs(p.a - (n - 1.0)) > BOUNDARY_TOL:
        raise PreconditionError(f"requires a = n - 1 = {n - 1} (got a = {p.a})")
    l_min = cycle_decompose(p.sigma).l_min
    if l_min < 2:
        raise PreconditionError(
            f"requires every cycle of sigma of length >= 2 (got a cycle of length {l_min})"
        )
    pos = positivity_verdict(p)
    if pos.status != YES:
        raise PreconditionError(
            f"requires established positivity; the verdict here is '{pos.status}'"
        )

    state = spa_state(p)
    normalization = 1.0 / (state.trace_choi + n**2 * state.w_minus_norm * state.trace_choi)

    r = r_matrix()
    inv = p.sigma.inverse()
    terms: list[SpaTerm] = []
    for i in range(n):
        for j in range(i + 1, n):
            block = np.zeros((n * n, n * n), dtype=complex)
            coords = [i * n + i, i * n + j, j * n + i, j * n + j]
            block[np.ix_(coords, coords)] = r
            terms.append(SpaTerm("pair", (i + 1, j + 1), normalization, block))
    for i in range(n):
        j = inv(i + 1) - 1
        diag = np.zeros((n * n, n * n), dtype=complex)
        diag[i * n + j, i * n + j] = 1.0
        terms.append(SpaTerm("diagonal", (i + 1, j + 1), p.c[j] * normalization, diag))

    total = sum((t.weight * t.matrix for t in terms), start=np.zeros_like(state.matrix))
    residual = float(np.max(np.abs(total - state.matrix)))
    return SeparableDecomposition(
        terms=tuple(terms), normalization=normalization, residual=residual
    )


def ppt_check(m: np.ndarray, k: int, n: int, tol: float = DEFAULT_PSD_TOL) -> tuple[bool, float]:
    """Is the partial transpose of a Hermitian matrix on C^k (x) C^n PSD?
    Returns the verdict and the minimum eigenvalue of the partial transpose."""
    m = require_hermitian(m)
    pt_min = min_eigenvalue(partial_transpose(m, k, n))
    return pt_min >= -tol, pt_min
