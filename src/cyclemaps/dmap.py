"""Diagonal-compression maps on M_n built from a permutation and weights.

The family implemented here is parameterized by a permutation sigma of
{1, ..., n}, a scalar a > 0 and weights c = (c_1, ..., c_n):

* the diagonal compression  Delta(X) = diag(a*x_ii + c_i * x_{sigma(i), sigma(i)}),
* the shifted map           Theta(X) = Delta(X) - X.

Theta acts on the diagonal of X through the n x n matrix
D = a*I + sum_i c_i E_{sigma(i), i} and subtracts X wholesale, which makes the
whole family tractable: positivity, complete positivity and the finer
structure all reduce to statements about (n, sigma, a, c).  The same D
determines the Choi matrix exactly (see :class:`ChoiStructure`), so every
spectral quantity of it is computed from n x n data; the dense n^2 x n^2
matrix is assembled only when a caller asks for the matrix itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .matlin import MAX_DIM
from .perm import Permutation, identity

_REL_TOL = 1e-12


@dataclass(frozen=True)
class MapParams:
    """Parameters (n, sigma, a, c) of one map in the family.

    The general constructor requires strictly positive a and c entries;
    the weight-free map with c = 0 exists only through :func:`delta_n`.
    """

    n: int
    sigma: Permutation
    a: float
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer (got {self.n!r})")
        if self.sigma.n != self.n:
            raise ParameterError(
                f"sigma has degree {self.sigma.n}, which does not match n={self.n}"
            )
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "c", tuple(float(ci) for ci in self.c))
        if not np.isfinite(self.a) or self.a <= 0:
            raise ParameterError(f"a must be positive and finite (got {self.a})")
        if len(self.c) != self.n:
            raise ParameterError(f"c must have length n={self.n} (got {len(self.c)})")
        for i, ci in enumerate(self.c, start=1):
            if not np.isfinite(ci) or ci <= 0:
                raise ParameterError(f"c[{i}] must be positive and finite (got {ci})")

    @property
    def uniform_c(self) -> bool:
        return max(self.c) - min(self.c) <= _REL_TOL * max(1.0, abs(self.c[0]))


def delta_n(n: int) -> MapParams:
    """The map X -> n*diag(X) - X, i.e. Theta with a = n and all weights zero.

    This is the one member of the family with c = 0; the general constructor
    rejects zero weights, so it is built here through a validated back door.
    """
    if not isinstance(n, int) or n < 2:
        raise ParameterError(f"delta_n needs an integer n >= 2 (got {n!r})")
    p = object.__new__(MapParams)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "sigma", identity(n))
    object.__setattr__(p, "a", float(n))
    object.__setattr__(p, "c", (0.0,) * n)
    return p


def _require_square_input(p: MapParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (p.n, p.n):
        raise ParameterError(f"input matrix must have shape ({p.n}, {p.n}); got {x.shape}")
    return x


def delta_apply(p: MapParams, x: np.ndarray) -> np.ndarray:
    """Apply the diagonal compression Delta to one matrix."""
    x = _require_square_input(p, x)
    d = np.diagonal(x)
    perm = np.array([p.sigma(i) - 1 for i in range(1, p.n + 1)])
    out = p.a * d + np.asarray(p.c) * d[perm]
    return np.diag(out)


def theta_apply(p: MapParams, x: np.ndarray) -> np.ndarray:
    """Apply the shifted map Theta(X) = Delta(X) - X."""
    x = _require_square_input(p, x)
    return delta_apply(p, x) - x


def d_matrix(p: MapParams) -> np.ndarray:
    """The n x n matrix D = a*I + sum_i c_i E_{sigma(i), i} driving the diagonal action.

    Feeding the row vector of diagonal entries of X through D reproduces the
    diagonal of Delta(X): Delta(X) = diag((x_11, ..., x_nn) . D).
    """
    d = p.a * np.eye(p.n, dtype=complex)
    d[np.asarray(p.sigma.images) - 1, np.arange(p.n)] += p.c
    return d


@dataclass(frozen=True)
class ChoiMatrix:
    """The block matrix sum_ij E_ij (x) psi(E_ij) for psi = Theta or T.Theta.

    ``transposed_composition`` records whether the blocks went through an
    extra transpose (psi = transposition composed with Theta).  The matrix is
    Hermitian either way and its trace equals n*(a - 1) + sum(c).
    """

    n: int
    matrix: np.ndarray
    transposed_composition: bool


def pair_block_eigenvalues(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalues (lo, hi) of each 2x2 block [[x, -1], [-1, y]]."""
    hi = (x + y + np.sqrt((x - y) ** 2 + 4.0)) / 2.0
    # the smaller root as det / hi: no cancellation when x + y is large
    return (x * y - 1.0) / hi, hi


@dataclass(frozen=True, eq=False)
class ChoiStructure:
    """The Choi matrix of Theta held as the n x n data that determine it.

    Entry D[i, k] of ``weights`` = :func:`d_matrix` is the diagonal entry of
    the Choi matrix at |ik>: a at k = i, plus c_{sigma^-1(i)} at
    k = sigma^-1(i).  With Omega = sum_i |ii> and F the swap,

        Choi(Theta)   = diag(D) - |Omega><Omega|,
        Choi(T.Theta) = diag(D) - F.

    Hence Choi(Theta) acts on span{|ii>} as the ``core``
    K = diag(a + c_i [sigma(i) = i]) - J, and every |ik> with k != i is an
    eigenvector with eigenvalue D[i, k]: c_{sigma^-1(i)} at k = sigma^-1(i),
    0 elsewhere (Choi, Linear Algebra Appl. 10, 1975).  Choi(T.Theta) splits
    into 1x1 blocks D[i, i] - 1 on |ii> and 2x2 blocks [[D[i, k], -1],
    [-1, D[k, i]]] on {|ik>, |ki>}.  Every spectral quantity therefore costs
    one n x n eigensolve or less; :meth:`dense` builds the n^2 x n^2 matrix.
    """

    n: int
    weights: np.ndarray
    core: np.ndarray

    @cached_property
    def core_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.core)

    def _spectrum_parts(self, compose_transpose: bool) -> tuple[np.ndarray, ...]:
        d = self.weights
        if not compose_transpose:
            return self.core_eigenvalues, d[~np.eye(self.n, dtype=bool)]
        i, k = np.triu_indices(self.n, 1)
        return (np.diagonal(d) - 1.0, *pair_block_eigenvalues(d[i, k], d[k, i]))

    def eigenvalues(self, compose_transpose: bool = False) -> np.ndarray:
        """All n^2 eigenvalues of Choi(Theta) (or Choi(T.Theta)), ascending."""
        return np.sort(np.concatenate(self._spectrum_parts(compose_transpose)))

    def min_eigenvalue(self, compose_transpose: bool = False) -> float:
        return float(min(part.min() for part in self._spectrum_parts(compose_transpose) if part.size))

    @property
    def negative_norm(self) -> float:
        """||C^-||: the largest magnitude among negative eigenvalues of Choi(Theta), else 0."""
        return max(0.0, -self.min_eigenvalue())

    @property
    def trace(self) -> float:
        return float(self.weights.sum() - self.n)

    def dense(self, compose_transpose: bool = False) -> np.ndarray:
        """The n^2 x n^2 matrix itself, indexed |ik> -> i*n + k."""
        n = self.n
        if n * n > MAX_DIM:
            raise ParameterError(
                f"n = {n} is too large for the dense Choi matrix: {n * n} x {n * n} "
                f"complex entries need {16 * n**4:,} bytes (edge length limit {MAX_DIM})"
            )
        out = np.zeros((n * n, n * n), dtype=complex)
        idx = np.arange(n * n)
        out[idx, idx] = self.weights.ravel()
        if compose_transpose:
            i, k = np.divmod(idx, n)
            out[idx, k * n + i] -= 1.0
        else:
            ii = idx[:: n + 1]
            out[np.ix_(ii, ii)] -= 1.0
        return out


def choi_structure(p: MapParams) -> ChoiStructure:
    """The structured form of the Choi matrix of Theta: O(n^2) to build."""
    weights = d_matrix(p).real
    core = np.diag(np.diagonal(weights)) - 1.0
    return ChoiStructure(n=p.n, weights=weights, core=core)


def choi(p: MapParams, compose_transpose: bool = False) -> ChoiMatrix:
    """Assemble the dense Choi matrix of Theta (or of transposition-then-Theta).

    Raises ParameterError before allocating when n^2 exceeds ``MAX_DIM``.
    """
    matrix = choi_structure(p).dense(compose_transpose)
    return ChoiMatrix(n=p.n, matrix=matrix, transposed_composition=compose_transpose)
