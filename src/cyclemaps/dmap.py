"""Diagonal-compression maps on M_n built from a permutation and coefficients.

The family implemented here is parameterized by a permutation sigma of
{1, ..., n}, a scalar a > 0 and coefficients c = (c_1, ..., c_n):

* the diagonal compression  Delta(X) = diag(a*x_ii + c_i * x_{sigma(i), sigma(i)}),
* the shifted map           Theta(X) = Delta(X) - X.

Theta acts on the diagonal of X through the n x n matrix
D = a*I + sum_i c_i E_{sigma(i), i} and subtracts X wholesale, which makes the
whole family tractable: positivity, complete positivity and the finer
structure all reduce to statements about (n, sigma, a, c).  The same D
determines the Choi matrix exactly, and :class:`ChoiStructure` holds it as
the O(n) arrays (a, c, sigma): every scalar of it (trace, minimum
eigenvalues, ||C^-||) costs O(n), the core's through the one rank-one
secular solver the positivity sampler uses as well.  Every dense n^2 x n^2
matrix here is a diagonal plus a block on span{|ii>}, and :func:`assemble`
builds it only when a caller asks for the matrix itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .matlin import MAX_DIM
from .perm import Permutation, _check_degree, identity

_REL_TOL = 1e-12

# Steps allowed per row in the secular-equation solve; rows close in about
# a dozen, however widely their entries spread.
_SECULAR_MAX_ITER = 64
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MapParams:
    """Parameters (n, sigma, a, c) of one map in the family.

    The general constructor requires strictly positive a and c entries;
    the map with c = 0 exists only through :func:`delta_n`.
    """

    n: int
    sigma: Permutation
    a: float
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer (got {self.n!r})")
        _check_degree(self.sigma.n, self.n)
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
    """The map X -> n*diag(X) - X, i.e. Theta with a = n and c = 0.

    This is the one member of the family with c = 0; the general constructor
    rejects c_i = 0, so it is built here through a validated back door.
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
    return np.diag(p.a * d + np.asarray(p.c) * d[choi_structure(p).img])


def theta_apply(p: MapParams, x: np.ndarray) -> np.ndarray:
    """Apply the shifted map Theta(X) = Delta(X) - X."""
    x = _require_square_input(p, x)
    return delta_apply(p, x) - x


def d_matrix(p: MapParams) -> np.ndarray:
    """The n x n matrix D = a*I + sum_i c_i E_{sigma(i), i} driving the diagonal action.

    Feeding the row vector of diagonal entries of X through D reproduces the
    diagonal of Delta(X): Delta(X) = diag((x_11, ..., x_nn) . D).
    """
    return choi_structure(p).entry(*np.indices((p.n, p.n))).astype(complex)


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


def assemble(n: int, diag, core, compose_transpose: bool = False) -> np.ndarray:
    """The dense n^2 x n^2 matrix sum_{i != k} diag[i, k] |ik><ik| + sum_{i, j} core[i, j] |ii><jj|,
    indexed |ik> -> i*n + k, or with core[i, j] at |ij><ji| under ``compose_transpose``.

    ``diag`` and ``core`` broadcast to n x n; diag[i, i] is not read, as |ii><ii|
    is the core's.  Raises ParameterError before allocating when n^2 exceeds ``MAX_DIM``.
    """
    if n * n > MAX_DIM:
        raise ParameterError(
            f"n = {n} is too large for a dense n^2 x n^2 matrix: {n * n} x {n * n} "
            f"complex entries need {16 * n**4:,} bytes (edge length limit {MAX_DIM})"
        )
    out = np.zeros((n * n, n * n), dtype=complex)
    np.fill_diagonal(out, diag)
    i, j = np.indices((n, n))
    out[(i * n + j, j * n + i) if compose_transpose else (i * (n + 1), j * (n + 1))] = core
    return out


def parts_distance(x: tuple, y: tuple) -> float:
    """max |X - Y| over the entries of two matrices given as :func:`assemble`'s (diag, core)."""
    (dx, cx), (dy, cy) = x, y
    off = ~np.eye(len(cy), dtype=bool)  # diag[i, i] is no entry of the matrix
    return float(max(np.max(np.abs(dx - dy), where=off, initial=0.0), np.max(np.abs(cx - cy))))


def pair_block_eigenvalues(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalues (lo, hi) of each 2x2 block [[x, -1], [-1, y]]."""
    hi = (x + y + np.sqrt((x - y) ** 2 + 4.0)) / 2.0
    # the smaller root as det / hi: no cancellation when x + y is large
    return (x * y - 1.0) / hi, hi


def _theta_min_eigenvalues(amps: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of diag(den) - xi xi* for each row w = |xi|^2.

    Each i with w_i = 0 deflates: den_i is an eigenvalue of its own.  On the
    support, with d_min the least den_i there and delta_i = den_i - d_min,
    the least eigenvalue is d_min - mu for the one root mu of the secular
    equation psi(mu) = sum_i w_i / (delta_i + mu) = 1 (Golub, SIAM Review
    15, 1973), which lies in [sum of w_i at delta_i = 0, sum_i w_i].  One
    evaluation at x of A = sum_i w_i r_i and B = sum_i w_i r_i^2, with
    r_i = x / (delta_i + x) in [0, 1] and rho = (A - x) / B, bounds mu from
    both sides: the Newton step x + A rho on the concave 1/psi - 1 from
    below, and x / (1 - rho), the root of the model B / mu + (A - B) / x
    that majorises psi (each term is concave in 1/mu), from above.  The next
    point is the lower bound once the bracket is within a factor 2, its
    geometric midpoint before, so rows whose delta_i spread over many
    decades still close in about a dozen steps.
    """
    # entries of w below eps^2 deflate as well: dropping them moves each
    # eigenvalue by at most 2 sqrt(n) eps (Weyl), and it keeps every
    # quantity below far from underflow
    support = amps > _EPS**2
    w = np.where(support, amps, 0.0)
    on_support = np.where(support, den, np.inf)
    d_min = on_support.min(axis=1)
    delta = on_support - d_min[:, None]  # inf off the support: r_i = 0 there
    lo = np.where(delta == 0, w, 0.0).sum(axis=1)
    hi = w.sum(axis=1)
    active = np.flatnonzero(hi > lo * (1.0 + 4.0 * _EPS))
    for _ in range(_SECULAR_MAX_ITER):
        if active.size == 0:
            break
        l, h = lo[active], hi[active]
        x = np.where(h > 2.0 * l, np.sqrt(l * h), l)
        r = x[:, None] / (delta[active] + x[:, None])
        wr = w[active] * r
        big_a = wr.sum(axis=1)
        rho = (big_a - x) / (wr * r).sum(axis=1)
        l = np.maximum(l, x + big_a * rho)
        h = np.divide(x, 1.0 - rho, out=h.copy(), where=x < h * (1.0 - rho))
        lo[active], hi[active] = l, h
        active = active[h > l * (1.0 + 4.0 * _EPS)]
    if active.size:
        raise RuntimeError(
            "internal consistency failure: the secular equation for the minimum eigenvalue "
            f"of diag(den) - xi xi* did not converge in {_SECULAR_MAX_ITER} steps on {active.size} rows"
        )
    deflated = np.where(support, np.inf, den).min(axis=1)
    return np.minimum(d_min - lo, deflated)


@dataclass(frozen=True, eq=False)
class ChoiStructure:
    """The Choi matrix of Theta held as the O(n) data (a, c, sigma) that determine it.

    The diagonal entry of the Choi matrix at |ik> is D[i, k] (:meth:`entry`,
    D = :func:`d_matrix`): a at k = i, plus c_k at i = sigma(k).  With
    Omega = sum_i |ii> and F the swap,

        Choi(Theta)   = diag(D) - |Omega><Omega|,
        Choi(T.Theta) = diag(D) - F.

    Hence Choi(Theta) acts on span{|ii>} as the core K = diag(k) - J with
    k_i = a + c_i [sigma(i) = i], and every |ik> with k != i is an
    eigenvector with eigenvalue D[i, k]: c_k at i = sigma(k), 0 elsewhere
    (Choi, Linear Algebra Appl. 10, 1975).  K is diag(k) minus the rank-one
    xi xi* with xi the all-ones vector, so its least eigenvalue is the root
    of the secular equation that :func:`_theta_min_eigenvalues` solves for
    the positivity sampler too.  Choi(T.Theta) splits into 1x1 blocks
    k_i - 1 on |ii> and 2x2 blocks [[D[i, k], -1], [-1, D[k, i]]] on
    {|ik>, |ki>}, which are [[0, -1], [-1, 0]] unless k = sigma(i) or
    i = sigma(k).  Every scalar therefore costs O(n); :func:`choi` builds
    the n^2 x n^2 matrix.
    """

    n: int
    a: float
    c: np.ndarray
    img: np.ndarray  # sigma(i) - 1 at i - 1

    def entry(self, i: np.ndarray, k: np.ndarray) -> np.ndarray:
        """D[i, k] for 0-based index arrays."""
        return np.where(i == k, self.a, 0.0) + np.where(i == self.img[k], self.c[k], 0.0)

    @cached_property
    def core_min(self) -> float:
        """The least eigenvalue of K = diag(k) - J."""
        k = self.entry(np.arange(self.n), np.arange(self.n))
        return float(_theta_min_eigenvalues(np.ones((1, self.n)), k[None, :])[0])

    def min_eigenvalue(self, compose_transpose: bool = False) -> float:
        n, idx = self.n, np.arange(self.n)
        moved = np.flatnonzero(self.img != idx)
        if compose_transpose:
            # the 2x2 blocks on {|sigma(k) k>, |k sigma(k)>}, each 2-cycle met twice
            lo, _ = pair_block_eigenvalues(self.c[moved], self.entry(moved, self.img[moved]))
            related = moved.size - np.count_nonzero(self.img[self.img[moved]] == moved) // 2
            values = np.concatenate([self.entry(idx, idx) - 1.0, lo])
            if related < n * (n - 1) // 2:  # a pair sigma does not relate: [[0, -1], [-1, 0]]
                values = np.append(values, -1.0)
        else:
            values = np.append(self.c[moved], self.core_min)
            if moved.size < n * (n - 1):  # an off-diagonal D[i, k] = 0
                values = np.append(values, 0.0)
        return float(values.min())

    @property
    def negative_norm(self) -> float:
        """||C^-||: the largest magnitude among negative eigenvalues of Choi(Theta), else 0."""
        return max(0.0, -self.min_eigenvalue())

    @property
    def trace(self) -> float:
        return float(self.n * self.a + self.c.sum() - self.n)

    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, K): the Choi matrix of Theta as :func:`assemble`'s (diag, core)."""
        d = self.entry(*np.indices((self.n, self.n)))
        return d, np.diag(d.diagonal()) - 1.0


def choi_structure(p: MapParams) -> ChoiStructure:
    """The structured form of the Choi matrix of Theta: O(n) to build."""
    img = np.asarray(p.sigma.images) - 1
    return ChoiStructure(n=p.n, a=p.a, c=np.asarray(p.c, dtype=float), img=img)


def choi(p: MapParams, compose_transpose: bool = False) -> ChoiMatrix:
    """Assemble the dense Choi matrix of Theta (or of transposition-then-Theta).

    Raises ParameterError before allocating when n^2 exceeds ``MAX_DIM``.
    """
    matrix = assemble(p.n, *choi_structure(p).parts(), compose_transpose)
    return ChoiMatrix(n=p.n, matrix=matrix, transposed_composition=compose_transpose)
