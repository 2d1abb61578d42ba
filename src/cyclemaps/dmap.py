"""Diagonal-compression maps on M_n built from a permutation and coefficients.

The family implemented here is parameterized by a permutation sigma of
{1, ..., n}, a scalar a > 0 and coefficients c = (c_1, ..., c_n), every
c_i > 0 except in Delta_n: X -> n*diag(X) - X, where c = 0 (:func:`delta_n`);
:class:`MapParams` is the one place these inputs are checked.  Each map has

* the diagonal compression  Delta(X) = diag(a*x_ii + c_i * x_{sigma(i), sigma(i)}),
* the shifted map           Theta(X) = Delta(X) - X.

Theta acts on the diagonal of X through the n x n matrix
D = a*I + sum_i c_i E_{sigma(i), i} and subtracts X wholesale, which makes the
whole family tractable: positivity, complete positivity and the finer
structure all reduce to statements about (n, sigma, a, c).  The same D
determines the Choi matrix exactly, and :class:`ChoiStructure` holds it as
the O(n) arrays (a, c, sigma): every scalar of it (trace, minimum
eigenvalues, ||C^-||) costs O(n), the core's through the one rank-one
secular solver the positivity sampler and the involution split use as
well (:func:`_theta_min_eigenvalue`).  Each map keeps its structure, which
keeps each scalar once computed, so the verdicts on one map share them.
Every dense n^2 x n^2 matrix here is a diagonal plus a block on span{|ii>},
and :func:`assemble` builds it only when a caller asks for the matrix itself.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ParameterError
from .matlin import MAX_DIM, MAX_ENTRIES, SpectrumResult
from .perm import Permutation, _check_degree, identity

_REL_TOL = 1e-12

# Steps allowed per live row in the secular-equation solve; rows close in
# about a dozen, however widely their entries spread.
_SECULAR_MAX_ITER = 64
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MapParams:
    """Parameters (n, sigma, a, c) of one map in the family, checked here and only here:
    sigma a :class:`Permutation` of degree n, c a sequence of n entries, a and
    each c_i real numbers (int, float, numpy integer or floating; no bool),
    stored as Python floats.  a > 0 and every c_i > 0, except in n*diag(X) - X
    (:func:`delta_n`): zero weights, n >= 2, a = n and sigma = id.  Each
    failure is a ParameterError that names the field."""

    n: int
    sigma: Permutation
    a: float
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        n, sigma, raw_a, c = self.n, self.sigma, self.a, self.c
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParameterError(f"n must be a positive integer (got {n!r})")
        if not isinstance(sigma, Permutation):
            raise ParameterError(f"sigma must be a Permutation (got {type(sigma).__name__})")
        _check_degree(sigma.n, n)
        a = _real(raw_a, "a")
        if not 0.0 < a < math.inf:
            raise ParameterError(f"a must be positive and finite (got {a})")
        if isinstance(c, (str, bytes, bytearray)) or not isinstance(c, (Sequence, np.ndarray)) or getattr(c, "ndim", 1) != 1:
            raise ParameterError(f"c must be a sequence of n={n} numbers (got {type(c).__name__})")
        if len(c) != n:
            raise ParameterError(f"c must have length n={n} (got {len(c)})")
        c = tuple(_real(ci, f"c[{i}]") for i, ci in enumerate(c, start=1))
        if any(c):
            for i, ci in enumerate(c, start=1):
                if not 0.0 < ci < math.inf:
                    raise ParameterError(f"c[{i}] must be positive and finite (got {ci})")
        else:  # the weight-free map: only n*diag(X) - X exists with zero weights
            if a != n:
                raise ParameterError(f"zero weights describe the map n*diag(X) - X and require a = n (got a = {raw_a})")
            if not sigma.is_identity():
                raise ParameterError("zero weights make sigma irrelevant; use sigma = 'id:n' for this map")
            if n < 2:
                raise ParameterError(f"zero weights describe the map n*diag(X) - X, which needs n >= 2 (got n = {n})")
            c = (0.0,) * n
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def uniform_c(self) -> bool:
        return max(self.c) - min(self.c) <= _REL_TOL * max(1.0, abs(self.c[0]))

    @cached_property
    def _choi_structure(self) -> ChoiStructure:
        """The structured Choi matrix of Theta, built on first use and kept with read-only arrays."""
        c = np.array(self.c, dtype=float)
        img = np.array(self.sigma.images) - 1
        c.flags.writeable = img.flags.writeable = False
        return ChoiStructure(n=self.n, a=self.a, c=c, img=img)

    def __getstate__(self) -> dict:
        # a pickled or copied array comes back writeable: the copy builds its own
        return {k: v for k, v in vars(self).items() if k != "_choi_structure"}


def _real(x, name: str) -> float:
    """x as a Python float: an int, float, numpy integer or numpy floating, but
    no bool; an int past the float range is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a number (got {x!r})")
    try:
        return float(x)
    except OverflowError:
        raise ParameterError(f"{name} is an integer outside the float range") from None


def delta_n(n: int) -> MapParams:
    """The map X -> n*diag(X) - X, i.e. Theta with sigma = id, a = n and c = 0:
    the one member of the family with zero weights (n >= 2)."""
    return MapParams(n, identity(n), float(n), (0.0,) * n)


def _require_square_input(p: MapParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (p.n, p.n):
        raise ParameterError(f"input matrix must have shape ({p.n}, {p.n}); got {x.shape}")
    return x


def delta_apply(p: MapParams, x: np.ndarray) -> np.ndarray:
    """Apply the diagonal compression Delta to one matrix."""
    x = _require_square_input(p, x)
    d, structure = np.diagonal(x), choi_structure(p)
    return np.diag(p.a * d + structure.c * d[structure.img])


def theta_apply(p: MapParams, x: np.ndarray) -> np.ndarray:
    """Apply the shifted map Theta(X) = Delta(X) - X."""
    x = _require_square_input(p, x)
    return delta_apply(p, x) - x


def d_matrix(p: MapParams) -> np.ndarray:
    """The n x n matrix D = a*I + sum_i c_i E_{sigma(i), i} driving the diagonal action.

    Feeding the row vector of diagonal entries of X through D reproduces the
    diagonal of Delta(X): Delta(X) = diag((x_11, ..., x_nn) . D).
    """
    return choi_structure(p).entry(*np.indices((p.n, p.n)))


def require_dense_size(n: int) -> None:
    """Raise ParameterError when a dense n^2 x n^2 matrix would exceed ``MAX_DIM``."""
    if n * n > MAX_DIM:
        raise ParameterError(
            f"n = {n} is too large for a dense n^2 x n^2 matrix: {n * n} x {n * n} "
            f"float64 entries need {8 * n**4:,} bytes (edge length limit {MAX_DIM})"
        )


def assemble(n: int, diag, core, compose_transpose: bool = False) -> np.ndarray:
    """The dense n^2 x n^2 matrix sum_{i != k} diag[i, k] |ik><ik| + sum_{i, j} core[i, j] |ii><jj|,
    indexed |ik> -> i*n + k, or with core[i, j] at |ij><ji| under ``compose_transpose``.

    ``diag`` and ``core`` are real and broadcast to n x n; diag[i, i] is not read,
    as |ii><ii| is the core's.  Every matrix of the family is real symmetric, so
    the result is float64, 8 bytes per entry.  Raises ParameterError before
    allocating when n^2 exceeds ``MAX_DIM``.
    """
    require_dense_size(n)
    out = np.zeros((n * n, n * n))
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
    """The two eigenvalues (lo, hi) of each 2x2 block [[x, -1], [-1, y]], x, y >= 0.  Where
    (x - y)^2 or x * y overflows, halves and max(x, y) / hi <= 1 keep representable roots finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi = (x + y + np.sqrt((x - y) ** 2 + 4.0)) / 2.0
        lo = (x * y - 1.0) / hi  # det / hi: no cancellation when x + y is large
    finite = np.isfinite(lo) & np.isfinite(hi)
    if not finite.all():
        wide = ~finite
        x, y = x[wide], y[wide]
        hi[wide] = h = x / 2.0 + y / 2.0 + np.hypot(x - y, 2.0) / 2.0
        lo[wide] = np.minimum(x, y) * (np.maximum(x, y) / h) - 1.0 / h
    return lo, hi


def _row_reduce(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced along each row of x.  numpy's own reduction takes
    x's rows only when they are C-contiguous and few, or, for a sum, longer
    than 128: it pays a fixed cost per row, and over an F-ordered x, such as
    the ``.T`` of the sampler's block, it adds column by column, not
    pairwise.  Otherwise this is a fold over the columns, a few vectorised
    calls over whole columns, which such a transposed block holds
    contiguously; below 256 rows a C-ordered copy of it costs less.

    A minimum does not depend on the order of its fold.  A sum does, so
    ``np.add`` folds in the order of numpy's pairwise summation of a
    contiguous row, and its result is bit-identical to
    ``np.ascontiguousarray(x).sum(axis=1)``: a plain running sum below 8
    columns; up to 128, eight running sums over the columns congruent mod 8
    of the whole blocks of 8, added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then the columns past those blocks one by one; past 128, the
    sum of the first n2 = n // 2 - (n // 2) % 8 columns plus that of the
    rest, each halved the same way while past 128.  numpy adds that to its
    identity +0.0, as the leading 0.0 below does (it turns a -0.0 sum into
    +0.0; a sum of the two halves, each from +0.0, has the same bits)."""
    rows, n = x.shape
    if rows < 256 and not x.flags.c_contiguous:  # a fold's n calls would cost more than a C-ordered copy
        x = np.ascontiguousarray(x)
    if x.flags.c_contiguous and (32 * n > rows or (ufunc is np.add and n > 128)):
        return ufunc.reduce(x, axis=1)
    if ufunc is np.add and n > 128:
        n2 = n // 2 - (n // 2) % 8
        return _row_reduce(np.add, x[:, :n2]) + _row_reduce(np.add, x[:, n2:])
    cols = x.T
    if ufunc is not np.add:
        return reduce(ufunc, cols)
    if n >= 8:
        whole = n - n % 8
        r = [reduce(np.add, cols[j:whole:8]) for j in range(8)]
        cols = [((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), *cols[whole:]]
    return reduce(np.add, cols, 0.0)


def _secular_step(lo: np.ndarray, hi: np.ndarray, delta: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One bracket step of :func:`_theta_min_eigenvalue` on each row: the new (lo, hi)."""
    x = np.where(hi > 2.0 * lo, np.sqrt(lo * hi), lo)
    r = x[:, None] / (delta + x[:, None])
    wr = w * r
    big_a = _row_reduce(np.add, wr)
    rho = (big_a - x) / _row_reduce(np.add, wr * r)
    lo = np.maximum(lo, x + big_a * rho)
    hi = np.divide(x, 1.0 - rho, out=hi.copy(), where=x < hi * (1.0 - rho))
    return lo, hi


def _theta_min_eigenvalue(w: np.ndarray, den: np.ndarray) -> float:
    """The least eigenvalue of diag(den) - xi xi* over the rows w = |xi|^2.

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
    decades still close in about a dozen steps (:func:`_secular_step`).

    Only rows that can still hold the minimum are iterated (branch and
    bound on the brackets [lo, hi] of mu).  A row's value ends at or below
    its current min(d_min - lo, deflated), since lo only grows; the least
    of these over all rows, ``best``, ends as the answer.  After each step,
    a row whose d_min - hi, less a rounding allowance ``slack``, lies above
    ``best`` is dropped (its deflated values are in ``best`` already), and
    the arrays of the rows still live are compacted.

    Before the first step, where hi = sum_i w_i is too loose to tell, a
    screen drops every row whose least eigenvalue provably exceeds
    t = best + slack + eps |best|; as g(t) <= hi / (d_min - t) below, it
    also drops, up to its margins, every row that the prune would.  Below
    d_min, g(lam) = sum_i w_i / (den_i - lam) over the support increases,
    and the row's least eigenvalue is the lam with g(lam) = 1; so d_min > t
    and g(t) < 1 put it above t.  In floating point each of the n terms of
    g(t) takes two roundings and the sum n - 1 more, so the computed sum is
    at least g(t) (1 - gamma) with gamma < (n + 1) eps / 2 (underflow in a
    term costs a subnormal amount more): a computed sum below
    1 - (n + 1) eps proves g(t) < 1.  The eps |best| term keeps t above
    best + slack after t's own rounding.  Had the row been iterated, its
    final lo would overshoot its root mu by about n eps sum_i w_i at most
    (the rounding that ``slack`` allows for in the prune), far inside
    ``slack``; so its value d_min - lo, rounded monotonically, would end at
    or above ``best``, and dropping the row cannot change the result.

    Rows iterate independently, and every sum that feeds an iterate is an
    exact row sum (:func:`_row_reduce`), bit-identical to the C-ordered
    ``.sum(axis=1)`` in either layout the callers pass (row-major, or the
    sampler's transposed block), so its association order is fixed per row
    whichever rows share the batch, and the result is bit-identical to
    solving every row to convergence and taking the least value.  The row
    minima are folds in whatever order: a minimum does not depend on it as
    long as den holds no -0.0: the callers' den are sums of products >= 0,
    or a - 1 (+0.0 at a = 1).  The solve deflates in place, without a copy:
    it overwrites each w_i <= eps^2 with 0 and its den_i with inf.  Rows
    still live after ``_SECULAR_MAX_ITER`` steps raise RuntimeError.
    """
    # entries of w below eps^2 deflate as well: dropping them moves each
    # eigenvalue by at most 2 sqrt(n) eps (Weyl), and it keeps every
    # quantity below far from underflow; w and den then hold the support
    small = w <= _EPS**2
    deflated = np.minimum.reduce(den, axis=1, where=small, initial=np.inf)
    np.copyto(den, np.inf, where=small)
    np.copyto(w, 0.0, where=small)
    d_min = _row_reduce(np.minimum, den)
    scratch = np.empty_like(w)  # each block temporary below in turn
    lo = _row_reduce(np.add, np.multiply(w, den == d_min[:, None], out=scratch))  # delta_i = 0
    hi = _row_reduce(np.add, w)
    # rounding can leave the final lo above an earlier hi, by about
    # n eps A^2 / B <= n eps sum_i w_i (Cauchy-Schwarz); the allowance
    # sqrt(eps) sum_i w_i covers that many times over
    slack = np.sqrt(_EPS) * hi
    best = np.minimum(d_min - lo, deflated).min()
    t = best + (slack + _EPS * abs(best))
    with np.errstate(all="ignore"):  # g counts only where d_min > t
        g = _row_reduce(np.add, np.divide(w, np.subtract(den, t[:, None], out=scratch), out=scratch))
    live = (hi > lo * (1.0 + 4.0 * _EPS)) & ((d_min <= t) | (g >= 1.0 - (w.shape[1] + 1) * _EPS))
    d_min, lo, hi, slack, w = d_min[live], lo[live], hi[live], slack[live], w[live]
    delta = den[live] - d_min[:, None]
    for step in range(_SECULAR_MAX_ITER + 1):
        if lo.size == 0:
            break
        if step == _SECULAR_MAX_ITER:
            raise RuntimeError(
                "internal consistency failure: the secular equation for the minimum eigenvalue "
                f"of diag(den) - xi xi* did not converge in {_SECULAR_MAX_ITER} steps on {lo.size} rows"
            )
        lo, hi = _secular_step(lo, hi, delta, w)
        best = np.minimum(best, (d_min - lo).min())
        live = (hi > lo * (1.0 + 4.0 * _EPS)) & (d_min - (hi + slack) <= best)
        if not live.all():
            d_min, lo, hi, slack, delta, w = d_min[live], lo[live], hi[live], slack[live], delta[live], w[live]
    return float(best)


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
    of the secular equation that :func:`_theta_min_eigenvalue` solves for
    the positivity sampler too.  Choi(T.Theta) splits into 1x1 blocks
    k_i - 1 on |ii> and 2x2 blocks [[D[i, k], -1], [-1, D[k, i]]] on
    {|ik>, |ki>}, which are [[0, -1], [-1, 0]] unless k = sigma(i) or
    i = sigma(k).  Every scalar therefore costs O(n) and is kept once computed
    (``core_min``, :meth:`min_eigenvalue`, ``trace``); :func:`choi` builds the matrix.
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
        return _theta_min_eigenvalue(np.ones((1, self.n)), k[None, :])

    def min_eigenvalue(self, compose_transpose: bool = False) -> float:
        """The least eigenvalue of Choi(Theta), or of Choi(T.Theta) under ``compose_transpose``."""
        return self._transposed_min if compose_transpose else self._choi_min

    @cached_property
    def _choi_min(self) -> float:
        moved = self.c[self.img != np.arange(self.n)]  # c_k at |sigma(k) k>, and 0 at the other |ik>, i != k
        return float(np.concatenate([moved, [self.core_min], [0.0] if moved.size < self.n * (self.n - 1) else []]).min())

    @cached_property
    def _transposed_min(self) -> float:
        n, idx = self.n, np.arange(self.n)
        moved = np.flatnonzero(self.img != idx)
        # the 2x2 blocks on {|sigma(k) k>, |k sigma(k)>}, each 2-cycle met twice
        related = moved.size - np.count_nonzero(self.img[self.img[moved]] == moved) // 2
        if related < n * (n - 1) // 2:
            # a pair sigma does not relate gives the block [[0, -1], [-1, 0]], and nothing
            # lies below it: diag(D) >= 0 and the swap's eigenvalues are +-1 (Weyl), and
            # every other block's computed root is >= -1.0 too.  From n = 4 on, always.
            return -1.0
        lo, _ = pair_block_eigenvalues(self.c[moved], self.entry(moved, self.img[moved]))
        return float(np.concatenate([self.entry(idx, idx) - 1.0, lo]).min())

    @property
    def negative_norm(self) -> float:
        """||C^-||: the largest magnitude among negative eigenvalues of Choi(Theta), else 0."""
        return max(0.0, -self.min_eigenvalue())

    @cached_property
    def trace(self) -> float:
        return float(self.n * self.a + self.c.sum() - self.n)

    def spectrum(self, compose_transpose: bool = False) -> SpectrumResult:
        """Every eigenvalue of Choi(Theta), or of Choi(T.Theta), ascending, read off the blocks above:
        ``residual`` is that of one real ``eigh`` of K, or 0.0 under ``compose_transpose``, whose
        2x2 blocks have closed-form roots.  ParameterError, before the parts, past n^2 = ``MAX_ENTRIES``."""
        n = self.n
        if n * n > MAX_ENTRIES:
            raise ParameterError(f"n = {n} is too large for the Choi spectrum: {n * n:,} eigenvalues (limit {MAX_ENTRIES:,})")
        d, core = self.parts()
        if compose_transpose:
            i, k = np.triu_indices(n, 1)
            values, residual = [core.diagonal(), *pair_block_eigenvalues(d[i, k], d[k, i])], 0.0
        else:
            w, v = np.linalg.eigh(core)
            values, residual = [d[~np.eye(n, dtype=bool)], w], float(np.max(np.linalg.norm(core @ v - v * w, axis=0)))
        return SpectrumResult(np.sort(np.concatenate(values), kind="stable"), residual)

    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, K): the Choi matrix of Theta as :func:`assemble`'s (diag, core)."""
        d = self.entry(*np.indices((self.n, self.n)))
        return d, np.diag(d.diagonal()) - 1.0


def choi_structure(p: MapParams) -> ChoiStructure:
    """The structured form of the Choi matrix of Theta: O(n) to build, once per map."""
    return p._choi_structure


def choi(p: MapParams, compose_transpose: bool = False) -> np.ndarray:
    """The dense Choi matrix sum_ij E_ij (x) psi(E_ij) of psi = Theta, or of
    transposition-then-Theta under ``compose_transpose``: real symmetric,
    float64, with trace n*(a - 1) + sum(c) either way.

    Raises ParameterError, before building the parts, when n^2 exceeds ``MAX_DIM``.
    """
    require_dense_size(p.n)
    return assemble(p.n, *choi_structure(p).parts(), compose_transpose)
