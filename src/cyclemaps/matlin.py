"""Dense complex matrix helpers used throughout the package.

Everything operates on plain numpy arrays with complex128 entries.  Tensor
products follow the first-factor-major block convention of ``numpy.kron``:
``kron(A, B)[(i, p), (j, q)] == A[i, j] * B[p, q]``, i.e. block (i, j) of the
product equals ``A[i, j] * B``.

The Hermitian eigen helpers (``min_eigenvalue``, ``is_psd``,
``hermitian_spectrum``, ``negative_part``) never solve more than an
irreducible block at a time.  One O(N^2) scan finds the connected components
of the nonzero pattern of M, symmetrised (an edge i - j wherever M[i, j] or
M[j, i] is nonzero), and runs the Hermitian check on them; blocks of equal
size b are then stacked into one batched LAPACK call.  An N x N matrix with
blocks of sizes b costs O(N^2 + sum b^3) instead of O(N^3): the witness of
the package's maps splits into 1x1 and 2x2 blocks, its Choi matrix into the
n x n core plus 1x1 blocks, and a fully dense matrix is a single block.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError, ParameterError

DEFAULT_PSD_TOL = 1e-9
DEFAULT_HERMITIAN_TOL = 1e-10

# Matrices past this edge length are outside the supported regime; the guard
# turns an out-of-memory surprise into a size error at the call site.
MAX_DIM = 1024

# The same guard for the arrays sized by inputs rather than by n^2 x n^2: the
# classify sampler's samples x n block and the involution split's n x n
# blocks, which each cost about 100 bytes per entry, so about 1 GB here.
MAX_ENTRIES = 2**23


def _as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ParameterError(f"{name} must be 2-dimensional (got shape {arr.shape})")
    return arr


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The matrix unit E_ij in M_n, 1-based indices."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ParameterError(f"matrix unit indices ({i}, {j}) outside {{1, ..., {n}}}")
    e = np.zeros((n, n), dtype=complex)
    e[i - 1, j - 1] = 1.0
    return e


def basis_vector(n: int, i: int) -> np.ndarray:
    """The standard basis vector e_i of C^n, 1-based."""
    if not 1 <= i <= n:
        raise ParameterError(f"basis index {i} outside {{1, ..., {n}}}")
    v = np.zeros(n, dtype=complex)
    v[i - 1] = 1.0
    return v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with a size guard on the result."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out_dims = tuple(da * db for da, db in zip(a.shape, b.shape))
    if any(d > MAX_DIM for d in out_dims):
        raise ParameterError(
            f"tensor product result {out_dims} exceeds the supported edge length {MAX_DIM}"
        )
    return np.kron(a, b)


def schur_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product; shapes must match."""
    a = _as_matrix(a, "first factor")
    b = _as_matrix(b, "second factor")
    if a.shape != b.shape:
        raise ParameterError(f"shape mismatch for entrywise product: {a.shape} vs {b.shape}")
    return a * b


def _hermitian_defect(m: np.ndarray) -> float:
    """max |M - M*| (over a stack, its last two axes), which a non-finite entry makes inf or nan."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> bool:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return _hermitian_defect(m) <= tol


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> np.ndarray:
    m = _as_square(m)
    _check_defect(_hermitian_defect(m), tol)
    return m


def _as_square(m: np.ndarray) -> np.ndarray:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractError(f"matrix is not square (shape {m.shape})")
    return m


def _check_defect(defect: float, tol: float) -> None:
    if not defect <= tol:
        raise ContractError(
            f"matrix is not Hermitian: max |M - M*| = {defect:.3e} is not within {tol:.1e}"
        )


def partial_transpose(x: np.ndarray, k: int, n: int) -> np.ndarray:
    """Transpose the second tensor factor of a matrix acting on C^k (x) C^n."""
    x = _as_matrix(x)
    if x.shape != (k * n, k * n):
        raise ParameterError(
            f"partial transpose expects shape ({k * n}, {k * n}) for factors ({k}, {n}); got {x.shape}"
        )
    return x.reshape(k, n, k, n).transpose(0, 3, 2, 1).reshape(k * n, k * n)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of a Hermitian matrix, ascending, with an eigenpair residual.

    ``residual`` is max_i ||M v_i - w_i v_i||_2 over the computed eigenpairs;
    it certifies the decomposition rather than trusting the solver blindly.
    """

    eigenvalues: np.ndarray
    residual: float


def _roots(label: np.ndarray) -> np.ndarray:
    """Follow the parent pointers of a forest whose pointers never increase, to the roots."""
    while True:
        up = label[label]
        if np.array_equal(up, label):
            return label
        label = up


def _pattern_components(m: np.ndarray) -> np.ndarray:
    """Label each index by the least index of its block: the connected components
    of the graph with an edge i - j wherever M[i, j] != 0 or M[j, i] != 0.

    Each row first hooks to its leftmost nonzero, at or left of the diagonal; the
    nonzeros that still join two trees then hook the larger root under the smaller
    until none is left.  The scan is O(N^2); the rounds after it are O(edges).
    """
    n = m.shape[0]
    nz = m != 0  # a nan or inf entry is nonzero, so it reaches the Hermitian check
    np.fill_diagonal(nz, True)
    label = _roots(nz.argmax(axis=1))
    r, c = np.divmod(np.flatnonzero(nz & (label[:, None] != label)), n)
    while r.size:
        lr, lc = label[r], label[c]
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        label = _roots(label)
        keep = label[r] != label[c]
        r, c = r[keep], c[keep]
    return label


def _hermitian_blocks(m: np.ndarray, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Check that M is Hermitian and split it into its irreducible diagonal blocks.

    Returns one ``(idx, sub)`` pair per block size b: ``idx`` is a K x b array
    whose rows are the ascending indices of the K blocks of that size, and
    ``sub`` the K x b x b stack of the blocks ``M[idx[k]][:, idx[k]]``.  Ascending
    indices keep each block's lower triangle inside M's lower triangle, the one
    ``eigvalsh`` reads.  A block that spans M is M itself, not a copy.  The
    Hermitian check runs block by block; entries outside every block are zero
    in M and in M*, so its value max |M - M*| is the dense one.

    >>> m = np.array([[2, 0, 1, 0], [0, 3, 0, 1j], [1, 0, 2, 0], [0, -1j, 0, 3]])
    >>> [(idx.tolist(), sub.shape) for idx, sub in _hermitian_blocks(m, DEFAULT_HERMITIAN_TOL)]
    [([[0, 2], [1, 3]], (2, 2, 2))]
    """
    m = _as_square(m)
    n = m.shape[0]
    label = _pattern_components(m)
    order = np.argsort(label, kind="stable")  # block by block, ascending within each
    size = np.bincount(label, minlength=n)[label == np.arange(n)]  # in the same order
    first = np.cumsum(size) - size
    groups, defects = [], []
    for b in np.flatnonzero(np.bincount(size)):
        idx = order[first[size == b, None] + np.arange(b)]
        sub = m[None] if b == n else m[idx[:, :, None], idx[:, None, :]]
        defects.append(_hermitian_defect(sub))
        groups.append((idx, sub))
    _check_defect(float(np.max(defects)), tol)
    return groups


def hermitian_spectrum(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> SpectrumResult:
    values, residual = [], 0.0
    for _, sub in _hermitian_blocks(m, tol):
        w, v = np.linalg.eigh(sub)
        values.append(w.ravel())
        pair_residuals = np.linalg.norm(sub @ v - v * w[:, None, :], axis=1)
        residual = max(residual, float(np.max(pair_residuals)))
    return SpectrumResult(eigenvalues=np.sort(np.concatenate(values), kind="stable"), residual=residual)


def min_eigenvalue(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> float:
    return min(float(np.min(np.linalg.eigvalsh(sub)[:, 0])) for _, sub in _hermitian_blocks(m, tol))


def is_psd(m: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Positive semidefinite up to an absolute eigenvalue tolerance."""
    return min_eigenvalue(m) >= -tol


def negative_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Spectral negative part M^- (a PSD matrix with M = M^+ - M^-) and its norm.

    The returned norm is the largest magnitude among negative eigenvalues,
    0.0 when the input is already PSD.
    """
    m = _as_matrix(m)
    part, norm = None, 0.0
    for idx, sub in _hermitian_blocks(m, DEFAULT_HERMITIAN_TOL):
        w, v = np.linalg.eigh(sub)
        # eigenvalues ascend, so each block's negative ones come first
        k = int(np.max(np.count_nonzero(w < 0, axis=1)))
        if k:
            vneg, wneg = v[..., :k], np.minimum(w[:, None, :k], 0.0)
            product = (vneg * -wneg) @ vneg.conj().swapaxes(1, 2)
            if sub.shape[-1] == len(m):  # one block spans M: the product is M^- itself
                part = product[0]
            else:
                part = np.zeros_like(m) if part is None else part
                part[idx[:, :, None], idx[:, None, :]] = product
            norm = max(norm, float(-np.min(w[:, 0])))
    return (np.zeros_like(m) if part is None else part), norm


def numerical_rank(m: np.ndarray, rtol: float = 1e-8) -> int:
    """Number of singular values above ``rtol`` times the largest (0 for an empty or zero matrix)."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to the interchange form {rows, cols, entries=[[re, im], ...]}."""
    m = _as_matrix(m)
    rows, cols = m.shape
    entries = np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the interchange form produced by matrix_to_json."""
    if not isinstance(obj, dict):
        raise ParameterError(f"matrix object must be a JSON object (got {type(obj).__name__})")
    for field in ("rows", "cols", "entries"):
        if field not in obj:
            raise ParameterError(f"matrix object is missing field '{field}'")
    rows, cols = obj["rows"], obj["cols"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 1 and cols >= 1):
        raise ParameterError(f"matrix fields 'rows'/'cols' must be positive integers (got {rows!r}, {cols!r})")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParameterError(
            f"matrix field 'entries' must list rows*cols = {rows * cols} pairs (got {len(entries) if isinstance(entries, list) else entries!r})"
        )
    try:  # one vectorised pass; the loop below only names the first bad entry
        pairs = np.fromiter(chain.from_iterable(entries), float, 2 * len(entries))
    except (TypeError, ValueError, OverflowError):  # no pair, no number, or past the float range
        pairs = None
    plain = pairs is not None and set(map(type, entries)) == {list} and set(map(len, entries)) == {2}
    if not (plain and set(map(type, chain.from_iterable(entries))) <= {int, float} and np.isfinite(pairs).all()):
        for pos, pair in enumerate(entries):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParameterError(f"matrix entry {pos} must be a [re, im] pair (got {pair!r})")
            if any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in pair):
                raise ParameterError(f"matrix entry {pos} must hold two real numbers (got {pair!r})")
            try:
                finite = np.isfinite(complex(*pair))
            except OverflowError:  # an integer past the float range
                finite = False
            if not finite:
                raise ParameterError(f"matrix entry {pos} must hold finite numbers (got {pair!r})")
    return pairs.view(complex).reshape(rows, cols)  # the loop passes only numbers numpy has read
