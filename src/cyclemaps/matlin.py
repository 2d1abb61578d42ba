"""Dense matrix helpers used throughout the package.

Everything operates on plain numpy arrays in the input's own dtype,
``np.result_type(M, float)``: a real M stays float64, one float per entry,
and is solved by the real LAPACK driver; a complex M stays complex128.  Only
the interchange form writes every entry as a [re, im] pair.

The Hermitian eigen helper ``min_eigenvalue`` never solves more than an
irreducible block at a time.  It finds the connected components of the
nonzero pattern of M, symmetrised (an edge i - j wherever M[i, j] or M[j, i]
is nonzero), and runs the Hermitian check on them; blocks of equal size b are
then stacked into one batched LAPACK call.  The components take three passes
over the N^2 entries: the nonzero test (on each float part of an entry, a
few rows at a time), the first nonzero of each row, and the list of
nonzeros, from which every later round reads only the edges that still
join two trees.  An N x N matrix with blocks of sizes b costs
O(N^2 + sum b^3) instead of O(N^3): the witness of the package's maps splits
into 1x1 and 2x2 blocks, its Choi matrix into the n x n core plus 1x1
blocks, and a fully dense matrix is a single block.
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

# Rows per chunk of the nonzero pass (_nonzero): its float comparison goes
# through a buffer of this many rows, not an N x kN array.  With 32 rows
# (32 KB per float part at N = 1024) min_eigenvalue(witness(p)) at n = 32
# peaks at the 1.12 MB of tracemalloc that ``M != 0`` gave; 64 rows took
# the complex W to 1.18 MB.
# The Hermitian check (_hermitian_defect) compares bands of as many rows.
_PATTERN_ROWS = 32

# The same guard for the arrays sized by inputs rather than by n^2 x n^2: the
# classify sampler's samples x n block (about 100 bytes per entry, so about
# 1 GB here) and the n x n block ``p_block`` of an involution split, if read.
MAX_ENTRIES = 2**23


def _as_matrix(m: np.ndarray) -> np.ndarray:
    arr = np.asarray(m)
    arr = arr.astype(np.result_type(arr, float), copy=False)
    if arr.ndim != 2:
        raise ParameterError(f"matrix must be 2-dimensional (got shape {arr.shape})")
    return arr


def _hermitian_defect(m: np.ndarray) -> float:
    """max |M - M*| (over a stack, its last two axes), which a non-finite entry makes inf or nan.

    Each band of ``_PATTERN_ROWS`` rows is compared with the conjugate of the
    matching band of columns, so M is read in narrow bands instead of through
    one transposed copy.  The bands cover every entry and max is exact, so the
    value is the whole comparison's.
    """
    defect = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        for start in range(0, m.shape[-1], _PATTERN_ROWS):
            band = slice(start, start + _PATTERN_ROWS)
            diff = m[..., band, :] - m[..., :, band].conj().swapaxes(-1, -2)
            defect = np.maximum(defect, np.max(np.abs(diff)))  # a nan stays
    return float(defect)


def require_hermitian(m: np.ndarray) -> np.ndarray:
    m = _as_square(m)
    _check_defect(_hermitian_defect(m))
    return m


def _as_square(m: np.ndarray) -> np.ndarray:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractError(f"matrix is not square (shape {m.shape})")
    return m


def _check_defect(defect: float) -> None:
    if not defect <= DEFAULT_HERMITIAN_TOL:
        raise ContractError(
            f"matrix is not Hermitian: max |M - M*| = {defect:.3e} is not within {DEFAULT_HERMITIAN_TOL:.1e}"
        )


def partial_transpose(x: np.ndarray, k: int, n: int) -> np.ndarray:
    """Transpose the second tensor factor of a matrix acting on C^k (x) C^n."""
    x = _as_matrix(x)
    if x.shape != (k * n, k * n):
        raise ParameterError(
            f"partial transpose expects shape ({k * n}, {k * n}) for factors ({k}, {n}); got {x.shape}"
        )
    return x.reshape(k, n, k, n).transpose(0, 3, 2, 1).reshape(k * n, k * n)


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Eigenvalues of a Hermitian matrix, ascending, with an eigenpair residual.

    ``residual`` is max_i ||M v_i - w_i v_i||_2 over the eigenpairs an
    eigensolver computed, 0.0 where every eigenvalue is a closed form
    (:meth:`cyclemaps.dmap.ChoiStructure.spectrum`).
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


def _nonzero(m: np.ndarray) -> np.ndarray:
    """``M != 0``, ``_PATTERN_ROWS`` rows at a time on M's float view.

    Each chunk compares the k float parts of every entry (k = 1 for a real M,
    k = 2, [re, im], for a complex one) with 0.0 into one reused bool buffer,
    whose k bools per entry, read as one k-byte unsigned integer, are nonzero
    iff any part is.  That is ``M != 0`` bit for bit (a nan or inf part is
    nonzero, so the entry reaches the Hermitian check; -0.0 is zero), without
    a complex comparison or an N x kN temporary.
    """
    n = m.shape[0]
    parts = m[..., None].view(float)  # n x n x k parts, a view whatever the strides of m
    k = parts.shape[-1]
    buf = np.empty((min(n, _PATTERN_ROWS), n, k), dtype=bool)
    nz = np.empty((n, n), dtype=bool)
    for start in range(0, n, _PATTERN_ROWS):
        rows = buf[: min(n - start, _PATTERN_ROWS)]
        np.not_equal(parts[start : start + len(rows)], 0.0, out=rows)
        # an entry is nonzero where any part is: its k bools read as one k-byte integer
        np.not_equal(rows.view(f"u{k}")[..., 0], 0, out=nz[start : start + len(rows)])
    return nz


def _pattern_components(m: np.ndarray) -> np.ndarray:
    """Label each index by the least index of its block: the connected components
    of the graph with an edge i - j wherever M[i, j] != 0 or M[j, i] != 0.

    Each row first hooks to its leftmost nonzero, at or left of the diagonal; the
    nonzeros that still join two trees then hook the larger root under the smaller
    until none is left.  The edges are the flat indices of the nonzeros, in
    row-major order, filtered by their labels each round: the passes over the
    N^2 entries are the nonzero test (:func:`_nonzero`), the leftmost nonzeros
    and that index list, and the rounds after them are O(edges).
    """
    n = m.shape[0]
    nz = _nonzero(m)
    np.fill_diagonal(nz, True)
    label = _roots(nz.argmax(axis=1))
    r, c = np.divmod(np.flatnonzero(nz), n)
    while True:
        keep = label[r] != label[c]
        r, c = r[keep], c[keep]
        if not r.size:
            return label
        lr, lc = label[r], label[c]
        np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        label = _roots(label)


def _hermitian_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Check that M is Hermitian and split it into its irreducible diagonal blocks.

    Returns one K x b x b stack per block size b, of the K blocks
    ``M[idx][:, idx]`` of that size, each ``idx`` the ascending indices of one
    block.  Ascending indices keep each block's lower triangle inside M's
    lower triangle, the one ``eigvalsh`` reads.  A block that spans M is M
    itself, not a copy.  The Hermitian check runs block by block; entries
    outside every block are zero in M and in M*, so its value max |M - M*|
    is the dense one.

    >>> m = np.array([[2, 0, 1, 0], [0, 3, 0, 1j], [1, 0, 2, 0], [0, -1j, 0, 3]])
    >>> (sub,) = _hermitian_blocks(m)  # one block size
    >>> sub.shape, np.array_equal(sub[1], m[np.ix_([1, 3], [1, 3])])
    ((2, 2, 2), True)
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
        groups.append(sub)
    _check_defect(float(np.max(defects)))
    return groups


def min_eigenvalue(m: np.ndarray) -> float:
    return min(float(np.min(np.linalg.eigvalsh(sub)[:, 0])) for sub in _hermitian_blocks(m))


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to the interchange form {rows, cols, entries=[[re, im], ...]}."""
    form = _matrix_form(m)
    return {**form, "entries": form["entries"].tolist()}


def _matrix_form(m: np.ndarray) -> dict:
    """The interchange form with ``entries`` the (rows * cols, 2) float array of [re, im] pairs, row-major.

    The pairs are the float view of M's entries, so a C-ordered complex M is
    not copied; a real M is widened to complex here, its imaginary parts +0.0."""
    m = _as_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2)}


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
