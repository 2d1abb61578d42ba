"""Dense complex matrix helpers used throughout the package.

Everything operates on plain numpy arrays with complex128 entries.  Tensor
products follow the first-factor-major block convention of ``numpy.kron``:
``kron(A, B)[(i, p), (j, q)] == A[i, j] * B[p, q]``, i.e. block (i, j) of the
product equals ``A[i, j] * B``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError

DEFAULT_PSD_TOL = 1e-9
DEFAULT_HERMITIAN_TOL = 1e-10

# Matrices past this edge length are outside the supported regime; the guard
# turns an out-of-memory surprise into a size error at the call site.
MAX_DIM = 1024


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


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> bool:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def require_hermitian(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> np.ndarray:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ContractError(f"matrix is not square (shape {m.shape})")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tol:
        raise ContractError(
            f"matrix is not Hermitian: max |M - M*| = {defect:.3e} exceeds {tol:.1e}"
        )
    return m


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


def hermitian_spectrum(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> SpectrumResult:
    m = require_hermitian(m, tol)
    w, v = np.linalg.eigh(m)
    residual = float(np.max(np.linalg.norm(m @ v - v * w, axis=0))) if m.size else 0.0
    return SpectrumResult(eigenvalues=w, residual=residual)


def min_eigenvalue(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> float:
    m = require_hermitian(m, tol)
    return float(np.linalg.eigvalsh(m)[0])


def is_psd(m: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Positive semidefinite up to an absolute eigenvalue tolerance."""
    return min_eigenvalue(m) >= -tol


def negative_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Spectral negative part M^- (a PSD matrix with M = M^+ - M^-) and its norm.

    The returned norm is the largest magnitude among negative eigenvalues,
    0.0 when the input is already PSD.
    """
    m = require_hermitian(m)
    w, v = np.linalg.eigh(m)
    neg = w < 0
    if not np.any(neg):
        return np.zeros_like(m), 0.0
    vneg = v[:, neg]
    part = (vneg * (-w[neg])) @ vneg.conj().T
    return part, float(-w[0])


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
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
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
    flat = np.empty(rows * cols, dtype=complex)
    for pos, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParameterError(f"matrix entry {pos} must be a [re, im] pair (got {pair!r})")
        re, im = pair
        if isinstance(re, bool) or isinstance(im, bool) or not all(isinstance(t, (int, float)) for t in (re, im)):
            raise ParameterError(f"matrix entry {pos} must hold two real numbers (got {pair!r})")
        flat[pos] = complex(re, im)
    return flat.reshape(rows, cols)
