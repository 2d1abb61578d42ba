"""Dense matrices that only the tests use: matrix units, basis vectors,
tensor and entrywise products, and the dense form of the witness certificate
from its generators built eagerly, the dense phase table included.

Tensor products follow the first-factor-major block convention of
``numpy.kron``: ``kron(A, B)[(i, p), (j, q)] == A[i, j] * B[p, q]``, i.e.
block (i, j) of the product equals ``A[i, j] * B``, so |ik> sits at index
i*n + k as in :func:`cyclemaps.dmap.assemble`.
"""
import json

import numpy as np
import pytest

from cyclemaps import (
    ContractError,
    ParameterError,
    choi_structure,
    is_hermitian,
    is_psd,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    require_hermitian,
)
from cyclemaps.matlin import DEFAULT_HERMITIAN_TOL, MAX_DIM, _hermitian_blocks
from cyclemaps.witness import EXPECTATION_TOL


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
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ParameterError(f"shape mismatch for entrywise product: {a.shape} vs {b.shape}")
    return a * b


def numerical_rank(m: np.ndarray, rtol: float = 1e-8) -> int:
    """Number of singular values above ``rtol`` times the largest (0 for an empty or zero matrix)."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def eager_generators(p) -> tuple[np.ndarray, np.ndarray]:
    """The witness generators of p built eagerly, as ``(phases, pairs)``: the
    dense phase table (the zero row, pi and then pi/2 at each coordinate, and
    pi at each pair of coordinates k < l) and the basis pairs (i, j),
    j not in {i, sigma^(-1)(i)}, in row-major order."""
    n, d = p.n, np.arange(p.n)
    k, l = np.triu_indices(n, 1)
    phases = np.zeros((1 + 2 * n + k.size, n))
    phases[1 + d, d] = np.pi
    phases[1 + n + d, d] = np.pi / 2
    rows = 1 + 2 * n + np.arange(k.size)
    phases[rows, k] = phases[rows, l] = np.pi
    i, j = np.divmod(np.arange(n * n), n)
    keep = (j != i) & (choi_structure(p).img[j] != i)
    return phases, np.stack([i[keep], j[keep]], axis=1)


def dense_certificate(p) -> tuple[np.ndarray, int]:
    """The expectations and span rank of ``certify_optimality(p)``, from the dense phase table.

    Every phase row of :func:`eager_generators` goes through ``np.exp``, and
    the rank is the number of passing basis pairs plus the numerical rank of
    the passing phase vectors restricted to the coordinates no passing basis
    pair covers: an (up to n(n+1)/2 + 2n + 1) x (at most 2n) SVD.
    """
    n = p.n
    structure = choi_structure(p)
    phases, pairs = eager_generators(p)
    xi = np.exp(1j * phases)
    w = np.abs(xi) ** 2
    phase = np.sum((structure.a * w + structure.c * w[:, structure.img]) * w, axis=1) - w.sum(axis=1) ** 2
    i, j = pairs.T
    basis = structure.entry(i, j) - (i == j)
    expectations = np.concatenate([phase, basis]) / n
    phase_ok, pair_ok = np.split(np.abs(expectations) <= EXPECTATION_TOL, [len(xi)])
    covered = np.zeros((n, n), dtype=bool)
    covered[i[pair_ok], j[pair_ok]] = True
    k, l = np.nonzero(~covered)
    rest = xi[np.ix_(phase_ok, k)] * xi[np.ix_(phase_ok, l)]
    return expectations, int(np.count_nonzero(covered)) + numerical_rank(rest)


def transposed_copy_defect(m: np.ndarray) -> float:
    """max |M - M*| over the last two axes, from one transposed copy of M: the
    form that ``matlin._hermitian_defect`` compares band by band."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))


def real_parts_of(got: np.ndarray, want: np.ndarray) -> bool:
    """Is the float64 ``got`` the real part of the complex ``want`` bit for bit,
    signed zeros and nan payloads included, with every imaginary part +0.0?"""
    return (
        got.dtype == np.float64
        and np.array_equal(got.view(np.uint64), want.real.view(np.uint64))
        and not want.imag.view(np.uint64).any()
    )


def assert_real_matches_complex(m: np.ndarray, factors: tuple[int, int]) -> None:
    """The dense helpers give a float64 M the results they give M.astype(complex):
    the same blocks, Hermitian checks, error texts, partial transpose (on C^k (x)
    C^n for (k, n) = ``factors``) and interchange form, and the same least
    eigenvalue up to the rounding of the real and the complex LAPACK driver."""
    assert m.dtype == np.float64
    z = m.astype(complex)
    real, cplx = _hermitian_blocks(m, DEFAULT_HERMITIAN_TOL), _hermitian_blocks(z, DEFAULT_HERMITIAN_TOL)
    assert [b.shape for b in real] == [b.shape for b in cplx]
    assert all(real_parts_of(r, c) for r, c in zip(real, cplx))
    scale = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(z)))))
    assert abs(min_eigenvalue(m) - min_eigenvalue(z)) <= 1e-12 * scale
    assert is_psd(m) == is_psd(z)
    assert is_hermitian(m) and is_hermitian(z)
    assert real_parts_of(require_hermitian(m), require_hermitian(z))
    assert real_parts_of(partial_transpose(m, *factors), partial_transpose(z, *factors))
    assert json.dumps(matrix_to_json(m)) == json.dumps(matrix_to_json(z))
    k = len(m) // 2
    for bad in (np.nan, np.inf, 1.0):
        spoiled = m.copy()
        if bad == 1.0:  # an asymmetry above the tolerance
            spoiled[k, -1] += 1.0 if k != len(m) - 1 else np.nan
        else:
            spoiled[k, k] = bad
        assert not is_hermitian(spoiled) and not is_hermitian(spoiled.astype(complex))
        for helper in (require_hermitian, min_eigenvalue, is_psd):
            texts = []
            for x in (spoiled, spoiled.astype(complex)):
                with pytest.raises(ContractError, match="not Hermitian") as err:
                    helper(x)
                texts.append(str(err.value))
            assert texts[0] == texts[1]
