"""Dense matrices and oracles that only the tests use: matrix units, basis
vectors, tensor and entrywise products, the dense form of the witness
certificate from its generators built eagerly (the dense phase table
included), and the checks the suite holds the package's answers against.

The oracles were public functions of the package until no package code
called them:

* ``is_psd``, ``is_hermitian``: the dense PSD and Hermitian predicates, on
  :func:`cyclemaps.min_eigenvalue` and the package's own Hermitian defect;
* ``ppt_check``: is the partial transpose of a Hermitian matrix PSD;
* ``spa_interpolation``: the dense noisy family W(lam) of the SPA;
* ``r_matrix``: the 4 x 4 seed through which every pair term of the
  separable SPA factors;
* ``schur_matrix``, ``elementary_symmetric``, ``symmetric_F``,
  ``positivity_threshold``: the entrywise-multiplier matrix at sigma = id,
  the symmetric-polynomial lemma and the positivity threshold
  max(n - 1, n - geomean(c)), which acceptance criteria 8 and 9 check the
  verdicts against.

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
    geometric_mean_c,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    require_hermitian,
    spa_state,
)
from cyclemaps.dmap import assemble, require_dense_size
from cyclemaps.matlin import DEFAULT_HERMITIAN_TOL, DEFAULT_PSD_TOL, MAX_DIM, _as_matrix, _hermitian_blocks, _hermitian_defect
from cyclemaps.witness import EXPECTATION_TOL


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_HERMITIAN_TOL) -> bool:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return _hermitian_defect(m) <= tol


def is_psd(m: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Positive semidefinite up to an absolute eigenvalue tolerance."""
    return min_eigenvalue(m) >= -tol


def ppt_check(m: np.ndarray, k: int, n: int, tol: float = DEFAULT_PSD_TOL) -> tuple[bool, float]:
    """Is the partial transpose of a Hermitian matrix on C^k (x) C^n PSD?
    Returns the verdict and the minimum eigenvalue of the partial transpose."""
    m = require_hermitian(m)
    pt_min = min_eigenvalue(partial_transpose(m, k, n))
    return pt_min >= -tol, pt_min


def spa_interpolation(p, lam: float) -> np.ndarray:
    """The noisy family W(lam) = (1 - lam)/n^2 * I + lam * C/Tr(C), dense.

    ParameterError for lam outside [0, 1], then PreconditionError from
    :func:`cyclemaps.spa_state` when Tr C <= 0, then ParameterError past
    ``MAX_DIM``, each before a dense matrix is built."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"lam must lie in [0, 1] (got {lam})")
    trace = spa_state(p).trace_choi
    require_dense_size(p.n)
    noise = (1.0 - lam) / p.n**2
    d, k = choi_structure(p).parts()
    return assemble(p.n, noise + lam * d / trace, noise * np.eye(p.n) + lam * k / trace)


def r_matrix() -> np.ndarray:
    """The 4 x 4 seed of the two-level blocks: identity with -1 in the
    (1, 4) / (4, 1) corners.  PSD with spectrum {0, 1, 1, 2}, and so is its
    partial transpose."""
    r = np.eye(4)
    r[0, 3] = -1.0
    r[3, 0] = -1.0
    return r


def positivity_threshold(p) -> float:
    """max(n-1, n - geomean(c)): at or above it the map is positive for any sigma."""
    return max(p.n - 1.0, p.n - geometric_mean_c(p))


def schur_matrix(p) -> np.ndarray:
    """The entrywise-multiplier matrix representing the map when sigma = id:
    diagonal a + c_i - 1, off-diagonal -1."""
    m = -np.ones((p.n, p.n))
    for i in range(p.n):
        m[i, i] = p.a + p.c[i] - 1.0
    return m


def elementary_symmetric(xs) -> list[float]:
    """e_0, e_1, ..., e_n of the given reals, by the product recurrence."""
    e = [1.0]
    for x in xs:
        x = float(x)
        e.append(0.0)
        for k in range(len(e) - 1, 0, -1):
            e[k] += x * e[k - 1]
    return e


def symmetric_F(a: float, xs) -> float:
    """The symmetric polynomial sum_m a^(m-1) (a - m) e_{n-m}(xs).

    Its sign characterizes sum_i 1/(a + x_i) <= 1: the two are equivalent for
    every a > 0 and positive xs (multiply the inequality through by
    prod_i (a + x_i)).
    """
    xs = tuple(float(x) for x in xs)
    a = float(a)
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"a must be positive and finite (got {a})")
    if any(x <= 0 or not np.isfinite(x) for x in xs):
        raise ParameterError(f"xs entries must be positive and finite (got {xs})")
    e = elementary_symmetric(xs)
    n = len(xs)
    total = e[n]  # the m = 0 term a^(m-1) (a - m) e_n collapses to e_n
    for m in range(1, n + 1):
        total += a ** (m - 1) * (a - m) * e[n - m]
    return float(total)


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
    real, cplx = _hermitian_blocks(m), _hermitian_blocks(z)
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
