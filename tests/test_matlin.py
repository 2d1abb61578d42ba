import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclemaps import (
    ContractError,
    ParameterError,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    require_hermitian,
)
from cyclemaps.matlin import _hermitian_blocks, _hermitian_defect, _matrix_form, _pattern_components
from conftest import random_hermitian
from matrix_helpers import (
    assert_real_matches_complex,
    basis_vector,
    identity_matrix,
    is_hermitian,
    is_psd,
    kron,
    matrix_unit,
    real_parts_of,
    schur_product,
    transposed_copy_defect,
)


def test_matrix_unit_and_basis_vector():
    e12 = matrix_unit(3, 1, 2)
    assert e12[0, 1] == 1.0
    assert np.count_nonzero(e12) == 1
    assert_allclose(basis_vector(3, 2), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ParameterError):
        matrix_unit(3, 0, 1)
    with pytest.raises(ParameterError):
        basis_vector(3, 4)


def test_kron_matrix_units():
    # E12 (x) E21 has its single 1 at row (1, 2) and column (2, 1), which
    # flatten (0-based, first factor major) to 0*3+1 = 1 and 1*3+0 = 3.
    m = kron(matrix_unit(3, 1, 2), matrix_unit(3, 2, 1))
    expect = np.zeros((9, 9))
    expect[1, 3] = 1.0
    assert_allclose(m, expect)


def test_kron_diagonal():
    m = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert_allclose(m, np.diag([10.0, 14.0, 15.0, 21.0]))


def test_kron_mixed_product():
    rng = np.random.default_rng(7)
    a, b, c, d = (rng.standard_normal((3, 3)) for _ in range(4))
    assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def test_kron_size_guard():
    big = np.eye(64)
    with pytest.raises(ParameterError):
        kron(big, np.eye(32))


def test_partial_transpose_product_matrices():
    # On a product A (x) B the partial transpose acts on the second factor only.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(partial_transpose(kron(a, b), 3, 3), kron(a, b.T), atol=1e-14)

    m = kron(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))
    assert_allclose(partial_transpose(m, 2, 2), kron(matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)))


@pytest.mark.parametrize("k,n", [(3, 3), (4, 4), (2, 5)])
def test_partial_transpose_is_involutive_and_trace_preserving(k, n):
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, k * n)
    pt = partial_transpose(m, k, n)
    assert_allclose(partial_transpose(pt, k, n), m)
    assert_allclose(np.trace(pt), np.trace(m))
    assert is_hermitian(pt)


def test_partial_transpose_shape_check():
    with pytest.raises(ParameterError):
        partial_transpose(np.eye(6), 4, 2)


def test_min_eigenvalue_known_matrices():
    # (n-1) I - J for n = 3 has eigenvalues -1, 2, 2.
    g = 2.0 * np.eye(3) - np.ones((3, 3))
    assert min_eigenvalue(g) == pytest.approx(-1.0, abs=1e-12)
    assert min_eigenvalue(-g) == pytest.approx(-2.0, abs=1e-12)
    assert min_eigenvalue(4.0 * np.eye(3) - np.ones((3, 3))) == pytest.approx(1.0, abs=1e-12)


def test_min_eigenvalue_of_dense_random_matrices():
    # a fully dense matrix is one block, solved as a whole
    rng = np.random.default_rng(5)
    for n in (9, 25, 144):
        m = random_hermitian(rng, n, scale=3.0)
        w = np.linalg.eigvalsh(m)
        assert [sub.shape for sub in _hermitian_blocks(m)] == [(1, n, n)]
        assert min_eigenvalue(m) == pytest.approx(w[0], abs=1e-12 * max(1.0, float(np.max(np.abs(w)))))


def test_require_hermitian_rejects():
    with pytest.raises(ContractError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractError):
        require_hermitian(np.ones((2, 3)))
    m = random_hermitian(np.random.default_rng(0), 4)
    require_hermitian(m)  # should not raise


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_require_hermitian_rejects_non_finite_entries(bad):
    # nan - nan is nan and inf - inf is nan, neither of which exceeds a tolerance
    m = np.eye(3, dtype=complex)
    m[1, 1] = bad
    assert not is_hermitian(m)
    with pytest.raises(ContractError, match="not Hermitian"):
        require_hermitian(m)


def test_is_psd_and_min_eigenvalue():
    assert min_eigenvalue(np.diag([-2.0, 5.0])) == pytest.approx(-2.0)
    assert not is_psd(np.diag([-2.0, 5.0]))
    assert is_psd(np.diag([0.0, 5.0]))
    # Small negative values inside tolerance still count as PSD.
    assert is_psd(np.diag([-1e-12, 1.0]))
    assert not is_psd(np.diag([-1e-6, 1.0]))


# within DEFAULT_HERMITIAN_TOL, so the Hermitian check passes it
STRAY = 5e-11


@st.composite
def block_matrices(draw):
    """A random Hermitian matrix made of dense blocks and 1x1 zero blocks,
    conjugated by a random permutation, optionally with one stray entry that
    sits in one triangle only and joins two blocks."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    zero = [b == 1 and draw(st.booleans()) for b in sizes]
    stray = draw(st.sampled_from([None, "upper", "lower"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    block, is_zero = np.repeat(np.arange(len(sizes)), sizes), np.repeat(zero, sizes)
    for k, b in enumerate(sizes):
        if not zero[k]:
            at = np.flatnonzero(block == k)
            m[np.ix_(at, at)] = random_hermitian(rng, b, scale=float(rng.uniform(0.5, 4.0)))
    perm = rng.permutation(n)
    m, block, is_zero = m[np.ix_(perm, perm)], block[perm], is_zero[perm]
    i, j = np.nonzero(block[:, None] != block)
    if stray == "upper":
        # the residual the stray entry adds depends on the eigenvectors at
        # its ends, which a degenerate zero eigenvalue leaves free
        keep = ~(is_zero[i] | is_zero[j])
        i, j = i[keep], j[keep]
    if stray is not None and i.size:
        pick = int(rng.integers(i.size))
        lo, hi = sorted((int(i[pick]), int(j[pick])))
        m[(lo, hi) if stray == "upper" else (hi, lo)] = STRAY
    return m


@settings(max_examples=200, deadline=None)
@given(block_matrices())
@example(random_hermitian(np.random.default_rng(2), 9))  # one fully dense block
@example(np.diag([0.0, -1.0, 0.0]))  # 1x1 blocks only
# two 1x1 zero blocks joined by an entry in the lower triangle only, which
# eigvalsh reads: they form one block with eigenvalues -STRAY and STRAY
@example(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, STRAY, 0.0]], dtype=complex))
def test_block_split_matches_dense_lapack(m):
    w = np.linalg.eigvalsh(m)
    scale = 1e-12 * max(1.0, float(np.max(np.abs(w))))
    assert abs(min_eigenvalue(m) - w[0]) <= scale
    assert abs(min_eigenvalue(-m) + w[-1]) <= scale
    # every eigenvalue of the blocks is one of M's, with its multiplicity
    blocks = np.sort(np.concatenate([np.linalg.eigvalsh(sub).ravel() for sub in _hermitian_blocks(m)]))
    assert np.max(np.abs(blocks - w)) <= scale

    for bad in (np.nan, np.inf, 1.0):
        spoiled = m.copy()
        k = len(m) // 2
        if bad == 1.0:  # an asymmetry above the tolerance
            spoiled[k, -1] += 1.0 if k != len(m) - 1 else 1j
        else:
            spoiled[k, k] = bad
        with pytest.raises(ContractError) as dense:
            require_hermitian(spoiled)
        for helper in (min_eigenvalue, is_psd):
            # the same max |M - M*|, found block by block
            with pytest.raises(ContractError, match="not Hermitian") as blocked:
                helper(spoiled)
            assert str(blocked.value) == str(dense.value)


@settings(max_examples=100, deadline=None)
@given(block_matrices())
@example(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, STRAY, 0.0]]))
def test_real_block_matrices_solve_as_their_complex_form(m):
    # the real part of a Hermitian block matrix is real symmetric, with the same blocks
    m = np.ascontiguousarray(m.real)
    size = len(m)
    k = next(d for d in range(1, size + 1) if size % d == 0 and d * d >= size)
    assert_real_matches_complex(m, (k, size // k))


def bfs_components(m: np.ndarray) -> np.ndarray:
    """Oracle: each index labelled by the least index of its connected component
    under the edges i - j with M[i, j] != 0 or M[j, i] != 0, found breadth first."""
    adjacent = (m != 0) | (m != 0).T
    label = np.full(len(m), -1)
    for root in range(len(m)):
        if label[root] >= 0:
            continue
        label[root], queue = root, [root]
        while queue:
            for j in np.flatnonzero(adjacent[queue.pop()] & (label < 0)):
                label[j] = root
                queue.append(j)
    return label


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1), st.booleans())
def test_pattern_components_match_breadth_first_search(size, density, seed, real):
    # entries are nan, +-inf, -0.0 (a zero: no edge), subnormals or numbers, in
    # one triangle or both; some rows and columns are empty apart from the
    # diagonal.  A float64 M is read one part per entry, a complex M two.
    rng = np.random.default_rng(seed)
    if real:
        values = np.array([1.0, -2.5, np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310])
    else:
        values = np.array([1.0, -2.5 + 1j, 1j, np.nan, np.inf, -0.0, 5e-324])
    m = np.where(rng.random((size, size)) < density, rng.choice(values, (size, size)), 0.0)
    empty = rng.random(size) < 0.2
    m[empty, :] = m[:, empty] = 0.0
    np.fill_diagonal(m, rng.choice([0.0, -0.0, 1.0], size))
    assert m.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(_pattern_components(m), bfs_components(m))


@pytest.mark.parametrize("size", [63, 64, 65, 200])
def test_pattern_components_in_chunks_and_on_strided_views(size):
    # several row chunks, the last one partial; nonzero real or imaginary
    # parts alone, signed zeros, nan and inf; C-ordered, transposed and
    # strided inputs, which the nonzero pass reads through their float view
    rng = np.random.default_rng(size)
    values = np.array([1.0, 1j, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), np.nan, complex(0.0, np.inf), 5e-324j])
    big = np.where(rng.random((2 * size, 2 * size)) < 0.01, rng.choice(values, (2 * size, 2 * size)), 0.0)
    for m in (big[:size, :size].copy(), big[:size, :size].T, big[::2, ::2], big[::-2, 1::2], big.real[::-2, 1::2]):
        assert np.array_equal(_pattern_components(m), bfs_components(m))


def old_matrix_to_json(m):
    """The per-entry serialisation that matrix_to_json replaced."""
    rows, cols = m.shape
    entries = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": rows, "cols": cols, "entries": entries}


def test_matrix_to_json_matches_the_per_entry_form():
    tiny = 5e-324  # the least subnormal
    m = np.array(
        [
            [complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny)],
            [complex(1e308, -1e308), complex(2.0, -3.0), complex(2.5e-310, 1.0)],
        ]
    )
    for x in (m, m.T, m[:, ::2], np.array([[1, -2], [3, 4]])):
        new, old = matrix_to_json(x), old_matrix_to_json(np.asarray(x, dtype=complex))
        assert json.dumps(new) == json.dumps(old)
        assert all(type(t) is float for pair in new["entries"] for t in pair)


def complex_from_bits(parts: np.ndarray) -> np.ndarray:
    """The complex matrix whose [re, im] floats are ``parts[..., 0]`` and
    ``parts[..., 1]`` bit for bit (complex arithmetic could change a nan or a
    signed zero)."""
    return np.ascontiguousarray(parts).view(complex)[..., 0]


# signed zeros, a subnormal, the extremes, infinities and nan payloads
# other than numpy's own
ODD_FLOATS = np.concatenate(
    [
        [0.0, -0.0, 5e-324, -1e308, 1.5, np.inf, -np.inf, np.nan],
        np.array([0x7FF8000000000001, 0xFFF00000000ABCDE], dtype=np.uint64).view(float),
    ]
)


def test_matrix_form_is_the_stacked_parts_bit_for_bit():
    m = complex_from_bits(np.random.default_rng(5).choice(ODD_FLOATS, (6, 8, 2)))
    assert np.shares_memory(_matrix_form(m)["entries"], m)  # a C-ordered M is not copied
    for x in (m, m.T, m[::2, 1::3], m[::-1, ::-2]):
        new = _matrix_form(x)
        old = np.stack([x.real, x.imag], -1).reshape(-1, 2)
        assert (new["rows"], new["cols"]) == x.shape
        assert new["entries"].shape == old.shape and new["entries"].tobytes() == old.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (32, 32), (33, 33), (70, 70), (496, 2, 2), (3, 40, 40)])
def test_hermitian_defect_matches_the_transposed_copy(shape):
    # one band or several, the last one partial, and stacks of blocks; exact,
    # perturbed and non-finite entries, signed zeros, on views as well
    rng = np.random.default_rng(sum(shape))
    z = rng.standard_normal((*shape, 2)).view(complex)[..., 0]
    h = z + z.conj().swapaxes(-1, -2)
    variants = [h, np.zeros(shape, dtype=complex), complex_from_bits(rng.choice(ODD_FLOATS[:2], (*shape, 2)))]
    for value in ODD_FLOATS[2:]:
        for count in (1, 3):
            m = h.copy()
            flat = m.reshape(-1)
            flat[rng.integers(0, flat.size, count)] = complex(value, -value)
            variants.append(m)
    for m in variants:
        for x in (m, m.swapaxes(-1, -2), m[..., ::-1, ::-1]):
            with np.errstate(over="ignore"):  # 1e308 - (-1e308), in both
                got, want = _hermitian_defect(x), transposed_copy_defect(x)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


def test_schur_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert_allclose(schur_product(a, b), np.array([[5.0, 12.0], [21.0, 32.0]]))
    with pytest.raises(ParameterError):
        schur_product(a, np.eye(3))


def test_matrix_from_json_stays_complex_on_a_real_matrix():
    m = np.array([[2.0, -0.0], [-1.0, 5e-324]])
    z = matrix_from_json(matrix_to_json(m))
    assert z.dtype == np.complex128 and real_parts_of(m, z)


def test_identity_matrix_dtype():
    m = identity_matrix(3)
    assert m.dtype == np.complex128
    assert_allclose(m, np.eye(3))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(17)
    m = random_hermitian(rng, 4)
    data = matrix_to_json(m)
    assert data["rows"] == 4 and data["cols"] == 4
    assert_allclose(matrix_from_json(data), m)

    rect = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    assert_allclose(matrix_from_json(matrix_to_json(rect)), rect)


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]] * 3},
        {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [1.0], [0.0, 0.0], [0.0, 0.0]]},
        {"rows": "2", "cols": 2, "entries": [[1.0, 0.0]] * 4},
        {"rows": 2, "cols": 2, "entries": [[1.0, "x"], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        {"rows": 0, "cols": 2, "entries": []},
    ],
)
def test_matrix_from_json_rejects_malformed(payload):
    with pytest.raises(ParameterError):
        matrix_from_json(payload)


@pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0], [10**400, 0.0]])
def test_matrix_from_json_rejects_non_finite_entries(bad):
    # json.loads parses NaN and Infinity, and a huge integer overflows a float
    payload = {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], bad, [0.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(ParameterError, match="entry 1 must hold finite numbers"):
        matrix_from_json(payload)
