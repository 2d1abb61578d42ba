import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclemaps import (
    ContractError,
    ParameterError,
    hermitian_spectrum,
    is_hermitian,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    negative_part,
    partial_transpose,
    require_hermitian,
)
from cyclemaps.matlin import basis_vector, identity_matrix, kron, matrix_unit, schur_product
from conftest import random_hermitian


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


def test_hermitian_spectrum_known_matrices():
    # (n-1) I - J for n = 3 has eigenvalues -1, 2, 2.
    g = 2.0 * np.eye(3) - np.ones((3, 3))
    res = hermitian_spectrum(g)
    assert_allclose(res.eigenvalues, [-1.0, 2.0, 2.0], atol=1e-12)
    assert res.residual <= 1e-10

    res = hermitian_spectrum(4.0 * np.eye(3) - np.ones((3, 3)))
    assert_allclose(res.eigenvalues, [1.0, 4.0, 4.0], atol=1e-12)


def test_hermitian_spectrum_is_sorted_and_accurate():
    rng = np.random.default_rng(5)
    for n in (9, 25, 144):
        m = random_hermitian(rng, n, scale=3.0)
        res = hermitian_spectrum(m)
        assert np.all(np.diff(res.eigenvalues) >= 0)
        assert res.residual <= 1e-10
        assert_allclose(res.eigenvalues.sum(), np.trace(m).real, atol=1e-9)


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


def test_negative_part_diagonal():
    neg, norm = negative_part(np.diag([-2.0, 5.0]))
    assert_allclose(neg, np.diag([2.0, 0.0]), atol=1e-12)
    assert norm == pytest.approx(2.0)


def test_negative_part_psd_input():
    neg, norm = negative_part(np.diag([0.0, 1.0, 3.0]))
    assert_allclose(neg, np.zeros((3, 3)), atol=1e-12)
    assert norm == 0.0


def test_negative_part_reconstruction():
    rng = np.random.default_rng(13)
    m = random_hermitian(rng, 8, scale=2.0)
    neg, norm = negative_part(m)
    assert is_psd(neg)
    assert norm == pytest.approx(max(0.0, -min_eigenvalue(m)), abs=1e-10)
    assert is_psd(m + neg, tol=1e-8)


def test_schur_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert_allclose(schur_product(a, b), np.array([[5.0, 12.0], [21.0, 32.0]]))
    with pytest.raises(ParameterError):
        schur_product(a, np.eye(3))


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
