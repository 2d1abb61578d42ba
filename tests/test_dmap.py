import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    choi,
    d_matrix,
    delta_apply,
    delta_n,
    hermitian_spectrum,
    identity,
    is_psd,
    tau,
    theta_apply,
)
from cyclemaps.matlin import matrix_unit
from conftest import random_hermitian

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_params_validation():
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), 0.0, (1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), -2.0, (1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), float("inf"), (1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), 2.0, (1.0, 1.0))
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), 2.0, (1.0, 0.0, 1.0))
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), 2.0, (1.0, -1.0, 1.0))
    with pytest.raises(ParameterError):
        MapParams(3, tau(3, 1), 2.0, (1.0, float("nan"), 1.0))
    with pytest.raises(ParameterError):
        MapParams(4, tau(3, 1), 2.0, (1.0,) * 4)
    with pytest.raises(ParameterError):
        MapParams(0, identity(1), 1.0, ())


def test_uniform_c_flag(flagship):
    assert flagship.uniform_c
    assert not MapParams(3, tau(3, 1), 2.0, (1.0, 1.5, 1.0)).uniform_c


def test_delta_and_theta_on_flagship(flagship):
    e11 = matrix_unit(3, 1, 1)
    assert_allclose(delta_apply(flagship, e11), np.diag([2.0, 1.0, 0.0]).astype(complex))
    assert_allclose(theta_apply(flagship, e11), np.diag([1.0, 1.0, 0.0]).astype(complex))


def test_theta_kills_offdiagonal_units(flagship):
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                e = matrix_unit(3, i, j)
                assert_allclose(theta_apply(flagship, e), -e)


def test_apply_rejects_wrong_shape(flagship):
    with pytest.raises(ParameterError):
        theta_apply(flagship, np.eye(4))


def test_d_matrix_flagship(flagship):
    expect = np.array(
        [
            [2.0, 1.0, 0.0],
            [0.0, 2.0, 1.0],
            [1.0, 0.0, 2.0],
        ]
    )
    assert_allclose(d_matrix(flagship), expect)


def test_d_matrix_column_sums():
    p = MapParams(4, tau(4, 3), 2.5, (0.5, 1.5, 2.5, 3.5))
    d = d_matrix(p)
    # Column j collects a from the diagonal plus c_j from row sigma(j).
    assert_allclose(d.sum(axis=0).real, [p.a + cj for cj in p.c])


def test_diagonal_action_matches_d_matrix():
    rng = np.random.default_rng(21)
    p = MapParams(5, tau(5, 2), 2.7, tuple(rng.uniform(0.3, 2.5, size=5)))
    x = random_hermitian(rng, 5)
    via_d = np.diag(np.diagonal(x) @ d_matrix(p)) - x
    assert_allclose(theta_apply(p, x), via_d, atol=1e-12)


def test_theta_is_linear_and_hermiticity_preserving():
    rng = np.random.default_rng(2)
    p = MapParams(4, Permutation((2, 1, 4, 3)), 3.0, (1.0, 2.0, 0.5, 1.0))
    x = random_hermitian(rng, 4)
    y = random_hermitian(rng, 4)
    lhs = theta_apply(p, 2.0 * x - 0.5 * y)
    rhs = 2.0 * theta_apply(p, x) - 0.5 * theta_apply(p, y)
    assert_allclose(lhs, rhs, atol=1e-12)
    out = theta_apply(p, x)
    assert_allclose(out, out.conj().T, atol=1e-12)


def test_choi_flagship_spectrum(flagship):
    cm = choi(flagship)
    assert cm.n == 3
    assert not cm.transposed_composition
    res = hermitian_spectrum(cm.matrix)
    assert res.residual <= 1e-10
    expect = [-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert_allclose(res.eigenvalues, expect, atol=1e-8)
    assert np.trace(cm.matrix).real == pytest.approx(6.0)


def test_choi_transposed_flagship_spectrum(flagship):
    cm = choi(flagship, compose_transpose=True)
    assert cm.transposed_composition
    res = hermitian_spectrum(cm.matrix)
    expect = sorted([1.0 - GOLDEN] * 3 + [1.0] * 3 + [GOLDEN] * 3)
    assert_allclose(res.eigenvalues, expect, atol=1e-8)
    # Transposing the blocks preserves the trace but not the spectrum here.
    assert np.trace(cm.matrix).real == pytest.approx(6.0)
    plain = hermitian_spectrum(choi(flagship).matrix).eigenvalues
    assert np.max(np.abs(plain - res.eigenvalues)) > 0.1


def test_choi_closed_form_spectrum_fixed_point_free():
    # With no fixed points the spectrum is {a - n, a (n-1 times), c entries, 0s}.
    p = MapParams(4, tau(4, 1), 3.2, (0.5, 1.5, 2.5, 0.7))
    w = hermitian_spectrum(choi(p).matrix).eigenvalues
    expect = sorted([p.a - 4.0] + [p.a] * 3 + list(p.c) + [0.0] * 8)
    assert_allclose(w, expect, atol=1e-8)


def test_choi_trace_formula():
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        c = tuple(rng.uniform(0.2, 3.0, size=n))
        a = float(rng.uniform(0.5, n + 1.0))
        p = MapParams(n, tau(n, k), a, c)
        tr = np.trace(choi(p).matrix).real
        assert tr == pytest.approx(n * (a - 1.0) + sum(c), rel=1e-12)


def test_delta_n_map():
    p = delta_n(3)
    assert p.n == 3
    assert p.sigma.is_identity()
    assert p.a == 3.0
    assert p.c == (0.0, 0.0, 0.0)
    x = random_hermitian(np.random.default_rng(4), 3)
    assert_allclose(theta_apply(p, x), 3.0 * np.diag(np.diagonal(x)) - x, atol=1e-12)
    res = hermitian_spectrum(choi(p).matrix)
    assert_allclose(res.eigenvalues, [0.0] * 7 + [3.0, 3.0], atol=1e-8)
    assert is_psd(choi(p).matrix)


def test_delta_n_validation():
    with pytest.raises(ParameterError):
        delta_n(1)
    with pytest.raises(ParameterError):
        delta_n(2.0)
    # The public constructor refuses zero weights; delta_n is the only route.
    with pytest.raises(ParameterError):
        MapParams(3, identity(3), 3.0, (0.0, 0.0, 0.0))
