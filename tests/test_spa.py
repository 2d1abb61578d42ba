import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    PreconditionError,
    choi,
    identity,
    is_psd,
    maximally_entangled_state,
    min_eigenvalue,
    partial_transpose,
    positivity_verdict,
    ppt_check,
    r_matrix,
    separable_decomposition,
    spa_interpolation,
    spa_state,
    tau,
)
from matrix_helpers import kron, matrix_unit


def test_r_matrix_and_its_partial_transpose():
    r = r_matrix()
    assert_allclose(np.linalg.eigvalsh(r), [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    rt = partial_transpose(r, 2, 2)
    assert_allclose(np.linalg.eigvalsh(rt), [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def six_kron_pair_block(n: int, i: int, j: int) -> np.ndarray:
    """sigma_ij = E_ii(x)E_ii + E_jj(x)E_jj + E_ii(x)E_jj + E_jj(x)E_ii
    - E_ij(x)E_ij - E_ji(x)E_ji, summed from kron products of matrix units."""
    e = lambda a, b: matrix_unit(n, a, b)
    return (
        kron(e(i, i), e(i, i))
        + kron(e(j, j), e(j, j))
        + kron(e(i, i), e(j, j))
        + kron(e(j, j), e(i, i))
        - kron(e(i, j), e(i, j))
        - kron(e(j, i), e(j, i))
    )


@pytest.mark.parametrize("n,i,j", [(3, 1, 2), (3, 2, 3), (5, 1, 4)])
def test_pair_block_factors_through_r(n, i, j):
    # every pair term of the decomposition, sigma_ij among them, is the
    # six-kron block, PSD and PPT
    p = MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n)
    pairs = {t.indices: t.matrix for t in separable_decomposition(p).terms if t.kind == "pair"}
    assert (i, j) in pairs and len(pairs) == n * (n - 1) // 2
    for (k, l), block in pairs.items():
        assert np.array_equal(block, six_kron_pair_block(n, k, l))
        assert is_psd(block)
        ok, pt_min = ppt_check(block, n, n)
        assert ok and pt_min >= -1e-12


def test_spa_state_flagship(flagship):
    state = spa_state(flagship)
    assert state.lambda_star == pytest.approx(0.4, abs=1e-12)
    assert state.w_minus_norm == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert state.trace_choi == pytest.approx(6.0)
    assert not state.positivity_warning

    c = choi(flagship).matrix
    assert_allclose(state.matrix, (np.eye(9) + c) / 15.0, atol=1e-12)
    assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert is_psd(state.matrix)
    assert min_eigenvalue(state.matrix) == pytest.approx(0.0, abs=1e-12)


def test_spa_state_already_psd():
    # At a = n the Choi matrix touches zero from above, so the negative part
    # is only eigensolver noise and the mixing parameter sits at 1.
    p = MapParams(3, tau(3, 2), 3.0, (1.0, 1.0, 1.0))
    state = spa_state(p)
    assert state.w_minus_norm <= 1e-12
    assert state.lambda_star == pytest.approx(1.0, abs=1e-12)
    assert_allclose(state.matrix, choi(p).matrix / 9.0, atol=1e-12)


def test_spa_state_warns_for_non_positive_map():
    state = spa_state(MapParams(3, tau(3, 1), 1.5, (1.0, 1.0, 1.0)))
    assert state.positivity_warning


def test_spa_interpolation_threshold(flagship):
    state = spa_state(flagship)
    lam = state.lambda_star
    assert_allclose(spa_interpolation(flagship, lam), state.matrix, atol=1e-12)
    assert_allclose(spa_interpolation(flagship, 0.0), np.eye(9) / 9.0)
    # PSD up to lambda*, a negative eigenvalue strictly past it.
    assert min_eigenvalue(spa_interpolation(flagship, lam - 0.01)) > 0.0
    assert min_eigenvalue(spa_interpolation(flagship, lam + 0.01)) < 0.0
    with pytest.raises(ParameterError):
        spa_interpolation(flagship, -0.1)
    with pytest.raises(ParameterError):
        spa_interpolation(flagship, 1.1)


def test_separable_decomposition_flagship(flagship):
    dec = separable_decomposition(flagship)
    assert dec.normalization == pytest.approx(1.0 / 15.0, abs=1e-12)
    kinds = [t.kind for t in dec.terms]
    assert kinds.count("pair") == 3
    assert kinds.count("diagonal") == 3
    assert dec.residual <= 1e-10
    for term in dec.terms:
        assert term.weight > 0.0
        assert is_psd(term.matrix)
        ok, _ = ppt_check(term.matrix, 3, 3)
        assert ok
    total = sum(t.weight * t.matrix for t in dec.terms)
    assert_allclose(total, spa_state(flagship).matrix, atol=1e-12)


def test_separable_decomposition_n4():
    p = MapParams(4, tau(4, 1), 3.0, (1.0,) * 4)
    dec = separable_decomposition(p)
    # Tr(C) = 12 and ||C^-|| = 1, so the convex weights divide by 12 + 16.
    assert dec.normalization == pytest.approx(1.0 / 28.0, abs=1e-12)
    assert len(dec.terms) == 6 + 4
    assert dec.residual <= 1e-10


def test_separable_decomposition_non_uniform_weights():
    p = MapParams(3, tau(3, 2), 2.0, (1.5, 0.8, 1.2))
    dec = separable_decomposition(p)
    assert dec.normalization == pytest.approx(1.0 / 15.5, abs=1e-12)
    assert dec.residual <= 1e-10
    # Diagonal term at (i, sigma^-1(i)) carries weight c_{sigma^-1(i)}.
    diag = {t.indices: t.weight for t in dec.terms if t.kind == "diagonal"}
    inv = p.sigma.inverse()
    for i in range(1, 4):
        j = inv(i)
        assert diag[(i, j)] == pytest.approx(p.c[j - 1] / 15.5, abs=1e-12)


def test_separable_decomposition_preconditions():
    with pytest.raises(PreconditionError) as err:
        separable_decomposition(MapParams(3, tau(3, 2), 1.9, (1.0,) * 3))
    assert "a = n - 1" in str(err.value)

    with pytest.raises(PreconditionError) as err:
        separable_decomposition(MapParams(3, Permutation((2, 1, 3)), 2.0, (1.0,) * 3))
    assert "length" in str(err.value)

    # Positivity stays unknown here, so no separability claim is made.
    with pytest.raises(PreconditionError) as err:
        separable_decomposition(MapParams(4, tau(4, 2), 3.0, (0.5, 0.6, 0.7, 0.8)))
    assert "positivity" in str(err.value)


NON_POSITIVE_TRACE = [
    # Tr C = n(a - 1) + sum(c) = 0
    MapParams(1, identity(1), 0.5, (0.5,)),
    # Tr C = -1.8
    MapParams(2, tau(2, 1), 0.05, (0.05, 0.05)),
]


@pytest.mark.parametrize("p", NON_POSITIVE_TRACE)
def test_spa_requires_positive_trace(p):
    with pytest.raises(PreconditionError, match=r"Tr C = n\(a - 1\) \+ sum\(c\)"):
        spa_state(p)
    with pytest.raises(PreconditionError, match="Tr C"):
        spa_interpolation(p, 0.5)


@pytest.mark.parametrize("p", NON_POSITIVE_TRACE)
def test_separable_decomposition_checks_the_trace_first(p):
    # both maps also fail a = n - 1, which is checked after the SPA exists
    with pytest.raises(PreconditionError, match=r"Tr C = n\(a - 1\) \+ sum\(c\)"):
        separable_decomposition(p)


def test_separable_decomposition_keeps_its_spa_state(flagship):
    dec, state = separable_decomposition(flagship), spa_state(flagship)
    for field in ("lambda_star", "w_minus_norm", "trace_choi"):
        assert getattr(dec.state, field) == getattr(state, field)
    assert dec.state.positive == state.positive
    assert dec.normalization == 1.0 / (state.trace_choi + 9 * state.structure.negative_norm)
    assert all(t.weight == dec.normalization for t in dec.terms if t.kind == "pair")


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("offset", [-5e-10, 5e-10])
def test_separable_decomposition_accepts_a_within_boundary_tol(n, offset):
    p = MapParams(n, tau(n, 1), n - 1.0 + offset, (1.0,) * n)
    assert positivity_verdict(p).status == "yes"
    dec = separable_decomposition(p)
    assert dec.residual <= 1e-10


@pytest.mark.parametrize("n", [3, 4, 6])
def test_separable_decomposition_rejects_a_past_boundary_tol(n):
    with pytest.raises(PreconditionError, match="a = n - 1"):
        separable_decomposition(MapParams(n, tau(n, 1), n - 1.0 + 1e-8, (1.0,) * n))


def test_ppt_check_detects_entanglement():
    ok, pt_min = ppt_check(maximally_entangled_state(3), 3, 3)
    assert not ok
    assert pt_min == pytest.approx(-1.0 / 3.0, abs=1e-12)

    separable = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    ok, pt_min = ppt_check(separable, 2, 2, tol=1e-12)
    assert ok and pt_min >= 0.0
