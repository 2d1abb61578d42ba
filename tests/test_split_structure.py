"""The involution split and the separable SPA held as structure.

Their residuals are checked here against dense sums of the certificates'
matrices, taken against ``choi(p)`` and ``spa_state(p).matrix``, and
the split's least eigenvalue of P against eigensolves of its n x n block;
past the dense size limit only the structured answers exist.
"""
import json
import tracemalloc

import numpy as np
import pytest

import cyclemaps
from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    choi,
    classify_map,
    decompose_involution,
    maximally_entangled_state,
    separable_decomposition,
    spa_state,
    tau,
)
from cyclemaps.classify import _p_block_min
from cyclemaps.cli import main
from cyclemaps.dmap import assemble, parts_distance
from matrix_helpers import spa_interpolation

# an involution with fixed points whose weights spread over 30 decades
WIDE = {"n": 4, "sigma": "images:2,1,3,4", "a": 3, "c": [1, 1, 1e20, 1e30]}


def half_shift(n: int) -> MapParams:
    """tau(n, n/2), a = n - 1, c = 1: n/2 2-cycles, decomposable by the involution split."""
    return MapParams(n, tau(n, n // 2), n - 1.0, (1.0,) * n)


def random_involution_map(rng, n: int) -> MapParams:
    """An involution, fixed points allowed, whose weights meet the split's preconditions."""
    order = [int(i) + 1 for i in rng.permutation(n)]
    images = list(range(1, n + 1))
    for t in range(int(rng.integers(0, n // 2 + 1))):
        i, j = order[2 * t], order[2 * t + 1]
        images[i - 1], images[j - 1] = j, i
    return MapParams(n, Permutation(tuple(images)), float(rng.uniform(n - 1.0, n + 1.0)), tuple(rng.uniform(1.0, 3.0, n)))


def test_classify_runs_involutions_past_the_dense_size_limit(tmp_path):
    p = half_shift(64)
    report = classify_map(p, samples=0)
    assert report.decomposable.status == "yes"
    assert report.decomposition.reconstruction_residual <= 1e-10
    assert len(report.decomposition.pairs) == 32

    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n": 64, "sigma": "tau:64:32", "a": 63.0, "c": [1.0] * 64}))
    out = tmp_path / "out.json"
    assert main(["classify", "--map", str(path), "--samples", "0", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["decomposable"]["status"] == "yes"
    assert result["decomposition"]["reconstruction_residual"] <= 1e-10
    assert result["decomposition"]["pairs"][0] == [1, 33]

    p = half_shift(256)
    tracemalloc.start()
    try:
        report = classify_map(p, samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert report.decomposable.status == "yes"
    assert report.decomposition.reconstruction_residual <= 1e-10


def test_classify_assembles_no_dense_matrix_on_an_involution(monkeypatch):
    sizes = []
    assemble = cyclemaps.dmap.assemble

    def spy(n, *args, **kwargs):
        sizes.append(n)
        return assemble(n, *args, **kwargs)

    for module in (cyclemaps.dmap, cyclemaps.classify, cyclemaps.spa, cyclemaps.witness):
        if hasattr(module, "assemble"):
            monkeypatch.setattr(module, "assemble", spy)
    fixed_points = MapParams(9, Permutation((2, 1, 6, 4, 5, 3, 7, 8, 9)), 8.0, (1.5, 0.8, 1.25) + (1.0,) * 6)
    for p in (half_shift(8), fixed_points):
        report = classify_map(p, samples=200)
        assert report.decomposable.status == "yes" and report.decomposition is not None
    assert sizes == []
    # the dense views still go through the assembler
    assert report.decomposition.P.shape == (81, 81)
    assert sizes == [9]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_split_residual_matches_the_dense_sum(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(4):
        p = random_involution_map(rng, n)
        cert = decompose_involution(p)
        total = cert.P + sum((q for _, q in cert.q_blocks), start=np.zeros((n * n, n * n)))
        dense = float(np.max(np.abs(total - choi(p))))
        assert abs(cert.reconstruction_residual - dense) <= 1e-15
        assert [pair for pair, _ in cert.q_blocks] == list(cert.pairs)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spa_residual_matches_the_dense_sum(n):
    rng = np.random.default_rng(400 + n)
    for k in range(1, n):
        for c in ((1.0,) * n, tuple(rng.uniform(1.0, 3.0, n))):
            p = MapParams(n, tau(n, k), n - 1.0, c)
            dec = separable_decomposition(p)
            total = sum(t.weight * t.matrix for t in dec.terms)
            dense = float(np.max(np.abs(total - spa_state(p).matrix)))
            assert abs(dec.residual - dense) <= 1e-15


def test_separable_decomposition_past_the_dense_size_limit():
    n = 34
    dec = separable_decomposition(MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n))
    assert len(dec.terms) == n * (n + 1) // 2 == 595
    assert dec.residual <= 1e-10
    with pytest.raises(ParameterError, match="n = 34"):
        dec.terms[0].matrix


def test_dense_matrices_check_the_size_before_allocating():
    with pytest.raises(ParameterError, match="n = 200"):
        spa_interpolation(MapParams(200, tau(200, 1), 199.0, (1.0,) * 200), 0.5)
    with pytest.raises(ParameterError, match="n = 200"):
        maximally_entangled_state(200)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_parts_distance_is_the_dense_distance(n):
    rng = np.random.default_rng(500 + n)
    for compose_transpose in (False, True):
        # [re, im] of (diag, core); assemble builds real matrices, so the
        # complex oracle is the assembled real parts plus 1j times the imaginary
        x, y = [rng.standard_normal((2, 2, n, n)) for _ in range(2)]
        dense = [assemble(n, *re, compose_transpose) + 1j * assemble(n, *im, compose_transpose) for re, im in (x, y)]
        assert parts_distance(tuple(x[0] + 1j * x[1]), tuple(y[0] + 1j * y[1])) == np.max(np.abs(dense[0] - dense[1]))
        real = np.max(np.abs(assemble(n, *x[0], compose_transpose) - assemble(n, *y[0], compose_transpose)))
        assert parts_distance(tuple(x[0]), tuple(y[0])) == real


def test_the_split_makes_no_eigensolve_or_svd(monkeypatch):
    calls = []

    def spy(name, solve):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solve(a, *args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    fixed_points = MapParams(9, Permutation((2, 1, 6, 4, 5, 3, 7, 8, 9)), 8.0, (1.5, 0.8, 1.25) + (1.0,) * 6)
    wide = MapParams(4, Permutation((2, 1, 3, 4)), 3.0, (1.0, 1.0, 1e20, 1e30))
    for p in (fixed_points, half_shift(8), wide):
        for samples in (0, 200):
            classify_map(p, samples=samples)
        assert decompose_involution(p).pairs
    assert classify_map(fixed_points, samples=0).decomposition is not None  # the split ran in classify_map
    assert calls == []


def test_wide_fixed_point_weights_certify(tmp_path, capsys):
    # fixed-point weights 1e30 apart: P's least eigenvalue needs a relative, not an absolute, error
    p = MapParams(4, Permutation((2, 1, 3, 4)), 3.0, (1.0, 1.0, 1e20, 1e30))
    cert = decompose_involution(p)
    assert cert.pairs == ((1, 2),)
    assert (cert.reconstruction_residual, cert.p_min_eigenvalue, cert.q_pt_min_eigenvalues) == (0.0, 0.0, (0.0,))

    path = tmp_path / "map.json"
    path.write_text(json.dumps(WIDE))
    assert main(["decompose", "--map", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["pairs"] == [[1, 2]] and result["p_min_eigenvalue"] == 0.0


def random_wide_involution_map(rng, n: int) -> MapParams:
    """An involution, fixed points allowed, with a = n - 1 or above and weights
    log-uniform in [1, 1e30], some 2-cycles with c_i c_sigma(i) = 1."""
    order = [int(i) for i in rng.permutation(n)]
    images = list(range(1, n + 1))
    c = 10.0 ** rng.uniform(0.0, 30.0, n)
    if rng.random() < 0.3:
        c = rng.uniform(1.0, 3.0, n)
    for t in range(int(rng.integers(0, n // 2 + 1))):
        i, j = order[2 * t], order[2 * t + 1]
        images[i], images[j] = j + 1, i + 1
        if rng.random() < 0.5:
            c[j] = 1.0 / c[i]
    a = n - 1.0 if n > 1 and rng.random() < 0.5 else n - 1.0 + float(rng.exponential(2.0))
    return MapParams(n, Permutation(tuple(images)), a, tuple(float(x) for x in c))


def least_eigenvalue_50_digits(mpmath, block: np.ndarray) -> float:
    assert np.all(block.imag == 0.0)
    with mpmath.workdps(50):
        return float(min(mpmath.eigsy(mpmath.matrix(block.real.tolist()), eigvals_only=True)))


def test_p_min_eigenvalue_matches_a_50_digit_eigensolve():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    dense_checked = 0
    for k in range(240):
        n = 1 + k % 6
        p = random_wide_involution_map(rng, n)
        cert = decompose_involution(p)
        exact = least_eigenvalue_50_digits(mpmath, cert.p_block)
        tol = 1e-13 * max(1.0, p.a)
        assert abs(_p_block_min(p) - exact) <= tol, (p, _p_block_min(p), exact)
        want = min(exact, 0.0) if n >= 2 else exact  # P adds n^2 - n zero eigenvalues
        assert abs(cert.p_min_eigenvalue - want) <= tol, (p, cert.p_min_eigenvalue, want)
        if max(p.c) <= 3.0:
            dense = float(np.linalg.eigvalsh(cert.p_block)[0])
            assert abs(cert.p_min_eigenvalue - (min(dense, 0.0) if n >= 2 else dense)) <= tol
            dense_checked += 1
    assert dense_checked >= 40


def test_p_block_min_is_exact_on_indefinite_blocks_too():
    # below a = n - 1 no split exists and P's block has negative eigenvalues:
    # the secular row against the block written out from its definition
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    for k in range(120):
        n = 2 + k % 5
        q = random_wide_involution_map(rng, n)
        p = MapParams(n, q.sigma, float(rng.uniform(0.05, n - 1.0)), q.c)
        img = np.array(p.sigma.images) - 1
        block = -np.ones((n, n), dtype=complex)
        block[np.arange(n), img] = 0.0
        block[np.arange(n), np.arange(n)] = [p.a - 1.0 + (p.c[i] if img[i] == i else 0.0) for i in range(n)]
        exact = least_eigenvalue_50_digits(mpmath, block)
        assert abs(_p_block_min(p) - exact) <= 1e-13 * max(1.0, abs(exact)), (p, _p_block_min(p), exact)
