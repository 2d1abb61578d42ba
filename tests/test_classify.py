import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    PreconditionError,
    atomic_uniform_c,
    atomic_verdict,
    choi,
    choi_structure,
    classify_map,
    cp_verdict,
    decompose_involution,
    delta_n,
    elementary_symmetric,
    geometric_mean_c,
    identity,
    is_involution,
    is_psd,
    min_eigenvalue,
    partial_transpose,
    positivity_threshold,
    positivity_verdict,
    schur_matrix,
    symmetric_F,
    tau,
    two_positive_verdict,
    verify_positivity_numeric,
)
from cyclemaps import dmap as dmap_module
from cyclemaps.dmap import _theta_min_eigenvalues


def test_positivity_threshold_examples():
    p = MapParams(3, tau(3, 2), 2.0, (8.0, 1.0, 1.0))
    assert geometric_mean_c(p) == pytest.approx(2.0)
    assert positivity_threshold(p) == pytest.approx(2.0)

    # A huge geometric mean cannot push the threshold below n - 1.
    p = MapParams(4, tau(4, 1), 3.0, (16.0,) * 4)
    assert positivity_threshold(p) == pytest.approx(3.0)

    assert geometric_mean_c(delta_n(3)) == 0.0
    assert positivity_threshold(delta_n(3)) == pytest.approx(3.0)


def test_elementary_symmetric_against_brute_force():
    import itertools

    rng = np.random.default_rng(31)
    xs = rng.uniform(0.1, 3.0, size=5)
    e = elementary_symmetric(xs)
    assert e[0] == 1.0
    for k in range(1, 6):
        brute = sum(math.prod(comb) for comb in itertools.combinations(xs, k))
        assert e[k] == pytest.approx(brute, rel=1e-12)


def test_symmetric_f_examples():
    assert symmetric_F(2.0, (1.0, 1.0)) == pytest.approx(3.0)
    # At sum_i 1/(a + x_i) = 1 the polynomial vanishes.
    assert symmetric_F(1.2, (1.8, 1.8, 1.8)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        symmetric_F(0.0, (1.0,))
    with pytest.raises(ParameterError):
        symmetric_F(1.0, (1.0, -2.0))


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.floats(0.05, 8.0),
            st.lists(st.floats(0.05, 10.0), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_symmetric_f_product_formula(args):
    a, xs = args
    prod = math.prod(a + x for x in xs)
    oracle = prod * (1.0 - sum(1.0 / (a + x) for x in xs))
    assert abs(symmetric_F(a, xs) - oracle) <= 1e-9 * max(1.0, prod)


def test_symmetric_f_power_identity():
    # With equal entries t the polynomial collapses to (t+a)^(n-1) (t+a-n).
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = float(rng.uniform(0.1, 4.0))
        t = float(rng.uniform(0.1, 8.0)) ** (1.0 / n)
        lhs = symmetric_F(a, (t,) * n)
        rhs = (t + a) ** (n - 1) * (t + a - n)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_elementary_symmetric_geometric_lower_bound():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        xs = rng.uniform(0.1, 5.0, size=n)
        g = float(np.exp(np.mean(np.log(xs))))
        e = elementary_symmetric(xs)
        for k in range(n + 1):
            assert e[k] >= math.comb(n, k) * g**k - 1e-9 * max(1.0, e[k])


def test_schur_matrix_examples():
    m = schur_matrix(MapParams(2, identity(2), 1.0, (1.0, 1.0)))
    assert_allclose(m, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert min_eigenvalue(m) == pytest.approx(0.0, abs=1e-12)

    m = schur_matrix(MapParams(2, identity(2), 0.5, (1.0, 1.0)))
    assert min_eigenvalue(m) == pytest.approx(-0.5)

    m = schur_matrix(MapParams(3, identity(3), 3.0, (1.0, 1.0, 1.0)))
    assert_allclose(np.linalg.eigvalsh(m), [1.0, 4.0, 4.0], atol=1e-12)


def test_oracle_attains_bound_at_flagship(flagship):
    ev = verify_positivity_numeric(flagship, samples=500, seed=1)
    # The balanced adversarial family attains S = n/(a + geomean(c)) = 1 exactly.
    assert ev.max_s == pytest.approx(1.0, abs=1e-9)
    assert ev.consistent_with_positive
    assert ev.min_theta_eig >= -1e-9
    assert ev.num_vectors == 500 + 7


def test_oracle_detects_violation_below_threshold():
    p = MapParams(3, tau(3, 2), 1.5, (1.0, 1.0, 1.0))
    ev = verify_positivity_numeric(p, samples=200, seed=0)
    # lambda-geometric family pushes S toward (n-1)/a = 4/3.
    assert ev.max_s == pytest.approx(4.0 / 3.0, abs=1e-7)
    assert not ev.consistent_with_positive
    assert ev.min_theta_eig < -1e-3
    assert np.linalg.norm(ev.worst_vector) == pytest.approx(1.0)


def test_oracle_is_deterministic(flagship):
    a = verify_positivity_numeric(flagship, samples=300, seed=42)
    b = verify_positivity_numeric(flagship, samples=300, seed=42)
    assert a.max_s == b.max_s
    assert_allclose(a.worst_vector, b.worst_vector)
    assert a.min_theta_eig == b.min_theta_eig


def test_oracle_input_validation(flagship):
    with pytest.raises(ParameterError):
        verify_positivity_numeric(flagship, samples=-1)
    ev = verify_positivity_numeric(flagship, samples=0)
    assert ev.num_vectors == 7  # adversarial rows only


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_oracle_rejects_a_seed_outside_the_philox_key_range(flagship, seed):
    with pytest.raises(ParameterError, match="seed"):
        verify_positivity_numeric(flagship, samples=10, seed=seed)


def test_oracle_accepts_the_largest_philox_key(flagship):
    ev = verify_positivity_numeric(flagship, samples=10, seed=2**128 - 1)
    assert ev.num_vectors == 17


def dense_theta_min_eigenvalues(zs: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Oracle: a batched dense eigensolve of diag(den) - xi xi* per row."""
    mats = -np.einsum("mi,mj->mij", zs, zs.conj())
    idx = np.arange(zs.shape[1])
    mats[:, idx, idx] += den
    return np.linalg.eigvalsh(mats)[:, 0]


def theta_rows(p: MapParams, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit rows, their weights |xi|^2 and den = a w + c w_sigma, as the sampler forms them."""
    zs = zs / np.abs(zs).max(axis=1, keepdims=True)  # keeps the norm from underflowing
    zs = zs / np.linalg.norm(zs, axis=1, keepdims=True)
    amps = np.abs(zs) ** 2
    perm = np.array([p.sigma(i) - 1 for i in range(1, p.n + 1)])
    den = p.a * amps + np.asarray(p.c)[None, :] * amps[:, perm]
    return zs, amps, den


def assert_root_matches_oracle(zs: np.ndarray, amps: np.ndarray, den: np.ndarray) -> None:
    got = _theta_min_eigenvalues(amps, den)
    want = dense_theta_min_eigenvalues(zs, den)
    scale = np.maximum(1.0, den.max(axis=1))
    assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)


@st.composite
def maps_and_rows(draw):
    """A map with any sigma (fixed points included) and unit rows whose
    entries are often exactly zero or equal, so that den ties and vanishes."""
    n = draw(st.integers(1, 8))
    images = draw(st.permutations(range(1, n + 1)))
    a = draw(st.floats(0.05, 12.0))
    uniform = draw(st.booleans())
    c = [draw(st.floats(0.05, 5.0))] * n if uniform else draw(
        st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)
    )
    entry = st.sampled_from([0.0, 0.0, 1.0, 1.0, -1.0, 1j, 1e-9, 1e-170]) | st.complex_numbers(
        max_magnitude=3.0, allow_nan=False, allow_infinity=False
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    rows = [r for r in rows if any(abs(x) > 0 for x in r)] or [[1.0] * n]
    return MapParams(n, Permutation(tuple(images)), a, tuple(c)), np.array(rows, dtype=complex)


@given(maps_and_rows())
@settings(max_examples=200, deadline=None)
def test_secular_root_matches_dense_eigensolve(args):
    p, rows = args
    assert_root_matches_oracle(*theta_rows(p, rows))


def test_secular_root_on_zeros_ties_and_fixed_points():
    # sigma = (1 2) with fixed points 3, 4 and 5; uniform c makes den tie
    p = MapParams(5, Permutation((2, 1, 3, 4, 5)), 2.0, (1.0,) * 5)
    rows = np.array(
        [
            [1.0, 1.0, 1.0, 1.0, 1.0],  # every den_i ties: one eigenvalue d - 1
            [1.0, 0.0, 0.0, 0.0, 0.0],  # support of size one; den_i = 0 at 3, 4, 5
            [0.0, 0.0, 1.0, 1j, 0.0],  # fixed points only; den_1 = den_2 = den_5 = 0
            [1.0, 1.0, 0.0, 0.0, 2.0],  # ties inside the support, zeros outside
            [1.0, 2.0, 1e-20, 0.0, 3.0],  # a weight below eps^2 deflates
        ],
        dtype=complex,
    )
    zs, amps, den = theta_rows(p, rows)
    assert np.any(den == 0.0) and np.any(amps == 0.0)
    assert_root_matches_oracle(zs, amps, den)
    got = _theta_min_eigenvalues(amps, den)
    assert got[0] == pytest.approx((p.a + 1.0) / 5 - 1.0, abs=1e-15)
    assert got[1] == 0.0  # the deflated den_i = 0 lies below d_min - mu = a + 0 - 1 = 1


def test_secular_root_past_the_iteration_cap_is_an_internal_failure(monkeypatch, flagship):
    monkeypatch.setattr(dmap_module, "_SECULAR_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        verify_positivity_numeric(flagship, samples=10, seed=0)


@pytest.mark.parametrize("n", [64, 256])
def test_oracle_at_large_n_runs_warning_free_in_bounded_memory(n):
    p = MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = verify_positivity_numeric(p, samples=2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a = n - 1 is the threshold, so the map is positive and Theta(xi xi*) is PSD
    assert ev.consistent_with_positive
    assert ev.min_theta_eig >= -1e-9
    # the 2000 outer products alone would take 2000 n^2 16 B (2.1 GB at n = 256)
    assert peak < 100e6


def test_classify_map_rejects_negative_samples(flagship):
    with pytest.raises(ParameterError, match="samples"):
        classify_map(flagship, samples=-5)


def test_positivity_verdict_threshold_and_converse(flagship):
    v = positivity_verdict(flagship)
    assert v.status == "yes"
    assert "sufficient" in v.criterion
    assert v.evidence["threshold"] == pytest.approx(2.0)

    v = positivity_verdict(MapParams(3, tau(3, 1), 1.8, (1.0, 1.0, 1.0)))
    assert v.status == "no"
    assert "n-cycle" in v.criterion


def test_positivity_verdict_identity_branch():
    v = positivity_verdict(MapParams(3, identity(3), 1.5, (4.0, 4.0, 4.0)))
    assert v.status == "yes"
    assert "entrywise" in v.criterion
    assert v.evidence["schur_min_eigenvalue"] >= 0.0

    v = positivity_verdict(MapParams(2, identity(2), 0.5, (0.9, 0.9)))
    assert v.status == "no"
    assert v.evidence["schur_min_eigenvalue"] == pytest.approx(-0.6)


def test_positivity_verdict_uniform_family():
    v = positivity_verdict(MapParams(6, tau(6, 2), 4.0, (2.0,) * 6))
    assert v.status == "yes"
    assert "uniform" in v.criterion
    assert v.evidence["cycle_bound"] == pytest.approx(2.0)

    v = positivity_verdict(MapParams(6, tau(6, 2), 3.5, (2.5,) * 6))
    assert v.status == "no"
    assert "uniform" in v.criterion


def test_positivity_verdict_unknown_case():
    p = MapParams(4, tau(4, 2), 3.0, (0.5, 0.6, 0.7, 0.8))
    v = positivity_verdict(p)
    assert v.status == "unknown"

    ev = verify_positivity_numeric(p, samples=400, seed=3)
    v = positivity_verdict(p, ev)
    assert v.status == "unknown"
    assert "max_s" in v.evidence


def test_cp_verdict_cutoff(flagship):
    assert cp_verdict(flagship).status == "no"
    assert cp_verdict(MapParams(3, tau(3, 2), 3.0, (1.0, 1.0, 1.0))).status == "yes"
    assert cp_verdict(MapParams(3, tau(3, 2), 2.99, (1.0, 1.0, 1.0))).status == "no"
    v = cp_verdict(flagship)
    assert v.evidence["l_min"] == 3
    assert v.evidence["choi_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)


def test_cp_verdict_identity_branch():
    p = MapParams(3, identity(3), 3.0, (1.0, 1.0, 1.0))
    v = cp_verdict(p)
    assert v.status == "yes"
    # at sigma = id the Choi core is the entrywise-multiplier matrix
    core_min = choi_structure(p).core_min
    assert core_min == pytest.approx(1.0, abs=1e-12)
    assert core_min == pytest.approx(min_eigenvalue(schur_matrix(p)), abs=1e-12)


def test_cp_verdict_mixed_cycles_uses_choi():
    # A fixed point next to a 2-cycle: no closed form, the Choi check decides.
    for a in (1.2, 2.5, 4.0):
        p = MapParams(3, Permutation((2, 1, 3)), a, (1.0, 1.0, 1.0))
        v = cp_verdict(p)
        expected = "yes" if is_psd(choi(p).matrix) else "no"
        assert v.status == expected
        assert v.evidence["choi_min_eigenvalue"] == pytest.approx(
            min_eigenvalue(choi(p).matrix), abs=1e-12
        )


def test_two_positive_collapses_onto_cp(flagship):
    v = two_positive_verdict(flagship)
    assert v.status == "no"
    assert "coincide" in v.criterion
    assert two_positive_verdict(MapParams(3, tau(3, 2), 3.0, (1.0,) * 3)).status == "yes"


def test_two_positive_mixed_cycles_unknown():
    p = MapParams(3, Permutation((2, 1, 3)), 1.2, (1.0, 1.0, 1.0))
    assert cp_verdict(p).status == "no"
    assert two_positive_verdict(p).status == "unknown"

    p = MapParams(3, Permutation((2, 1, 3)), 6.0, (1.0, 1.0, 1.0))
    if cp_verdict(p).status == "yes":
        assert two_positive_verdict(p).status == "yes"


def test_atomic_verdict_examples(flagship):
    assert atomic_verdict(flagship).status == "yes"
    assert atomic_verdict(MapParams(4, tau(4, 1), 3.5, (1.0,) * 4)).status == "yes"
    # Completely positive: not atomic.
    assert atomic_verdict(MapParams(3, tau(3, 2), 3.0, (1.0,) * 3)).status == "no"
    # 2-cycles only, no decomposability certificate: unknown.
    assert atomic_verdict(MapParams(4, tau(4, 2), 3.0, (0.5,) * 4)).status == "unknown"
    # 2-cycles with the involution split available: not atomic.
    assert atomic_verdict(MapParams(4, tau(4, 2), 3.0, (1.0,) * 4)).status == "no"


def test_atomic_uniform_c_family():
    v = atomic_uniform_c(MapParams(6, tau(6, 2), 4.0, (2.0,) * 6))
    assert v.status == "yes"
    assert v.evidence["cycle_bound"] == pytest.approx(2.0)

    v = atomic_uniform_c(MapParams(6, tau(6, 2), 3.5, (2.5,) * 6))
    assert v.status == "no"

    v = atomic_uniform_c(MapParams(4, tau(4, 2), 2.0, (2.0,) * 4))
    assert v.status == "unknown"

    assert atomic_uniform_c(delta_n(3)).status == "no"

    with pytest.raises(ParameterError):
        atomic_uniform_c(MapParams(4, tau(4, 2), 2.0, (2.0, 2.0, 2.0, 1.9)))
    with pytest.raises(ParameterError):
        atomic_uniform_c(MapParams(4, tau(4, 2), 2.5, (2.0,) * 4))


def test_decompose_involution_two_pairs():
    p = MapParams(4, tau(4, 2), 3.0, (1.0,) * 4)
    cert = decompose_involution(p)
    assert tuple(key for key, _ in cert.q_blocks) == ((1, 3), (2, 4))
    assert cert.reconstruction_residual <= 1e-10
    assert cert.p_min_eigenvalue >= -1e-9
    assert all(m >= -1e-9 for m in cert.q_pt_min_eigenvalues)
    assert is_psd(cert.P)


def test_decompose_involution_with_fixed_point():
    p = MapParams(3, Permutation((2, 1, 3)), 2.0, (1.2, 0.9, 1.1))
    cert = decompose_involution(p)
    assert tuple(key for key, _ in cert.q_blocks) == ((1, 2),)
    assert cert.reconstruction_residual <= 1e-10
    assert cert.p_min_eigenvalue >= -1e-9


def test_decompose_identity_sigma_has_no_q_blocks():
    p = MapParams(3, identity(3), 2.0, (1.0, 1.0, 1.0))
    cert = decompose_involution(p)
    assert cert.q_blocks == ()
    assert cert.reconstruction_residual <= 1e-10
    assert cert.p_min_eigenvalue >= -1e-9


def test_decompose_involution_closed_forms_match_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        pts = [int(x) + 1 for x in rng.permutation(n)]
        images = list(range(1, n + 1))
        for u, v in zip(pts[0::2], pts[1::2]):
            if rng.random() < 0.7:  # otherwise both stay fixed points
                images[u - 1], images[v - 1] = v, u
        sigma = Permutation(tuple(images))
        assert is_involution(sigma)
        c = rng.uniform(1.0, 3.0, n)
        for u, v in zip(pts[0::2], pts[1::2]):
            if images[u - 1] == v and rng.random() < 0.5:
                # c_u c_v just inside the boundary tolerance: Q^PT has a tiny negative eigenvalue
                c[v - 1] = (1.0 - 5e-10) / c[u - 1]
        p = MapParams(n, sigma, float(rng.uniform(n - 1, n + 2)), tuple(c))
        cert = decompose_involution(p)
        assert cert.p_min_eigenvalue == pytest.approx(min_eigenvalue(cert.P), abs=1e-12)
        dense_pt = [min_eigenvalue(partial_transpose(q, n, n)) for _, q in cert.q_blocks]
        assert_allclose(cert.q_pt_min_eigenvalues, dense_pt, atol=1e-12)


@pytest.mark.parametrize(
    "params,fragment",
    [
        (MapParams(3, tau(3, 1), 2.5, (1.0,) * 3), "involution"),
        (MapParams(3, Permutation((2, 1, 3)), 1.5, (1.0,) * 3), "a >= n - 1"),
        (MapParams(3, Permutation((2, 1, 3)), 2.0, (1.2, 0.9, 0.8)), "c[3]"),
        (MapParams(4, tau(4, 2), 3.0, (0.5, 0.5, 1.0, 1.0)), "c[1]*c[3]"),
    ],
)
def test_decompose_involution_preconditions(params, fragment):
    with pytest.raises(PreconditionError) as err:
        decompose_involution(params)
    assert fragment in str(err.value)


def test_classify_flagship(flagship):
    report = classify_map(flagship, samples=500)
    assert report.positive.status == "yes"
    assert report.two_positive.status == "no"
    assert report.completely_positive.status == "no"
    assert report.atomic.status == "yes"
    assert report.decomposable.status == "no"
    assert report.decomposition is None


def test_classify_involution_split():
    report = classify_map(MapParams(4, tau(4, 2), 3.0, (1.0,) * 4), samples=200)
    assert report.positive.status == "yes"
    assert report.completely_positive.status == "no"
    assert report.decomposable.status == "yes"
    assert report.atomic.status == "no"
    assert report.decomposition is not None
    assert report.decomposition.reconstruction_residual <= 1e-10


def test_classify_completely_positive_case():
    report = classify_map(MapParams(3, tau(3, 2), 3.0, (1.0,) * 3), samples=200)
    assert report.positive.status == "yes"
    assert report.two_positive.status == "yes"
    assert report.completely_positive.status == "yes"
    assert report.atomic.status == "no"
    assert report.decomposable.status == "yes"


def test_classify_unknown_territory():
    report = classify_map(MapParams(4, tau(4, 2), 3.0, (0.5, 0.6, 0.7, 0.8)), samples=200)
    assert report.positive.status == "unknown"
    assert report.completely_positive.status == "no"
    assert report.two_positive.status == "no"
    assert report.atomic.status == "unknown"
    assert report.decomposable.status == "unknown"


def test_classify_closure_over_parameter_sweep():
    # The implication network between the five verdicts must hold everywhere.
    sigmas = {
        2: (identity(2), tau(2, 1)),
        3: (identity(3), tau(3, 1), Permutation((2, 1, 3))),
        4: (identity(4), tau(4, 1), tau(4, 2)),
    }
    for n, perms in sigmas.items():
        for sigma in perms:
            for a in (0.7, n - 1.0, float(n), n + 1.0):
                for c0 in (0.5, 1.0, 2.0):
                    p = MapParams(n, sigma, a, (c0,) * n)
                    report = classify_map(p, samples=50)
                    assert report.positive.status in {"yes", "no", "unknown"}


def test_classify_delta_n():
    report = classify_map(delta_n(3), samples=100)
    assert report.positive.status == "yes"
    assert report.completely_positive.status == "yes"
    assert report.atomic.status == "no"
    assert report.decomposable.status == "yes"
