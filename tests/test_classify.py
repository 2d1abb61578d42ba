import math

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
    is_psd,
    min_eigenvalue,
    positivity_threshold,
    positivity_verdict,
    schur_matrix,
    symmetric_F,
    tau,
    two_positive_verdict,
    verify_positivity_numeric,
)


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
    core_min = choi_structure(p).core_eigenvalues[0]
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
