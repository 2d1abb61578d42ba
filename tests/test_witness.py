import importlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclemaps import (
    ChoiStructure,
    ContractError,
    MapParams,
    ParameterError,
    Permutation,
    atomic_verdict,
    certify_optimality,
    choi,
    choi_structure,
    classify_map,
    cycle_decompose,
    delta_n,
    expectation_value,
    identity,
    maximally_entangled_state,
    min_eigenvalue,
    positivity_verdict,
    spanning_generators,
    tau,
    verify_positivity_numeric,
    witness,
)
from conftest import count_computations, random_hermitian
from matrix_helpers import dense_certificate, matrix_unit, phase_table, real_parts_of

witness_module = importlib.import_module("cyclemaps.witness")


def test_witness_is_transposed_choi_over_n(flagship):
    w = witness(flagship)
    assert_allclose(w, choi(flagship, compose_transpose=True) / 3.0)
    assert np.trace(w).real == pytest.approx(2.0)


@st.composite
def witness_maps(draw, max_n=32):
    """Maps at n <= max_n with any sigma, sigma with fixed points, involutions,
    the identity, and delta_n; a and c spread over several decades, and a
    sometimes set to (n^2 - sum(c)) / n, where the phase vectors pass."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["any", "fixed points", "involution", "identity", "delta_n"]))
    if kind == "delta_n" and n >= 2:
        return delta_n(n)
    images = list(draw(st.permutations(range(1, n + 1))))
    if kind == "fixed points":
        for i in draw(st.lists(st.integers(1, n), max_size=n)):
            j = images.index(i)  # fix i: whatever mapped to i takes i's image
            images[j], images[i - 1] = images[i - 1], i
    elif kind == "involution":
        images = list(range(1, n + 1))
        for k in range(0, draw(st.integers(0, n // 2)) * 2, 2):
            images[k], images[k + 1] = k + 2, k + 1
    elif kind == "identity":
        images = list(range(1, n + 1))
    weights = st.floats(1e-3, 1e3)
    a = draw(weights)
    c = [draw(weights)] * n if draw(st.booleans()) else draw(st.lists(weights, min_size=n, max_size=n))
    if draw(st.booleans()) and n * n > sum(c):
        a = (n * n - sum(c)) / n
    return MapParams(n, Permutation(tuple(images)), a, tuple(c))


@given(witness_maps())
@settings(max_examples=60, deadline=None)
def test_witness_is_bit_identical_to_the_dense_choi_over_n(p):
    # the bits of the complex quotient C / n, which numpy forms as the product with 1 / n
    dense = choi(p, compose_transpose=True) * (1.0 / p.n)
    assert np.array_equal(witness(p).view(np.uint64), dense.view(np.uint64))
    assert real_parts_of(dense, choi(p, compose_transpose=True).astype(complex) / p.n)


def test_witness_block_structure(flagship):
    w = witness(flagship)
    n, a = 3, 2.0
    inv = flagship.sigma.inverse()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            block = w[(i - 1) * n : i * n, (j - 1) * n : j * n]
            if i == j:
                expect = ((a - 1.0) * matrix_unit(n, i, i) + matrix_unit(n, inv(i), inv(i))) / n
            else:
                expect = -matrix_unit(n, j, i) / n
            assert_allclose(block, expect, atol=1e-12)


def test_witness_min_eigenvalue_flagship(flagship):
    expect = (1.0 - math.sqrt(5.0)) / 6.0
    assert min_eigenvalue(witness(flagship)) == pytest.approx(expect, abs=1e-10)


def test_maximally_entangled_expectations(flagship):
    rho = maximally_entangled_state(3)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert expectation_value(witness(flagship), rho) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # Without the transpose the same direction pairs to (a - n)/n instead.
    plain = choi(flagship) / 3.0
    assert expectation_value(plain, rho) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_witness_detects_a_state(flagship):
    w = witness(flagship)
    psi = np.zeros(9, dtype=complex)
    psi[1] = psi[3] = 1.0 / math.sqrt(2.0)  # (e1 (x) e2 + e2 (x) e1) / sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert expectation_value(w, rho) == pytest.approx(-1.0 / 6.0, abs=1e-12)

    vals, vecs = np.linalg.eigh(w)
    ground = np.outer(vecs[:, 0], vecs[:, 0].conj())
    assert expectation_value(w, ground) == pytest.approx(vals[0], abs=1e-10)
    assert vals[0] < 0.0


def test_spanning_generators_families(flagship):
    gens = spanning_generators(flagship)
    # 1 + n + n + n(n-1)/2 deterministic phase rows for n = 3.
    phases = phase_table(3)
    assert phases.shape == (10, 3)
    assert gens.pairs.shape == (3, 2)
    assert len(gens) == 13
    inv = flagship.sigma.inverse()
    for i, j in gens.pairs + 1:
        assert j != i and j != inv(i)
    assert_allclose(np.exp(1j * phases[4]), [1j, 1.0, 1.0], atol=1e-12)  # pi/2 at the first coordinate
    assert_allclose(np.exp(1j * phases[7]), [-1.0, -1.0, 1.0], atol=1e-12)  # pi at the pair (1, 2)


def test_spanning_generators_identity_sigma():
    p = MapParams(3, identity(3), 1.5, (4.0, 4.0, 4.0))
    # At sigma = id only j = i is banned, leaving n - 1 pairs per i.
    assert len(spanning_generators(p).pairs) == 6


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_basis_pairs_are_argwhere_of_their_mask(n, seed):
    # sigma: f fixed points, t 2-cycles, and one cycle through the rest
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(n)]
    f = int(rng.integers(0, n + 1))
    t = int(rng.integers(0, (n - f) // 2 + 1))
    images = list(range(1, n + 1))
    for u, v in zip(order[f : f + 2 * t : 2], order[f + 1 : f + 2 * t : 2]):
        images[u], images[v] = v + 1, u + 1
    rest = order[f + 2 * t :]
    for pos, i in enumerate(rest):
        images[i] = rest[(pos + 1) % len(rest)] + 1
    p = MapParams(n, Permutation(tuple(images)), n + 0.5, (1.0,) * n)
    inv = p.sigma.inverse()
    keep = np.ones((n, n), dtype=bool)
    for i in range(1, n + 1):
        keep[i - 1, i - 1] = keep[i - 1, inv(i) - 1] = False
    pairs, expect = spanning_generators(p).pairs, np.argwhere(keep)
    # the same values and layout: each column contiguous, as the expectation check reads them
    assert pairs.dtype == expect.dtype == np.intp and pairs.T.flags.c_contiguous
    assert np.array_equal(pairs, expect)


def test_basis_pairs_at_n_1024_are_one_array():
    # the flat indices of the mask (8 B per pair) and the pairs (16 B per
    # pair): 26.2 MB; np.argwhere's two index arrays and their stack took 34.5 MB
    p = MapParams(1024, tau(1024, 1), 1023.0, (1.0,) * 1024)
    tracemalloc.start()
    try:
        pairs = spanning_generators(p).pairs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.shape == (1024 * 1024 - 2 * 1024, 2)
    assert peak < 28e6


def test_certify_at_n_1024_checks_the_basis_pairs_in_pieces():
    # the pairs (16.7 MB) and the expectations of the 525,825 phase rows and
    # 1,046,528 pairs (12.6 MB) are the floor; the check over all pairs at
    # once added 8 MB temporaries, for a peak of 43 MB
    n = 1024
    p = MapParams(n, tau(n, 1), n - 0.7, (0.7,) * n)
    tracemalloc.start()
    try:
        cert = certify_optimality(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.optimal and cert.span_rank == n * n
    assert peak < 30e6


def test_basis_pair_pieces_write_the_expectations_of_one_piece(monkeypatch):
    p = MapParams(13, Permutation((2, 1, 4, 5, 3, 6, 8, 9, 10, 11, 12, 13, 7)), 11.0, tuple(np.linspace(0.5, 2.0, 13)))
    whole = certify_optimality(p).expectations
    monkeypatch.setattr(witness_module, "_PAIR_PIECE", 7)  # 144 pairs: 20 full pieces and one of 4
    assert certify_optimality(p).expectations.tobytes() == whole.tobytes()


def test_certify_keeps_both_consistency_checks(monkeypatch, flagship):
    # the |exp(i t)|^2 = 1 fact is evaluated once, at import, but still decides
    assert witness_module._UNIT_WEIGHTS
    monkeypatch.setattr(witness_module, "_UNIT_WEIGHTS", False)
    with pytest.raises(RuntimeError, match="phase weight"):
        certify_optimality(flagship)
    monkeypatch.undo()
    certify_optimality(flagship)
    structure = type(choi_structure(flagship))
    monkeypatch.setattr(structure, "entry", lambda self, i, k: np.ones(np.shape(i)))
    with pytest.raises(RuntimeError, match="basis-pair expectation"):
        certify_optimality(flagship)


@pytest.mark.parametrize(
    "p",
    [
        MapParams(6, tau(6, 2), 4.0, (2.0,) * 6),  # the uniform family's cycle bound, atomic
        MapParams(5, Permutation((2, 1, 4, 5, 3)), 3.5, (0.6, 0.9, 1.2, 0.8, 1.1)),  # positivity falls to CP
        MapParams(3, tau(3, 1), 3.0 - 5e-10, (5e-10,) * 3),  # completely positive
        delta_n(4),
    ],
)
def test_certify_decides_complete_positivity_once(monkeypatch, p):
    # every verdict that reads complete positivity reads the one Choi(Theta) minimum the map keeps
    calls = count_computations(monkeypatch, ChoiStructure, "_choi_min")
    certify_optimality(MapParams(p.n, p.sigma, p.a, p.c))  # a fresh map, with nothing kept yet
    assert len(calls) == 1


@given(witness_maps(max_n=24))
@settings(max_examples=80, deadline=None)
def test_certificate_matches_the_dense_phase_table(p):
    # the span rank against the SVD of the dense restriction, and every
    # expectation against np.exp over the whole phase table, bit for bit
    expectations, rank = dense_certificate(p)
    cert = certify_optimality(p)
    assert cert.span_rank == rank
    # only a witness is optimal: a positive map and a W that is not PSD
    psd = "the matrix is PSD and detects no entanglement" in cert.warnings
    assert cert.optimal == (rank == p.n**2 and positivity_verdict(p).status == "yes" and not psd)
    assert np.array_equal(cert.expectations.view(np.uint64), expectations.view(np.uint64))


def two_cycles(sigma):
    return sum(len(cycle) == 2 for cycle in cycle_decompose(sigma).cycles)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64, 96])
def test_span_rank_on_the_uniform_family_is_n_squared_less_the_two_cycles(n):
    rng = np.random.default_rng(n)
    involution = list(range(1, n + 1))
    for k in range(0, n - 1, 3):  # 2-cycles (k+1 k+2), with fixed points between them
        involution[k], involution[k + 1] = k + 2, k + 1
    sigmas = [identity(n), tau(n, 1), tau(n, max(1, n // 2)), Permutation(tuple(involution)),
              Permutation(tuple(int(i) + 1 for i in rng.permutation(n)))]
    for sigma in sigmas:
        for c in (0.7, 1.0):
            if n > c:
                cert = certify_optimality(MapParams(n, sigma, n - c, (c,) * n))
                assert cert.span_rank == n * n - two_cycles(sigma)
        # a off the family: the phase vectors fail, and only the basis pairs span
        moved = sum(len(cycle) for cycle in cycle_decompose(sigma).cycles if len(cycle) > 1)
        cert = certify_optimality(MapParams(n, sigma, n + 0.5, (1.0,) * n))
        assert abs(cert.expectations[0]) > 0.1 and cert.span_rank == n * n - n - moved
    if n >= 2:
        assert certify_optimality(delta_n(n)).span_rank == n * n


def test_certify_builds_no_dense_restriction(monkeypatch):
    # the span rank is a closed form in sigma: no SVD or eigensolve of any size
    calls = []

    def spy(name, solve):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return solve(a, *args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    n = 64
    sigma = Permutation(tuple(range(2, 31)) + (1,) + (32, 31) + tuple(range(33, n + 1)))
    for a in (n - 0.5, n + 0.5):  # the phase vectors pass, then fail
        cert = certify_optimality(MapParams(n, sigma, a, (0.5,) * n))
        assert cert.span_rank == (n * n - 1 if a < n else n * n - n - 32)
    assert calls == []


def test_certify_optimality_at_n_256_is_fast():
    n = 256
    p = MapParams(n, tau(n, 1), n - 0.7, (0.7,) * n)
    start = time.perf_counter()
    cert = certify_optimality(p)
    assert time.perf_counter() - start < 2.0  # 0.07 to 0.1 s on a 2-core x86 VM
    assert cert.span_rank == n * n and cert.optimal and cert.theorem_applies


def test_certify_optimality_flagship(flagship):
    cert = certify_optimality(flagship)
    assert np.max(np.abs(cert.expectations)) <= 1e-9
    assert cert.span_rank == 9
    assert cert.optimal
    assert cert.theorem_applies
    assert cert.warnings == ()
    assert "certified family" in cert.note
    assert len(cert.generators) == len(cert.expectations)


def test_certify_optimality_delta_n():
    cert = certify_optimality(delta_n(4))
    assert cert.optimal and cert.theorem_applies
    assert cert.span_rank == 16
    cert = certify_optimality(delta_n(2))
    assert cert.optimal
    assert cert.span_rank == 4


def test_certify_optimality_longer_cycles():
    p = MapParams(6, tau(6, 2), 4.0, (2.0,) * 6)
    cert = certify_optimality(p)
    assert cert.optimal and cert.theorem_applies
    assert cert.span_rank == 36


def test_completely_positive_uniform_map_is_outside_the_certified_family():
    # a = n - c with 0 < c below the PSD tolerance: the map counts as
    # completely positive, so it is not atomic and the theorem does not apply
    p = MapParams(3, tau(3, 1), 3.0 - 5e-10, (5e-10,) * 3)
    report = classify_map(p, samples=0)
    assert report.completely_positive.status == "yes"
    assert report.atomic.status == atomic_verdict(p).status == "no"
    cert = certify_optimality(p)
    assert not cert.theorem_applies
    assert cert.optimal and "numerically" in cert.note


def test_certify_involution_is_rank_deficient():
    # 2-cycles knock e_i (x) e_j and e_j (x) e_i out together, so the
    # zero-expectation span misses those symmetric directions.
    p = MapParams(4, tau(4, 2), 3.0, (1.0,) * 4)
    cert = certify_optimality(p)
    assert np.max(np.abs(cert.expectations)) <= 1e-9
    assert not cert.theorem_applies
    assert cert.span_rank < 16
    assert not cert.optimal
    assert "not established" in cert.note


def test_certify_outside_family_filters_nonzero_expectations(flagship):
    p = MapParams(3, tau(3, 2), 2.5, (1.0, 1.0, 1.0))
    cert = certify_optimality(p)
    assert not cert.theorem_applies
    phase_expect = cert.expectations[: len(phase_table(3))]
    # n a + sum(c) - n^2 = 1.5, so every phase vector pairs to 1.5/3 = 0.5.
    assert_allclose(phase_expect, [0.5] * len(phase_expect), atol=1e-12)
    assert cert.span_rank == 3  # only the basis pairs survive
    assert not cert.optimal


def test_certify_numeric_verdict_outside_family():
    # A fixed point next to a 3-cycle on the uniform family: positive, not
    # atomic, so the spanning set certifies optimality numerically, without
    # the theorem flag.
    cert = certify_optimality(MapParams(4, Permutation((1, 3, 4, 2)), 3.0, (1.0,) * 4))
    assert not cert.theorem_applies
    assert np.max(np.abs(cert.expectations)) <= 1e-9
    assert cert.span_rank == 16
    assert cert.optimal and cert.warnings == ()
    assert "numerically" in cert.note


@pytest.mark.parametrize(
    "p",
    [
        # a fixed point and a 3-cycle with n a + sum(c) = n^2: the sampler's
        # balanced row gives S = 1/3.625 + 3/4.125 = 1.00313 > 1
        MapParams(4, Permutation((1, 3, 4, 2)), 3.125, (0.5, 1, 1, 1)),
        # two 3-cycles with n a + sum(c) = n^2: sampled S reaches 1.0011
        MapParams(6, tau(6, 2), 5.0, (1.3, 0.9, 1.1, 0.8, 1.05, 0.85)),
    ],
)
def test_a_spanning_set_is_no_certificate_while_positivity_is_undecided(p):
    # neither map is positive, so W is no witness, though its
    # zero-expectation product vectors span
    assert positivity_verdict(p).status == "unknown"
    assert verify_positivity_numeric(p, samples=2000).max_s > 1.0 + 1e-4
    cert = certify_optimality(p)
    assert np.max(np.abs(cert.expectations)) <= 1e-9 and cert.span_rank == p.n**2
    assert not cert.optimal and not cert.theorem_applies
    assert cert.note == "not certified: positivity undecided"
    assert cert.warnings == ("the positivity of the underlying map is undecided, so this matrix may not be a witness",)


def test_a_spanning_set_is_no_certificate_for_a_non_positive_map():
    # tau(3, 1) at a = 1.5 with c = 1.5 has n a + sum(c) = n^2 and positivity "no"
    p = MapParams(3, tau(3, 1), 1.5, (1.5,) * 3)
    assert positivity_verdict(p).status == "no"
    cert = certify_optimality(p)
    assert cert.span_rank == 9 and not cert.optimal
    assert cert.note == "not optimal: the matrix is not an entanglement witness"
    assert any("not positive" in w for w in cert.warnings)


def test_certify_warnings():
    cert = certify_optimality(MapParams(3, tau(3, 1), 1.5, (1.0,) * 3))
    assert any("not a witness" in w for w in cert.warnings)

    # The pair couplings of the transposed Choi matrix do not depend on a, so
    # for n >= 3 it always has a negative direction; only the n = 2 swap with
    # c_1 c_2 >= 1 yields a PSD matrix, which detects nothing.
    cert = certify_optimality(MapParams(2, tau(2, 1), 2.0, (1.0, 1.0)))
    assert any("PSD" in w for w in cert.warnings)
    cert = certify_optimality(MapParams(3, tau(3, 2), 3.0, (1.0,) * 3))
    assert not any("PSD" in w for w in cert.warnings)


def test_expectation_value_is_the_trace_of_the_product():
    # Tr(W rho) summed entry by entry, for witnesses and for other Hermitian W
    rng = np.random.default_rng(31)
    pairs = []
    for n in (2, 3, 5, 8):
        g = rng.standard_normal((n * n, 2 * n * n)).view(complex)
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h, k = (random_hermitian(rng, n * n, scale=10.0**e) for e in rng.uniform(-5, 5, 2))
        pairs += [(witness(MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n)), rho), (h, rho), (h, k)]
    for w, rho in pairs:
        want = float(np.trace(w @ rho).real)
        # relative to the sum of the magnitudes of the terms, which bounds the rounding of either sum
        assert abs(expectation_value(w, rho) - want) <= 1e-13 * np.sum(np.abs(w * rho.T))


def test_expectation_value_contracts():
    with pytest.raises(ContractError):
        expectation_value(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ContractError):
        expectation_value(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ParameterError):
        expectation_value(np.eye(2), np.eye(3))


def test_maximally_entangled_state_properties():
    rho = maximally_entangled_state(4)
    assert np.trace(rho).real == pytest.approx(1.0)
    vals = np.linalg.eigvalsh(rho)
    assert vals[-1] == pytest.approx(1.0)
    assert np.all(vals[:-1] <= 1e-12)
    with pytest.raises(ParameterError):
        maximally_entangled_state(1)
