"""The structured Choi core against dense oracles built here.

The oracles are the plain definitions: the Choi matrix assembled block by
block from ``theta_apply`` on matrix units, the witness expectations as dense
quadratic forms, the span rank as an SVD of the stacked n^2-vectors, and the
involution split summed from ``kron`` products of matrix units.
"""
import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    PreconditionError,
    certify_optimality,
    choi,
    choi_structure,
    classify_map,
    cp_verdict,
    d_matrix,
    decompose_involution,
    delta_n,
    identity,
    matrix_from_json,
    matrix_to_json,
    maximally_entangled_state,
    min_eigenvalue,
    separable_decomposition,
    spa_state,
    spanning_generators,
    tau,
    theta_apply,
    witness,
)
from conftest import spaced_involution
from matrix_helpers import (
    assert_real_matches_complex,
    kron,
    matrix_unit,
    r_matrix,
    real_parts_of,
    schur_matrix,
    spa_interpolation,
)
import cyclemaps
from cyclemaps.cli import main

TOL = 1e-12


def dense_choi(p: MapParams, compose_transpose: bool = False) -> np.ndarray:
    n = p.n
    out = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            block = theta_apply(p, matrix_unit(n, i, j))
            if compose_transpose:
                block = block.T
            out[(i - 1) * n : i * n, (j - 1) * n : j * n] = block
    return out


def stack_rank(vectors, rtol: float = 1e-8) -> int:
    if not vectors:
        return 0
    s = np.linalg.svd(np.asarray(vectors), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def generator_vectors(gens) -> list:
    """The n^2-vectors of the generators, built from their two arrays."""
    unit = np.eye(gens.phases.shape[1])
    xis = np.exp(1j * gens.phases)
    return [np.kron(xi, xi) for xi in xis] + [np.kron(unit[i], unit[j]) for i, j in gens.pairs]


def kron_split(p: MapParams):
    """P and the Q blocks of the involution split, summed from kron products."""
    n = p.n
    e = lambda i, j: matrix_unit(n, i, j)
    fixed = {i for i in range(1, n + 1) if p.sigma(i) == i}
    P = np.zeros((n * n, n * n), dtype=complex)
    for i in range(1, n + 1):
        coeff = p.a + p.c[i - 1] - 1.0 if i in fixed else p.a - 1.0
        P += coeff * kron(e(i, i), e(i, i))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and p.sigma(i) != j:
                P -= kron(e(i, j), e(i, j))
    qs = []
    for i in range(1, n + 1):
        si = p.sigma(i)
        if i < si:
            qs.append(
                p.c[si - 1] * kron(e(i, i), e(si, si))
                + p.c[i - 1] * kron(e(si, si), e(i, i))
                - kron(e(i, si), e(i, si))
                - kron(e(si, i), e(si, i))
            )
    return P, qs


@st.composite
def permutations(draw, n: int) -> Permutation:
    """Any permutation, an involution, or one with fixed points next to a cycle."""
    order = draw(st.permutations(range(1, n + 1)))
    kind = draw(st.sampled_from(("any", "involution", "fixed_points")))
    images = list(range(1, n + 1))
    if kind == "any":
        images = list(order)
    elif kind == "involution":
        for t in range(draw(st.integers(0, n // 2))):
            i, j = order[2 * t], order[2 * t + 1]
            images[i - 1], images[j - 1] = j, i
    else:
        cycle = order[draw(st.integers(1, n)) :]
        for pos, i in enumerate(cycle):
            images[i - 1] = cycle[(pos + 1) % len(cycle)]
    return Permutation(tuple(images))


@st.composite
def maps(draw) -> MapParams:
    n = draw(st.integers(1, 6))
    sigma = draw(permutations(n))
    a = draw(st.floats(0.05, 2.0 * n + 1.0))
    c = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
    return MapParams(n, sigma, a, tuple(c))


def check_against_dense(p: MapParams) -> None:
    n = p.n
    s = choi_structure(p)
    c = dense_choi(p)
    ct = dense_choi(p, compose_transpose=True)
    # the core is the dense Choi matrix on span{|ii>}
    ii = np.arange(n) * (n + 1)
    assert s.core_min == pytest.approx(np.linalg.eigvalsh(c[np.ix_(ii, ii)])[0], abs=TOL)
    assert s.min_eigenvalue() == pytest.approx(np.linalg.eigvalsh(c)[0], abs=TOL)
    assert s.min_eigenvalue(True) == pytest.approx(np.linalg.eigvalsh(ct)[0], abs=TOL)
    assert cp_verdict(p).evidence["choi_min_eigenvalue"] == pytest.approx(min_eigenvalue(c), abs=TOL)

    trace = float(np.trace(c).real)
    neg = max(0.0, -np.linalg.eigvalsh(c)[0])
    assert s.trace == pytest.approx(trace, abs=TOL)
    assert s.negative_norm == pytest.approx(neg, abs=TOL)
    if s.trace <= 0.0:
        with pytest.raises(PreconditionError, match="Tr C"):
            spa_state(p)
    else:
        # w, lambda* and the SPA divide by Tr C, so an error TOL in Tr C and
        # ||C^-|| propagates to first order as below; it is <= 2 TOL in w
        # whenever Tr C >= 1 and w <= 1
        state = spa_state(p)
        assert state.trace_choi == s.trace
        w_minus = neg / trace
        dw = TOL * (1.0 + abs(w_minus)) / abs(trace)
        lam = 1.0 / (1.0 + n * n * w_minus)
        assert state.w_minus_norm == pytest.approx(w_minus, abs=dw)
        assert state.lambda_star == pytest.approx(lam, abs=n * n * lam * lam * dw)
        norm = trace + n * n * neg
        spa = (neg * np.eye(n * n) + c) / norm
        bound = TOL * (1.0 + (1.0 + n * n) * np.abs(spa)) / abs(norm)
        assert np.all(np.abs(state.matrix - spa) <= bound)

    w = ct / n
    assert s.min_eigenvalue(compose_transpose=True) / n == pytest.approx(min_eigenvalue(w), abs=TOL)
    cert = certify_optimality(p)
    vectors = generator_vectors(cert.generators)
    dense_expectations = np.array([float(np.real(v.conj() @ (w @ v))) for v in vectors])
    assert np.max(np.abs(cert.expectations - dense_expectations)) <= TOL
    passing = np.abs(cert.expectations) <= 1e-9
    assert cert.span_rank == stack_rank([v for v, ok in zip(vectors, passing) if ok])
    psd = min_eigenvalue(w) >= -1e-9
    assert any("PSD" in warning for warning in cert.warnings) == psd
    assert np.array_equal(cert.witness, witness(p))


@settings(max_examples=200, deadline=None)
@given(maps())
# Tr C = 0.01875 at w ~ 164: one ulp of Tr C moves w by 1.9e-12
@example(MapParams(4, identity(4), 0.0625, (1.625, 1.03125, 1.05, 0.0625)))
# Tr C = 0: no SPA
@example(MapParams(1, identity(1), 0.5, (0.5,)))
def test_structure_matches_dense_oracle(p):
    check_against_dense(p)


def test_structure_matches_dense_oracle_weight_free_map():
    for n in (2, 3, 5):
        check_against_dense(delta_n(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 20])
def test_choi_equals_theta_apply_assembly_entry_for_entry(n):
    rng = np.random.default_rng(n)
    for sigma in (tau(n, 1), identity(n), Permutation(tuple(int(i) + 1 for i in rng.permutation(n)))):
        p = MapParams(n, sigma, float(rng.uniform(0.1, n + 1.0)), tuple(rng.uniform(0.1, 3.0, size=n)))
        for compose_transpose in (False, True):
            got = choi(p, compose_transpose)
            want = dense_choi(p, compose_transpose)
            assert real_parts_of(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_involution_split_equals_kron_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        order = [int(i) + 1 for i in rng.permutation(n)]
        images = list(range(1, n + 1))
        for t in range(int(rng.integers(0, n // 2 + 1))):
            i, j = order[2 * t], order[2 * t + 1]
            images[i - 1], images[j - 1] = j, i
        sigma = Permutation(tuple(images))
        # c >= 1 everywhere meets both weight preconditions
        p = MapParams(n, sigma, float(rng.uniform(n - 1.0, n + 1.0)), tuple(rng.uniform(1.0, 3.0, size=n)))
        cert = decompose_involution(p)
        P, qs = kron_split(p)
        assert np.array_equal(cert.P, P)
        assert len(cert.q_blocks) == len(qs)
        for (_, q), want in zip(cert.q_blocks, qs):
            assert np.array_equal(q, want)


@pytest.mark.parametrize(
    "p",
    [
        pytest.param(MapParams(4, tau(4, 2), 3.0, (1.0,) * 4), id="two-cycles-n4"),
        pytest.param(MapParams(6, tau(6, 3), 4.0, (2.0,) * 6), id="two-cycles-n6"),
        pytest.param(MapParams(4, tau(4, 1), 3.0, (1.0,) * 4), id="long-cycle-n4"),
        pytest.param(MapParams(7, tau(7, 3), 6.0, (1.0,) * 7), id="long-cycle-n7"),
        pytest.param(MapParams(5, Permutation((2, 3, 1, 4, 5)), 4.0, (1.0,) * 5), id="fixed-points-n5"),
        pytest.param(MapParams(3, identity(3), 2.5, (0.5,) * 3), id="identity-n3"),
    ],
)
def test_random_phase_vectors_never_raise_the_span_rank(p):
    # Every xi (x) xi is a symmetric tensor, and the deterministic phases
    # already span those, so stacking random ones leaves the rank unchanged.
    n = p.n
    vectors = generator_vectors(spanning_generators(p))
    rank = stack_rank(vectors)
    rng = np.random.default_rng(7)
    for thetas in rng.uniform(0.0, 2.0 * np.pi, size=(20, n)):
        xi = np.exp(1j * thetas)
        vectors.append(np.kron(xi, xi))
    assert stack_rank(vectors) == rank


def traced_peak(call):
    """The value of call() and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def large_map(n: int = 64, c0: float = 0.7) -> MapParams:
    """The certified family a = n - c on one n-cycle (not an involution)."""
    return MapParams(n, tau(n, 1), n - c0, (c0,) * n)


def test_scalar_answers_run_past_the_dense_size_limit():
    p = large_map()
    n, c0 = p.n, p.c[0]
    report = classify_map(p, samples=0)
    assert report.completely_positive.status == "no"
    assert report.atomic.status == "yes"
    assert report.completely_positive.evidence["choi_min_eigenvalue"] == pytest.approx(p.a - n, abs=1e-9)
    trace = n * p.a + n * c0 - n
    assert spa_state(p).lambda_star == pytest.approx(trace / (trace + n * n * c0), rel=1e-12)
    cert = certify_optimality(p)
    assert cert.span_rank == n * n and cert.optimal

    # at n = 4096 each scalar answer runs on the O(n) data, far below the
    # 134 MB that a dense n x n core alone would take
    p = large_map(4096, 1.0)
    n = p.n
    report, peak = traced_peak(lambda: classify_map(p, samples=0))
    assert peak < 20e6
    assert report.completely_positive.evidence["choi_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-9)
    assert report.atomic.status == "yes"
    lam, peak = traced_peak(lambda: spa_state(p).lambda_star)
    assert peak < 20e6
    trace = n * (p.a - 1.0) + n
    assert lam == pytest.approx(trace / (trace + n * n), rel=1e-12)
    w_min, peak = traced_peak(lambda: choi_structure(p).min_eigenvalue(compose_transpose=True))
    assert peak < 20e6
    assert w_min == -1.0  # the pairs {i, k} that sigma does not relate


@pytest.mark.parametrize(
    "p",
    [
        large_map(32, 1.0),
        # an involution with two fixed points and non-uniform weights
        MapParams(
            32,
            Permutation(tuple(i + 1 if i % 2 else i - 1 for i in range(1, 31)) + (31, 32)),
            30.5,
            tuple(0.5 + 0.05 * i for i in range(32)),
        ),
    ],
    ids=["tau", "involution"],
)
def test_witness_minimum_solves_only_the_small_blocks(monkeypatch, p):
    # W splits into 1x1 and 2x2 blocks and Choi(Theta) into the n x n core
    # plus 1x1 blocks, so no eigensolve needs the n^2 x n^2 matrix
    n = p.n
    expected = choi_structure(p).min_eigenvalue(compose_transpose=True) / n
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        widths.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = min_eigenvalue(witness(p))
    assert widths and max(widths) <= 2
    assert got == pytest.approx(expected, abs=TOL * max(1.0, p.a, max(p.c)))
    widths.clear()
    min_eigenvalue(choi(p))
    assert widths and max(widths) == n


def test_certify_optimality_at_n_128_stays_under_200_mb():
    p = large_map(128, 1.0)
    cert, peak = traced_peak(lambda: certify_optimality(p))
    assert peak < 200e6
    assert cert.span_rank == 128 * 128 and cert.optimal and cert.theorem_applies


def test_certify_optimality_at_n_256_stays_under_8_mb():
    # the expectations and the basis pairs, O(n^2); the phase table, 68 MB here, is never built
    p = large_map(256)
    cert, peak = traced_peak(lambda: certify_optimality(p))
    assert peak < 8e6
    assert cert.span_rank == 256 * 256 and cert.optimal and cert.theorem_applies
    assert "phases" not in vars(cert.generators)


@pytest.mark.parametrize("sigma, two_cycles", [(tau(1024, 1), 0), (spaced_involution(1024), 341)], ids=["tau", "involution"])
def test_certify_optimality_at_n_1024_gives_the_span_rank_in_bounded_memory(sigma, two_cycles):
    n = 1024
    p = MapParams(n, sigma, n - 0.7, (0.7,) * n)
    start = time.perf_counter()
    certify_optimality(p)
    assert time.perf_counter() - start < 2.0  # about 0.06 s on a 2-core x86 VM
    cert, peak = traced_peak(lambda: certify_optimality(p))
    assert peak < 100e6  # the dense phase table alone would take 4.3 GB
    assert cert.span_rank == n * n - two_cycles


def test_choi_size_guard_names_n_and_bytes():
    with pytest.raises(ParameterError, match=r"n = 64 .*134,217,728 bytes"):
        choi(large_map())
    with pytest.raises(ParameterError, match="n = 64"):
        spa_state(large_map()).matrix


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_dense_builders_are_float64_and_solve_as_their_complex_form(n):
    rng = np.random.default_rng(600 + n)
    # a = n - 1 on an n-cycle decomposes the SPA; an involution with fixed points splits
    cycle = MapParams(n, tau(n, 1), n - 1.0, tuple(rng.uniform(1.0, 2.0, n)))
    involution = MapParams(n, spaced_involution(n), n - 0.5, tuple(rng.uniform(1.0, 2.0, n)))
    dec, split = separable_decomposition(cycle), decompose_involution(involution)
    built = {
        "choi": choi(cycle),
        "choi of T.Theta": choi(cycle, compose_transpose=True),
        "witness": witness(cycle),
        "SpaState.matrix": dec.state.matrix,
        "pair SpaTerm.matrix": dec.terms[0].matrix,
        "diagonal SpaTerm.matrix": dec.terms[-1].matrix,
        "spa_interpolation": spa_interpolation(cycle, 0.3),
        "maximally_entangled_state": maximally_entangled_state(n),
        "P": split.P,
        **{f"Q{pair}": q for pair, q in split.q_blocks},
    }
    assert (dec.terms[0].kind, dec.terms[-1].kind) == ("pair", "diagonal") and split.q_blocks
    for name, m in built.items():
        assert m.dtype == np.float64 and m.shape == (n * n, n * n), name
        assert_real_matches_complex(m, (n, n))
    for m in (d_matrix(cycle), schur_matrix(cycle), split.p_block, r_matrix()):
        assert m.dtype == np.float64
    parsed = matrix_from_json(matrix_to_json(built["witness"]))
    assert parsed.dtype == np.complex128 and real_parts_of(built["witness"], parsed)


def test_witness_at_n_32_holds_one_float_per_entry():
    p = large_map(32)
    w, peak = traced_peak(lambda: witness(p))
    assert w.dtype == np.float64 and w.nbytes == 8 * 32**4
    assert peak <= 8.5e6  # 8.39 MB of entries; complex ones took 16.8 MB


def random_spectrum_maps(count: int, seed: int):
    """Maps at n = 1..6 with any sigma, sigma = id, or fixed points next to a
    cycle, and a and c log-uniform over 1e-20..1e20."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 7))
        order = [int(i) + 1 for i in rng.permutation(n)]
        images = list(range(1, n + 1))
        if k % 3 == 0:
            images = order
        elif k % 3 == 1:
            cycle = order[int(rng.integers(0, n)) :]  # the rest are fixed points
            for pos, i in enumerate(cycle):
                images[i - 1] = cycle[(pos + 1) % len(cycle)]
        a, *c = 10.0 ** rng.uniform(-20, 20, n + 1)
        yield MapParams(n, Permutation(tuple(images)), float(a), tuple(map(float, c)))


def test_spectrum_matches_the_dense_eigensolve_on_random_maps():
    for p in random_spectrum_maps(600, seed=20):
        structure = choi_structure(p)
        for compose_transpose in (False, True):
            res = structure.spectrum(compose_transpose)
            dense = np.linalg.eigvalsh(choi(p, compose_transpose))
            scale = TOL * max(1.0, float(np.max(np.abs(dense))))
            assert res.eigenvalues.shape == (p.n * p.n,)
            assert np.max(np.abs(res.eigenvalues - dense)) <= scale, (p, compose_transpose)
            assert res.residual <= scale and (res.residual == 0.0 or not compose_transpose)


def test_transposed_spectrum_starts_at_the_witness_minimum():
    maps = [*random_spectrum_maps(300, seed=21), large_map(), delta_n(4)]
    for p in maps:
        structure = choi_structure(p)
        assert structure.spectrum(compose_transpose=True).eigenvalues[0] == structure.min_eigenvalue(compose_transpose=True)


def pair_roots(x: float, y: float) -> list[float]:
    """The eigenvalues of [[x, -1], [-1, y]] by the quadratic formula."""
    root = np.sqrt((x - y) ** 2 + 4.0)
    return [(x + y - root) / 2.0, (x + y + root) / 2.0]


@pytest.mark.parametrize(
    "sigma",
    [tau(64, 1), tau(64, 32), Permutation((2, 1, 3) + tuple(range(5, 65)) + (4,))],
    ids=["64-cycle", "2-cycles", "fixed point"],
)
def test_spectrum_past_the_dense_limit_is_the_closed_form(sigma):
    n = 64
    c = tuple(0.5 + 0.03 * k for k in range(n))
    p = MapParams(n, sigma, 61.5, c)
    if all(sigma(k) != k for k in range(1, n + 1)):  # no fixed point: {0^(n^2 - 2n), a^(n - 1), a - n, c}
        expect = sorted([0.0] * (n * n - 2 * n) + [p.a] * (n - 1) + [p.a - n] + list(c))
        assert np.max(np.abs(choi_structure(p).spectrum().eigenvalues - expect)) <= TOL * n * n
    # 1x1 blocks a + c_i [sigma(i) = i] - 1 and the 2x2 blocks on {|ik>, |ki>}, i < k
    d = np.zeros((n, n))
    d[np.arange(n), np.arange(n)] = p.a
    d[np.array(sigma.images) - 1, np.arange(n)] += c
    expect = [d[i, i] - 1.0 for i in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            expect += pair_roots(d[i, k], d[k, i])
    res = choi_structure(p).spectrum(compose_transpose=True)
    assert np.max(np.abs(res.eigenvalues - np.sort(expect))) <= TOL * n
    assert res.residual == 0.0


def test_spectrum_builds_no_dense_matrix_and_splits_none(tmp_path, capsys, monkeypatch):
    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    for module in (cyclemaps.dmap, cyclemaps.classify, cyclemaps.spa, cyclemaps.witness):
        if hasattr(module, "assemble"):
            monkeypatch.setattr(module, "assemble", refuse("assemble"))
    monkeypatch.setattr(cyclemaps.matlin, "_hermitian_blocks", refuse("_hermitian_blocks"))
    p = MapParams(5, Permutation((2, 1, 4, 5, 3)), 4.0, (1.0, 2.0, 0.5, 1.5, 3.0))
    for compose_transpose in (False, True):
        choi_structure(p).spectrum(compose_transpose)
    path = _write_map(tmp_path, large_map())
    for flags in ([], ["--compose-transpose"]):
        assert main(["spectrum", "--map", path, *flags]) == 0
        assert len(json.loads(capsys.readouterr().out)["result"]["eigenvalues"]) == 64 * 64
    assert calls == []


def _write_map(tmp_path, p: MapParams) -> str:
    path = tmp_path / "map.json"
    images = ",".join(str(i) for i in p.sigma.images)
    path.write_text(f'{{"n": {p.n}, "sigma": "images:{images}", "a": {p.a}, "c": {list(p.c)}}}')
    return str(path)


@pytest.mark.parametrize("sub", ["spa", "witness"])
def test_cli_dense_reports_exit_2_past_the_size_limit(tmp_path, capsys, sub):
    rc = main([sub, "--map", _write_map(tmp_path, large_map()), "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: n = 64") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_cli_classify_runs_past_the_size_limit(tmp_path, capsys):
    # a 64-cycle also exercises the sampler's adversarial family, whose
    # geometric weights would overflow without rescaling
    out = tmp_path / "out.json"
    rc = main(["classify", "--map", _write_map(tmp_path, large_map()), "--samples", "200", "--out", str(out)])
    assert rc == 0
    assert '"atomic"' in out.read_text()


def test_equality_of_every_public_result_type_is_a_bool():
    # an array field compared by value would make == raise ValueError
    def results():
        p = MapParams(4, tau(4, 2), 3.0, (1.0,) * 4)  # decomposable by the involution split only
        report = classify_map(p, samples=50)
        return {
            "MapParams": p,
            "Permutation": p.sigma,
            "CycleDecomposition": cyclemaps.cycle_decompose(p.sigma),
            "ChoiStructure": choi_structure(p),
            "SpectrumResult": choi_structure(p).spectrum(),
            "Verdict": report.positive,
            "PositivityEvidence": cyclemaps.verify_positivity_numeric(p, samples=50),
            "ClassificationReport": report,
            "DecomposabilityCertificate": report.decomposition,
            "SpaState": spa_state(p),
            "SeparableDecomposition": cyclemaps.separable_decomposition(p),
            "OptimalityCertificate": certify_optimality(p),
        }

    exported = {
        name for name in cyclemaps.__all__
        if isinstance(getattr(cyclemaps, name), type) and dataclasses.is_dataclass(getattr(cyclemaps, name))
    }
    first, second = results(), results()
    assert set(first) == exported
    first["DecomposabilityCertificate"].p_block  # a view read on one side only
    for name, x in first.items():
        assert isinstance(x, getattr(cyclemaps, name))
        assert x == x
        assert isinstance(x == second[name], bool) and isinstance(x != second[name], bool)
