"""Inputs that ask for more than the package can hold, and the CLI's dispatch.

Every hostile input here ends in one ``ParameterError`` (CLI: one ``error:``
line, exit 1 or 2) before anything sized by it is allocated.  The large
cases stay safe under a regression: each is either checked before any
allocation or has its builder patched to fail the test instead of running.
"""
import importlib
import inspect
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclemaps import (
    MapParams,
    ParameterError,
    atomic_verdict,
    certify_optimality,
    choi,
    choi_structure,
    classify_map,
    cp_verdict,
    decompose_involution,
    maximally_entangled_state,
    positivity_verdict,
    spa_state,
    tau,
    two_positive_verdict,
    verify_positivity_numeric,
    witness,
)
from cyclemaps import classify as classify_module
from cyclemaps import dmap as dmap_module
from cyclemaps import cli
from cyclemaps import perm as perm_module
from cyclemaps.classify import _adversarial_amplitudes
from cyclemaps.cli import main
from cyclemaps.matlin import MAX_ENTRIES
from cyclemaps.perm import cycle_decompose, parse_permutation
from cyclemaps.spa import SpaTerm
from matrix_helpers import spa_interpolation

witness_module = importlib.import_module("cyclemaps.witness")

FLAGSHIP = {"n": 3, "sigma": "tau:3:2", "a": 2.0, "c": [1.0, 1.0, 1.0]}
# tau(4, 1) with weights whose running products d / c_k overflow a double
OVERFLOWING_BALANCE = {"n": 4, "sigma": "tau:4:1", "a": 3.0, "c": [1e-300, 1e-300, 1e300, 1e300]}


def run_cli(tmp_path, capsys, spec, *args):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec) if isinstance(spec, dict) else spec)
    rc = main([args[0], "--map", str(path), *args[1:]])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- sigma's degree is compared with n before sigma is built -----------------


def test_a_huge_identity_degree_exits_one_with_the_degree_message(tmp_path, capsys):
    spec = '{"n": 3, "sigma": "id:1000000000000000000", "a": 2.0, "c": [1, 1, 1]}'
    rc, out, err = run_cli(tmp_path, capsys, spec, "classify")
    assert (rc, out) == (1, "")
    assert err == "error: sigma has degree 1000000000000000000, which does not match n=3\n"


@pytest.mark.parametrize("text", ["tau:1000000000000000000:1", "id:1000000000000000000", "tau:4:1", "id:2"])
def test_parse_permutation_checks_the_degree_before_building(monkeypatch, text):
    def refuse(*args):
        raise AssertionError("a permutation was built before its degree was checked")

    monkeypatch.setattr(perm_module, "tau", refuse)
    monkeypatch.setattr(perm_module, "identity", refuse)
    with pytest.raises(ParameterError, match=r"^sigma has degree \d+, which does not match n=3$"):
        parse_permutation(text, 3)


def test_parse_permutation_with_the_expected_degree():
    assert parse_permutation("tau:3:2", 3) == tau(3, 2)
    assert parse_permutation("id:4", 4).is_identity()
    assert parse_permutation("images:2,1,3", 3).images == (2, 1, 3)
    with pytest.raises(ParameterError, match="sigma has degree 4, which does not match n=3"):
        parse_permutation("images:2,1,4,3", 3)
    # with no expected degree the text alone decides, as before
    assert parse_permutation("id:5").n == 5


def test_a_huge_n_with_a_short_weight_list_exits_one(tmp_path, capsys):
    spec = '{"n": 1000000000000000000, "sigma": "id:1000000000000000000", "a": 2.0, "c": [1, 1, 1]}'
    rc, out, err = run_cli(tmp_path, capsys, spec, "classify")
    assert (rc, out) == (1, "")
    assert err == "error: field 'c' must have length n=1000000000000000000 (got 3)\n"


def test_the_library_keeps_the_degree_message():
    with pytest.raises(ParameterError, match="sigma has degree 4, which does not match n=3"):
        MapParams(3, tau(4, 1), 2.0, (1.0,) * 3)


# -- the sampler's balanced family in log space ------------------------------


def _balanced_row_by_products(p: MapParams) -> np.ndarray:
    """The balanced row as running products of d / c_k, which overflow for extreme c."""
    alpha = np.empty(p.n)
    for cycle in cycle_decompose(p.sigma).cycles:
        cs = [p.c[i - 1] for i in cycle]
        d = math.exp(sum(math.log(x) for x in cs) / len(cs))
        running = 1.0
        for k in range(1, len(cycle) + 1):
            running *= d / cs[k - 1]
            alpha[cycle[k % len(cycle)] - 1] = running
    return alpha


@pytest.mark.parametrize("seed", range(20))
def test_the_balanced_row_is_the_running_product_up_to_scale(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    p = MapParams(n, perm_module.Permutation(tuple(int(i) + 1 for i in rng.permutation(n))),
                  float(rng.uniform(0.5, 9.0)), tuple(float(x) for x in rng.uniform(0.1, 10.0, n)))
    row = _adversarial_amplitudes(p)[-1]
    expected = _balanced_row_by_products(p)
    np.testing.assert_allclose(row / row.max(), expected / expected.max(), rtol=1e-12)
    assert row.max() == 1.0


def test_the_balanced_row_does_not_overflow():
    p = MapParams(4, tau(4, 1), 3.0, tuple(OVERFLOWING_BALANCE["c"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = _adversarial_amplitudes(p)[-1]
        evidence = verify_positivity_numeric(p)
        report = classify_map(p)
    assert np.all(np.isfinite(row)) and row.max() == 1.0
    assert math.isfinite(evidence.max_s) and math.isfinite(evidence.min_theta_eig)
    assert report.positive.status == "yes"


def test_classify_serves_the_overflowing_balance(tmp_path, capsys):
    rc, out, err = run_cli(tmp_path, capsys, OVERFLOWING_BALANCE, "classify")
    assert (rc, err) == (0, "")
    evidence = json.loads(out)["result"]["positive"]["evidence"]
    assert math.isfinite(evidence["max_s"]) and math.isfinite(evidence["min_theta_eig"])


# -- one entry bound for the sampler and P's n x n block ----------------------


def test_a_huge_sample_count_exits_two(tmp_path, capsys):
    rc, out, err = run_cli(tmp_path, capsys, FLAGSHIP, "classify", "--samples", str(2**62))
    assert (rc, out) == (2, "")
    assert err.startswith("error: samples * n = 4611686018427387904 * 3 is too large for the sampler")
    assert err.count("\n") == 1


def test_the_sampler_bound_is_samples_times_n(monkeypatch):
    monkeypatch.setattr(classify_module, "MAX_ENTRIES", 40)
    p = MapParams(4, tau(4, 1), 3.0, (1.0,) * 4)
    assert verify_positivity_numeric(p, samples=10).num_vectors > 10
    with pytest.raises(ParameterError, match=r"11 \* 4 is too large for the sampler: 44 entries \(limit 40\)"):
        verify_positivity_numeric(p, samples=11)
    # a numpy integer's product 2**62 * 4 wraps to 0, which passed the bound
    with pytest.raises(ParameterError, match=r"4611686018427387904 \* 4 is too large for the sampler: 18,446,744,073,709,551,616 entries"):
        verify_positivity_numeric(p, samples=np.int64(2**62))
    assert classify_map(p, samples=0).positive.status == "yes"  # no sampler, no bound


def test_the_default_sampler_reaches_n_4194():
    assert 2000 * 4194 <= MAX_ENTRIES < 2000 * 4195


def test_the_involution_split_runs_past_the_sampler_bound():
    # the split reads O(n) data; only P's n x n block, built when read, has a bound
    n = 10**5
    p = MapParams(n, tau(n, n // 2), n - 1.0, (1.0,) * n)
    # with the structure and the cycle decomposition built, the verdicts and the
    # split hold a few O(n) arrays: 10.4 MB at the peak (Python 3.11.7, numpy
    # 2.4.6), where 50,000 per-pair tuples took it to 15.7 MB
    choi_structure(p), cycle_decompose(p.sigma)
    tracemalloc.start()
    try:
        report = classify_map(p, samples=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13e6
    assert report.decomposable.status == "yes"
    assert report.decomposition.p_min_eigenvalue == 0.0
    assert len(report.decomposition.pairs) == n // 2
    for view in ("p_block", "P"):
        with pytest.raises(ParameterError, match=r"^n = 100000 is too large for P's n x n block"):
            getattr(report.decomposition, view)
    with pytest.raises(ParameterError, match=r"^samples \* n = 2000 \* 100000 is too large for the sampler"):
        classify_map(p)  # the sampler's bound still stops it


def test_the_p_block_bound_is_n_squared(monkeypatch):
    monkeypatch.setattr(classify_module, "MAX_ENTRIES", 16)
    assert decompose_involution(MapParams(4, tau(4, 2), 3.0, (1.0,) * 4)).p_block.shape == (4, 4)
    cert = decompose_involution(MapParams(6, tau(6, 3), 5.0, (1.0,) * 6))
    assert cert.pairs.tolist() == [[1, 4], [2, 5], [3, 6]]
    with pytest.raises(ParameterError, match=r"n = 6 is too large for P's n x n block: 36 entries \(limit 16\)"):
        cert.p_block
    assert 2896**2 <= MAX_ENTRIES < 2897**2


# -- the witness certificate stops at MAX_ENTRIES -----------------------------


def traced_raise(call, message: str) -> int:
    """The tracemalloc peak while ``call()`` raises ParameterError with ``message``."""
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_optimality_past_the_entry_bound_raises_before_allocating():
    n = 3000
    p = MapParams(n, tau(n, 1), n - 0.7, (0.7,) * n)
    message = "n = 3000 is too large for the optimality certificate: 9,000,000 coordinates (limit 8,388,608)"
    assert traced_raise(lambda: certify_optimality(p), message) < 2**20  # the basis pairs alone would take 144 MB


def test_the_certificate_bound_is_n_squared(monkeypatch):
    p = MapParams(4, tau(4, 1), 3.3, (0.7,) * 4)
    monkeypatch.setattr(witness_module, "MAX_ENTRIES", 16)
    assert certify_optimality(p).span_rank == 16
    monkeypatch.setattr(witness_module, "MAX_ENTRIES", 15)
    with pytest.raises(ParameterError, match=r"^n = 4 is too large for the optimality certificate: 16 coordinates \(limit 15\)$"):
        certify_optimality(p)


# -- dense matrices past MAX_DIM raise before their n x n parts are built ----


@pytest.mark.parametrize(
    "build",
    [witness, choi, lambda p: choi(p, compose_transpose=True), lambda p: spa_state(p).matrix,
     lambda p: spa_interpolation(p, 0.5)],
    ids=["witness", "choi", "transposed choi", "spa matrix", "spa interpolation"],
)
def test_a_dense_matrix_past_the_edge_limit_raises_before_allocating(build):
    n = 2000
    p = MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=r"^n = 2000 is too large for a dense n\^2 x n\^2 matrix"):
            build(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the n x n parts alone would take 64 MB


@pytest.mark.parametrize(
    "build",
    [lambda cert: cert.P, lambda cert: cert.q_blocks, lambda cert: SpaTerm("pair", (1, 2), 1.0, cert.params.n).matrix,
     lambda cert: maximally_entangled_state(cert.params.n)],
    ids=["split P", "split q_blocks", "spa term", "maximally entangled state"],
)
def test_a_dense_view_past_the_edge_limit_raises_before_its_parts(build):
    # P's n x n block has its own bound, MAX_ENTRIES, which n = 2000 passes: the dense size refuses first
    n = 2000
    cert = decompose_involution(MapParams(n, tau(n, n // 2), n - 1.0, (1.0,) * n))
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=r"^n = 2000 is too large for a dense n\^2 x n\^2 matrix"):
            build(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one n x n part alone would take 32 MB


@pytest.mark.parametrize("compose_transpose", [False, True], ids=["plain", "transposed"])
def test_the_spectrum_past_the_entry_bound_raises_before_allocating(tmp_path, capsys, compose_transpose):
    n = 3000
    p = MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n)
    structure = choi_structure(p)
    message = "n = 3000 is too large for the Choi spectrum: 9,000,000 eigenvalues (limit 8,388,608)"
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            structure.spectrum(compose_transpose)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the n x n parts alone would take 72 MB
    spec = {"n": n, "sigma": f"tau:{n}:1", "a": n - 1.0, "c": [1.0] * n}
    flags = ["--compose-transpose"] if compose_transpose else []
    rc, out, err = run_cli(tmp_path, capsys, spec, "spectrum", *flags)
    assert (rc, out) == (2, "")
    assert err == f"error: {message}\n"


def test_the_spectrum_bound_is_n_squared(monkeypatch):
    monkeypatch.setattr(dmap_module, "MAX_ENTRIES", 16)
    assert choi_structure(MapParams(4, tau(4, 1), 3.0, (1.0,) * 4)).spectrum().eigenvalues.shape == (16,)
    with pytest.raises(ParameterError, match=r"n = 5 is too large for the Choi spectrum: 25 eigenvalues \(limit 16\)"):
        choi_structure(MapParams(5, tau(5, 1), 4.0, (1.0,) * 5)).spectrum(compose_transpose=True)


# -- every verdict decides at the one tolerance -----------------------------


def test_only_cp_verdict_and_classify_map_take_a_psd_tolerance():
    assert "psd_tol" not in inspect.signature(two_positive_verdict).parameters
    assert "psd_tol" not in inspect.signature(atomic_verdict).parameters


def test_no_verdict_takes_a_tolerance():
    for fn in (cp_verdict, positivity_verdict, two_positive_verdict, atomic_verdict, classify_map):
        assert not any("tol" in name for name in inspect.signature(fn).parameters), fn
    # each verdict is a function of the map; positivity also reports the sampler's evidence
    for fn in (cp_verdict, two_positive_verdict, atomic_verdict):
        assert list(inspect.signature(fn).parameters) == ["p"], fn
    assert list(inspect.signature(positivity_verdict).parameters) == ["p", "evidence"]


def test_psd_tol_still_decides_complete_positivity(tmp_path, capsys):
    # a Choi core least eigenvalue of about -1e-6 is past the one tolerance
    p = MapParams(3, tau(3, 2), 3.0 - 1e-6, (1.0,) * 3)
    assert classify_map(p, samples=0).completely_positive.status == "no"
    spec = {"n": 3, "sigma": "tau:3:2", "a": 3.0 - 1e-6, "c": [1.0, 1.0, 1.0]}
    rc, out, _ = run_cli(tmp_path, capsys, spec, "classify", "--samples", "0")
    assert rc == 0
    assert json.loads(out)["result"]["completely_positive"]["status"] == "no"


# -- the CLI dispatches from its parser --------------------------------------


@pytest.mark.parametrize("sub", ["classify", "spectrum", "decompose", "spa", "witness"])
def test_each_subparser_names_its_handler(sub):
    args = cli.build_parser().parse_args([sub, "--map", "m.json"])
    assert args.run is getattr(cli, f"_run_{sub}")
    assert list(inspect.signature(args.run).parameters) == ["args", "params", "state"]
