import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cyclemaps
from cyclemaps import (
    ChoiStructure,
    CycleDecomposition,
    MapParams,
    ParameterError,
    Permutation,
    classify_map,
    cli,
    matrix_from_json,
    matrix_to_json,
    maximally_entangled_state,
    parse_permutation,
    witness,
)
from cyclemaps import spa as spa_module
from cyclemaps.cli import main, parse_map_json
from conftest import count_computations
from matrix_helpers import generator_vectors

FLAGSHIP = {"n": 3, "sigma": "tau:3:2", "a": 2.0, "c": [1.0, 1.0, 1.0]}
INVOLUTION = {"n": 4, "sigma": "images:3,4,1,2", "a": 3.0, "c": [1.0, 1.0, 1.0, 1.0]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_flagship(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, err = run_cli(capsys, "classify", "--map", path)
    assert rc == 0
    report = json.loads(out)
    assert report["tool"] == "cyclemaps"
    assert report["subcommand"] == "classify"
    assert report["map"] == FLAGSHIP
    assert report["config"] == {"samples": 2000, "seed": 0}
    result = report["result"]
    assert result["positive"]["status"] == "yes"
    assert result["two_positive"]["status"] == "no"
    assert result["completely_positive"]["status"] == "no"
    assert result["atomic"]["status"] == "yes"
    assert result["decomposable"]["status"] == "no"
    # each verdict names the rule that decided it; no second map repeats those names
    assert list(report) == ["tool", "version", "timestamp", "subcommand", "map", "config", "result"]
    assert all(result[name]["criterion"] for name in ("positive", "two_positive", "completely_positive", "atomic", "decomposable"))


def test_classify_config_plumbing(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, _ = run_cli(
        capsys, "classify", "--map", path, "--samples", "100", "--seed", "7"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["config"] == {"samples": 100, "seed": 7}


def test_classify_at_the_identity_takes_positivity_from_cp_past_the_decision_tolerance(tmp_path, capsys):
    # core minimum -1.0e-5, past the one tolerance: not CP, hence not positive
    path = write_json(tmp_path, "map.json", {"n": 3, "sigma": "id:3", "a": 2.49999, "c": [0.5, 0.5, 0.5]})
    fields = ("positive", "two_positive", "completely_positive", "atomic", "decomposable")
    rc, out, err = run_cli(capsys, "classify", "--map", path, "--samples", "0")
    assert (rc, err) == (0, "")
    result = json.loads(out)["result"]
    assert [result[f]["status"] for f in fields] == ["no", "no", "no", "unknown", "unknown"]
    assert result["positive"]["criterion"] == "entrywise-multiplier matrix PSD test (sigma = id)"
    assert result["positive"]["evidence"]["schur_min_eigenvalue"] == pytest.approx(-1.0e-5, rel=1e-6)


@pytest.mark.parametrize(
    "obj, tol",
    [
        # a below the 4-cycle's exact threshold 3.99 (positivity no); the
        # Choi minimum a - n = -0.5 passed --tol 0.6 (CP yes)
        ({"n": 4, "sigma": "tau:4:1", "a": 3.5, "c": [0.01] * 4}, ["--tol", "0.6", "--samples", "0"]),
        # n = 1: the single-cycle rule says no, the core minimum -1e-4 passed 1e-3
        ({"n": 1, "sigma": "id:1", "a": 0.5, "c": [0.4999]}, ["--tol", "1e-3"]),
    ],
)
def test_classify_refuses_tol_with_exit_2_and_decides_without_it(tmp_path, capsys, obj, tol):
    # classify takes no tolerance: argparse refuses --tol with exit 2
    path = write_json(tmp_path, "map.json", obj)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--map", path, *tol])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"error: unrecognized arguments: {' '.join(tol[:2])}" in captured.err and "Traceback" not in captured.err
    # at the one tolerance the verdicts are the exact ones
    rc, out, err = run_cli(capsys, "classify", "--map", path, *tol[2:])
    assert (rc, err) == (0, "")
    result = json.loads(out)["result"]
    assert [result[f]["status"] for f in ("positive", "two_positive", "completely_positive")] == ["no"] * 3


def test_spectrum(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, _ = run_cli(capsys, "spectrum", "--map", path)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["transposed_composition"] is False
    assert_allclose(result["eigenvalues"], [-1, 0, 0, 0, 1, 1, 1, 2, 2], atol=1e-8)
    assert result["residual"] <= 1e-10
    assert result["trace"] == pytest.approx(6.0)


def test_spectrum_transposed(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, _ = run_cli(capsys, "spectrum", "--map", path, "--compose-transpose")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["transposed_composition"] is True
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    expect = sorted([1.0 - golden] * 3 + [1.0] * 3 + [golden] * 3)
    assert_allclose(result["eigenvalues"], expect, atol=1e-8)


MAPS = sorted((Path(__file__).resolve().parents[1] / "bench" / "maps").glob("*.json"))


@pytest.mark.parametrize("path", MAPS, ids=lambda p: p.stem)
def test_every_report_reads_one_choi_trace(capsys, path):
    # spectrum's trace is spa's trace_choi and witness's is trace_choi / n, bit for bit
    results = {}
    for argv in (["spa"], ["spectrum"], ["spectrum", "--compose-transpose"], ["witness"]):
        rc, out, _ = run_cli(capsys, argv[0], "--map", str(path), *argv[1:])
        assert rc == 0
        results[" ".join(argv)] = json.loads(out)["result"]["trace" if argv != ["spa"] else "trace_choi"]
    trace, n = results.pop("spa"), json.loads(path.read_text())["n"]
    assert results == {"spectrum": trace, "spectrum --compose-transpose": trace, "witness": trace / n}


def test_flagship_witness_trace_is_exactly_two(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "witness", "--map", write_json(tmp_path, "map.json", FLAGSHIP))
    assert rc == 0
    assert json.loads(out)["result"]["trace"] == 2.0


def test_decompose_involution(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", INVOLUTION)
    rc, out, _ = run_cli(capsys, "decompose", "--map", path)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["pairs"] == [[1, 3], [2, 4]]
    assert result["reconstruction_residual"] <= 1e-10
    assert result["p_min_eigenvalue"] >= -1e-9
    p_matrix = matrix_from_json(result["P"])
    assert p_matrix.shape == (16, 16)
    for entry in result["q_blocks"]:
        assert entry["pt_min_eigenvalue"] >= -1e-9
        assert matrix_from_json(entry["matrix"]).shape == (16, 16)


def test_decompose_rejects_non_involution(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, _, err = run_cli(capsys, "decompose", "--map", path)
    assert rc == 2
    assert "involution" in err


def test_spa(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, _ = run_cli(capsys, "spa", "--map", path)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["lambda_star"] == pytest.approx(0.4, abs=1e-12)
    assert result["w_minus_norm"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert result["trace_choi"] == pytest.approx(6.0)
    assert result["positivity_warning"] is False
    spa = matrix_from_json(result["matrix"])
    assert np.trace(spa).real == pytest.approx(1.0, abs=1e-12)


def test_spa_decompose(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, _ = run_cli(capsys, "spa", "--map", path, "--decompose")
    assert rc == 0
    dec = json.loads(out)["result"]["decomposition"]
    assert dec["normalization"] == pytest.approx(1.0 / 15.0, abs=1e-12)
    assert dec["residual"] <= 1e-10
    kinds = [t["kind"] for t in dec["terms"]]
    assert kinds.count("pair") == 3 and kinds.count("diagonal") == 3
    for term in dec["terms"]:
        assert term["weight"] > 0.0
        assert matrix_from_json(term["matrix"]).shape == (9, 9)


@pytest.mark.parametrize("flags", [(), ("--decompose",)])
def test_spa_decides_the_spa_state_once(tmp_path, capsys, monkeypatch, flags):
    calls, real = [], spa_module.spa_state

    def counting(p):
        calls.append(p)
        return real(p)

    # the CLI's own reference and the one separable_decomposition calls
    monkeypatch.setattr(cli, "spa_state", counting)
    monkeypatch.setattr(spa_module, "spa_state", counting)
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, _ = run_cli(capsys, "spa", "--map", path, *flags)
    assert rc == 0 and len(calls) == 1
    assert ("decomposition" in json.loads(out)["result"]) == bool(flags)


def test_each_fact_of_a_map_is_computed_once(tmp_path, capsys, monkeypatch):
    # every map here is fresh (a new file or a new sigma), so nothing is kept before the call
    transposed = count_computations(monkeypatch, ChoiStructure, "_transposed_min")
    plain = count_computations(monkeypatch, ChoiStructure, "_choi_min")
    l_min = count_computations(monkeypatch, CycleDecomposition, "l_min")
    # the witness reports the Choi(T.Theta) minimum, and its certificate decides PSD from it
    rc, _, _ = run_cli(capsys, "witness", "--map", write_json(tmp_path, "w.json", FLAGSHIP), "--certify")
    assert rc == 0 and len(transposed) == 1
    # lambda_star, w_minus_norm, the matrix and the positivity warning all read ||C^-||
    mixed = {"n": 5, "sigma": "images:2,3,1,4,5", "a": 2.5, "c": [1.0, 2.0, 0.5, 1.5, 1.0]}
    plain.clear()
    rc, _, _ = run_cli(capsys, "spa", "--map", write_json(tmp_path, "s.json", mixed))
    assert rc == 0 and len(plain) == 1
    # complete positivity, 2-positivity and atomicity each read the shortest cycle
    l_min.clear()
    classify_map(MapParams(5, Permutation((2, 3, 1, 4, 5)), 2.5, (1.0, 2.0, 0.5, 1.5, 1.0)), samples=0)
    assert len(l_min) == 1


def test_spa_decompose_needs_no_positivity(tmp_path, capsys):
    # tau(4, 1) at a = n - 1 with c = 0.5 is not positive (a < n - geomean(c)),
    # and its SPA is still separable
    spec = {"n": 4, "sigma": "tau:4:1", "a": 3.0, "c": [0.5, 0.5, 0.5, 0.5]}
    rc, out, err = run_cli(capsys, "spa", "--map", write_json(tmp_path, "map.json", spec), "--decompose")
    assert rc == 0, err
    result = json.loads(out)["result"]
    assert result["positivity_warning"] is True
    assert result["decomposition"]["residual"] <= 1e-10
    assert len(result["decomposition"]["terms"]) == 6 + 4


def test_spa_decompose_past_the_entry_bound_exits_two_before_building_a_term(tmp_path, capsys, monkeypatch):
    # n = 32: (1 + 528) dense 1024 x 1024 matrices, 554,696,704 entries
    calls = []

    def refuse(p):
        calls.append(p)
        raise AssertionError("separable_decomposition ran")

    monkeypatch.setattr(cli, "separable_decomposition", refuse)
    spec = {"n": 32, "sigma": "tau:32:1", "a": 31.0, "c": [1.0] * 32}
    rc, out, err = run_cli(capsys, "spa", "--map", write_json(tmp_path, "map.json", spec), "--decompose")
    assert (rc, out, calls) == (2, "", [])
    assert err == "error: n = 32 is too large for spa --decompose: 554,696,704 entries (limit 8,388,608)\n"


@pytest.mark.parametrize("limit, rc", [(151_552, 0), (151_551, 2)])
def test_spa_decompose_entry_bound_at_its_edge(tmp_path, capsys, monkeypatch, limit, rc):
    # n = 8: the SPA matrix and 36 terms, each 64 x 64, are 37 * 4096 = 151,552 entries
    monkeypatch.setattr(cli, "MAX_ENTRIES", limit)
    spec = {"n": 8, "sigma": "tau:8:1", "a": 7.0, "c": [1.0] * 8}
    dest = tmp_path / "report.json"
    got, out, err = run_cli(capsys, "spa", "--map", write_json(tmp_path, "map.json", spec), "--decompose", "--out", str(dest))
    assert (got, out) == (rc, "")
    assert err == ("" if rc == 0 else f"error: n = 8 is too large for spa --decompose: 151,552 entries (limit {limit:,})\n")
    assert dest.exists() == (rc == 0)


def test_spa_decompose_requires_a_boundary(tmp_path, capsys):
    bad = dict(FLAGSHIP, a=1.9)
    path = write_json(tmp_path, "map.json", bad)
    rc, _, err = run_cli(capsys, "spa", "--map", path, "--decompose")
    assert rc == 2
    assert "a = n - 1" in err


def test_witness_certify_and_state(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    state = write_json(tmp_path, "state.json", matrix_to_json(maximally_entangled_state(3)))
    rc, out, _ = run_cli(capsys, "witness", "--map", path, "--certify", "--state", state)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["trace"] == pytest.approx(2.0)
    assert result["min_eigenvalue"] == pytest.approx((1.0 - math.sqrt(5.0)) / 6.0, abs=1e-10)
    assert result["state_expectation"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    cert = result["certificate"]
    assert cert["optimal"] is True
    assert cert["span_rank"] == 9
    assert cert["theorem_applies"] is True
    assert cert["warnings"] == []
    # one expectation per generator: 1 + 2n + n(n-1)/2 = 10 phase rows and 3 basis pairs
    assert list(cert) == ["span_rank", "optimal", "theorem_applies", "note", "warnings", "expectations"]
    assert len(cert["expectations"]) == 13


CERTIFY_MAPS = [
    # (n, images): fixed points, 2-cycles and longer cycles side by side
    (2, (1, 2)),
    (2, (2, 1)),
    (3, (1, 3, 2)),
    (4, (2, 1, 3, 4)),
    (4, (1, 3, 4, 2)),
    (5, (2, 1, 4, 5, 3)),
    (5, (1, 2, 4, 5, 3)),
    (6, (2, 1, 3, 5, 6, 4)),
    (6, (1, 2, 3, 4, 6, 5)),
    (6, (3, 4, 5, 6, 1, 2)),
]


@pytest.mark.parametrize("n, images", CERTIFY_MAPS)
def test_certificate_expectations_are_the_dense_ones_in_the_stated_order(tmp_path, capsys, n, images):
    # the report's expectations against <zeta|W|zeta> of the dense witness, for
    # zeta the phase vectors of the phase table and then the basis pairs, in order
    rng = np.random.default_rng(n * 100 + sum(images))
    c = [float(x) for x in rng.uniform(0.2, 2.0, size=n)]
    for a in ((n * n - sum(c)) / n, float(rng.uniform(0.5, n + 1.0))):  # the phase vectors pass, then not
        spec = {"n": n, "sigma": "images:" + ",".join(map(str, images)), "a": a, "c": c}
        rc, out, err = run_cli(capsys, "witness", "--map", write_json(tmp_path, "map.json", spec), "--certify")
        assert rc == 0, err
        got = np.array(json.loads(out)["result"]["certificate"]["expectations"])
        params = parse_map_json(spec)
        w = witness(params)
        want = np.array([np.vdot(z, w @ z).real for z in generator_vectors(params)])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(w)))


def test_witness_certify_calls_a_non_witness_unproven(tmp_path, capsys):
    # a fixed point and a 3-cycle with n a + sum(c) = n^2: the vectors span,
    # but positivity is undecided and the map is in fact not positive
    spec = {"n": 4, "sigma": "images:1,3,4,2", "a": 3.125, "c": [0.5, 1, 1, 1]}
    rc, out, _ = run_cli(capsys, "witness", "--map", write_json(tmp_path, "map.json", spec), "--certify")
    assert rc == 0
    cert = json.loads(out)["result"]["certificate"]
    assert cert["span_rank"] == 16
    assert cert["optimal"] is False
    assert cert["note"] == "not certified: positivity undecided"
    assert cert["warnings"] == ["the positivity of the underlying map is undecided, so this matrix may not be a witness"]


def test_witness_state_must_be_hermitian(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    bad = matrix_to_json(maximally_entangled_state(3))
    bad["entries"][1] = [5.0, 0.0]
    state = write_json(tmp_path, "state.json", bad)
    rc, _, err = run_cli(capsys, "witness", "--map", path, "--state", state)
    assert rc == 2
    assert "Hermitian" in err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_witness_state_with_a_non_finite_entry_exits_one(tmp_path, capsys, bad):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    state = tmp_path / "state.json"
    text = json.dumps(matrix_to_json(maximally_entangled_state(3)))
    state.write_text(text.replace("[0.0, 0.0]", f"[{bad}, 0.0]", 1))
    rc, out, err = run_cli(capsys, "witness", "--map", path, "--state", str(state))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: matrix entry 1 must hold finite numbers")


HUGE = {"n": 3, "sigma": "tau:3:1", "a": 1e308, "c": [1e308] * 3}
TINY = {"n": 3, "sigma": "tau:3:1", "a": 1e-308, "c": [1e-308] * 3}
HUGE_FIXED_POINT = {"n": 3, "sigma": "images:2,1,3", "a": 1e308, "c": [1, 1, 1e308]}


@pytest.mark.parametrize(
    "m, sub",
    [(HUGE, "spa"), (HUGE, "witness"), (HUGE, "spectrum"), (TINY, "classify"), (HUGE_FIXED_POINT, "decompose")],
)
def test_non_finite_result_exits_two(tmp_path, capsys, m, sub):
    # Tr C (and with it the SPA trace, the witness trace and the spectrum
    # residual) overflows at 1e308; S(xi) = sum |x_i|^2 / den_i overflows at 1e-308;
    # so does a + c at a fixed point, an entry of the split's P
    path = write_json(tmp_path, "map.json", m)
    rc, out, err = run_cli(capsys, sub, "--map", path)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: the report holds a non-finite number")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.update(sigma="cycle:3"),
        lambda m: m.update(a=0.0),
        lambda m: m.update(a="two"),
        lambda m: m.update(c=[1.0, 1.0]),
        lambda m: m.update(c=[1.0, 1.0, "x"]),
        lambda m: m.update(n=3.5),
        lambda m: m.pop("sigma"),
    ],
)
def test_malformed_map_exits_one(tmp_path, capsys, mutate):
    m = dict(FLAGSHIP)
    mutate(m)
    path = write_json(tmp_path, "map.json", m)
    rc, _, err = run_cli(capsys, "classify", "--map", path)
    assert rc == 1
    assert "error" in err


@pytest.mark.parametrize(
    "mutate, what",
    [
        pytest.param(lambda m: m.update(a=10**400), "a", id="a"),
        pytest.param(lambda m: m.update(c=[1.0, -(10**400), 1.0]), "c[2]", id="c"),
    ],
)
def test_map_integer_past_the_float_range_exits_one(tmp_path, capsys, mutate, what):
    # json.loads reads 1 followed by 400 zeros as an int, which float() refuses
    m = dict(FLAGSHIP)
    mutate(m)
    path = write_json(tmp_path, "map.json", m)
    rc, out, err = run_cli(capsys, "classify", "--map", path)
    assert rc == 1
    assert out == ""
    assert err == f"error: {what} is an integer outside the float range\n"


def test_a_5000_digit_integer_in_the_map_file_exits_one(tmp_path, capsys):
    # json.loads refuses an integer past Python's 4300-digit limit with a
    # ValueError that is no JSONDecodeError
    path = tmp_path / "map.json"
    path.write_text('{"n": 3, "sigma": "tau:3:1", "a": 2.0, "c": [1, 1, ' + "1" * 5000 + "]}")
    rc, out, err = run_cli(capsys, "classify", "--map", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 1000


@pytest.mark.parametrize("flag", ["--map", "--state"])
def test_a_deeply_nested_json_file_exits_one(tmp_path, capsys, flag):
    # json.loads runs out of recursion depth on 100,000 "[" and raises RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    map_path = str(deep) if flag == "--map" else write_json(tmp_path, "map.json", FLAGSHIP)
    extra = ["--state", str(deep)] if flag == "--state" else []
    rc, out, err = run_cli(capsys, "witness", "--map", map_path, *extra)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {flag[2:]} file '{deep}' is not valid JSON: ")
    assert err.count("\n") == 1 and len(err.encode()) < 1000


@pytest.mark.parametrize("flag", ["--map", "--state"])
def test_a_file_that_is_not_utf8_exits_one(tmp_path, capsys, flag):
    # the flagship saved in Latin-1: "café" ends in the byte 0xE9, which no UTF-8 text holds
    latin = tmp_path / "latin1.json"
    latin.write_bytes(json.dumps({**FLAGSHIP, "note": "café"}, ensure_ascii=False).encode("latin-1"))
    args = ["classify", "--map", str(latin), "--samples", "0"]
    if flag == "--state":
        args = ["witness", "--map", write_json(tmp_path, "map.json", FLAGSHIP), "--state", str(latin)]
    rc, out, err = run_cli(capsys, *args)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {flag[2:]} file '{latin}' is not valid JSON: 'utf-8' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_map_files_are_read_as_utf8(tmp_path, capsys):
    # the same map in UTF-8 is read, and with a leading byte-order mark it is no JSON
    utf8 = tmp_path / "utf8.json"
    utf8.write_bytes(json.dumps({**FLAGSHIP, "note": "café"}, ensure_ascii=False).encode("utf-8"))
    rc, out, _ = run_cli(capsys, "classify", "--map", str(utf8), "--samples", "0")
    assert rc == 0 and json.loads(out)["map"]["note"] == "café"
    utf8.write_bytes(b"\xef\xbb\xbf" + utf8.read_bytes())
    rc, out, err = run_cli(capsys, "classify", "--map", str(utf8), "--samples", "0")
    assert rc == 1 and out == ""
    assert err.startswith(f"error: map file '{utf8}' is not valid JSON: Unexpected UTF-8 BOM")


def test_a_repeated_image_at_n_100000_is_a_short_error(tmp_path, capsys):
    # the message names the repeated and the missing image, not the 10^5 images
    n = 100_000
    images = list(range(1, n + 1))
    images[n // 2] = 7
    spec = {"n": n, "sigma": "images:" + ",".join(map(str, images)), "a": n - 1.0, "c": [1.0] * n}
    rc, out, err = run_cli(capsys, "classify", "--map", write_json(tmp_path, "map.json", spec))
    assert rc == 1 and out == ""
    assert err == f"error: images are not a bijection of {{1, ..., {n}}}: 7 is the image of both 7 and {n // 2 + 1}, and {n // 2 + 1} is missing\n"
    assert len(err.encode()) < 1000


@pytest.mark.parametrize("seed", [str(-1), str(2**128)])
def test_seed_outside_the_philox_key_range_exits_one(tmp_path, capsys, seed):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, err = run_cli(capsys, "classify", "--map", path, "--seed", seed)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --seed must satisfy 0 <= seed < 2**128")


def test_negative_samples_exits_one(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    rc, out, err = run_cli(capsys, "classify", "--map", path, "--samples", "-5")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --samples must be >= 0")


@pytest.mark.parametrize(
    "m",
    [
        {"n": 1, "sigma": "id:1", "a": 0.5, "c": [0.5]},
        {"n": 2, "sigma": "tau:2:1", "a": 0.05, "c": [0.05, 0.05]},
    ],
)
def test_spa_non_positive_trace_exits_two(tmp_path, capsys, m):
    path = write_json(tmp_path, "map.json", m)
    rc, out, err = run_cli(capsys, "spa", "--map", path)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "Tr C" in err and "Traceback" not in err
    # with --decompose the trace is checked before the decomposition's own preconditions
    assert run_cli(capsys, "spa", "--map", path, "--decompose") == (rc, out, err)


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("a", True, "a must be a number (got True)", id="a"),
        pytest.param("c", [1.0, True, 1.0], "c[2] must be a number (got True)", id="c"),
    ],
)
def test_bool_weights_exit_one_as_the_library_rejects_them(tmp_path, capsys, field, value, message):
    m = dict(FLAGSHIP, **{field: value})
    rc, out, err = run_cli(capsys, "classify", "--map", write_json(tmp_path, "map.json", m))
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    # the CLI reports the library's own message
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        MapParams(3, parse_permutation(m["sigma"], 3), m["a"], m["c"])


def test_unreadable_and_unparsable_files(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "classify", "--map", str(tmp_path / "missing.json"))
    assert rc == 1
    assert "error" in err

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, "classify", "--map", str(path))
    assert rc == 1


def test_zero_weights_route(tmp_path, capsys):
    ok = {"n": 3, "sigma": "id:3", "a": 3.0, "c": [0.0, 0.0, 0.0]}
    path = write_json(tmp_path, "map.json", ok)
    rc, out, _ = run_cli(capsys, "classify", "--map", path)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["completely_positive"]["status"] == "yes"
    assert result["atomic"]["status"] == "no"

    for bad in (
        {"n": 3, "sigma": "id:3", "a": 2.5, "c": [0.0, 0.0, 0.0]},
        {"n": 3, "sigma": "tau:3:1", "a": 3.0, "c": [0.0, 0.0, 0.0]},
        {"n": 3, "sigma": "id:3", "a": 3.0, "c": [0.0, 1.0, 0.0]},
        {"n": 1, "sigma": "id:1", "a": 1.0, "c": [0.0]},
    ):
        path = write_json(tmp_path, "bad.json", bad)
        rc, _, err = run_cli(capsys, "classify", "--map", path)
        assert rc == 1
        assert "error" in err


def test_output_is_deterministic_modulo_timestamp(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)

    def digest():
        rc, out, _ = run_cli(capsys, "classify", "--map", path, "--seed", "3")
        assert rc == 0
        lines = [l for l in out.splitlines() if '"timestamp"' not in l]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert digest() == digest()


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    dest = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "spectrum", "--map", path, "--out", str(dest))
    assert rc == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["subcommand"] == "spectrum"


def test_one_parser_serves_every_call_and_no_option_leaks(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    state = write_json(tmp_path, "state.json", matrix_to_json(maximally_entangled_state(3)))
    tuned = ["--samples", "7", "--seed", "5"]
    stamp = re.compile(r'"timestamp": "[^"]*"')
    parser = cli._parser()
    parsed = []

    def recording(*args, **kwargs):
        namespace = parse_args(*args, **kwargs)
        parsed.append(dict(vars(namespace)))
        return namespace

    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", recording)
    reports = {}
    calls = (
        ["spa", "--map", path],
        ["classify", "--map", path],
        ["spa", "--map", path, "--decompose", "--seed", "5"],
        ["classify", "--map", path, *tuned],
        ["spa", "--map", path],
        ["witness", "--map", path],
        ["witness", "--map", path, "--certify", "--state", state, "--seed", "5"],
        ["witness", "--map", path],
        ["classify", "--map", path],
        ["spa", "--map", path],
    )
    for argv in calls:
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        reports.setdefault(" ".join(argv), []).append(stamp.sub('"timestamp": ""', out))
    assert cli._parser() is parser
    # each call sees what a parser built for it alone would give
    assert parsed == [vars(cli.build_parser().parse_args(argv)) for argv in calls]
    for argv, outs in reports.items():
        report = json.loads(outs[0])
        if argv.startswith("classify"):  # only classify reads, and echoes, --samples and --seed
            assert report["config"] == ({"samples": 7, "seed": 5} if "--samples" in argv else {"samples": 2000, "seed": 0})
        else:
            assert "config" not in report
        assert ("decomposition" in report["result"]) == ("--decompose" in argv)
        assert ("certificate" in report["result"]) == ("--certify" in argv)
        assert ("state_expectation" in report["result"]) == ("--state" in argv)
        assert outs == [outs[0]] * len(outs)  # before and after a call with flags


@pytest.mark.parametrize("option", [["--samples", "5"], ["--tol", "1e-3"]])
@pytest.mark.parametrize("sub", ["spectrum", "decompose", "spa", "witness"])
def test_only_classify_takes_samples_and_tol(tmp_path, capsys, sub, option):
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    with pytest.raises(SystemExit) as exc:
        main([sub, "--map", path, *option])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(option)}" in captured.err


@pytest.mark.parametrize("sub", ["spectrum", "spa", "witness"])
def test_other_subcommands_accept_any_seed_and_ignore_it(tmp_path, capsys, sub):
    # only classify checks --seed, as only its sampler reads it
    path = write_json(tmp_path, "map.json", FLAGSHIP)
    stamp = re.compile(r'"timestamp": "[^"]*"')
    outs = []
    for seed in ([], ["--seed", "-1"], ["--seed", str(2**128)]):
        rc, out, err = run_cli(capsys, sub, "--map", path, *seed)
        assert (rc, err) == (0, "")
        outs.append(stamp.sub("", out))
    assert outs == [outs[0]] * 3


def test_importing_the_cli_builds_no_parser():
    code = "import cyclemaps.cli as cli; print(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cyclemaps.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
