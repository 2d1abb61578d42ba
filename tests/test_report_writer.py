"""The CLI's report writer against ``json.dumps(obj, indent=2, allow_nan=False,
default=np.ndarray.tolist)``, and the vectorised ``matrix_from_json`` against
the per-entry parse."""
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclemaps import certify_optimality, matrix_from_json, matrix_to_json
from cyclemaps import cli
from cyclemaps.cli import _report_text, main, parse_map_json

MAPS = sorted((Path(__file__).resolve().parents[1] / "bench" / "maps").glob("*.json"))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=np.ndarray.tolist)


def text(obj) -> str:
    return "".join(_report_text(obj))


numbers = st.one_of(
    st.integers(),
    st.sampled_from([0, -1, 10**400, -(2**64), 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
# strings that look like the encoded text of a number array
strings = st.text(st.sampled_from('[], "\\{}:0-.eé☃\n') | st.characters(), max_size=8)
scalars = numbers | st.booleans() | st.none() | strings
number_arrays = st.one_of(
    st.lists(numbers, max_size=6),
    st.lists(numbers, max_size=4).map(tuple),
    st.lists(st.lists(numbers, max_size=3), max_size=4),
    st.lists(st.lists(st.lists(numbers, max_size=2), max_size=2), max_size=3),
    st.lists(st.lists(numbers, max_size=3) | numbers, max_size=4),  # ragged and mixed
)
trees = st.recursive(
    scalars | number_arrays,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(strings, kids, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_writer_matches_json_dumps(obj):
    assert text(obj) == dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[]],
        [[], []],
        [[1.0], []],
        [[1.0], 2.0],
        [[1.0], 2.0, [3.0]],
        [[[1.0]], 2.0, [3.0]],
        [[1.0, [2.0]]],
        [1.0, "x"],
        [[1.0, 2.0], {"k": [3.0]}],
        [1.0, {}],
        ["[1.0, 2.0]", "], ["],
        [1.0, "a, b"],
        [[1.0, "x], [y"], [2.0]],
        [[1.0, {}], [{}]],
        [True, None, 1],
        {"a": {"b": [[1e308, -0.0, 5e-324]]}, "é": "☃"},
        {1: 2, 1.5: 3, True: 4, None: 5},
        [np.float64(1.5), [np.float64(2.0)]],
        10**400,
    ],
)
def test_writer_edge_cases(obj):
    assert text(obj) == dumps(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize(
    "place",
    [
        lambda v: v,
        lambda v: {"a": 1.0, "b": v},
        lambda v: [0.0, v, 1.0],
        lambda v: [[1.0, 0.0], [v, 0.0]],
        lambda v: {"entries": [[1.0, v]], "note": "x"},
    ],
)
def test_non_finite_numbers_raise_the_json_dumps_message(bad, place):
    obj = place(bad)
    with pytest.raises(ValueError) as want:
        dumps(obj)
    with pytest.raises(ValueError) as got:
        _report_text(obj)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(": " + repr(bad))


# float arrays as the report handlers hold them: vectors (k,), [re, im] pairs
# (k, 2) and rows of pairs (k, m, 2); filled with +0.0, so that zero runs
# fall at the start, the end, over the whole array and nowhere
array_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(allow_nan=False, allow_infinity=False),
)
array_shapes = st.one_of(
    st.tuples(st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(2)),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(2)),
)
float_arrays = array_shapes.flatmap(lambda shape: arrays(float, shape, elements=array_values, fill=st.just(0.0)))
array_trees = st.recursive(
    float_arrays,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from("abc"), kids, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(array_trees)
@example(np.zeros((5, 2)))
@example(np.array([[0.0, 0.0], [0.0, 0.0], [1.5, -0.0], [0.0, 0.0]]))
@example(np.array([[-0.0, 0.0], [0.0, 5e-324], [0.0, 0.0], [0.0, 0.0]]))
@example(np.array([[1e308, 2.0], [-5e-324, -0.0]]))
@example({"entries": np.array([[0.0, 0.0]]), "v": [np.array([7.0]), np.zeros(1)]})
@example([np.zeros((2, 3, 2)), {"x": np.array([0.0, 0.0, 3.0, 0.0, 0.0])}])
def test_float_arrays_match_json_dumps(obj):
    assert text(obj) == dumps(obj)


@settings(max_examples=200, deadline=None)
@given(float_arrays, st.data())
def test_a_non_finite_array_entry_raises_the_json_dumps_message(values, data):
    flat = values.reshape(-1)
    for _ in range(data.draw(st.integers(1, 3))):  # the first in row-major order is named
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    obj = {"before": np.ones(2), "values": [values], "after": np.array([math.nan])}
    with pytest.raises(ValueError) as want:
        dumps(obj)
    with pytest.raises(ValueError) as got:
        _report_text(obj)
    assert str(got.value) == str(want.value)
    first = flat[~np.isfinite(flat)][0]
    assert str(got.value).endswith(": " + repr(float(first)))


@pytest.mark.parametrize("run", [1, 2, 3, 255, 256, 257, 4095, 4097])
def test_zero_runs_of_every_length(run):
    # a run of numbers or of rows at the start, in the middle, at the end
    # and over the whole array, next to -0.0 and 5e-324, at two depths
    zeros = np.zeros(run)
    vector = np.concatenate([zeros, [1.5], zeros, [-0.0], zeros])
    rows = np.zeros((2 * run + 1, 2))
    rows[run] = (0.0, -0.0)
    wide = np.zeros((run + 1, 3))
    wide[0, 2] = 5e-324
    obj = {"vector": vector, "zeros": [zeros, np.zeros((run, 2))], "rows": rows, "deeper": {"rows": rows, "wide": wide}}
    chunks = _report_text(obj)
    assert "".join(chunks) == dumps(obj)
    # each run is a few references, one per set bit of its length, to blocks
    # that every run of the same entry text shares
    assert len(_report_text(np.zeros((run, 2)))) <= run.bit_length() + 3
    shared = _report_text([np.zeros((run, 2)), np.zeros((run, 2))])
    distinct = {id(chunk): chunk for chunk in shared}.values()
    assert sum(map(len, distinct)) <= sum(map(len, shared)) / 2 + 100


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 9))
def test_hundreds_of_arrays_of_widths_one_two_and_n(seed, n):
    # many small arrays of one entry shape share the zero blocks; mostly
    # zero, so that runs end and start at the arrays' edges
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, 5e-324, -1e308, 1.5, 0.1, -2.0])

    def array():
        k = int(rng.integers(1, 2 * n))
        shape = [(k,), (k, 2), (k, n)][rng.integers(3)]
        return np.where(rng.random(shape) < 0.7, 0.0, rng.choice(pool, shape))

    report = {
        "matrix": array(),
        "terms": [{"weight": 0.5, "matrix": array(), "left": [array(), {"right": array()}]} for _ in range(100)],
        "expectations": array(),
    }
    assert text(report) == dumps(report)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from([(), (4,), (3, 2), (2, 5)]), min_size=2, max_size=8))
def test_the_first_non_finite_number_in_document_order_is_named(seed, shapes):
    # scalars and arrays of several entry shapes, each non-finite or not;
    # the first non-finite number in document order is named
    rng = np.random.default_rng(seed)
    items = []
    for shape in shapes:
        values = np.where(rng.random(shape) < 0.5, 0.0, rng.standard_normal(shape))
        if rng.random() < 0.4:
            values[tuple(rng.integers(0, d) for d in shape)] = rng.choice([math.nan, math.inf, -math.inf])
        items.append(float(values) if not shape else values)
    cut = int(rng.integers(0, len(items) + 1))
    obj = {"first": items[:cut], "rest": {"items": items[cut:]}}
    try:
        want = dumps(obj)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _report_text(obj)
        assert str(got.value) == str(exc)
    else:
        assert text(obj) == want


def test_writer_memory_grows_with_the_nonzero_text(tmp_path, monkeypatch, capsys):
    # spa --decompose at n = 10: 41 MB of text, nearly all of it the zero
    # runs of 55 dense 100 x 100 term matrices; the writer holds the nonzero
    # text, the shared zero blocks and one array's nonzero numbers at a time
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n": 10, "sigma": "tau:10:1", "a": 9.0, "c": [1.0] * 10}))
    reports = []
    monkeypatch.setattr(cli, "_report_text", lambda obj, pad="": reports.append(obj) or [])
    assert main(["spa", "--map", str(path), "--decompose"]) == 0
    tracemalloc.start()
    try:
        chunks = _report_text(reports[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = sum(map(len, chunks))
    assert length > 40_000_000
    assert peak < 4_000_000


@pytest.mark.parametrize("sub", ["spa", "witness", "spectrum"])
def test_overflowing_report_keeps_its_error_line(tmp_path, capsys, sub):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n": 3, "sigma": "tau:3:1", "a": 1e308, "c": [1e308] * 3}))
    assert main([sub, "--map", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the report holds a non-finite number: "
        "Out of range float values are not JSON compliant: inf\n"
    )


COMMANDS = [
    ("classify",),
    ("classify", "--samples", "0"),
    ("spectrum",),
    ("spectrum", "--compose-transpose"),
    ("decompose",),
    ("spa",),
    ("spa", "--decompose"),
    ("witness",),
    ("witness", "--certify"),
    ("witness", "--state"),
    ("witness", "--certify", "--state"),
]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("map_path", MAPS, ids=lambda p: p.stem)
def test_every_report_is_what_json_dumps_writes(tmp_path, capsys, monkeypatch, map_path, command):
    spec = json.loads(map_path.read_text())
    argv = [command[0], "--map", str(map_path), *(f for f in command[1:] if f != "--state")]
    if "--state" in command:
        n = spec["n"]
        g = np.random.default_rng(n).standard_normal((n * n, 2 * n * n)).view(complex)
        rho = g @ g.conj().T
        state = tmp_path / "state.json"
        state.write_text(json.dumps(matrix_to_json(rho / np.trace(rho).real)))
        argv += ["--state", str(state)]
    reports = []
    writer = cli._report_text

    def spy(obj, pad=""):
        if not reports:
            reports.append(obj)
        return writer(obj, pad)

    monkeypatch.setattr(cli, "_report_text", spy)
    rc = main(argv)
    out, err = capsys.readouterr()
    params = parse_map_json(spec)
    # the main maps are no involutions; the invol maps have a fixed point or a != n - 1
    involution = map_path.stem.startswith("invol")
    fails = command == ("decompose",) and not involution or command == ("spa", "--decompose") and involution
    assert rc == (2 if fails else 0), err
    if fails:
        return
    assert out == dumps(reports[0]) + "\n"
    if "--certify" in command:
        # one expectation per generator, and no generator vectors: n and sigma fix them
        cert = json.loads(out)["result"]["certificate"]
        assert "generators" not in cert
        assert len(cert["expectations"]) == len(certify_optimality(params).generators)


def test_reports_skip_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    # json.dumps(indent=...) walks every number in Python on CPython < 3.13
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    path = next(p for p in MAPS if p.stem == "main_n3")
    assert main(["spa", "--map", str(path), "--decompose"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["decomposition"]["terms"]


def per_entry_parse(entries, rows, cols):
    return np.array([complex(re, im) for re, im in entries]).reshape(rows, cols)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_matrix_from_json_matches_the_per_entry_parse(rows, cols, data):
    value = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**1023), 2**1023)
    entries = data.draw(st.lists(st.lists(value, min_size=2, max_size=2), min_size=rows * cols, max_size=rows * cols))
    got = matrix_from_json({"rows": rows, "cols": cols, "entries": entries})
    assert got.dtype == np.complex128 and got.shape == (rows, cols)
    assert got.tobytes() == per_entry_parse(entries, rows, cols).tobytes()  # -0.0 kept


def test_matrix_from_json_accepts_numpy_scalars():
    entries = [[np.float64(0.5), -0.0], [2, np.float64(-1.5)]]  # np.float64 subclasses float
    got = matrix_from_json({"rows": 1, "cols": 2, "entries": entries})
    assert got.tobytes() == per_entry_parse(entries, 1, 2).tobytes()


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[1.0, 0.0], [True, 0.0], [math.nan, 0.0], [1.0]], "entry 1 must hold two real numbers"),
        ([[1.0, 0.0], [math.inf, 0.0], ["x", 0.0], [1.0]], "entry 1 must hold finite numbers"),
        ([[1.0, 0.0], [0.0, 10**400], [1.0], [0.0, 0.0]], "entry 1 must hold finite numbers"),
        ([[1.0, 0.0], (1.0, 0.0), [None, 0.0], [0.0, 0.0]], "entry 1 must be a [re, im] pair"),
        ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]], "entry 3 must be a [re, im] pair"),
    ],
)
def test_matrix_from_json_names_the_first_bad_entry(entries, message):
    with pytest.raises(Exception, match=message.replace("[", r"\[").replace("]", r"\]")) as info:
        matrix_from_json({"rows": 2, "cols": 2, "entries": entries})
    assert type(info.value).__name__ == "ParameterError"


def test_out_rewrites_a_longer_file_in_place(tmp_path, capsys):
    # the report overwrites the old bytes and cuts the rest, on the same inode
    path = str(next(p for p in MAPS if p.stem == "main_n3"))
    dest = tmp_path / "report.json"
    dest.write_text("x" * 100_000)
    inode = dest.stat().st_ino
    assert main(["spectrum", "--map", path, "--out", str(dest)]) == 0
    assert main(["spectrum", "--map", path]) == 0
    stamp = re.compile(r'"timestamp": "[^"]*"')
    assert stamp.sub("", dest.read_text()) == stamp.sub("", capsys.readouterr().out)
    assert dest.stat().st_ino == inode


def test_out_to_a_device_or_a_directory(tmp_path, capsys):
    path = str(next(p for p in MAPS if p.stem == "main_n3"))
    assert main(["spectrum", "--map", path, "--out", "/dev/null"]) == 0  # no truncate on a device
    assert main(["spectrum", "--map", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write output file '{tmp_path}'")
