import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    choi,
    choi_structure,
    classify_map,
    d_matrix,
    delta_apply,
    delta_n,
    identity,
    tau,
    theta_apply,
)
from cyclemaps.cli import main
from cyclemaps import dmap as dmap_module
from cyclemaps.dmap import pair_block_eigenvalues
from matrix_helpers import is_psd, matrix_unit
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
    with pytest.raises(ParameterError, match="positive integer"):
        MapParams(True, identity(1), 1.0, (1.0,))


@pytest.mark.parametrize(
    "a, c, name",
    [
        (True, (True, 2), "a"),
        (2.0, (1.0, True), "c\\[2\\]"),
        (np.True_, (1.0, 2.0), "a"),
        (2.0, (np.False_, 2.0), "c\\[1\\]"),
    ],
)
def test_params_reject_bool_a_and_c(a, c, name):
    # as the CLI rejects a bool 'a' or 'c' entry in a map file
    with pytest.raises(ParameterError, match=f"^{name} must be a number"):
        MapParams(2, tau(2, 1), a, c)


_JUNK = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.complex_numbers(),
    st.booleans(),
    st.lists(st.lists(st.integers(1, 3), max_size=2), max_size=3),
    st.dictionaries(st.integers(1, 3), st.floats(0.5, 2.0), max_size=3),
    st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024)),  # past the float range
)
_SCALARS = st.integers(-3, 3) | st.floats()  # a lone number where a sequence belongs


@given(
    st.one_of(
        st.tuples(st.sampled_from(["n", "a", "c entry", "image"]), _JUNK),
        st.tuples(st.sampled_from(["c", "images"]), _JUNK | _SCALARS),
        st.tuples(st.just("sigma"), _JUNK | _SCALARS | st.sampled_from(["tau:3:1", "id:3", "images:2,3,1"])),
    )
)
@example(("a", "2"))
@example(("a", b"2"))
@example(("c", "111"))
@example(("a", 1j))
@example(("a", None))
@example(("sigma", "tau:3:1"))
@example(("c", 2.0))
@example(("a", 10**400))
def test_junk_in_any_field_is_a_parameter_error(case):
    """Whatever replaces one field of a valid map, or of its permutation, the
    constructor raises ParameterError and nothing else."""
    field, junk = case
    fields = {"n": 3, "sigma": Permutation((2, 3, 1)), "a": 2.0, "c": (1.0, 1.0, 1.0)}
    with pytest.raises(ParameterError):
        if field == "images":
            Permutation(junk)
        elif field == "image":
            Permutation((2, junk, 1))
        elif field == "c entry":
            MapParams(**{**fields, "c": (1.0, junk, 1.0)})
        else:
            MapParams(**{**fields, field: junk})


_REALS = st.one_of(
    st.integers(1, 2**80),
    st.floats(min_value=5e-324, max_value=1e308),
    st.integers(1, 2**63 - 1).map(np.int64),
    st.integers(1, 2**64 - 1).map(np.uint64),
    st.floats(min_value=2.0**-149, max_value=2.0**127, width=32).map(np.float32),
    st.floats(min_value=5e-324, max_value=1e308).map(np.float64),
)


@given(_REALS, st.lists(_REALS, min_size=1, max_size=5))
def test_real_inputs_are_stored_as_their_python_floats(a, c):
    n = len(c)
    p = MapParams(n, identity(n), a, c)
    assert type(p.a) is float and p.a.hex() == float(a).hex()
    assert type(p.c) is tuple and all(type(ci) is float for ci in p.c)
    assert [ci.hex() for ci in p.c] == [float(ci).hex() for ci in c]
    twin = MapParams(n, identity(n), float(a), tuple(map(float, c)))
    thawed = pickle.loads(pickle.dumps(p))
    assert p == twin == thawed and hash(p) == hash(twin) == hash(thawed)


def test_kept_choi_structure_is_shared_and_read_only():
    p = MapParams(4, Permutation((2, 3, 1, 4)), 2.5, (1.0, 2.0, 0.5, 1.5))
    before = classify_map(p, samples=50)
    s = choi_structure(p)
    assert choi_structure(p) is s
    for array in (s.c, s.img):
        with pytest.raises(ValueError):
            array[0] = 2
        with pytest.raises(ValueError):
            array += 1
    assert classify_map(p, samples=50) == before
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p
        assert not choi_structure(twin).c.flags.writeable


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
    assert cm.shape == (9, 9)
    res = choi_structure(flagship).spectrum()
    assert res.residual <= 1e-10
    expect = [-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert_allclose(res.eigenvalues, expect, atol=1e-8)
    assert np.trace(cm).real == pytest.approx(6.0)


def test_choi_transposed_flagship_spectrum(flagship):
    cm = choi(flagship, compose_transpose=True)
    res = choi_structure(flagship).spectrum(compose_transpose=True)
    expect = sorted([1.0 - GOLDEN] * 3 + [1.0] * 3 + [GOLDEN] * 3)
    assert_allclose(res.eigenvalues, expect, atol=1e-8)
    # Transposing the blocks preserves the trace but not the spectrum here.
    assert np.trace(cm).real == pytest.approx(6.0)
    plain = choi_structure(flagship).spectrum().eigenvalues
    assert np.max(np.abs(plain - res.eigenvalues)) > 0.1


def test_choi_closed_form_spectrum_fixed_point_free():
    # With no fixed points the spectrum is {a - n, a (n-1 times), c entries, 0s}.
    p = MapParams(4, tau(4, 1), 3.2, (0.5, 1.5, 2.5, 0.7))
    w = choi_structure(p).spectrum().eigenvalues
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
        tr = np.trace(choi(p)).real
        assert tr == pytest.approx(n * (a - 1.0) + sum(c), rel=1e-12)


def test_delta_n_map():
    p = delta_n(3)
    assert p.n == 3
    assert p.sigma.is_identity()
    assert p.a == 3.0
    assert p.c == (0.0, 0.0, 0.0)
    x = random_hermitian(np.random.default_rng(4), 3)
    assert_allclose(theta_apply(p, x), 3.0 * np.diag(np.diagonal(x)) - x, atol=1e-12)
    res = choi_structure(p).spectrum()
    assert_allclose(res.eigenvalues, [0.0] * 7 + [3.0, 3.0], atol=1e-8)
    assert is_psd(choi(p))


def test_delta_n_validation():
    with pytest.raises(ParameterError, match="needs n >= 2"):
        delta_n(1)
    with pytest.raises(ParameterError):
        delta_n(2.0)
    # The constructor builds Delta_n itself, from any zero weights and a = n,
    # and refuses every other zero-weight map.
    for n in range(2, 6):
        assert delta_n(n) == MapParams(n, identity(n), float(n), (0.0,) * n)
    p = MapParams(3, identity(3), 3, [0, -0.0, np.float32(0)])
    assert p == delta_n(3) and p.a.hex() == "0x1.8000000000000p+1"
    assert [x.hex() for x in p.c] == ["0x0.0p+0"] * 3
    for args, message in [
        ((3, identity(3), 2.5, (0.0,) * 3), "zero weights describe the map n*diag(X) - X and require a = n (got a = 2.5)"),
        ((3, tau(3, 1), 3.0, (0.0,) * 3), "zero weights make sigma irrelevant; use sigma = 'id:n' for this map"),
        ((1, identity(1), 1.0, (0.0,)), "zero weights describe the map n*diag(X) - X, which needs n >= 2 (got n = 1)"),
        ((3, identity(3), 3.0, (0.0, 1.0, 0.0)), "c[1] must be positive and finite (got 0.0)"),
    ]:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            MapParams(*args)


def test_pair_block_eigenvalues_stay_finite_where_the_formula_overflows(tmp_path, capsys):
    # (c_1 - c_2)^2 and c_1 c_2 overflow a double; the roots 1e160 and 1e200 do not
    mpmath = pytest.importorskip("mpmath")
    lo, hi = pair_block_eigenvalues(np.array([1e160]), np.array([1e200]))
    with mpmath.workdps(50):
        exact = sorted(float(e) for e in mpmath.eigsy(mpmath.matrix([[1e160, -1.0], [-1.0, 1e200]]), eigvals_only=True))
    assert [lo[0], hi[0]] == pytest.approx(exact, rel=1e-15)
    p = MapParams(2, tau(2, 1), 1.0, (1e200, 1e160))
    assert choi_structure(p).min_eigenvalue(compose_transpose=True) == 0.0  # a - 1 on |11> and |22>

    spec = {"n": 2, "sigma": "tau:2:1", "a": 1, "c": [1e200, 1e160]}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    for sub in ("classify", "decompose", "witness"):
        assert main([sub, "--map", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
    assert result["min_eigenvalue"] == 0.0  # the witness's


def test_pair_block_eigenvalues_take_the_overflow_branch_only_past_the_overflow(monkeypatch):
    calls = []
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda *args: calls.append(args) or hypot(*args))
    pair_block_eigenvalues(np.array([1.0, 2.0, 0.5]), np.array([0.0, 3.0, 2.0]))
    assert calls == []
    lo, hi = pair_block_eigenvalues(np.array([1.0, 1e160]), np.array([0.0, 1e200]))
    assert len(calls) == 1 and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))


def test_the_witness_minimum_is_minus_one_once_some_pair_is_unrelated(monkeypatch):
    # diag(D) >= 0 and the swap's eigenvalues +-1 bound every eigenvalue of
    # Choi(T.Theta) below by -1, which the block of an unrelated pair attains;
    # from n = 4 on sigma relates at most n of the n(n-1)/2 pairs
    monkeypatch.setattr(dmap_module, "pair_block_eigenvalues", lambda x, y: pytest.fail("no block solve"))
    rng = np.random.default_rng(4)
    for n in range(4, 40):
        images = tuple(int(i) + 1 for i in rng.permutation(n))
        p = MapParams(n, Permutation(images), float(rng.uniform(0.1, 2 * n)), tuple(rng.uniform(0.01, 100.0, n).tolist()))
        assert choi_structure(p).min_eigenvalue(compose_transpose=True) == -1.0
        if n <= 8:
            assert np.linalg.eigvalsh(choi(p, compose_transpose=True))[0] == pytest.approx(-1.0, abs=1e-12)
    assert choi_structure(delta_n(4)).min_eigenvalue(compose_transpose=True) == -1.0
    monkeypatch.undo()
    # at n = 3 a 3-cycle relates all three pairs, and the blocks decide
    assert choi_structure(MapParams(3, tau(3, 1), 2.0, (1.0,) * 3)).min_eigenvalue(compose_transpose=True) > -1.0


def test_pair_block_eigenvalues_keep_the_formula_bits_where_it_is_finite():
    rng = np.random.default_rng(18)
    x, y = 10.0 ** rng.uniform(-300.0, 200.0, (2, 20000))
    with np.errstate(over="ignore", invalid="ignore"):
        hi = (x + y + np.sqrt((x - y) ** 2 + 4.0)) / 2.0
        lo = (x * y - 1.0) / hi
    finite = np.isfinite(lo) & np.isfinite(hi)
    assert 0 < finite.sum() < finite.size
    got_lo, got_hi = pair_block_eigenvalues(x, y)
    assert np.array_equal(got_lo[finite], lo[finite]) and np.array_equal(got_hi[finite], hi[finite])
    # past the overflow max(x, y) >= 1e154, where hi = max + 1/max and lo = min - 1/max to first order
    big, small = np.maximum(x, y)[~finite], np.minimum(x, y)[~finite]
    assert np.all(np.abs(got_hi[~finite] - big) <= 1e-15 * big)
    assert np.all(np.abs(got_lo[~finite] - (small - 1.0 / big)) <= 1e-15 * (small + 1.0 / big))
