import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cyclemaps import (
    MapParams,
    ParameterError,
    Permutation,
    PreconditionError,
    atomic_verdict,
    certify_optimality,
    choi,
    choi_structure,
    classify_map,
    cp_verdict,
    decompose_involution,
    delta_n,
    geometric_mean_c,
    identity,
    is_involution,
    min_eigenvalue,
    partial_transpose,
    positivity_verdict,
    separable_decomposition,
    spa_state,
    tau,
    two_positive_verdict,
    verify_positivity_numeric,
)
from cyclemaps import classify as classify_module
from cyclemaps import dmap as dmap_module
from cyclemaps import perm as perm_module
from cyclemaps.classify import _adversarial_amplitudes
from cyclemaps.dmap import _theta_min_eigenvalue
from cyclemaps.matlin import DECISION_TOL
from matrix_helpers import elementary_symmetric, is_psd, positivity_threshold, schur_matrix, symmetric_F


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


def theta_den(p: MapParams, w: np.ndarray) -> np.ndarray:
    """den = a w + c w_sigma for each row of weights w = |xi|^2."""
    perm = np.array([p.sigma(i) - 1 for i in range(1, p.n + 1)])
    return p.a * w + np.asarray(p.c)[None, :] * w[:, perm]


def theta_rows(p: MapParams, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit rows, their weights |xi|^2 and den = a w + c w_sigma."""
    # scaling by the largest modulus keeps the norm from underflowing; it divides
    # the real and imaginary parts apart, because numpy's complex division
    # overflows to inf + nan j on a subnormal divisor
    big = np.abs(zs).max(axis=1, keepdims=True)
    zs = zs.real / big + 1j * (zs.imag / big)
    zs = zs / np.linalg.norm(zs, axis=1, keepdims=True)
    amps = np.abs(zs) ** 2
    return zs, amps, theta_den(p, amps)


def theta_min(amps: np.ndarray, den: np.ndarray, order: str = "C") -> float:
    """The solver on copies of amps and den, which it overwrites where it
    deflates: C-ordered, or under order="F" the .T of a C-ordered block, as
    the sampler passes them."""
    return _theta_min_eigenvalue(np.array(amps, order=order), np.array(den, order=order))


def row_minima(amps: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The solver on each one-row slice: every row's own least eigenvalue."""
    return np.array([theta_min(amps[i : i + 1], den[i : i + 1]) for i in range(len(amps))])


def assert_root_matches_oracle(zs: np.ndarray, amps: np.ndarray, den: np.ndarray) -> None:
    got = row_minima(amps, den)
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
# a subnormal entry, which the row scaling once turned into nan
@example((MapParams(1, Permutation((1,)), 1.0, (1.0,)), np.array([[2.2250738585e-309 + 0j]])))
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
    got = row_minima(amps, den)
    assert got[0] == pytest.approx((p.a + 1.0) / 5 - 1.0, abs=1e-15)
    assert got[1] == 0.0  # the deflated den_i = 0 lies below d_min - mu = a + 0 - 1 = 1


@st.composite
def row_batches(draw):
    """A map from :func:`maps_and_rows` with a batch of unit rows: its own rows
    plus up to 300 Gaussian ones, with entries set to 0 (w_i = 0, and den_i = 0
    where w_sigma(i) = 0 too), to 1e-17 (w_i below eps^2) or to 1e-9.  In
    half the batches the map is sigma = id with a + c = n instead, where every
    row's least eigenvalue is 0 (Theta(xi xi*) maps 1 / conj(xi) to 0), so no
    row can be pruned."""
    p, rows = draw(maps_and_rows())
    n = p.n
    if draw(st.booleans()):
        a = n * draw(st.integers(1, 15)) / 16  # a and n - a are exact
        p = MapParams(n, identity(n), a, (n - a,) * n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(0, 300)), n)
    extra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    extra = np.where(rng.random(extra.shape) < 0.1, rng.choice([0.0, 1e-17, 1e-9], extra.shape), extra)
    extra = extra[np.abs(extra).max(axis=1) > 0]
    return p, np.concatenate([rows, extra])


@given(row_batches())
@settings(max_examples=300, deadline=None)
# one row; and rows with zeros, a weight below eps^2 and den_i = 0 at the fixed point 3
@example((MapParams(3, tau(3, 1), 1.5, (1.0,) * 3), np.array([[1.0, 2.0, 1j]])))
@example(
    (
        MapParams(3, Permutation((2, 1, 3)), 1.0, (2.0, 0.5, 1.0)),
        np.array([[1.0, 1.0, 0.0], [1.0, 1e-17, 0.0], [1.0, 2.0, 3.0], [0.0, 1.0, 1e-17]], dtype=complex),
    )
)
def test_pruned_minimum_is_bit_identical_to_the_least_row_minimum(args):
    p, rows = args
    _, amps, den = theta_rows(p, rows)
    want = row_minima(amps, den).min().hex()
    assert [theta_min(amps, den, order).hex() for order in "CF"] == [want, want]


@st.composite
def rows_at_the_screen_threshold(draw):
    """A batch whose first row has equal den_i, so that its value d - sum(w) is
    exact at once and sets ``best``, plus rows built to have their least
    eigenvalue within a few ulps of ``best`` or of the screen's threshold
    t = best + slack + eps |best|, or within ``slack`` of either: den = lam + e
    with sum_i w_i / e_i = 1 puts the least eigenvalue of diag(den) - xi xi* at
    lam, up to the rounding of den."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    unit = rng.uniform(0.05, 1.0, (1, n))
    amps, den = [unit / unit.sum()], [np.full((1, n), scale * rng.uniform(-2.0, 2.0))]
    best = theta_min(amps[0], den[0])
    for _ in range(draw(st.integers(1, 40))):
        w = rng.uniform(0.05, 1.0, n)
        w *= draw(st.sampled_from([1.0, 1e-3, 1e3])) / w.sum()
        slack = np.sqrt(np.finfo(float).eps) * w.sum()
        threshold = best + (slack + np.finfo(float).eps * abs(best))
        at = draw(st.sampled_from([best, threshold]))
        lam = at + draw(st.sampled_from([0.0, -1.0, -0.5, 0.25, 0.5, 0.999, 1.001, 2.0])) * slack
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            lam = np.nextafter(lam, np.copysign(np.inf, ulps))
        e = scale * rng.uniform(0.1, 10.0, n)
        e *= np.sum(w / e)
        amps.append(w[None, :])
        den.append(lam + e[None, :])
    return np.concatenate(amps), np.concatenate(den)


@given(rows_at_the_screen_threshold())
@settings(max_examples=200, deadline=None)
def test_screen_near_its_threshold_keeps_the_least_row_minimum(args):
    amps, den = args
    want = row_minima(amps, den).min().hex()
    assert [theta_min(amps, den, order).hex() for order in "CF"] == [want, want]


def test_first_bracket_step_runs_on_few_rows(monkeypatch):
    # the sampler's batch holds 2007 rows; the screen leaves only those whose
    # least eigenvalue can still be the batch's least for the first step
    rows, step = [], dmap_module._secular_step

    def counting(lo, *args):
        rows.append(lo.size)
        return step(lo, *args)

    monkeypatch.setattr(dmap_module, "_secular_step", counting)
    ev = verify_positivity_numeric(MapParams(6, tau(6, 1), 4.5, (1.5,) * 6), seed=0)
    assert ev.num_vectors == 2007
    assert 1 <= rows[0] <= 10


# A unit row (w = |xi|^2, den) from a random map at n = 36 with log-uniform
# a and c.  Rounding lets its final lo pass the hi of a step at which it was
# still live, by less than eps sum_i w_i, so that its value ends 3328 ulps
# below that step's d_min - hi.
ROUNDING_ROW_W = (
    "0x0.0p+0,0x1.7c279e2b4fc84p-4,0x1.1cf00a626b5e2p-3,0x1.96b0858bf18dap-6,0x1.4b6789847a92cp-62,"
    "0x1.81a49bc36a3cep-3,0x1.36d2b68a2e58fp-110,0x1.3639985d46564p-108,0x0.0p+0,0x1.8eaec85e5505fp-63,"
    "0x1.e9c397cc229abp-64,0x1.054d22cdbca14p-105,0x1.4c494f9dc4b3cp-110,0x1.1d716e4e2c026p-101,"
    "0x1.19937c341eee1p-5,0x1.173dbe5638176p-3,0x1.61cbbdca789f8p-102,0x1.ce11a79fda9f8p-13,0x0.0p+0,"
    "0x0.0p+0,0x0.0p+0,0x1.eb80615d58695p-108,0x1.f33b7cc5a1d23p-101,0x1.2c1775340de0cp-63,"
    "0x1.2484d31acd067p-3,0x1.b215015dabad4p-112,0x1.78e8395701bd7p-112,0x0.0p+0,0x1.269c353d76052p-104,"
    "0x0.0p+0,0x0.0p+0,0x0.0p+0,0x1.38c0ad969abcbp-63,0x1.cc235cd30cc32p-103,0x1.ede6852b0f7efp-3,"
    "0x0.0p+0"
)
ROUNDING_ROW_DEN = (
    "0x1.f255bb193a3b2p-105,0x1.0565e33a424f5p+0,0x1.8495a30e52ecfp+5,0x1.17a4c09bb10e8p-2,"
    "0x1.41fd0bbfba600p-51,0x1.092bf8ef7ba9dp+1,0x1.b9be826d8d91bp-107,0x1.db9b43e0e8e14p-84,"
    "0x1.62705baafecb3p-104,0x1.d4a4ef599ff4fp-8,0x1.50c430f82ceadp-60,0x1.0bde12bc78555p-90,"
    "0x1.c8f76bd110af1p-107,0x1.4ac849ca993ecp+2,0x1.833a91bb5fc45p-2,0x1.80048b2c338d4p+0,"
    "0x1.6f2be8347ce6cp-6,0x1.3db9153863b43p-9,0x1.e44dfb44500fcp-26,0x0.0p+0,0x1.84ebfa33261b4p-121,"
    "0x1.51f6080209f75p-104,0x1.5746e24bfa1b2p-97,0x1.da2e10ca67050p-17,0x1.9f4246b30f145p+0,"
    "0x1.50f1c087bde02p-57,0x1.032a369d81c48p-108,0x0.0p+0,0x1.686309c989166p+10,0x1.73cb0f2c9d8eap-57,"
    "0x0.0p+0,0x1.0a843809f3befp+4,0x1.ae1a74d5b4cd8p-60,0x1.1e089cc1fea06p-80,0x1.539c51d41b068p+1,"
    "0x1.100e2630bae92p-90"
)


def test_pruning_allows_for_rounding_between_steps():
    w = np.array([[float.fromhex(x) for x in ROUNDING_ROW_W.split(",")]])
    den = np.array([[float.fromhex(x) for x in ROUNDING_ROW_DEN.split(",")]])
    value = theta_min(w, den)
    # a second row that converges at once (one weight) to a value inside that
    # window: without an allowance the first row would be dropped for it
    other = np.zeros_like(w)
    other[0, 0] = float.fromhex("0x1.4fa2b43514e0cp-100")
    other_den = np.ones_like(den)
    other_den[0, 0] = float.fromhex("0x1.4484bfeebc2a0p-100")
    assert value < theta_min(other, other_den) < value * (1 - 2000 * np.finfo(float).eps)
    batch = theta_min(np.concatenate([w, other]), np.concatenate([den, other_den]))
    assert batch.hex() == value.hex()


def _spread_c(n):
    return tuple(round(0.5 + (0.37 * i) % 1.5, 2) for i in range(1, n + 1))


def _cycle_and_two_fixed_points(n):
    return Permutation(tuple(range(2, n - 1)) + (1, n - 1, n))


def sampler_rows(p: MapParams, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's weights rebuilt (w, den): ``samples`` rows of n Exp(1)
    draws from the Philox key, then the adversarial rows, each over its row sum."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = np.concatenate([rng.standard_exponential((samples, p.n)), _adversarial_amplitudes(p)])
    w = rows / rows.sum(axis=1, keepdims=True)
    return w, theta_den(p, w)


# (map, seed) -> float.hex of (max_s, min_theta_eig) at the default 2000
# samples, derived from the rows that sampler_rows rebuilds: max_s from S
# with numpy's own row sums, min_theta_eig from row_minima, which takes
# every row to convergence on its own.  The maps: a tau(n, 1) cycle, two
# 3-cycles, sigma = id at a + c = n, an involution, a positive map at its
# threshold (min_theta_eig exactly 0) and an 8-cycle with two fixed points.  The rows
# at n = 8, 9, 16, 17 and 129 (tau(n, 1), and an (n-2)-cycle with two fixed
# points) pin the eight-lane and tail branches of the sampler's row sums,
# and the reduction past 128 columns
SAMPLER_GOLDEN = [
    (MapParams(3, tau(3, 1), 1.5, (1.5,) * 3), 0, "0x1.5555551c112dbp+0", "-0x1.908f485537c10p-4"),
    (MapParams(6, tau(6, 2), 4.0, (0.5, 1.0, 2.0, 0.7, 1.3, 3.0)), 5, "0x1.284809dba328ap+0", "-0x1.f699a88e63808p-4"),
    (MapParams(6, identity(6), 5.0, (1.0,) * 6), 1, "0x1.0000000000001p+0", "-0x1.0000000000000p-52"),
    (
        MapParams(6, Permutation((2, 1, 4, 3, 6, 5)), 4.5, (1.2, 0.9, 2.0, 0.6, 1.0, 1.5)),
        2,
        "0x1.115ef3e395c36p+0",
        "-0x1.ea2df24e33e70p-5",
    ),
    (MapParams(10, tau(10, 1), 9.2, (0.8,) * 10), 4, "0x1.0000000000000p+0", "0x0.0p+0"),
    (
        MapParams(10, Permutation((2, 3, 4, 5, 6, 7, 8, 1, 9, 10)), 8.5, (0.6, 1.4, 0.9, 2.2, 1.1, 0.7, 1.8, 1.0, 0.5, 2.5)),
        3,
        "0x1.08d3dffacf4fbp+0",
        "-0x1.fb4aac56bb240p-6",
    ),
    (MapParams(8, tau(8, 1), 6.8, _spread_c(8)), 8, "0x1.0787877dd2b0cp+0", "-0x1.27d01a7dcc4a4p-30"),
    (MapParams(8, _cycle_and_two_fixed_points(8), 6.5, _spread_c(8)), 9, "0x1.04747ebe1b8b4p+0", "-0x1.0b583eb654600p-6"),
    (MapParams(9, tau(9, 1), 7.8, _spread_c(9)), 9, "0x1.069068fe99de4p+0", "-0x1.5677a00f7d630p-35"),
    (MapParams(9, _cycle_and_two_fixed_points(9), 7.5, _spread_c(9)), 10, "0x1.0697f66300364p+0", "-0x1.60e597fbc15e0p-6"),
    (MapParams(16, tau(16, 1), 14.8, _spread_c(16)), 16, "0x1.03759f1e637e8p+0", "-0x1.44b6900d9c98cp-69"),
    (MapParams(16, _cycle_and_two_fixed_points(16), 14.5, _spread_c(16)), 17, "0x1.050ee241fedf3p+0", "-0x1.3a98232e73bc0p-7"),
    (MapParams(17, tau(17, 1), 15.8, _spread_c(17)), 17, "0x1.033d91cece7d4p+0", "-0x1.5c3c719150e70p-74"),
    (MapParams(17, _cycle_and_two_fixed_points(17), 15.5, _spread_c(17)), 18, "0x1.05a300248f854p+0", "-0x1.6af07db195380p-7"),
    (MapParams(129, tau(129, 1), 127.8, _spread_c(129)), 129, "0x1.00640116d48f6p+0", "-0x1.4ca0cc729c000p-16"),
    (MapParams(129, _cycle_and_two_fixed_points(129), 127.5, _spread_c(129)), 130, "0x1.00f22dbb7d974p+0", "-0x1.d4649d4abd000p-10"),
]


@pytest.mark.parametrize(
    "p, seed, max_s, min_theta_eig",
    SAMPLER_GOLDEN,
    ids=["tau3", "tau6_2", "id6", "invol6", "tau10", "fixed10", *(f"{kind}{n}" for n in (8, 9, 16, 17, 129) for kind in ("tau", "fixed"))],
)
def test_sampler_evidence_keeps_its_recorded_bits(p, seed, max_s, min_theta_eig):
    # the pins hold for numpy's float kernels as built; an exp or power that
    # rounds differently would move the last bits of the adversarial rows
    ev = verify_positivity_numeric(p, seed=seed)
    assert (ev.max_s.hex(), ev.min_theta_eig.hex()) == (max_s, min_theta_eig)
    # the pins follow from the rebuilt rows; the batched solve on them is
    # the least row minimum (test_pruned_minimum_is_bit_identical_to_the_least_row_minimum)
    w, den = sampler_rows(p, 2000, seed)
    with np.errstate(invalid="ignore", divide="ignore"):  # a term with den_i = 0 counts 0
        s = np.where(den > 0, w / den, 0.0).sum(axis=1)
    assert (s.max().hex(), theta_min(w, den).hex()) == (max_s, min_theta_eig)
    assert np.array_equal(ev.worst_vector, np.sqrt(w[np.argmax(s)]))


@st.composite
def sampler_maps(draw):
    """A map with any sigma (fixed points included), c log-uniform over
    e^-30..e^30 and a over (0, 2n], with a sample count and a seed.  Cycles
    of length 5 and more, and c spread wide along a cycle, give adversarial
    rows with weights below eps^2."""
    n = draw(st.integers(1, 40))
    images = draw(st.permutations(range(1, n + 1)))
    c = [math.exp(draw(st.floats(-30.0, 30.0))) for _ in range(n)]
    a = draw(st.floats(0.05, 2.0 * n))
    return MapParams(n, Permutation(tuple(images)), a, tuple(c)), draw(st.integers(0, 300)), draw(st.integers(0, 2**64))


@given(sampler_maps())
@settings(max_examples=100, deadline=None)
@example((MapParams(4, tau(4, 1), 2.5, (1e-300, 1e-300, 1e300, 1e300)), 2000, 0))  # c spans the double range
@example((delta_n(5), 2000, 0))  # zero weights
@example((MapParams(40, tau(40, 1), 39.0, (1.0,) * 40), 300, 1))
def test_sampler_evidence_matches_the_row_major_pipeline(args):
    # the sampler sums over its transposed block and deflates it in place; its
    # evidence keeps every bit of the row-major pipeline rebuilt here: the
    # same draw in a C-ordered block, numpy's row sums and the solve on copies
    p, samples, seed = args
    ev = verify_positivity_numeric(p, samples=samples, seed=seed)
    w, den = sampler_rows(p, samples, seed)
    with np.errstate(invalid="ignore", divide="ignore"):  # a term with den_i = 0 counts 0
        s = np.where(den > 0, w / den, 0.0).sum(axis=1)
    worst = int(np.argmax(s))
    assert (ev.max_s.hex(), ev.min_theta_eig.hex(), ev.num_vectors) == (s[worst].hex(), theta_min(w, den).hex(), len(w))
    assert ev.worst_vector.tobytes() == np.sqrt(w[worst]).tobytes()


@pytest.mark.parametrize("n", [3, 8])
def test_sampled_rows_are_uniform_on_the_simplex(monkeypatch, n):
    # w = |xi|^2 of a uniform unit vector of C^n is uniform on the simplex,
    # so w_1 follows Beta(1, n - 1), whose CDF is 1 - (1 - x)^(n - 1)
    seen = []
    monkeypatch.setattr(classify_module, "_theta_min_eigenvalue", lambda amps, den: seen.append(amps) or 0.0)
    m = 2000
    verify_positivity_numeric(MapParams(n, tau(n, 1), n - 1.0, (1.0,) * n), samples=m, seed=23)
    w = seen[0][:m]
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 4 * np.finfo(float).eps)
    x = np.sort(w[:, 0])
    cdf = 1.0 - (1.0 - x) ** (n - 1)
    ks = max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m))
    # the Dvoretzky-Kiefer-Wolfowitz bound at alpha = 1e-6: 0.060 at m = 2000
    assert ks < math.sqrt(math.log(2 / 1e-6) / (2 * m))


def test_secular_root_past_the_iteration_cap_is_an_internal_failure(monkeypatch, flagship):
    monkeypatch.setattr(dmap_module, "_SECULAR_MAX_ITER", 0)
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        verify_positivity_numeric(flagship, samples=10, seed=0)


def test_secular_iteration_cap_binds_live_rows_only(monkeypatch, flagship):
    rng = np.random.default_rng(5)
    _, amps, den = theta_rows(flagship, rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3)))
    want = theta_min(amps, den)
    for cap in range(dmap_module._SECULAR_MAX_ITER + 1):
        monkeypatch.setattr(dmap_module, "_SECULAR_MAX_ITER", cap)
        try:
            got = theta_min(amps, den)
            break
        except RuntimeError:
            pass
    assert got == want
    # at the least cap the batch needs, some dropped row is still short of converging on its own
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        row_minima(amps, den)


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
    # the 2000 outer products alone would take 2000 n^2 16 B (2.1 GB at n = 256);
    # the sampler's working set is about 26 B per sample entry (13.5 MB at n = 256):
    # the block and den, one scratch block and two boolean masks in the solve.
    # The bound allows 3.5 MB more; one that holds the S terms through the
    # solve reads 17.6 MB, and the row-major block with its copies 25.3 MB
    assert peak < 17e6


def test_classify_map_rejects_negative_samples(flagship):
    with pytest.raises(ParameterError, match="samples"):
        classify_map(flagship, samples=-5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"samples": 2.5}, "samples must be an integer (got 2.5)"),
        ({"samples": 10.0}, "samples must be an integer (got 10.0)"),
        ({"samples": True}, "samples must be an integer (got True)"),
        ({"samples": np.True_}, "samples must be an integer (got np.True_)"),
        ({"samples": "10"}, "samples must be an integer (got '10')"),
        ({"seed": "3"}, "seed must be an integer (got '3')"),
        ({"seed": None}, "seed must be an integer (got None)"),
        ({"seed": 1.5}, "seed must be an integer (got 1.5)"),
        ({"seed": False}, "seed must be an integer (got False)"),
        ({"samples": 0, "seed": 1.5}, "seed must be an integer (got 1.5)"),
        ({"samples": 0, "seed": -1}, "seed must satisfy 0 <= seed < 2**128 (got -1)"),
        ({"samples": 0, "seed": "x"}, "seed must be an integer (got 'x')"),
        ({"samples": 0, "seed": 2**200}, f"seed must satisfy 0 <= seed < 2**128 (got {2**200})"),
        ({"samples": np.int64(-1)}, "samples must be >= 0 (got -1)"),
    ],
)
def test_samples_and_seed_that_are_not_integers_in_range_are_a_parameter_error(flagship, kwargs, message):
    # one validator for the library and the CLI; the seed is checked even when
    # no sample is drawn, as classify --samples 0 --seed -1 checks it
    with pytest.raises(ParameterError) as exc:
        classify_map(flagship, **kwargs)
    assert str(exc.value) == message
    if kwargs.get("samples", 1) != 0:  # the sampler's own calls take the same rule
        with pytest.raises(ParameterError) as exc:
            verify_positivity_numeric(flagship, **{"samples": 10, **kwargs})
        assert str(exc.value) == message


def test_numpy_integer_samples_and_seed_draw_what_ints_draw(flagship):
    want = classify_map(flagship, samples=50, seed=3).positive.evidence
    for samples, seed in ((np.int64(50), np.uint64(3)), (np.uint8(50), np.int32(3))):
        assert classify_map(flagship, samples=samples, seed=seed).positive.evidence == want
    assert classify_map(flagship, samples=0, seed=np.uint64(2**64 - 1)).positive.status == "yes"


def test_positivity_verdict_threshold_and_converse(flagship):
    v = positivity_verdict(flagship)
    assert v.status == "yes"
    assert "sufficient" in v.criterion
    assert v.evidence["threshold"] == pytest.approx(2.0)

    v = positivity_verdict(MapParams(3, tau(3, 1), 1.8, (1.0, 1.0, 1.0)))
    assert v.status == "no"
    assert "n-cycle" in v.criterion


def test_classify_map_decomposes_sigma_and_takes_the_geometric_mean_once(monkeypatch):
    counts = {"decompositions": 0, "geometric means": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(perm_module, "CycleDecomposition", counting("decompositions", perm_module.CycleDecomposition))
    monkeypatch.setattr(classify_module, "geometric_mean_c", counting("geometric means", geometric_mean_c))
    # two fixed points and a 3-cycle below the threshold: every verdict reads sigma
    p = MapParams(5, Permutation((2, 3, 1, 4, 5)), 2.5, (1.0, 2.0, 0.5, 1.5, 1.0))
    classify_map(p, samples=10)
    assert counts == {"decompositions": 1, "geometric means": 1}


def test_positivity_verdict_identity_branch():
    v = positivity_verdict(MapParams(3, identity(3), 1.5, (4.0, 4.0, 4.0)))
    assert v.status == "yes"
    assert "entrywise" in v.criterion
    assert v.evidence["schur_min_eigenvalue"] >= 0.0

    v = positivity_verdict(MapParams(2, identity(2), 0.5, (0.9, 0.9)))
    assert v.status == "no"
    assert v.evidence["schur_min_eigenvalue"] == pytest.approx(-0.6)


STATUS_FIELDS = ("positive", "two_positive", "completely_positive", "atomic", "decomposable")


def test_positivity_at_the_identity_reads_the_cp_verdict_past_the_decision_tolerance():
    # the core K = diag(2.99999) - J has least eigenvalue -1.0e-5, past
    # -DECISION_TOL: not CP, and so not positive
    p = MapParams(3, identity(3), 2.49999, (0.5, 0.5, 0.5))
    core_min = choi_structure(p).core_min
    assert core_min == pytest.approx(-1.0e-5, rel=1e-6)
    report = classify_map(p, samples=0)
    assert [getattr(report, f).status for f in STATUS_FIELDS] == ["no", "no", "no", "unknown", "unknown"]
    assert report.positive.criterion == "entrywise-multiplier matrix PSD test (sigma = id)"
    assert report.positive.evidence["schur_min_eigenvalue"] == core_min
    assert positivity_verdict(p) == report.positive


def test_positivity_at_the_identity_is_the_core_test():
    # Choi(Theta) at sigma = id is K plus zeros, so min(core_min, 0) >= -tol
    # decides as core_min >= -tol does
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        c = tuple(np.exp(rng.uniform(-3.0, 2.0, n)))
        p = MapParams(n, identity(n), float(np.exp(rng.uniform(-2.0, np.log(n)))), c)
        core_min = choi_structure(p).core_min
        v = positivity_verdict(p)
        if v.criterion.startswith("entrywise"):
            assert v.status == ("yes" if core_min >= -DECISION_TOL else "no"), p


def test_classify_map_takes_no_tolerance_and_reads_no_below_the_threshold():
    # a = 3.5 is below the 4-cycle's exact threshold max(n - 1, n - geomean(c))
    # = 3.99 and the Choi minimum a - n = -0.5 is negative: at the one
    # tolerance positivity and CP agree, and no tolerance can be passed
    p = MapParams(4, tau(4, 1), 3.5, (0.01,) * 4)
    for samples in (0, 100):
        report = classify_map(p, samples=samples)
        assert [getattr(report, f).status for f in STATUS_FIELDS] == ["no", "no", "no", "unknown", "unknown"]
    with pytest.raises(TypeError, match="psd_tol"):
        classify_map(p, samples=0, psd_tol=0.6)


def test_a_closure_failure_at_the_default_tolerance_stays_internal():
    yes, no = classify_module.Verdict("yes", "", {}), classify_module.Verdict("no", "", {})
    with pytest.raises(RuntimeError, match="^internal consistency failure between verdicts: positive=no"):
        classify_module._check_closure(no, yes, yes, no, yes)
    classify_module._check_closure(no, no, no, no, no)  # a closed set passes


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
        expected = "yes" if is_psd(choi(p)) else "no"
        assert v.status == expected
        assert v.evidence["choi_min_eigenvalue"] == pytest.approx(
            min_eigenvalue(choi(p)), abs=1e-12
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


def test_atomic_verdict_on_uniform_family():
    # a = n - c: positivity is an iff there, so the shared rule decides atomicity
    p = MapParams(6, tau(6, 2), 4.0, (2.0,) * 6)
    assert atomic_verdict(p).status == "yes"
    assert positivity_verdict(p).evidence["cycle_bound"] == pytest.approx(2.0)

    # past c = n/l_max the map is not positive, hence not atomic
    p = MapParams(6, tau(6, 2), 3.5, (2.5,) * 6)
    assert positivity_verdict(p).status == "no"
    assert atomic_verdict(p).status != "yes"

    assert atomic_verdict(MapParams(4, tau(4, 2), 2.0, (2.0,) * 4)).status == "unknown"
    assert atomic_verdict(delta_n(3)).status == "no"


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
        (MapParams(3, identity(3), 2.0 - 0.9e-9, (1.0 - 0.9e-9, 1.0, 1.0)), "P's least eigenvalue"),
        # several failures of one check: the whole message names the first in index order
        (
            MapParams(5, Permutation((1, 3, 2, 4, 5)), 4.0, (1.2, 1.0, 1.0, 0.9, 0.5)),
            "requires c[4] >= 1 at the fixed point 4 (got c[4] = 0.9)",
        ),
        (
            MapParams(6, tau(6, 3), 5.0, (1.0, 0.5, 0.5, 1.0, 0.5, 1.5)),
            "requires c[2]*c[5] >= 1 for the 2-cycle (2, 5) (got 0.25)",
        ),
    ],
)
def test_decompose_involution_preconditions(params, fragment):
    with pytest.raises(PreconditionError) as err:
        decompose_involution(params)
    assert fragment in str(err.value)


def test_a_split_short_of_psd_at_the_tolerance_leaves_decomposability_undecided():
    for p in (
        # a and c_1 each 0.9e-9 short of their bounds, each within DECISION_TOL,
        # take P's least eigenvalue to -1.2e-9 together
        MapParams(3, identity(3), 2.0 - 0.9e-9, (1.0 - 0.9e-9, 1.0, 1.0)),
        # a = n - 1 - DECISION_TOL alone: P's least eigenvalue (a + 1) - 2 rounds below it
        MapParams(2, Permutation((2, 1)), 1.0 - 1e-9, (1.0, 1.0)),
    ):
        report = classify_map(p, samples=0)
        assert (report.atomic.status, report.decomposable.status, report.decomposition) == ("unknown", "unknown", None)
        assert atomic_verdict(p) == report.atomic
        with pytest.raises(PreconditionError, match=r"^requires P's least eigenvalue >= -1e-09 \(got -1\.\d+e-09\)$"):
            decompose_involution(p)


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


@st.composite
def maps_at_the_thresholds(draw):
    """Maps at n <= 7 whose sigma has fixed points, 2-cycles or longer cycles,
    with uniform or spread c, and a within 2e-9 of the CP threshold, the
    positivity threshold max(n - 1, n - geomean(c)) or the uniform family's
    n - c_1."""
    n = draw(st.integers(1, 7))
    points = draw(st.permutations(range(1, n + 1)))
    images = list(range(1, n + 1))
    kind = draw(st.sampled_from(("involution", "one cycle and fixed points", "any")))
    if kind == "involution":
        pairs = draw(st.integers(0, n // 2))
        for u, v in zip(points[0 : 2 * pairs : 2], points[1 : 2 * pairs : 2]):
            images[u - 1], images[v - 1] = v, u
    elif kind == "one cycle and fixed points":
        cycle = points[: draw(st.integers(1, n))]
        for k, i in enumerate(cycle):
            images[i - 1] = cycle[(k + 1) % len(cycle)]
    else:
        images = list(draw(st.permutations(range(1, n + 1))))
    sigma = Permutation(tuple(images))
    exponents = st.floats(-4.0, 4.0)
    if draw(st.booleans()):
        c = (math.exp(draw(exponents)),) * n
    else:
        c = tuple(math.exp(x) for x in draw(st.lists(exponents, min_size=n, max_size=n)))
    geomean = math.exp(sum(map(math.log, c)) / n)
    base = draw(st.sampled_from((_cp_threshold(MapParams(n, sigma, 1.0, c)), max(n - 1.0, n - geomean), n - c[0])))
    a = base + draw(st.sampled_from((0.0, 1e-10, 5e-10, 20e-10, -1e-10, -5e-10, -20e-10)))
    assume(a > 0.0)
    return MapParams(n, sigma, a, c)


@given(maps_at_the_thresholds())
@settings(max_examples=500, deadline=None)
@example(MapParams(4, tau(4, 1), 3.5, (0.01,) * 4))
@example(MapParams(1, identity(1), 0.5, (0.4999,)))
@example(MapParams(1, identity(1), 0.5 - 2e-9, (0.5,)))  # 2e-9 below the CP threshold 1 - c
def test_classify_closure_at_the_thresholds(p):
    # the verdicts and the split decide at one tolerance, so no input reaches
    # an internal error, however near a threshold a lies
    classify_map(p, samples=0)


def test_classify_delta_n():
    report = classify_map(delta_n(3), samples=100)
    assert report.positive.status == "yes"
    assert report.completely_positive.status == "yes"
    assert report.atomic.status == "no"
    assert report.decomposable.status == "yes"


def test_positivity_verdict_takes_the_upgrade_from_complete_positivity():
    # (12)(3)(4) below the threshold: no positivity criterion, but the map is CP
    p = MapParams(4, Permutation((2, 1, 3, 4)), 2.5, (1.0, 1.0, 100.0, 100.0))
    v = positivity_verdict(p)
    assert v.status == "yes"
    assert v.criterion == "implied by complete positivity"
    assert v == classify_map(p, samples=0).positive

    # just below the CP threshold, within DECISION_TOL, the upgrade holds;
    # past it, positivity is undecided
    p = MapParams(4, p.sigma, _cp_threshold(p) - 2e-10, p.c)
    assert positivity_verdict(p).status == "yes"
    assert classify_map(p, samples=0).positive == positivity_verdict(p)
    p = MapParams(4, p.sigma, _cp_threshold(p) - 2e-9, p.c)
    assert positivity_verdict(p).status == classify_map(p, samples=0).positive.status == "unknown"


def _cp_threshold(p: MapParams) -> float:
    """The least a with sum_i 1/(a + c_i [sigma(i) = i]) <= 1, where the Choi
    core turns PSD, by bisection on [0, n]."""
    k = [ci if p.sigma(i) == i else 0.0 for i, ci in enumerate(p.c, start=1)]
    lo, hi = 0.0, float(p.n)
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (lo, mid) if sum(1.0 / (mid + ki) for ki in k) <= 1.0 else (mid, hi)
    return hi


def _verdict_maps(count: int, seed: int):
    """Random maps at n = 1..8 over every kind of sigma, with a on and near
    each threshold the verdicts use, plus delta_n."""
    rng = np.random.default_rng(seed)
    maps = [delta_n(n) for n in range(2, 9)]
    while len(maps) < count:
        n = int(rng.integers(1, 9))
        kind = rng.choice(("identity", "involution", "fixed points", "single cycle", "any"))
        pts = [int(x) + 1 for x in rng.permutation(n)]
        images = list(range(1, n + 1))
        if kind == "involution":
            for u, v in zip(pts[0::2], pts[1::2]):
                if rng.random() < 0.7:
                    images[u - 1], images[v - 1] = v, u
        elif kind in ("fixed points", "single cycle"):
            cycle = pts[int(rng.integers(1, n + 1)) if kind == "fixed points" else 0 :]
            for pos, i in enumerate(cycle):
                images[i - 1] = cycle[(pos + 1) % len(cycle)]
        elif kind == "any":
            images = [int(x) + 1 for x in rng.permutation(n)]
        sigma = Permutation(tuple(images))
        if rng.random() < 0.4:
            c = [float(math.exp(rng.uniform(-22.0, 2.0)))] * n
        else:
            c = [float(x) for x in np.exp(rng.uniform(-3.0, 3.0, n))]
        if rng.random() < 0.3:  # heavy fixed points: CP below the positivity threshold
            c = [100.0 * c[i] if images[i] == i + 1 else c[i] for i in range(n)]
        elif rng.random() < 0.3:  # on the split's boundaries: c_i = 1 at fixed points, c_i c_j = 1 on 2-cycles
            c = [1.0 if images[i] == i + 1 else c[i] for i in range(n)]
            for i in range(n):
                if images[i] > i + 1:
                    c[images[i] - 1] = 1.0 / c[i]
        g = float(np.exp(np.mean(np.log(c))))
        l_max = max(len(cycle) for cycle in sigma.decomposition.cycles)
        thresholds = (
            max(n - 1.0, n - g),  # positivity, any sigma
            float(n),  # complete positivity when every cycle has length >= 2
            _cp_threshold(MapParams(n, sigma, 1.0, tuple(c))),
            n - 1.0,  # the involution split
            n - c[0],  # the uniform family a = n - c
            n - n / l_max,  # the uniform family at c = n/l_max
            float(rng.uniform(0.1, 2.0 * n + 1.0)),
        )
        base = thresholds[int(rng.integers(len(thresholds)))]
        if base == n - n / l_max and rng.random() < 0.8:
            c = [n / l_max] * n
        a = base + float(rng.choice((0.0, 0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6, -1e-6)))
        if a > 0.0:
            maps.append(MapParams(n, sigma, a, tuple(c)))
    return maps


def test_standalone_verdicts_agree_with_classify_map():
    criteria = set()
    for p in _verdict_maps(600, seed=2024):
        report = classify_map(p, samples=0)
        assert positivity_verdict(p) == report.positive, p
        assert cp_verdict(p) == report.completely_positive, p
        assert two_positive_verdict(p) == report.two_positive, p
        assert atomic_verdict(p) == report.atomic, p
        criteria |= {report.positive.criterion, report.atomic.criterion}
    # every branch of the two rules that callers used to repeat is exercised
    assert {
        "implied by complete positivity",
        "uniform family a = n - c: positive iff c <= n/l_max(sigma)",
        "positive, not completely positive, every cycle of length >= 3",
        "decomposable by the involution splitting",
        "no atomicity criterion applies",
    } <= criteria


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls of module.name as the length of the returned list."""
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_classify_map_checks_the_split_precondition_once(monkeypatch):
    calls = _count_calls(monkeypatch, classify_module, "_involution_split")
    solves = _count_calls(monkeypatch, classify_module, "_p_block_min")
    for p, expected in (
        (MapParams(4, tau(4, 2), 3.0, (1.0,) * 4), (1, 1)),  # the split decides
        (MapParams(3, Permutation((2, 1, 3)), 2.0, (1.2, 0.9, 1.1)), (1, 1)),  # with a fixed point
        (MapParams(3, identity(3), 2.0 - 0.9e-9, (1.0 - 0.9e-9, 1.0, 1.0)), (1, 1)),  # the split fails at P
        (MapParams(4, tau(4, 2), 3.0, (0.5,) * 4), (1, 0)),  # the split fails before P
        (MapParams(3, tau(3, 2), 3.0, (1.0,) * 3), (0, 0)),  # completely positive
    ):
        calls.clear()
        solves.clear()
        report = classify_map(p, samples=0)
        assert (len(calls), len(solves)) == expected
        assert (report.decomposition is not None) == (report.decomposable.criterion.startswith("involution"))


def test_each_map_solves_the_choi_core_once(monkeypatch):
    # the sampler's solve is the classify module's reference to the solver;
    # the Choi core's is the dmap module's, cached on the structure each map keeps
    core = _count_calls(monkeypatch, dmap_module, "_theta_min_eigenvalue")
    sampler = _count_calls(monkeypatch, classify_module, "_theta_min_eigenvalue")

    def at_id():
        return MapParams(3, identity(3), 1.5, (0.5, 2.0, 1.0))

    def mixed():  # positivity undecided
        return MapParams(5, Permutation((2, 3, 1, 4, 5)), 2.5, (1.0, 2.0, 0.5, 1.5, 1.0))

    others = (
        lambda p: classify_map(p, samples=0),
        cp_verdict,
        positivity_verdict,
        atomic_verdict,
        spa_state,
        certify_optimality,
    )
    for make, call, sampled in (
        (at_id, lambda p: classify_map(p, samples=0), 0),
        (at_id, lambda p: classify_map(p, samples=10), 1),
        (mixed, lambda p: classify_map(p, samples=10), 1),
        (at_id, atomic_verdict, 0),
        (at_id, lambda p: spa_state(p).lambda_star, 0),
        (mixed, lambda p: spa_state(p).lambda_star, 0),
        (lambda: MapParams(4, tau(4, 1), 3.0, (1.0, 2.0, 0.8, 1.5)), separable_decomposition, 0),
        (lambda: MapParams(6, tau(6, 2), 4.0, (2.0,) * 6), certify_optimality, 0),
    ):
        p = make()
        for solves in (1, 0):  # the first call on a fresh map solves the core, a repeat reuses it
            core.clear()
            sampler.clear()
            call(p)
            assert (len(core), len(sampler)) == (solves, sampled)
        core.clear()
        for other in others:
            other(p)
        assert len(core) == 0


def test_spa_and_witness_take_the_geometric_mean_once(monkeypatch):
    # the SPA decides no positivity, so it takes no geometric mean at all
    calls = _count_calls(monkeypatch, classify_module, "geometric_mean_c")
    separable_decomposition(MapParams(4, tau(4, 1), 3.0, (1.0, 2.0, 0.8, 1.5)))
    assert len(calls) == 0
    calls.clear()
    certify_optimality(MapParams(6, tau(6, 2), 4.0, (2.0,) * 6))
    assert len(calls) == 1
