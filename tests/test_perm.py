import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemaps import (
    ParameterError,
    Permutation,
    cycle_decompose,
    fixed_points,
    format_permutation,
    from_cycles,
    identity,
    is_involution,
    is_single_cycle,
    parse_permutation,
    tau,
)
from cyclemaps import perm as perm_module
from cyclemaps.perm import CycleDecomposition


def test_identity_basics():
    e = identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    assert all(e(i) == i for i in range(1, 5))


def test_permutation_call_is_one_based():
    s = Permutation((2, 1))
    assert s(1) == 2
    assert s(2) == 1
    with pytest.raises(ParameterError):
        s(0)
    with pytest.raises(ParameterError):
        s(3)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ParameterError):
        Permutation((1, 1, 3))
    with pytest.raises(ParameterError):
        Permutation((0, 1))
    with pytest.raises(ParameterError):
        Permutation((2, 3))
    with pytest.raises(ParameterError):
        Permutation(())


def test_permutation_rejects_bool_images():
    # True == 1 passes the bijection check, and format_permutation would then
    # write "images:True,2", which parse_permutation rejects
    for images in ((True, 2), (2, True), (True,)):
        with pytest.raises(ParameterError, match="integers"):
            Permutation(images)


def test_tau_formula_examples():
    # tau(n, k) sends i to ((i + k - 1) mod n) + 1.
    assert tau(3, 1).images == (2, 3, 1)
    assert tau(3, 2).images == (3, 1, 2)
    assert tau(6, 4).images == (5, 6, 1, 2, 3, 4)
    assert tau(5, 5).is_identity()


def test_tau_rejects_bad_shift():
    with pytest.raises(ParameterError):
        tau(4, 0)
    with pytest.raises(ParameterError):
        tau(4, 5)
    with pytest.raises(ParameterError):
        tau(0, 1)


def test_cycle_decompose_examples():
    dec = cycle_decompose(tau(3, 2))
    assert dec.cycles == ((1, 3, 2),)
    assert dec.l_min == 3
    assert dec.l_max == 3

    dec = cycle_decompose(identity(4))
    assert dec.cycles == ((1,), (2,), (3,), (4,))
    assert dec.lengths == (1, 1, 1, 1)

    # A shift by 3 on six points splits into three transpositions.
    dec = cycle_decompose(tau(6, 3))
    assert dec.cycles == ((1, 4), (2, 5), (3, 6))

    dec = cycle_decompose(Permutation((2, 1, 4, 5, 3)))
    assert dec.cycles == ((1, 2), (3, 4, 5))
    assert sorted(dec.lengths) == [2, 3]
    assert dec.l_min == 2
    assert dec.l_max == 3


def test_cycle_decompose_is_built_once_per_permutation(monkeypatch):
    built = []
    monkeypatch.setattr(perm_module, "CycleDecomposition", lambda **kw: built.append(kw) or CycleDecomposition(**kw))
    s = Permutation((2, 1, 4, 5, 3))
    dec = cycle_decompose(s)
    assert cycle_decompose(s) is dec and is_single_cycle(s) is False and is_involution(s) is False
    assert len(built) == 1
    # the cached decomposition is no field: equality and hashing see the images only
    t = Permutation(s.images)
    assert t == s and hash(t) == hash(s) and "decomposition" not in vars(t)
    assert cycle_decompose(t) == dec and len(built) == 2


def test_cycle_lengths_are_built_once_per_decomposition():
    for images in itertools.permutations(range(1, 6)):
        s = Permutation(images)
        dec = cycle_decompose(s)
        assert dec.lengths is dec.lengths
        lengths = [len(cycle) for cycle in dec.cycles]
        assert dec.lengths == tuple(lengths)
        assert (dec.l_min, dec.l_max) == (min(lengths), max(lengths))
        assert is_involution(s) == (s.compose(s) == identity(5))


@pytest.mark.parametrize("n", range(2, 13))
def test_tau_cycle_lengths_divide_evenly(n):
    import math

    for k in range(1, n + 1):
        dec = cycle_decompose(tau(n, k))
        assert dec.l_min == dec.l_max == n // math.gcd(n, k)


def test_round_trip_exhaustive_small_n():
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            s = Permutation(images)
            dec = cycle_decompose(s)
            assert from_cycles(n, dec.cycles) == s


@given(st.permutations(list(range(1, 9))))
@settings(max_examples=200, deadline=None)
def test_round_trip_sampled(images):
    s = Permutation(tuple(images))
    assert from_cycles(8, cycle_decompose(s).cycles) == s


@given(st.permutations(list(range(1, 8))))
@settings(max_examples=200, deadline=None)
def test_inverse_and_compose(images):
    s = Permutation(tuple(images))
    assert s.compose(s.inverse()).is_identity()
    assert s.inverse().compose(s).is_identity()
    assert s.inverse().inverse() == s


def test_compose_order():
    # compose(s, t) applies t first, then s.
    s = Permutation((2, 3, 1))
    t = Permutation((1, 3, 2))
    st_map = s.compose(t)
    assert st_map.images == tuple(s(t(i)) for i in (1, 2, 3))


def test_involutions():
    assert is_involution(tau(4, 2))
    assert not is_involution(tau(3, 1))
    assert is_involution(identity(5))
    for n in range(1, 7):
        for images in itertools.permutations(range(1, n + 1)):
            s = Permutation(images)
            expected = all(len(c) <= 2 for c in cycle_decompose(s).cycles)
            assert is_involution(s) == expected


def test_fixed_points():
    assert fixed_points(Permutation((2, 1, 3))) == frozenset({3})
    assert fixed_points(tau(4, 2)) == frozenset()
    assert fixed_points(identity(3)) == frozenset({1, 2, 3})


def test_is_single_cycle():
    assert is_single_cycle(tau(5, 2))
    assert not is_single_cycle(tau(6, 2))
    assert not is_single_cycle(identity(3))
    assert is_single_cycle(identity(1))


@st.composite
def permutations_with_short_cycles(draw) -> Permutation:
    """Any permutation of degree 1..9, or one built from 2-cycles and fixed
    points (a uniform draw is rarely an involution past a few points)."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        return Permutation(tuple(order))
    images = list(range(1, n + 1))
    for t in range(draw(st.integers(0, n // 2))):
        u, v = order[2 * t], order[2 * t + 1]
        images[u - 1], images[v - 1] = v, u
    return Permutation(tuple(images))


@given(permutations_with_short_cycles())
@settings(max_examples=300, deadline=None)
def test_cycle_predicates_match_their_definitions(s):
    points = range(1, s.n + 1)
    assert is_involution(s) == all(s(s(i)) == i for i in points)
    assert fixed_points(s) == frozenset(i for i in points if s(i) == i)
    orbit, j = [1], s(1)
    while j != 1:
        orbit.append(j)
        j = s(j)
    assert is_single_cycle(s) == (len(orbit) == s.n)


def test_from_cycles_validates():
    with pytest.raises(ParameterError):
        from_cycles(3, ((1, 2), (2, 3),))
    with pytest.raises(ParameterError):
        from_cycles(3, ((1, 4),))
    with pytest.raises(ParameterError):
        from_cycles(3, ((1, 2),))  # 3 missing


def test_parse_and_format_round_trip():
    for text in ("tau:6:4", "id:3", "images:2,1,4,3"):
        s = parse_permutation(text)
        assert parse_permutation(format_permutation(s)) == s
    assert parse_permutation("tau:3:2") == tau(3, 2)
    assert parse_permutation("id:4") == identity(4)
    assert format_permutation(tau(3, 2)) == "images:3,1,2"


@pytest.mark.parametrize(
    "text",
    [
        "cycle:3",
        "tau:3",
        "tau:3:0",
        "tau:x:1",
        "id:0",
        "images:1,1",
        "images:",
        "images:1,a",
        "",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParameterError):
        parse_permutation(text)
