from functools import cached_property

import numpy as np
import pytest

from cyclemaps import MapParams, Permutation, tau


@pytest.fixture
def flagship() -> MapParams:
    """The running example: n = 3, sigma = tau(3, 2), a = 2, uniform c = 1."""
    return MapParams(3, tau(3, 2), 2.0, (1.0, 1.0, 1.0))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2.0


def spaced_involution(n: int) -> Permutation:
    """The involution with 2-cycles (k+1 k+2) for k = 0, 3, 6, ..., a fixed point after each."""
    images = list(range(1, n + 1))
    for k in range(0, n - 1, 3):
        images[k], images[k + 1] = k + 2, k + 1
    return Permutation(tuple(images))


def count_computations(monkeypatch, cls, name: str) -> list:
    """Count the computations of the property ``cls.name``, kept (a cached_property)
    or not, as the length of the returned list; the spy is a property of the same kind."""
    prop, calls = cls.__dict__[name], []
    compute = prop.func if isinstance(prop, cached_property) else prop.fget

    def spy(self):
        calls.append(self)
        return compute(self)

    spy_prop = type(prop)(spy)
    if isinstance(spy_prop, cached_property):
        spy_prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, spy_prop)
    return calls
