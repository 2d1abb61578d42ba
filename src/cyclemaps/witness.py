"""Entanglement witnesses from the transposition-composed maps, with an
optimality certificate built from product vectors.

The witness is W = C / n where C is the Choi matrix of transposition followed
by Theta.  A witness is optimal when no other witness detects a strictly
larger set of states; a sufficient certificate is the spanning property: the
product vectors zeta with <W zeta, zeta> = 0 span the whole of C^n (x) C^n.

Two zero-expectation families are generated here:

* phase vectors xi (x) xi with xi = (exp(i t_1), ..., exp(i t_n)) -- their
  expectation is n*a + sum(c) - n^2 times 1/n, which vanishes on the uniform
  family a = n - c (and more generally whenever n*a + sum(c) = n^2);
* basis pairs e_i (x) e_j with j != i and j != sigma^(-1)(i), whose
  expectation vanishes for every parameter choice.

Stacked as vectors of length n^2, their numerical rank decides the
certificate: rank n^2 certifies optimality.

A fixed set of phases suffices.  Every phase vector shares the one
expectation above, whatever its phases, so the phase vectors pass or fail
together; and every xi (x) xi lies in the symmetric tensors, a space of
dimension n(n+1)/2 that the deterministic phases already span.  No further
phase vector, random or not, can raise the span rank.

Nothing here needs the dense n^2 x n^2 witness.  With n W = diag(D) - F
(:class:`cyclemaps.dmap.ChoiStructure`), a product vector x (x) y has the
expectation (|x|^2 . D . |y|^2 - |<x, y>|^2) / n, evaluated for all
generators in one batched product.  The basis pairs are distinct standard
basis vectors, so the span rank is their number plus the rank of the phase
vectors restricted to the coordinates no basis pair covers (at most 2n of
them).  The minimum eigenvalue of W, which decides the PSD warning, comes
from the closed form of its 1x1 and 2x2 blocks (Lewenstein et al., PRA 62,
052310, 2000).  The certificate builds W itself only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import NO, YES, atomic_uniform_c, on_uniform_family, positivity_verdict
from .dmap import MapParams, choi, choi_structure
from .errors import ParameterError
from .matlin import DEFAULT_PSD_TOL, numerical_rank, require_hermitian

# A generator's expectation <W zeta, zeta> counts as zero within this bound.
EXPECTATION_TOL = 1e-9


@dataclass(frozen=True)
class ProductVector:
    """A product vector left (x) right together with the family it came from."""

    left: np.ndarray
    right: np.ndarray
    family: str

    @property
    def vector(self) -> np.ndarray:
        return np.kron(self.left, self.right)


@dataclass(frozen=True)
class OptimalityCertificate:
    """Generating product vectors, their expectations and the rank; the
    witness matrix is built on first access."""

    params: MapParams
    generators: tuple[ProductVector, ...]
    expectations: np.ndarray
    span_rank: int
    optimal: bool
    theorem_applies: bool
    note: str
    warnings: tuple[str, ...]

    @cached_property
    def witness(self) -> np.ndarray:
        return witness(self.params)


def witness(p: MapParams) -> np.ndarray:
    """W = C / n for C the Choi matrix of transposition composed with Theta."""
    return choi(p, compose_transpose=True).matrix / p.n


def phase_vector(n: int, thetas) -> np.ndarray:
    """The unimodular vector (exp(i t_1), ..., exp(i t_n))."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (n,):
        raise ParameterError(f"expected {n} phases (got shape {thetas.shape})")
    return np.exp(1j * thetas)


def _deterministic_phases(n: int) -> list[np.ndarray]:
    """Phase assignments whose outer squares span all symmetric matrices:
    the zero vector, one pi and one pi/2 at each coordinate, and pi at each
    pair of coordinates."""
    rows = [np.zeros(n)]
    for k in range(n):
        row = np.zeros(n)
        row[k] = np.pi
        rows.append(row)
    for k in range(n):
        row = np.zeros(n)
        row[k] = np.pi / 2
        rows.append(row)
    for k in range(n):
        for l in range(k + 1, n):
            row = np.zeros(n)
            row[k] = np.pi
            row[l] = np.pi
            rows.append(row)
    return rows


def _stack(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left factors, right factors and the basis-pair flags of ``gens`` as arrays."""
    return (
        np.array([g.left for g in gens]),
        np.array([g.right for g in gens]),
        np.array([g.family == "basis" for g in gens], dtype=bool),
    )


def _span_rank(lefts: np.ndarray, rights: np.ndarray, basis: np.ndarray) -> int:
    """Numerical rank of the stacked vectors lefts[m] (x) rights[m].

    The rows flagged in ``basis`` are distinct standard basis vectors, one
    rank each; the other rows add only the rank of their restriction to the
    coordinates those leave uncovered.
    """
    n = lefts.shape[1]
    covered = np.zeros((n, n), dtype=bool)
    covered[np.argmax(np.abs(lefts[basis]), axis=1), np.argmax(np.abs(rights[basis]), axis=1)] = True
    i, k = np.nonzero(~covered)
    rest = ~basis
    return int(np.count_nonzero(covered)) + numerical_rank(lefts[rest][:, i] * rights[rest][:, k])


def spanning_generators(p: MapParams) -> list[ProductVector]:
    """The candidate zero-expectation product vectors for the witness of p.

    The deterministic phase family is emitted first, then the basis pairs
    e_i (x) e_j with j not in {i, sigma^(-1)(i)}.  The phase vectors share
    one expectation and already span the symmetric tensors, where every
    xi (x) xi lies, so no other phase vector could add to the span.
    """
    n = p.n
    gens: list[ProductVector] = []
    for thetas in _deterministic_phases(n):
        xi = phase_vector(n, thetas)
        gens.append(ProductVector(left=xi, right=xi.copy(), family="phase"))

    inv = p.sigma.inverse()
    for i in range(1, n + 1):
        banned = {i, inv(i)}
        for j in range(1, n + 1):
            if j in banned:
                continue
            left = np.zeros(n, dtype=complex)
            right = np.zeros(n, dtype=complex)
            left[i - 1] = 1.0
            right[j - 1] = 1.0
            gens.append(ProductVector(left=left, right=right, family="basis"))
    return gens


def _uniform_family_theorem(p: MapParams) -> bool:
    """True inside the certified family: uniform c with a = n - c, and either
    c = 0 (the map n*diag(X) - X) or the family's atomicity criterion holds
    (every cycle of length >= 3 with 0 < c <= n/l_max)."""
    return on_uniform_family(p) and (p.c[0] == 0.0 or atomic_uniform_c(p).status == YES)


def certify_optimality(p: MapParams) -> OptimalityCertificate:
    """Check the spanning property of the witness of p.

    Every generator's expectation <W zeta, zeta> is recorded; those within
    ``EXPECTATION_TOL`` of zero enter the rank computation, and rank n^2 means
    the witness is optimal.  Inside the certified uniform family a nonzero
    expectation is an internal bug and raises; outside it the same machinery
    runs and the verdict simply reports what the numbers show.
    """
    n = p.n
    structure = choi_structure(p)
    gens = tuple(spanning_generators(p))
    lefts, rights, basis = _stack(gens)
    diagonal = np.sum((np.abs(lefts) ** 2 @ structure.weights) * np.abs(rights) ** 2, axis=1)
    overlap = np.abs(np.sum(lefts.conj() * rights, axis=1)) ** 2
    expectations = (diagonal - overlap) / n
    passing = np.abs(expectations) <= EXPECTATION_TOL

    theorem_applies = _uniform_family_theorem(p)
    if theorem_applies and not bool(np.all(passing)):
        worst = int(np.argmax(np.abs(expectations)))
        raise RuntimeError(
            "internal consistency failure: generator expectation "
            f"{expectations[worst]:.3e} nonzero inside the certified family"
        )

    span_rank = _span_rank(lefts[passing], rights[passing], basis[passing])
    optimal = span_rank == n * n

    warnings: list[str] = []
    if positivity_verdict(p).status == NO:
        warnings.append("the underlying map is not positive, so this matrix is not a witness")
    if structure.min_eigenvalue(compose_transpose=True) / n >= -DEFAULT_PSD_TOL:
        warnings.append("the matrix is PSD and detects no entanglement")

    if optimal and theorem_applies:
        note = "optimal: zero-expectation product vectors span C^n (x) C^n (certified family)"
    elif optimal:
        note = "optimal: spanning property verified numerically outside the certified family"
    else:
        note = "spanning property not established: zero-expectation span is rank deficient"

    return OptimalityCertificate(
        params=p,
        generators=gens,
        expectations=expectations,
        span_rank=span_rank,
        optimal=optimal,
        theorem_applies=theorem_applies,
        note=note,
        warnings=tuple(warnings),
    )


def expectation_value(w: np.ndarray, rho: np.ndarray) -> float:
    """Tr(W rho) for a Hermitian observable and a Hermitian state."""
    w = require_hermitian(w)
    rho = require_hermitian(rho)
    if w.shape != rho.shape:
        raise ParameterError(f"shape mismatch: witness {w.shape} vs state {rho.shape}")
    return float(np.trace(w @ rho).real)


def maximally_entangled_state(n: int) -> np.ndarray:
    """The projector onto sum_i e_i (x) e_i, normalized to trace one."""
    if n < 2:
        raise ParameterError(f"needs n >= 2 (got {n})")
    psi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        psi[i * n + i] = 1.0
    return np.outer(psi, psi.conj()) / n
