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

Nothing here needs the dense n^2 x n^2 witness, nor an object per
generator.  The generators are two arrays (:class:`SpanningGenerators`): a
table of phase angles and the index pairs (i, j) of the basis pairs.  With
n W = diag(D) - F (:class:`cyclemaps.dmap.ChoiStructure`), xi (x) xi has the
expectation (w . D . w - (sum w)^2) / n with w = |xi|^2, and e_i (x) e_j
has (D[i, j] - [i = j]) / n, both evaluated from the O(n) data (a, c, sigma)
in one batch.  The basis pairs are distinct standard basis vectors, so the
span rank is their number plus the numerical rank of the phase vectors
restricted to the coordinates no basis pair covers (at most 2n of them).
The minimum eigenvalue of W, which decides the PSD warning, comes from the
closed form of its 1x1 and 2x2 blocks (Lewenstein et al., PRA 62, 052310,
2000).  The certificate builds W itself only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import NO, YES, atomic_verdict, on_uniform_family, positivity_verdict
from .dmap import MapParams, assemble, choi_structure
from .errors import ParameterError
from .matlin import DEFAULT_PSD_TOL, numerical_rank, require_hermitian

# A generator's expectation <W zeta, zeta> counts as zero within this bound.
EXPECTATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpanningGenerators:
    """The candidate zero-expectation product vectors as two arrays.

    Row r of ``phases`` gives the phase vector xi (x) xi with
    xi = exp(i * phases[r]); row m of ``pairs`` gives the basis pair
    e_i (x) e_j for (i, j) = pairs[m], 0-based.  The phase rows come first.
    """

    phases: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.phases) + len(self.pairs)


@dataclass(frozen=True)
class OptimalityCertificate:
    """Generating product vectors, their expectations and the rank; the
    witness matrix is built on first access."""

    params: MapParams
    generators: SpanningGenerators
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
    """W = C / n for C the Choi matrix of transposition composed with Theta.

    W is assembled from C's parts scaled by 1 / n, so no second n^2 x n^2
    array is written.  numpy divides a complex entry by a real n as the
    product with 1 / n, so the entries are those of
    ``choi(p, compose_transpose=True).matrix / p.n`` bit for bit.
    """
    diag, core = choi_structure(p).parts()
    scale = 1.0 / p.n
    return assemble(p.n, diag * scale, core * scale, compose_transpose=True)


def spanning_generators(p: MapParams) -> SpanningGenerators:
    """The candidate zero-expectation product vectors for the witness of p.

    The deterministic phases are the zero row, pi and then pi/2 at each
    coordinate, and pi at each pair of coordinates k < l: their outer
    squares span all symmetric matrices, where every xi (x) xi lies, so no
    other phase vector could add to the span.  The basis pairs are
    e_i (x) e_j with j not in {i, sigma^(-1)(i)}, in row-major order.
    """
    n, d = p.n, np.arange(p.n)
    k, l = np.triu_indices(n, 1)
    phases = np.zeros((1 + 2 * n + k.size, n))
    phases[1 + d, d] = np.pi
    phases[1 + n + d, d] = np.pi / 2
    rows = 1 + 2 * n + np.arange(k.size)
    phases[rows, k] = phases[rows, l] = np.pi
    i, j = np.divmod(np.arange(n * n), n)
    img = choi_structure(p).img
    keep = (j != i) & (img[j] != i)
    return SpanningGenerators(phases=phases, pairs=np.stack([i[keep], j[keep]], axis=1))


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
    gens = spanning_generators(p)
    xi = np.exp(1j * gens.phases)
    w = np.abs(xi) ** 2
    # <xi (x) xi| n W |xi (x) xi> = w . D . w - (sum w)^2, and e_i (x) e_j gives D[i, j] - [i = j]
    phase = np.sum((structure.a * w + structure.c * w[:, structure.img]) * w, axis=1) - w.sum(axis=1) ** 2
    i, j = gens.pairs.T
    basis = structure.entry(i, j) - (i == j)
    expectations = np.concatenate([phase, basis]) / n
    passing = np.abs(expectations) <= EXPECTATION_TOL

    pos = positivity_verdict(p)
    # the certified family: uniform c with a = n - c, and c = 0 (the map
    # n*diag(X) - X) or an atomic map (every cycle of length >= 3, not CP)
    theorem_applies = on_uniform_family(p) and (
        p.c[0] == 0.0 or atomic_verdict(p, pos=pos).status == YES
    )
    if theorem_applies and not bool(np.all(passing)):
        worst = int(np.argmax(np.abs(expectations)))
        raise RuntimeError(
            "internal consistency failure: generator expectation "
            f"{expectations[worst]:.3e} nonzero inside the certified family"
        )

    # the basis pairs are distinct standard basis vectors, one rank each; the
    # phase vectors add the rank of their restriction to the rest
    phase_ok, pair_ok = np.split(passing, [len(xi)])
    covered = np.zeros((n, n), dtype=bool)
    covered[i[pair_ok], j[pair_ok]] = True
    k, l = np.nonzero(~covered)
    rest = xi[np.ix_(phase_ok, k)] * xi[np.ix_(phase_ok, l)]
    span_rank = int(np.count_nonzero(covered)) + numerical_rank(rest)
    optimal = span_rank == n * n

    warnings: list[str] = []
    if pos.status == NO:
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
    return assemble(n, 0.0, np.full((n, n), 1.0 / n))
