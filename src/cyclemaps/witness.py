"""Entanglement witnesses from the transposition-composed maps, with an
optimality certificate built from product vectors.

The witness is W = C / n where C is the Choi matrix of transposition followed
by Theta.  A witness is optimal when no other witness detects a strictly
larger set of states; a sufficient certificate is the spanning property: the
product vectors zeta with <W zeta, zeta> = 0 span the whole of C^n (x) C^n
(Lewenstein et al., PRA 62, 052310, 2000).  It certifies only a witness: the
map must be positive and W not PSD.

Two zero-expectation families are generated here, in this order:

* phase vectors xi (x) xi with xi = (exp(i t_1), ..., exp(i t_n)), for the
  1 + 2n + n(n-1)/2 phase rows t: zero, pi at each coordinate, pi/2 at each
  coordinate, and pi at each pair of coordinates k < l.  Their expectation
  is n*a + sum(c) - n^2 times 1/n, which vanishes on the uniform family
  a = n - c (and more generally whenever n*a + sum(c) = n^2);
* basis pairs e_i (x) e_j with j != i and j != sigma^(-1)(i), in row-major
  order, whose expectation vanishes for every parameter choice.

Stacked as vectors of length n^2, their rank decides the certificate:
rank n^2 certifies optimality.

A fixed set of phases suffices.  Every phase vector shares the one
expectation above, whatever its phases, so the phase vectors pass or fail
together; and every xi (x) xi lies in the symmetric tensors, a space of
dimension n(n+1)/2 that the outer squares of the phase rows already span.
No further phase vector, random or not, can raise the span rank.

Nothing here needs the dense n^2 x n^2 witness, nor an object per
generator.  The generators (:class:`SpanningGenerators`) are n and the
index pairs (i, j) of the basis pairs: the phase vectors are the closed form
above in n alone, and no table of their angles is built.  With
n W = diag(D) - F (:class:`cyclemaps.dmap.ChoiStructure`), xi (x) xi has the
expectation (w . D . w - (sum w)^2) / n with w = |xi|^2, and e_i (x) e_j has
(D[i, j] - [i = j]) / n.  The angles are 0, pi/2 and pi, where
|exp(i t)|^2 is 1.0 exactly, so w is all ones on every phase row and one sum
gives every phase expectation; the basis pairs' are 0.0 exactly.  The
certificate thus costs O(n^2) time and memory, the size of its expectations
and pairs.

The span rank has a closed form in sigma.  The basis pairs are distinct
standard basis vectors, n^2 - n - m of them for m the number of points sigma
moves, and they leave uncovered exactly the coordinates |kk> and
|sigma(j) j>, n + m in all.  The phase vectors xi (x) xi span every
symmetric tensor, so on those coordinates their span is every vector with
|kl> = |lk> wherever both are uncovered, which is exactly where {k, l} is a
2-cycle of sigma.  With t the number of 2-cycles they add n + m - t to the
rank: when the phase vectors pass, the span rank is n^2 - t, and otherwise
it is the number of basis pairs.

The minimum eigenvalue of W, which decides the PSD warning, comes from the
closed form of its 1x1 and 2x2 blocks (Lewenstein et al., PRA 62, 052310,
2000).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import NO, UNKNOWN, YES, classify_map, on_uniform_family
from .dmap import MapParams, assemble, choi_structure, require_dense_size
from .errors import ParameterError
from .matlin import DECISION_TOL, MAX_ENTRIES, require_hermitian
from .perm import cycle_decompose

# |exp(i t)|^2 is 1.0 exactly at the phase rows' angles 0, pi/2 and pi, which the
# phase expectation relies on; it depends on no map, so it is evaluated once
_UNIT_WEIGHTS = bool(np.all(np.abs(np.exp(1j * np.array([0.0, np.pi / 2, np.pi]))) ** 2 == 1.0))

# Basis pairs per piece of the expectation check: each temporary of a piece
# stays under 40 kB, where one over all n^2 pairs is 8 MB at n = 1024.
_PAIR_PIECE = 1 << 12


def _phase_rows(n: int) -> int:
    """The number of deterministic phase vectors: 1 + 2n + n(n-1)/2."""
    return 1 + 2 * n + n * (n - 1) // 2


@dataclass(frozen=True, eq=False)
class SpanningGenerators:
    """The candidate zero-expectation product vectors on C^n (x) C^n.

    The phase vectors, the phase rows of the module docstring, come first
    and are counted from n alone.  Row m of ``pairs`` gives the basis pair
    e_i (x) e_j for (i, j) = pairs[m], 0-based.
    """

    n: int
    pairs: np.ndarray

    def __len__(self) -> int:
        return _phase_rows(self.n) + len(self.pairs)


@dataclass(frozen=True)
class OptimalityCertificate:
    """Generating product vectors, their expectations and the rank, with
    the optimality verdict they support."""

    generators: SpanningGenerators
    expectations: np.ndarray
    span_rank: int
    optimal: bool
    theorem_applies: bool
    note: str
    warnings: tuple[str, ...]


def witness(p: MapParams) -> np.ndarray:
    """W = C / n for C the Choi matrix of transposition composed with Theta.

    W is real symmetric, float64, and assembled from C's parts scaled by
    1 / n, so no second n^2 x n^2 array is written: its entries are those of
    ``choi(p, compose_transpose=True) * (1.0 / p.n)`` bit for bit, the
    real parts of the complex quotient C / n, which numpy forms as that
    product.  Raises ParameterError, before building the parts, when n^2
    exceeds ``MAX_DIM``.
    """
    require_dense_size(p.n)
    diag, core = choi_structure(p).parts()
    scale = 1.0 / p.n
    return assemble(p.n, diag * scale, core * scale, compose_transpose=True)


def spanning_generators(p: MapParams) -> SpanningGenerators:
    """The candidate zero-expectation product vectors for the witness of p.

    The phase vectors are the phase rows of the module docstring.  The
    basis pairs are e_i (x) e_j with j not in {i, sigma^(-1)(i)}, in
    row-major order: ``np.argwhere`` of that mask, layout included (each
    column contiguous, as the expectation check reads them), written
    straight into one array from the mask's flat indices.
    """
    n, img = p.n, choi_structure(p).img
    d = np.arange(n)
    keep = np.ones((n, n), dtype=bool)
    keep[d, d] = keep[img, d] = False
    flat = np.flatnonzero(keep)
    columns = np.empty((2, flat.size), dtype=np.intp)
    np.divmod(flat, n, out=(columns[0], columns[1]))
    return SpanningGenerators(n, columns.T)


def certify_optimality(p: MapParams) -> OptimalityCertificate:
    """Check the spanning property of the witness of p.

    Every generator's expectation <W zeta, zeta> is recorded; those within
    ``DECISION_TOL`` of zero enter the span, and rank n^2 means the
    witness is optimal, provided it is a witness: ``optimal`` needs the
    positivity verdict "yes" and a W that is not PSD.  Positivity and
    atomicity come from one ``classify_map(p, samples=0)``.  An undecided
    positivity gives a warning, and a spanning set then the note "not
    certified: positivity undecided".  The rank is the closed form of the
    module docstring: n^2 less the number of 2-cycles of sigma when the phase
    vectors pass, else the number of basis pairs, so no rank is computed
    numerically.  Inside the certified uniform family a nonzero
    expectation is an internal bug and raises; outside it the same machinery
    runs and the verdict simply reports what the numbers show.

    Every phase row has w = |xi|^2 all ones (|exp(i t)|^2 is 1.0 exactly at
    the phase rows' angles 0, pi/2 and pi), so every product with w is exact
    and each row's w . D . w is the sum of a + c_k over k, reduced in the
    order numpy reduces any row of n entries: one sum gives the bits that
    every phase row would, and it is broadcast over the 1 + 2n + n(n-1)/2
    phase rows.  Every basis pair has D[i, j] = 0.0 and i != j, so its
    expectation is 0.0 and all of them pass.  Either fact failing raises
    RuntimeError.  The certificate holds O(n^2) numbers; ParameterError,
    before allocating, once n^2 exceeds ``MAX_ENTRIES``.
    """
    n = p.n
    if n * n > MAX_ENTRIES:
        raise ParameterError(
            f"n = {n} is too large for the optimality certificate: {n * n:,} coordinates (limit {MAX_ENTRIES:,})"
        )
    structure = choi_structure(p)
    gens = spanning_generators(p)
    # xi (x) xi gives w . D . w - (sum w)^2 at w = 1; e_i (x) e_j gives
    # D[i, j] - [i = j], checked and written ``_PAIR_PIECE`` pairs at a time
    rows = _phase_rows(n)
    expectations = np.empty(rows + len(gens.pairs))
    expectations[:rows] = (np.sum(structure.a + structure.c) - n * n) / n
    consistent = _UNIT_WEIGHTS
    for start in range(0, len(gens.pairs), _PAIR_PIECE):
        i, j = gens.pairs[start : start + _PAIR_PIECE].T
        basis = structure.entry(i, j) - (i == j)
        consistent = consistent and not basis.any()
        np.divide(basis, n, out=expectations[rows + start : rows + start + basis.size])
    if not consistent:
        raise RuntimeError(
            "internal consistency failure: a phase weight |exp(i t)|^2 is not 1.0 "
            "or a basis-pair expectation is not 0.0"
        )
    phases_pass = bool(abs(expectations[0]) <= DECISION_TOL)

    report = classify_map(p, samples=0)
    pos = report.positive
    # the certified family: uniform c with a = n - c, and c = 0 (the map
    # n*diag(X) - X) or an atomic map (every cycle of length >= 3, not CP)
    theorem_applies = on_uniform_family(p) and (p.c[0] == 0.0 or report.atomic.status == YES)
    if theorem_applies and not phases_pass:
        raise RuntimeError(
            "internal consistency failure: generator expectation "
            f"{expectations[0]:.3e} nonzero inside the certified family"
        )

    # the basis pairs give one rank each; passing phase vectors fill the rest
    # but for one rank per 2-cycle of sigma
    span_rank = n * n - cycle_decompose(p.sigma).lengths.count(2) if phases_pass else len(gens.pairs)
    spanning = span_rank == n * n
    psd = structure.min_eigenvalue(compose_transpose=True) / n >= -DECISION_TOL

    warnings: list[str] = []
    if pos.status == NO:
        warnings.append("the underlying map is not positive, so this matrix is not a witness")
    elif pos.status == UNKNOWN:
        warnings.append("the positivity of the underlying map is undecided, so this matrix may not be a witness")
    if psd:
        warnings.append("the matrix is PSD and detects no entanglement")

    # only a witness can be optimal: the map positive and W not PSD
    optimal = spanning and pos.status == YES and not psd
    if not spanning:
        note = "spanning property not established: zero-expectation span is rank deficient"
    elif pos.status == UNKNOWN:
        note = "not certified: positivity undecided"
    elif not optimal:
        note = "not optimal: the matrix is not an entanglement witness"
    elif theorem_applies:
        note = "optimal: zero-expectation product vectors span C^n (x) C^n (certified family)"
    else:
        note = "optimal: spanning property verified numerically outside the certified family"

    return OptimalityCertificate(
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
    return float(np.einsum("ij,ji->", w, rho).real)  # Tr(W rho) without the product W rho


def maximally_entangled_state(n: int) -> np.ndarray:
    """The projector onto sum_i e_i (x) e_i, normalized to trace one."""
    if n < 2:
        raise ParameterError(f"needs n >= 2 (got {n})")
    require_dense_size(n)
    return assemble(n, 0.0, np.full((n, n), 1.0 / n))
