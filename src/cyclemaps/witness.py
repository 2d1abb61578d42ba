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
has (D[i, j] - [i = j]) / n.  The angles are 0, pi/2 and pi, where
|exp(i t)|^2 is 1.0 exactly, so w is all ones on every phase row and one
evaluation gives every phase expectation; the basis pairs' are 0.0 exactly.

The basis pairs are distinct standard basis vectors, so the span rank is
their number plus the rank of the phase vectors restricted to the
coordinates no basis pair covers: |kk> and |sigma(j) j>.  That rank comes
from the cycles of sigma alone (:func:`_phase_span_rank`): less the
all-ones row, every other phase row is a sum of rows that each live on one
cycle, and on an L-cycle these form circulants, whose singular values are
those of L Fourier symbols of size 3 x 2 (:func:`_cycle_symbols`).  One
batched SVD over at most n symbols replaces an SVD of the dense
restriction, and nothing built for the rank has more than O(n) entries.
When the phase vectors pass, the span rank is n^2 less the number of
2-cycles of sigma.

The minimum eigenvalue of W, which decides the PSD warning, comes from the
closed form of its 1x1 and 2x2 blocks (Lewenstein et al., PRA 62, 052310,
2000).  The certificate builds W itself only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import NO, YES, atomic_verdict, on_uniform_family, positivity_verdict
from .dmap import MapParams, assemble, choi_structure, require_dense_size
from .errors import ParameterError
from .matlin import DEFAULT_PSD_TOL, require_hermitian
from .perm import cycle_decompose

# A generator's expectation <W zeta, zeta> counts as zero within this bound.
EXPECTATION_TOL = 1e-9

# A singular value of the phase rows' symbols at most this times the largest counts as zero.
RANK_RTOL = 1e-8


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
    ``choi(p, compose_transpose=True).matrix / p.n`` bit for bit.  Raises
    ParameterError, before building the parts, when n^2 exceeds ``MAX_DIM``.
    """
    require_dense_size(p.n)
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


def _cycle_symbols(lengths: np.ndarray) -> np.ndarray:
    """The Fourier symbols of the phase rows on one cycle of each length in ``lengths``.

    Returns the stack of S_L(f) for each L and f = 0, ..., L - 1 in turn, of
    shape (sum(lengths), 3, 2): rows A, B, P and columns diagonal, edge, as
    in :func:`_phase_span_rank`.  With z = exp(2 pi i f / L) and the phase
    values m = exp(i pi), h = exp(i pi / 2) that the phase table takes,

        S_L(f) = [[0,         (m - 1) (1 + 1/z)],
                  [h^2 - 1,   (h - 1) (1 + 1/z)],
                  [0,         (m - 1) (z + 1/z)]],

    with the P row zero for L <= 2 and the edge column zero for L = 1.

    >>> s = _cycle_symbols(np.array([4, 2]))  # the 4-cycle of tau(4, 1), then a 2-cycle
    >>> np.round(s[0], 12)  # the 4-cycle at f = 0
    array([[ 0.+0.j, -4.+0.j],
           [-2.+0.j, -2.+2.j],
           [ 0.+0.j, -4.+0.j]])
    >>> np.abs(s[5]).round(12)  # the 2-cycle at f = 1, where 1 + 1/z = 0
    array([[0., 0.],
           [2., 0.],
           [0., 0.]])
    >>> np.count_nonzero(np.linalg.svd(s, compute_uv=False) > 1e-8, axis=1)
    array([2, 2, 2, 2, 2, 1])
    """
    length = np.repeat(lengths, lengths)
    f = np.arange(length.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    z = np.exp(2j * np.pi * f / length)
    h, m = np.exp(1j * np.array([np.pi / 2, np.pi]))
    edge = np.where(length >= 2, 1.0 + z.conj(), 0.0)
    out = np.zeros((length.size, 3, 2), dtype=complex)
    out[:, 0, 1] = (m - 1.0) * edge
    out[:, 1, 0] = h * h - 1.0
    out[:, 1, 1] = (h - 1.0) * edge
    out[:, 2, 1] = np.where(length >= 3, (m - 1.0) * (z + z.conj()), 0.0)
    return out


def _phase_span_rank(lengths: tuple[int, ...]) -> int:
    """The rank of the phase vectors restricted to the coordinates no basis
    pair covers, for sigma with cycles of the given lengths.

    Those coordinates are |kk> for every k and |sigma(j) j> for every j that
    sigma moves.  Phase row r has the entry xi_k xi_l at |kl>, with xi_k =
    exp(i t_k) for t_k in {0, pi/2, pi}; write 1, h, m for these values (in
    exact arithmetic h = i and m = -1).  The rows are r0 (all angles 0),
    A_d (pi at d), B_d (pi/2 at d) and P_kl (pi at k < l).  Subtracting r0
    from every other row keeps the rank, and leaves:

    * A_d - r0: m - 1 at |sigma(d) d> and at |d sigma^-1(d)> if sigma moves
      d, and m^2 - 1 = 0 at |dd>;
    * B_d - r0: h^2 - 1 at |dd>, and h - 1 at those two if sigma moves d;
    * P_kl - r0: m - 1 at |sigma(j) j> where exactly one of j, sigma(j) lies
      in {k, l}, and m^2 - 1 = 0 where both do and at |kk>, |ll>.  That is
      (A_k - r0) + (A_l - r0) unless some |sigma(j) j> has both, that is
      unless {k, l} = {j, sigma(j)} is a sigma-edge; the edge of a 2-cycle
      gives zero.

    So only r0, the A and B rows and the edge rows of cycles of length
    L >= 3 can add rank.  Each of these rows but r0 lives on the columns of
    one cycle (|dd> and |sigma(d) d> for d in it), so their rank is the sum
    of the per-cycle ranks, and r0 adds one iff on some cycle the all-ones
    vector is outside that cycle's row space.  Number an L-cycle
    d_t = sigma^t(d_0), t mod L, with diagonal columns |d_t d_t> and edge
    columns |d_(t+1) d_t>.  The rows of d_t (and of the edge
    {d_t, d_(t+1)}, for L >= 3) have their nonzeros at fixed offsets from t:
    A at edge columns t, t - 1; B at diagonal t and edge t, t - 1; P at edge
    t - 1, t + 1.  The cycle's block is thus 3 x 2 blocks of L x L circulants.
    The unitary L-point DFT of both column groups and of the three row
    families turns each circulant into the diagonal of its symbol
    sum_s v_s z^s, z = exp(2 pi i f / L), and the block into the direct sum
    of the 3 x 2 symbols S_L(f) of :func:`_cycle_symbols`: the block's
    singular values are theirs, and the all-ones row becomes sqrt(L) [1, 1]
    at f = 0.  A fixed point d has the one column |dd>, where A_d - r0 is
    zero and B_d - r0 is h^2 - 1, which is S_1(0) with its edge column
    dropped.  Equal lengths give equal blocks.  Hence the rank is the sum
    over lengths of (cycles of that length) x (rank of its L symbols), plus
    one iff [1, 1] ([1] at L = 1) is outside the row space of S_L(0) for
    some L.

    The rank is numerical: a singular value at most ``RANK_RTOL`` times the
    largest counts as zero.  Exactly, S_L(f) has rank 2 unless L = 1, or
    L = 2 and f = 1 (rank 1); its first column has norm 2 and the part of
    the second orthogonal to it has norm at least sqrt(7) where the rank is
    2, and its Frobenius norm is at most sqrt(44).  So every nonzero
    singular value lies in [2 sqrt(7) / sqrt(44), sqrt(44)] = [0.79, 6.7],
    while rounding (h and m are within 1.3e-16 of i and -1) moves a
    singular value by about 1e-15: the count is the exact rank, n^2 less
    the number of 2-cycles in all.
    """
    length, count = np.unique(lengths, return_counts=True)
    symbols = _cycle_symbols(length)
    first = np.cumsum(length) - length  # f = 0 of each length
    k = symbols.shape[0]
    # one batch: every symbol with a zero fourth row, then each S_L(0) with the all-ones row
    stack = np.zeros((k + length.size, 4, 2), dtype=complex)
    stack[:k, :3] = symbols
    stack[k:, :3] = symbols[first]
    stack[k:, 3, 0] = 1.0
    stack[k:, 3, 1] = length >= 2
    s = np.linalg.svd(stack, compute_uv=False)
    rank = np.count_nonzero(s > RANK_RTOL * s[:k].max(), axis=1)
    cycles = int(np.add.reduceat(rank[:k], first) @ count)
    return cycles + int(np.any(rank[k:] > rank[first]))


def certify_optimality(p: MapParams) -> OptimalityCertificate:
    """Check the spanning property of the witness of p.

    Every generator's expectation <W zeta, zeta> is recorded; those within
    ``EXPECTATION_TOL`` of zero enter the rank computation, and rank n^2 means
    the witness is optimal.  Inside the certified uniform family a nonzero
    expectation is an internal bug and raises; outside it the same machinery
    runs and the verdict simply reports what the numbers show.

    Every phase row has w = |xi|^2 all ones (|exp(i t)|^2 is 1.0 exactly at
    the table's angles 0, pi/2 and pi), so the phase expectation is
    evaluated once, on a single row of ones, and broadcast: numpy reduces
    each row of a (rows, n) array alone and in the same order, so one row
    gives the bits that every row of the table would.  Every
    basis pair has D[i, j] = 0.0 and i != j, so its expectation is 0.0 and
    all of them pass.  Either fact failing raises RuntimeError.
    """
    n = p.n
    structure = choi_structure(p)
    gens = spanning_generators(p)
    # <xi (x) xi| n W |xi (x) xi> = w . D . w - (sum w)^2, and e_i (x) e_j gives D[i, j] - [i = j]
    w = np.ones((1, n))
    phase = np.sum((structure.a * w + structure.c * w[:, structure.img]) * w, axis=1) - w.sum(axis=1) ** 2
    i, j = gens.pairs.T
    basis = structure.entry(i, j) - (i == j)
    unit = np.abs(np.exp(1j * np.array([0.0, np.pi / 2, np.pi]))) ** 2
    if not (np.all(unit == 1.0) and not basis.any()):
        raise RuntimeError(
            "internal consistency failure: a phase weight |exp(i t)|^2 is not 1.0 "
            "or a basis-pair expectation is not 0.0"
        )
    expectations = np.concatenate([np.broadcast_to(phase, len(gens.phases)), basis]) / n
    phases_pass = bool(abs(expectations[0]) <= EXPECTATION_TOL)

    pos = positivity_verdict(p)
    # the certified family: uniform c with a = n - c, and c = 0 (the map
    # n*diag(X) - X) or an atomic map (every cycle of length >= 3, not CP)
    theorem_applies = on_uniform_family(p) and (
        p.c[0] == 0.0 or atomic_verdict(p, pos=pos).status == YES
    )
    if theorem_applies and not phases_pass:
        raise RuntimeError(
            "internal consistency failure: generator expectation "
            f"{expectations[0]:.3e} nonzero inside the certified family"
        )

    # the basis pairs are distinct standard basis vectors, one rank each; the
    # phase vectors add the rank of their restriction to the rest
    span_rank = len(gens.pairs) + (_phase_span_rank(cycle_decompose(p.sigma).lengths) if phases_pass else 0)
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
