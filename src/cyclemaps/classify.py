"""Verdicts on the map family: positivity, 2-positivity, complete positivity,
atomicity and decomposability.

Every verdict is a :class:`Verdict` with status ``"yes"``, ``"no"`` or
``"unknown"``, the criterion that produced it, and numeric evidence.  Numeric
sampling is always reported as evidence; it never upgrades a verdict to "yes"
on its own where a decisive criterion exists, and where no criterion applies
the status stays "unknown" with the measured worst-case data attached.

The decisive criteria, each written once in the function that every caller
(:func:`classify_map` included) reads:

* :func:`positivity_verdict`: a >= max(n-1, n - geomean(c)) makes the map
  positive for every sigma, sharply when sigma is one full n-cycle; at
  sigma = id the map is an entrywise multiplier whose matrix is K below, so
  it reads the CP verdict; on the uniform family a = n - c it is positive
  iff c <= n/l_max;
* :func:`cp_verdict`: the Choi matrix is PSD, which comes down to the n x n
  core K = diag(a + c_i [sigma(i) = i]) - J; with every cycle of sigma of
  length >= 2 that is a >= n, and 2-positivity coincides with it
  (:func:`two_positive_verdict`);
* ``_implied_by_cp``: complete positivity implies positivity and 2-positivity;
* ``_atomic_and_decomposable``: complete positivity or the involution split
  makes the map decomposable, not atomic; positive, not completely positive
  with every cycle of length >= 3 makes it atomic (no split into a 2-positive
  part plus a transposed 2-positive part), not decomposable;
* ``_involution_split``: when sigma is an involution and a >= n-1,
  c_i >= 1 at fixed points, c_i * c_sigma(i) >= 1 on the 2-cycles (and P's
  block is PSD, as they imply up to their tolerances), the Choi matrix
  splits explicitly (:func:`decompose_involution`) into a PSD block
  plus blocks whose partial transposes are PSD.

Every verdict is a function of the map alone: it reads the O(n) Choi structure
and cycle lengths the map keeps (:func:`cyclemaps.dmap.choi_structure`), and with
P one more secular row none builds an n x n array or runs a dense eigensolve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .dmap import MapParams, _row_reduce, _theta_min_eigenvalue, assemble, choi_structure, pair_block_eigenvalues, require_dense_size
from .errors import ParameterError, PreconditionError
from .matlin import DECISION_TOL, MAX_ENTRIES
from .perm import cycle_decompose, is_involution, is_single_cycle

# Tolerance for the sampled quantity S(xi) when used as positivity evidence.
S_ORACLE_TOL = 1e-7

_LAMBDA_GRID = (4.0, 32.0, 256.0, 1e4, 1e8)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """One classification answer: status, deciding criterion, numeric evidence."""

    status: str
    criterion: str
    evidence: dict


@dataclass(frozen=True, eq=False)
class PositivityEvidence:
    """Worst cases found by sampling S(xi) and the spectra of Theta(xi xi*).

    ``max_s <= 1 + S_ORACLE_TOL`` is evidence of positivity (S(xi) <= 1 for
    every unit vector characterizes it); ``max_s > 1 + S_ORACLE_TOL`` exhibits
    a concrete witness vector against positivity.  ``worst_vector`` is the
    real unit vector sqrt(w) of the row w = |xi|^2 with the largest S; every
    xi with |xi|^2 = w has that S and the same spectrum of Theta(xi xi*).
    """

    max_s: float
    worst_vector: np.ndarray
    min_theta_eig: float
    num_vectors: int

    @property
    def consistent_with_positive(self) -> bool:
        return self.max_s <= 1.0 + S_ORACLE_TOL


@dataclass(frozen=True, eq=False)
class DecomposabilityCertificate:
    """Explicit Choi split C = P + sum_i Q_i for involutions.

    P is PSD and vanishes off span{|ii>}; each 2-cycle (i, sigma(i)) with
    i < sigma(i), a row of ``pairs``, has a Q block with a PSD partial transpose
    (least eigenvalue in ``q_pt_min_eigenvalues``), and the sum reproduces the
    Choi matrix up to ``reconstruction_residual``.  Both arrays are read-only;
    ``p_block`` (P on span{|ii>}), ``P`` and ``q_blocks`` are built when read.
    """

    params: MapParams
    pairs: np.ndarray
    reconstruction_residual: float
    p_min_eigenvalue: float
    q_pt_min_eigenvalues: np.ndarray

    @cached_property
    def p_block(self) -> np.ndarray:
        """P on span{|ii>}: 0 at (i, sigma(i)) off the diagonal, else -1; ParameterError past n^2 = ``MAX_ENTRIES``."""
        n, img, idx = self.params.n, choi_structure(self.params).img, np.arange(self.params.n)
        if n * n > MAX_ENTRIES:
            raise ParameterError(f"n = {n} is too large for P's n x n block: {n * n:,} entries (limit {MAX_ENTRIES:,})")
        block = -np.ones((n, n))
        block[idx, img] = 0.0
        block[idx, idx] = _p_diagonal(self.params)
        return block

    @cached_property
    def P(self) -> np.ndarray:
        n = self.params.n
        if n * n <= MAX_ENTRIES:  # past it, p_block refuses first with its own bound
            require_dense_size(n)
        return assemble(n, 0.0, self.p_block)

    @cached_property
    def q_blocks(self) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
        n, c = self.params.n, choi_structure(self.params).c
        require_dense_size(n)
        return tuple(((u, v), assemble(n, *_q_parts(n, c, u - 1, v - 1))) for u, v in self.pairs.tolist())


@dataclass(frozen=True)
class ClassificationReport:
    """All five verdicts for one parameter point, plus any split certificate."""

    positive: Verdict
    two_positive: Verdict
    completely_positive: Verdict
    atomic: Verdict
    decomposable: Verdict
    decomposition: Optional[DecomposabilityCertificate]


def geometric_mean_c(p: MapParams) -> float:
    c = choi_structure(p).c
    if not c.all():
        return 0.0
    return float(np.exp(np.mean(np.log(c))))


def _adversarial_amplitudes(p: MapParams) -> np.ndarray:
    """Structured |x_i|^2 assignments that press hardest on S(xi).

    Two families, laid cycle by cycle along sigma's orbits: geometrically
    decaying weights ratio lambda (their S tends to (L-1)/a per cycle of
    length L as lambda grows), and weights balancing c_i alpha_sigma(i) /
    alpha_i to the in-cycle geometric mean d of c (their S is exactly
    sum_cycles L / (a + d)).
    """
    n = p.n
    cycles = cycle_decompose(p.sigma).cycles
    rows = [np.ones(n)]
    exponent = np.empty(n)
    for cycle in cycles:
        length = len(cycle)
        for s in range(1, length + 1):
            exponent[cycle[s % length] - 1] = length - s
    # S is scale-invariant: scaling by lam^-max keeps cycles longer than
    # ~38 from overflowing at lam = 1e8 (entries that underflow become 0)
    exponent -= exponent.max()
    for lam in _LAMBDA_GRID:
        rows.append(lam**exponent)
    if all(ci > 0 for ci in p.c):
        # alpha at sigma^k of a cycle's start is prod_{j <= k} d / c_j, taken
        # in logs and scaled by the row's maximum so that no weight overflows
        log_alpha = np.empty(n)
        for cycle in cycles:
            length = len(cycle)
            log_cs = [math.log(p.c[i - 1]) for i in cycle]
            log_d, running = sum(log_cs) / length, 0.0
            for k in range(1, length + 1):
                running += log_d - log_cs[k - 1]
                log_alpha[cycle[k % length] - 1] = running
        rows.append(np.exp(log_alpha - log_alpha.max()))
    return np.asarray(rows)


def verify_positivity_numeric(p: MapParams, samples: int = 2000, seed: int = 0) -> PositivityEvidence:
    """Sample S(xi) = sum_i |x_i|^2 / (a |x_i|^2 + c_i |x_sigma(i)|^2) and the
    spectra of Theta(xi xi*) over random unit vectors plus the structured
    adversarial families.

    Theta(xi xi*) = diag(den) - xi xi*, with den_i = a w_i + c_i w_sigma(i)
    and w = |xi|^2, is a rank-one update of a diagonal, so its minimum
    eigenvalue comes in O(n) per vector from the secular solver that gives
    the Choi core's and the involution split's as well
    (:func:`cyclemaps.dmap._theta_min_eigenvalue`), bit-identical to
    solving every vector to convergence.

    Only w is drawn: S, den and the spectrum depend on xi through w alone,
    as xi = U sqrt(w) for a diagonal phase unitary U, which commutes with
    diag(den), so Theta(xi xi*) = U (diag(den) - sqrt(w) sqrt(w)^T) U*.  A
    uniform unit vector of C^n is g / |g| for i.i.d. standard complex normals
    g_i, whose |g_i|^2 / 2 are i.i.d. Exp(1), so its w is E / sum E for
    i.i.d. Exp(1) variables E: the uniform law on the simplex (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. V).  Each row, n such
    draws or adversarial weights, is divided by its exact row sum.  The rows
    are the columns of one C-ordered (n, rows) block, so each row sum folds
    over contiguous columns (:func:`cyclemaps.dmap._row_reduce`), and the
    solve deflates the block and den in place: about 26 bytes per entry.

    Counter-based (Philox) seeding keeps runs reproducible for a given seed,
    which must lie in Philox's key range (:func:`check_sampling`).
    ``samples * n`` may not exceed ``MAX_ENTRIES`` (2000 samples reach n = 4194).
    """
    check_sampling(samples, seed)
    n = p.n
    entries = int(samples) * n  # a numpy integer's product would wrap past its width
    if entries > MAX_ENTRIES:
        raise ParameterError(
            f"samples * n = {samples} * {n} is too large for the sampler: "
            f"{entries:,} entries (limit {MAX_ENTRIES:,})"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    adversarial = _adversarial_amplitudes(p)
    block = np.empty((n, samples + len(adversarial)))  # C-ordered: amps = block.T has contiguous columns
    block[:, :samples] = rng.standard_exponential((samples, n)).T  # drawn sample-major, then freed
    block[:, samples:] = adversarial.T
    block /= _row_reduce(np.add, block.T)

    structure = choi_structure(p)
    den = block[structure.img]  # a w + c w_sigma, summed in place
    den *= structure.c[:, None]
    den += p.a * block
    amps, den = block.T, den.T
    s_vals = _row_reduce(np.add, np.divide(amps, den, out=np.zeros_like(amps), where=den > 0))  # its terms freed here
    worst = int(np.argmax(s_vals))

    # den holds exactly the diagonal of Delta(xi xi*); the solve, last, overwrites amps and den
    return PositivityEvidence(
        max_s=float(s_vals[worst]),
        worst_vector=np.sqrt(amps[worst]),
        min_theta_eig=_theta_min_eigenvalue(amps, den),
        num_vectors=int(amps.shape[0]),
    )


def on_uniform_family(p: MapParams) -> bool:
    """Uniform weights c with a = n - c (to within DECISION_TOL)."""
    return p.uniform_c and abs(p.a - (p.n - p.c[0])) <= DECISION_TOL


def positivity_verdict(p: MapParams, evidence: Optional[PositivityEvidence] = None) -> Verdict:
    """Decide positivity where a criterion exists, complete positivity last
    (read only at sigma = id or when every other criterion is silent);
    otherwise unknown.  ``evidence``, the sampler's output, is reported and
    never decides."""
    n, a = p.n, p.a
    geomean = geometric_mean_c(p)
    threshold = max(n - 1.0, n - geomean)
    ev = {"a": a, "threshold": threshold, "geometric_mean_c": geomean}
    if evidence is not None:
        ev.update(
            max_s=evidence.max_s,
            min_theta_eig=evidence.min_theta_eig,
            sampled_vectors=evidence.num_vectors,
            s_tol=S_ORACLE_TOL,
        )
    if a >= threshold - DECISION_TOL:
        return Verdict(YES, "a >= max(n-1, n-geomean(c)): sufficient for every sigma", ev)
    if is_single_cycle(p.sigma):
        return Verdict(
            NO, "a below max(n-1, n-geomean(c)): that bound is necessary for a full n-cycle", ev
        )
    if p.sigma.is_identity():
        # at sigma = id the entrywise-multiplier matrix is the Choi core K, and the Choi
        # matrix adds only zeros to its spectrum: positivity is complete positivity
        ev["schur_min_eigenvalue"] = choi_structure(p).core_min
        return Verdict(cp_verdict(p).status, "entrywise-multiplier matrix PSD test (sigma = id)", ev)
    if on_uniform_family(p):
        l_max = cycle_decompose(p.sigma).l_max
        ev["cycle_bound"] = n / l_max
        status = YES if p.c[0] <= n / l_max + DECISION_TOL else NO
        return Verdict(status, "uniform family a = n - c: positive iff c <= n/l_max(sigma)", ev)
    return _implied_by_cp(cp_verdict(p), ev, "no positivity criterion applies below the threshold for this sigma")


def check_sampling(samples, seed, names: tuple[str, str] = ("samples", "seed")) -> None:
    """ParameterError naming the argument unless ``samples`` and ``seed`` are
    integers (an int or a numpy integer, not a bool), ``samples >= 0`` and
    ``seed`` in Philox's key range 0 <= seed < 2**128."""
    for value, name in zip((samples, seed), names):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterError(f"{name} must be an integer (got {value!r})")
    if samples < 0:
        raise ParameterError(f"{names[0]} must be >= 0 (got {samples})")
    if not 0 <= int(seed) < 2**128:
        raise ParameterError(f"{names[1]} must satisfy 0 <= seed < 2**128 (got {seed})")


def cp_verdict(p: MapParams) -> Verdict:
    """Complete positivity: the Choi matrix is PSD (Choi, Linear Algebra
    Appl. 10, 1975).

    Its minimum eigenvalue comes from the structured form: the least of the
    n x n core's eigenvalues, the weights c_i at non-fixed i, and 0 when the
    Choi matrix has a kernel.  The weights are non-negative, so the core
    decides; with every cycle of length >= 2 the core is a*I - J and the
    test reads a >= n.  A minimum of at least -``DECISION_TOL`` reads "yes"."""
    choi_min = choi_structure(p).min_eigenvalue()
    ev = {"a": p.a, "l_min": cycle_decompose(p.sigma).l_min, "choi_min_eigenvalue": choi_min}
    status = YES if choi_min >= -DECISION_TOL else NO
    return Verdict(status, "Choi matrix PSD (numeric eigenvalue check)", ev)


def two_positive_verdict(p: MapParams) -> Verdict:
    """2-positivity; it collapses onto complete positivity except in the mixed
    fixed-point cases, which stay unknown unless complete positivity holds."""
    cp = cp_verdict(p)
    ev = dict(cp.evidence)
    if cycle_decompose(p.sigma).l_min >= 2:
        return Verdict(
            cp.status, "2-positivity and complete positivity coincide when every cycle has length >= 2", ev
        )
    if p.sigma.is_identity():
        return Verdict(
            cp.status, "at sigma = id positivity and complete positivity coincide, squeezing 2-positivity", ev
        )
    return _implied_by_cp(cp, ev, "no 2-positivity criterion when sigma mixes fixed points with longer cycles")


def _implied_by_cp(cp: Verdict, ev: dict, otherwise: str) -> Verdict:
    """Yes when complete positivity holds, as it implies positivity and
    2-positivity; else unknown under the ``otherwise`` criterion."""
    if cp.status == YES:
        return Verdict(YES, "implied by complete positivity", ev)
    return Verdict(UNKNOWN, otherwise, ev)


def _two_cycles(p: MapParams) -> tuple[np.ndarray, np.ndarray]:
    """The 2-cycles (u, v) of an involution sigma, 0-based, with u < v = sigma(u), in the order of u."""
    img = choi_structure(p).img
    u = np.flatnonzero(np.arange(p.n) < img)
    return u, img[u]


def _p_diagonal(p: MapParams) -> np.ndarray:
    """The diagonal of P's block: a - 1, plus c_i at a fixed point i."""
    structure = choi_structure(p)
    return np.where(structure.img == np.arange(p.n), p.a + structure.c, p.a) - 1.0


def decompose_involution(p: MapParams) -> DecomposabilityCertificate:
    """Split the Choi matrix of an involution-driven map into a PSD block plus
    one block per 2-cycle whose partial transpose is PSD.

    Preconditions (each failure is reported by name): sigma an involution,
    a >= n-1, c_i >= 1 at fixed points, c_i * c_sigma(i) >= 1 on 2-cycles,
    and P's block PSD, which the others imply but for their tolerances.
    """
    split = _involution_split(p)
    if isinstance(split, str):
        raise PreconditionError(split)
    return split


def _p_block_min(p: MapParams) -> float:
    """The least eigenvalue of P's block for an involution sigma, in O(n).

    The block is M - J, M = diag(k) plus 1 at (u, v) and (v, u) on each 2-cycle,
    whose (e_u - e_v)/sqrt(2) has eigenvalue a - 1; with (e_u + e_v)/sqrt(2) the
    rest is diag(d) - xi xi*, d = a + 1 and |xi|^2 = 2 per 2-cycle, d = k_i and
    |xi|^2 = 1 per fixed point: one secular row, a - 1 deflated (xi = 0)."""
    u, v = _two_cycles(p)
    w, d = np.ones(p.n), p.a + choi_structure(p).c
    w[u], d[u] = 2.0, p.a + 1.0
    w[v], d[v] = 0.0, p.a - 1.0
    return _theta_min_eigenvalue(w[None, :], d[None, :])


def _involution_split(p: MapParams) -> DecomposabilityCertificate | str:
    """The involution split's certificate, in O(n), or the first precondition
    it fails: each test reads whole arrays and names its first failure in
    index order, and P's least eigenvalue is solved once."""
    if not is_involution(p.sigma):
        return "sigma is not an involution: sigma(sigma(i)) != i for some i"
    if p.a < p.n - 1 - DECISION_TOL:
        return f"requires a >= n - 1 = {p.n - 1} (got a = {p.a})"
    structure = choi_structure(p)
    c, idx = structure.c, np.arange(p.n)
    short = np.flatnonzero((structure.img == idx) & (c < 1.0 - DECISION_TOL))
    if short.size:
        i = int(short[0]) + 1
        return f"requires c[{i}] >= 1 at the fixed point {i} (got c[{i}] = {p.c[i - 1]})"
    u, v = _two_cycles(p)
    products = c[u] * c[v]
    short = np.flatnonzero(products < 1.0 - DECISION_TOL)
    if short.size:
        i, j = int(u[short[0]]) + 1, int(v[short[0]]) + 1
        return f"requires c[{i}]*c[{j}] >= 1 for the 2-cycle ({i}, {j}) (got {float(products[short[0]])})"
    # a and the c_i at fixed points each within DECISION_TOL of their bounds can
    # still leave P's block, shifted down by both, short of PSD at DECISION_TOL
    block_min = _p_block_min(p)
    if block_min < -DECISION_TOL:
        return f"requires P's least eigenvalue >= -{DECISION_TOL:g} (got {block_min})"
    # P + sum Q against C where the split sets entries: P's diagonal against K's, P's 0 plus Q's -1
    # at |uu><vv| against K's -1, Q's c_v, c_u against D; equal entries match, overflowed ones too
    got = np.concatenate([_p_diagonal(p), np.full(u.size, 0.0 + -1.0), c[v], c[u]])
    want = np.concatenate([structure.entry(idx, idx) - 1.0, np.full(u.size, -1.0), structure.entry(u, v), structure.entry(v, u)])
    residual = float(np.max(np.abs(np.subtract(got, want, out=np.zeros(got.size), where=got != want))))
    # P adds n^2 - n zeros off span{|ii>}; Q^PT is [[c_v, -1], [-1, c_u]] on {|uv>, |vu>}, else 0
    q_lo, _ = pair_block_eigenvalues(c[v], c[u])
    q_pt_mins = np.minimum(q_lo, 0.0)
    if not (residual <= 1e-10 and (q_pt_mins >= -DECISION_TOL).all()):
        raise RuntimeError(
            "internal consistency failure: involution split does not certify "
            f"(residual {residual:.3e}, min eig Q^PT {q_pt_mins.min(initial=0.0):.3e})"
        )
    pairs = np.stack([u + 1, v + 1], axis=1)
    pairs.flags.writeable = q_pt_mins.flags.writeable = False
    return DecomposabilityCertificate(p, pairs, residual, min(block_min, 0.0 if p.n >= 2 else math.inf), q_pt_mins)


def _q_parts(n: int, c: np.ndarray, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the Q blocks on the 2-cycles (u, v), 0-based: c_v at |uv>, c_u at |vu>, -1 between |uu> and |vv>."""
    diag, core = np.zeros((n, n)), np.zeros((n, n))
    diag[u, v], diag[v, u] = c[v], c[u]
    core[u, v] = core[v, u] = -1.0
    return diag, core


def _atomic_and_decomposable(
    p: MapParams, pos: Verdict, cp: Verdict
) -> tuple[Verdict, Verdict, Optional[DecomposabilityCertificate]]:
    """The atomic and the decomposable verdict from one rule: complete
    positivity or the involution split gives decomposable, not atomic;
    positive, not completely positive with every cycle of length >= 3 gives
    atomic, not decomposable; anything else leaves both unknown.  The
    involution split's certificate comes with them when the split decides."""
    l_min = cycle_decompose(p.sigma).l_min
    cert = None
    if cp.status == YES:
        atomic = (NO, "completely positive maps are not atomic")
        decomposable = (YES, "completely positive (trivial split with no transposed part)")
    elif l_min >= 3 and pos.status == YES and cp.status == NO:
        atomic = (YES, "positive, not completely positive, every cycle of length >= 3")
        decomposable = (NO, "atomic maps are not decomposable")
    elif isinstance(split := _involution_split(p), DecomposabilityCertificate):
        atomic = (NO, "decomposable by the involution splitting")
        decomposable = (YES, "involution splitting into a PSD block plus 2-cycle blocks with PSD partial transposes")
        cert = split
    else:
        atomic = (UNKNOWN, "no atomicity criterion applies")
        decomposable = (UNKNOWN, "no decomposability criterion applies")
    atomic_ev = {"l_min": l_min, "positive": pos.status, "completely_positive": cp.status}
    split_ev = {} if cert is None else {
        "reconstruction_residual": cert.reconstruction_residual,
        "p_min_eigenvalue": cert.p_min_eigenvalue,
    }
    return Verdict(*atomic, atomic_ev), Verdict(*decomposable, split_ev), cert


def atomic_verdict(p: MapParams) -> Verdict:
    """Atomicity by the rule it shares with decomposability in :func:`classify_map`."""
    return _atomic_and_decomposable(p, positivity_verdict(p), cp_verdict(p))[0]


def classify_map(
    p: MapParams,
    samples: int = 2000,
    seed: int = 0,
) -> ClassificationReport:
    """Produce all five verdicts, with sampling evidence and cross-checked closure.

    ``samples = 0`` skips the sampler; ``samples`` and ``seed`` that
    :func:`check_sampling` refuses, or ``samples * n`` past ``MAX_ENTRIES``,
    raise ParameterError, the seed whether or not the sampler runs."""
    check_sampling(samples, seed)
    evidence = verify_positivity_numeric(p, samples=samples, seed=seed) if samples > 0 else None
    cp = cp_verdict(p)
    pos = positivity_verdict(p, evidence)
    two = two_positive_verdict(p)
    atomic, decomposable, decomposition = _atomic_and_decomposable(p, pos, cp)
    _check_closure(pos, two, cp, atomic, decomposable)
    return ClassificationReport(
        positive=pos,
        two_positive=two,
        completely_positive=cp,
        atomic=atomic,
        decomposable=decomposable,
        decomposition=decomposition,
    )


def _check_closure(pos, two, cp, atomic, decomposable) -> None:
    """Implication closure between verdicts; a violation is an internal bug."""
    broken = (
        (cp.status == YES and two.status != YES)
        or (two.status == YES and pos.status == NO)
        or (cp.status == YES and pos.status == NO)
        or (atomic.status == YES and cp.status != NO)
        or (atomic.status == YES and decomposable.status != NO)
        or (decomposable.status == YES and atomic.status == YES)
        or (atomic.status == YES and pos.status != YES)
    )
    if not broken:
        return
    raise RuntimeError(
        "internal consistency failure between verdicts: "
        f"positive={pos.status}, two_positive={two.status}, cp={cp.status}, "
        f"atomic={atomic.status}, decomposable={decomposable.status}"
    )
