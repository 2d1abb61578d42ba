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
  sigma = id the map is an entrywise multiplier (one n x n PSD test, on K
  below); on the uniform family a = n - c it is positive iff c <= n/l_max;
* :func:`cp_verdict`: the Choi matrix is PSD, which comes down to the n x n
  core K = diag(a + c_i [sigma(i) = i]) - J; with every cycle of sigma of
  length >= 2 that is a >= n, and 2-positivity coincides with it
  (:func:`two_positive_verdict`);
* ``_implied_by_cp``: complete positivity implies positivity and 2-positivity;
* ``_atomic_and_decomposable``: complete positivity or the involution split
  makes the map decomposable, not atomic; positive, not completely positive
  with every cycle of length >= 3 makes it atomic (no split into a 2-positive
  part plus a transposed 2-positive part), not decomposable;
* ``_involution_split_failure``: when sigma is an involution and a >= n-1,
  c_i >= 1 at fixed points, c_i * c_sigma(i) >= 1 on the 2-cycles, the Choi
  matrix splits explicitly (:func:`decompose_involution`) into a PSD block
  plus blocks whose partial transposes are PSD.

Every verdict, the split included, reads the O(n) Choi structure
(:func:`cyclemaps.dmap.choi_structure`); the split's certificate holds P's
n x n block and the 2-cycles, and builds no n^2 x n^2 matrix until read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .dmap import MapParams, _theta_min_eigenvalue, assemble, choi_structure, pair_block_eigenvalues, parts_distance
from .errors import ParameterError, PreconditionError
from .matlin import DEFAULT_PSD_TOL, MAX_ENTRIES, min_eigenvalue
from .perm import cycle_decompose, fixed_points, is_involution, is_single_cycle

# Boundary cases a == threshold are resolved inclusively at this tolerance.
BOUNDARY_TOL = 1e-9

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


@dataclass(frozen=True)
class PositivityEvidence:
    """Worst cases found by sampling S(xi) and the spectra of Theta(xi xi*).

    ``max_s <= 1 + tol`` is evidence of positivity (S(xi) <= 1 for every unit
    vector characterizes it); ``max_s > 1 + tol`` exhibits a concrete witness
    vector against positivity.
    """

    max_s: float
    worst_vector: np.ndarray
    min_theta_eig: float
    num_vectors: int
    tol: float

    @property
    def consistent_with_positive(self) -> bool:
        return self.max_s <= 1.0 + self.tol


@dataclass(frozen=True)
class DecomposabilityCertificate:
    """Explicit Choi split C = P + sum_i Q_i for involutions.

    P is PSD and is ``p_block`` on span{|ii>}; each 2-cycle (i, sigma(i)) with
    i < sigma(i) in ``pairs`` has a Q block with a PSD partial transpose, and
    the sum reproduces the Choi matrix up to ``reconstruction_residual``.  The
    dense ``P`` and ``q_blocks`` (each pair with its Q) are built when read.
    """

    params: MapParams
    p_block: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    reconstruction_residual: float
    p_min_eigenvalue: float
    q_pt_min_eigenvalues: tuple[float, ...]

    @cached_property
    def P(self) -> np.ndarray:
        return assemble(self.params.n, 0.0, self.p_block)

    @cached_property
    def q_blocks(self) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
        n, c = self.params.n, np.asarray(self.params.c)
        return tuple((pair, assemble(n, *_q_parts(n, c, pair[0] - 1, pair[1] - 1))) for pair in self.pairs)


@dataclass(frozen=True)
class ClassificationReport:
    """All five verdicts for one parameter point, plus any split certificate."""

    params: MapParams
    positive: Verdict
    two_positive: Verdict
    completely_positive: Verdict
    atomic: Verdict
    decomposable: Verdict
    decomposition: Optional[DecomposabilityCertificate]


def geometric_mean_c(p: MapParams) -> float:
    c = np.asarray(p.c, dtype=float)
    if np.any(c == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(c))))


def positivity_threshold(p: MapParams) -> float:
    """max(n-1, n - geomean(c)): at or above it the map is positive for any sigma."""
    return _threshold(p, geometric_mean_c(p))


def _threshold(p: MapParams, geomean: float) -> float:
    return max(p.n - 1.0, p.n - geomean)


def schur_matrix(p: MapParams) -> np.ndarray:
    """The entrywise-multiplier matrix representing the map when sigma = id:
    diagonal a + c_i - 1, off-diagonal -1."""
    m = -np.ones((p.n, p.n), dtype=complex)
    for i in range(p.n):
        m[i, i] = p.a + p.c[i] - 1.0
    return m


def elementary_symmetric(xs) -> list[float]:
    """e_0, e_1, ..., e_n of the given reals, by the product recurrence."""
    e = [1.0]
    for x in xs:
        x = float(x)
        e.append(0.0)
        for k in range(len(e) - 1, 0, -1):
            e[k] += x * e[k - 1]
    return e


def symmetric_F(a: float, xs) -> float:
    """The symmetric polynomial sum_m a^(m-1) (a - m) e_{n-m}(xs).

    Its sign characterizes sum_i 1/(a + x_i) <= 1: the two are equivalent for
    every a > 0 and positive xs (multiply the inequality through by
    prod_i (a + x_i)).
    """
    xs = tuple(float(x) for x in xs)
    a = float(a)
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"a must be positive and finite (got {a})")
    if any(x <= 0 or not np.isfinite(x) for x in xs):
        raise ParameterError(f"xs entries must be positive and finite (got {xs})")
    e = elementary_symmetric(xs)
    n = len(xs)
    total = e[n]  # the m = 0 term a^(m-1) (a - m) e_n collapses to e_n
    for m in range(1, n + 1):
        total += a ** (m - 1) * (a - m) * e[n - m]
    return float(total)


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
    eigenvalue is one root of a secular equation (Golub, SIAM Review 15,
    1973), found in O(n) per vector without forming any n x n matrix by the
    solver that also gives the Choi core's least eigenvalue
    (:func:`cyclemaps.dmap._theta_min_eigenvalue`).  For a unit xi it lies
    in [d_min - 1, d_min), d_min the least den_i where w_i > 0.  Only the
    vectors whose bracket can still hold the least of these eigenvalues are
    iterated, usually a handful after two steps, and ``min_theta_eig`` is
    bit-identical to solving every vector to convergence.

    Counter-based (Philox) seeding keeps runs reproducible for a given seed,
    which must lie in Philox's key range 0 <= seed < 2**128.  ``samples * n``
    may not exceed ``MAX_ENTRIES`` (2000 samples reach n = 4194).
    """
    if samples < 0:
        raise ParameterError(f"samples must be >= 0 (got {samples})")
    if not 0 <= seed < 2**128:
        raise ParameterError(f"seed must satisfy 0 <= seed < 2**128 (got {seed})")
    n = p.n
    if samples * n > MAX_ENTRIES:
        raise ParameterError(
            f"samples * n = {samples} * {n} is too large for the sampler: "
            f"{samples * n:,} entries (limit {MAX_ENTRIES:,})"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    zs = np.concatenate([z, np.sqrt(_adversarial_amplitudes(p)).astype(complex)], axis=0)
    zs = zs / np.linalg.norm(zs, axis=1, keepdims=True)

    amps = np.abs(zs) ** 2
    structure = choi_structure(p)
    den = p.a * amps + structure.c[None, :] * amps[:, structure.img]
    terms = np.divide(amps, den, out=np.zeros_like(amps), where=den > 0)
    s_vals = terms.sum(axis=1)
    worst = int(np.argmax(s_vals))

    # den holds exactly the diagonal of Delta(xi xi*)
    min_eig = _theta_min_eigenvalue(amps, den)

    return PositivityEvidence(
        max_s=float(s_vals[worst]),
        worst_vector=zs[worst].copy(),
        min_theta_eig=min_eig,
        num_vectors=int(zs.shape[0]),
        tol=S_ORACLE_TOL,
    )


def on_uniform_family(p: MapParams) -> bool:
    """Uniform weights c with a = n - c (to within BOUNDARY_TOL)."""
    return p.uniform_c and abs(p.a - (p.n - p.c[0])) <= BOUNDARY_TOL


def positivity_verdict(p: MapParams, evidence: Optional[PositivityEvidence] = None, cp: Optional[Verdict] = None) -> Verdict:
    """Decide positivity where a criterion exists, complete positivity last;
    otherwise unknown with evidence.  ``cp`` is computed here, and only when
    every other criterion is silent, unless the caller has it."""
    n, a = p.n, p.a
    geomean = geometric_mean_c(p)
    threshold = _threshold(p, geomean)
    ev = {"a": a, "threshold": threshold, "geometric_mean_c": geomean}
    if evidence is not None:
        ev.update(
            max_s=evidence.max_s,
            min_theta_eig=evidence.min_theta_eig,
            sampled_vectors=evidence.num_vectors,
            s_tol=evidence.tol,
        )
    if a >= threshold - BOUNDARY_TOL:
        return Verdict(YES, "a >= max(n-1, n-geomean(c)): sufficient for every sigma", ev)
    if is_single_cycle(p.sigma):
        return Verdict(
            NO, "a below max(n-1, n-geomean(c)): that bound is necessary for a full n-cycle", ev
        )
    if p.sigma.is_identity():
        # at sigma = id the entrywise-multiplier matrix is the Choi core K
        ev["schur_min_eigenvalue"] = choi_structure(p).core_min
        status = YES if ev["schur_min_eigenvalue"] >= -DEFAULT_PSD_TOL else NO
        return Verdict(status, "entrywise-multiplier matrix PSD test (sigma = id)", ev)
    if on_uniform_family(p):
        l_max = cycle_decompose(p.sigma).l_max
        ev["cycle_bound"] = n / l_max
        status = YES if p.c[0] <= n / l_max + BOUNDARY_TOL else NO
        return Verdict(status, "uniform family a = n - c: positive iff c <= n/l_max(sigma)", ev)
    if cp is None:
        cp = cp_verdict(p)
    return _implied_by_cp(cp, ev, "no positivity criterion applies below the threshold for this sigma")


def cp_verdict(p: MapParams, psd_tol: float = DEFAULT_PSD_TOL) -> Verdict:
    """Complete positivity: the Choi matrix is PSD (Choi, Linear Algebra
    Appl. 10, 1975).

    Its minimum eigenvalue comes from the structured form: the least of the
    n x n core's eigenvalues, the weights c_i at non-fixed i, and 0 when the
    Choi matrix has a kernel.  The weights are non-negative, so the core
    decides; with every cycle of length >= 2 the core is a*I - J and the
    test reads a >= n."""
    choi_min = choi_structure(p).min_eigenvalue()
    ev = {"a": p.a, "l_min": cycle_decompose(p.sigma).l_min, "choi_min_eigenvalue": choi_min}
    status = YES if choi_min >= -psd_tol else NO
    return Verdict(status, "Choi matrix PSD (numeric eigenvalue check)", ev)


def two_positive_verdict(p: MapParams, cp: Optional[Verdict] = None) -> Verdict:
    """2-positivity; it collapses onto complete positivity except in the mixed
    fixed-point cases, which stay unknown unless complete positivity holds."""
    if cp is None:
        cp = cp_verdict(p)
    dec = cycle_decompose(p.sigma)
    ev = dict(cp.evidence)
    if dec.l_min >= 2:
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


def _involution_split_failure(p: MapParams) -> Optional[str]:
    """The first violated precondition of the involution split, or None."""
    n = p.n
    if not is_involution(p.sigma):
        return "sigma is not an involution: sigma(sigma(i)) != i for some i"
    if p.a < n - 1 - BOUNDARY_TOL:
        return f"requires a >= n - 1 = {n - 1} (got a = {p.a})"
    for i in sorted(fixed_points(p.sigma)):
        if p.c[i - 1] < 1.0 - BOUNDARY_TOL:
            return f"requires c[{i}] >= 1 at the fixed point {i} (got c[{i}] = {p.c[i - 1]})"
    # canonical 2-cycles (i, sigma(i)) have i < sigma(i) and come in the order of i
    for i, si in (cycle for cycle in cycle_decompose(p.sigma).cycles if len(cycle) == 2):
        product = p.c[i - 1] * p.c[si - 1]
        if product < 1.0 - BOUNDARY_TOL:
            return f"requires c[{i}]*c[{si}] >= 1 for the 2-cycle ({i}, {si}) (got {product})"
    return None


def decompose_involution(p: MapParams) -> DecomposabilityCertificate:
    """Split the Choi matrix of an involution-driven map into a PSD block plus
    one block per 2-cycle whose partial transpose is PSD.

    Preconditions (each failure is reported by name): sigma an involution,
    a >= n-1, c_i >= 1 at fixed points, c_i * c_sigma(i) >= 1 on 2-cycles.
    Past n^2 = ``MAX_ENTRIES`` (n = 2896) it raises ParameterError instead.
    """
    failure = _involution_split_failure(p)
    if failure is not None:
        raise PreconditionError(failure)
    return _split(p)


def _split(p: MapParams) -> DecomposabilityCertificate:
    """The involution split of a map that meets its preconditions."""
    n = p.n
    if n * n > MAX_ENTRIES:
        raise ParameterError(
            f"n = {n} is too large for the involution split: its n x n blocks hold "
            f"{n * n:,} entries (limit {MAX_ENTRIES:,})"
        )
    structure = choi_structure(p)
    c, img = structure.c, structure.img
    idx = np.arange(n)
    u = np.flatnonzero(idx < img)  # the 2-cycles (u, img[u]), 0-based

    # P lives on span{|ii>}: a - 1 (+ c_i at fixed points) on the diagonal,
    # -1 between |ii> and |jj> unless j = sigma(i)
    block = -np.ones((n, n), dtype=complex)
    block[idx, img] = 0.0
    block[idx, idx] = np.where(img == idx, p.a + c, p.a) - 1.0
    q_diag, q_core = _q_parts(n, c, u, img[u])
    residual = parts_distance((q_diag, block + q_core), structure.parts())
    # P vanishes off span{|ii>}, so its spectrum is the block's plus n^2 - n
    # zeros; Q^PT is [[c_sigma(i), -1], [-1, c_i]] on {|i sigma(i)>, |sigma(i) i>}
    # and zero elsewhere
    p_min = min_eigenvalue(block)
    if n >= 2:
        p_min = min(p_min, 0.0)
    q_lo, _ = pair_block_eigenvalues(c[img[u]], c[u])
    q_pt_mins = tuple(float(m) for m in np.minimum(q_lo, 0.0))

    cert = DecomposabilityCertificate(
        params=p,
        p_block=block,
        pairs=tuple((int(i) + 1, int(img[i]) + 1) for i in u),
        reconstruction_residual=residual,
        p_min_eigenvalue=p_min,
        q_pt_min_eigenvalues=q_pt_mins,
    )
    if residual > 1e-10 or p_min < -DEFAULT_PSD_TOL or any(m < -DEFAULT_PSD_TOL for m in q_pt_mins):
        raise RuntimeError(
            "internal consistency failure: involution split does not certify "
            f"(residual {residual:.3e}, min eig P {p_min:.3e}, min eig Q^PT {min(q_pt_mins, default=0.0):.3e})"
        )
    return cert


def _q_parts(n: int, c: np.ndarray, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the Q blocks on the 2-cycles (u, v), 0-based: c_v at |uv>, c_u at |vu>, -1 between |uu> and |vv>."""
    diag, core = np.zeros((n, n)), np.zeros((n, n))
    diag[u, v], diag[v, u] = c[v], c[u]
    core[u, v] = core[v, u] = -1.0
    return diag, core


def _atomic_and_decomposable(
    p: MapParams, pos: Verdict, cp: Verdict, certify: bool
) -> tuple[Verdict, Verdict, Optional[DecomposabilityCertificate]]:
    """The atomic and the decomposable verdict from one rule: complete
    positivity or the involution split gives decomposable, not atomic;
    positive, not completely positive with every cycle of length >= 3 gives
    atomic, not decomposable; anything else leaves both unknown.  With
    ``certify`` the involution split's certificate is built when it decides."""
    l_min = cycle_decompose(p.sigma).l_min
    cert = None
    if cp.status == YES:
        atomic = (NO, "completely positive maps are not atomic")
        decomposable = (YES, "completely positive (trivial split with no transposed part)")
    elif l_min >= 3 and pos.status == YES and cp.status == NO:
        atomic = (YES, "positive, not completely positive, every cycle of length >= 3")
        decomposable = (NO, "atomic maps are not decomposable")
    elif _involution_split_failure(p) is None:
        atomic = (NO, "decomposable by the involution splitting")
        decomposable = (YES, "involution splitting into a PSD block plus 2-cycle blocks with PSD partial transposes")
        cert = _split(p) if certify else None
    else:
        atomic = (UNKNOWN, "no atomicity criterion applies")
        decomposable = (UNKNOWN, "no decomposability criterion applies")
    atomic_ev = {"l_min": l_min, "positive": pos.status, "completely_positive": cp.status}
    split_ev = {} if cert is None else {
        "reconstruction_residual": cert.reconstruction_residual,
        "p_min_eigenvalue": cert.p_min_eigenvalue,
    }
    return Verdict(*atomic, atomic_ev), Verdict(*decomposable, split_ev), cert


def atomic_verdict(p: MapParams, pos: Optional[Verdict] = None, cp: Optional[Verdict] = None) -> Verdict:
    """Atomicity by the rule it shares with decomposability in
    :func:`classify_map`.  ``pos`` and ``cp`` are computed here unless the
    caller has them."""
    if cp is None:
        cp = cp_verdict(p)
    if pos is None:
        pos = positivity_verdict(p, cp=cp)
    return _atomic_and_decomposable(p, pos, cp, certify=False)[0]


def classify_map(
    p: MapParams,
    samples: int = 2000,
    psd_tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> ClassificationReport:
    """Produce all five verdicts, with sampling evidence and cross-checked closure.

    ``samples = 0`` skips the sampler; a negative count, or an input past
    ``MAX_ENTRIES`` in the sampler or the involution split, raises ParameterError."""
    if samples < 0:
        raise ParameterError(f"samples must be >= 0 (got {samples})")
    evidence = (
        verify_positivity_numeric(p, samples=samples, seed=seed) if samples > 0 else None
    )
    cp = cp_verdict(p, psd_tol)
    pos = positivity_verdict(p, evidence, cp=cp)
    two = two_positive_verdict(p, cp=cp)
    atomic, decomposable, decomposition = _atomic_and_decomposable(p, pos, cp, certify=True)
    _check_closure(pos, two, cp, atomic, decomposable)
    return ClassificationReport(
        params=p,
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
    if broken:
        raise RuntimeError(
            "internal consistency failure between verdicts: "
            f"positive={pos.status}, two_positive={two.status}, cp={cp.status}, "
            f"atomic={atomic.status}, decomposable={decomposable.status}"
        )
