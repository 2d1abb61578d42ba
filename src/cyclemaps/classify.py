"""Verdicts on the map family: positivity, 2-positivity, complete positivity,
atomicity and decomposability.

Every verdict is a :class:`Verdict` with status ``"yes"``, ``"no"`` or
``"unknown"``, the criterion that produced it, and numeric evidence.  Numeric
sampling is always reported as evidence; it never upgrades a verdict to "yes"
on its own where a decisive criterion exists, and where no criterion applies
the status stays "unknown" with the measured worst-case data attached.

The decisive criteria implemented here, each written once:

* a >= max(n-1, n - geomean(c)) makes the map positive for every sigma, and
  that bound is sharp when sigma is one full n-cycle;
* the map is completely positive exactly when its Choi matrix is PSD, which
  comes down to the n x n core K = diag(a + c_i [sigma(i) = i]) - J being
  PSD; with every cycle of sigma of length >= 2 that is a >= n, and
  2-positivity coincides with it;
* at sigma = id the map is an entrywise multiplier, so positivity reduces to
  one n x n PSD test (the same matrix as K);
* on the uniform family a = n - c, positivity holds exactly for c <= n/l_max;
* a positive, not completely positive map whose cycles all have length >= 3 is
  atomic (no split into a 2-positive part plus a transposed 2-positive part);
* when sigma is an involution and a >= n-1, c_i >= 1 at fixed points,
  c_i * c_sigma(i) >= 1 on the 2-cycles, the Choi matrix splits explicitly
  into a PSD block plus blocks whose partial transposes are PSD, so the map
  is decomposable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dmap import MapParams, choi, choi_structure, pair_block_eigenvalues
from .errors import ParameterError, PreconditionError
from .matlin import DEFAULT_PSD_TOL, min_eigenvalue
from .perm import cycle_decompose, fixed_points, is_involution, is_single_cycle

# Boundary cases a == threshold are resolved inclusively at this tolerance.
BOUNDARY_TOL = 1e-9

# Tolerance for the sampled quantity S(xi) when used as positivity evidence.
S_ORACLE_TOL = 1e-7

_LAMBDA_GRID = (4.0, 32.0, 256.0, 1e4, 1e8)

# Steps allowed per row in the sampler's secular-equation solve; rows close
# in about a dozen, however widely their weights spread.
_SECULAR_MAX_ITER = 64
_EPS = float(np.finfo(float).eps)

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

    ``P`` is PSD, each ``Q`` block has a PSD partial transpose, and the sum
    reproduces the Choi matrix up to ``reconstruction_residual``.  ``q_blocks``
    maps each 2-cycle (i, sigma(i)) with i < sigma(i) to its block.
    """

    P: np.ndarray
    q_blocks: tuple[tuple[tuple[int, int], np.ndarray], ...]
    reconstruction_residual: float
    p_min_eigenvalue: float
    q_pt_min_eigenvalues: tuple[float, ...]


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
    return max(p.n - 1.0, p.n - geometric_mean_c(p))


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


def _sigma_index(p: MapParams) -> np.ndarray:
    return np.array([p.sigma(i) - 1 for i in range(1, p.n + 1)])


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
        cur = cycle[0]
        for s in range(1, length + 1):
            cur = p.sigma(cur)
            exponent[cur - 1] = length - s
    # S is scale-invariant: scaling by lam^-max keeps cycles longer than
    # ~38 from overflowing at lam = 1e8 (entries that underflow become 0)
    exponent -= exponent.max()
    for lam in _LAMBDA_GRID:
        rows.append(lam**exponent)
    if all(ci > 0 for ci in p.c):
        alpha = np.empty(n)
        for cycle in cycles:
            length = len(cycle)
            cs = [p.c[i - 1] for i in cycle]
            d = float(np.exp(np.mean(np.log(cs))))
            running = 1.0
            for k in range(1, length + 1):
                running *= d / cs[k - 1]
                alpha[cycle[k % length] - 1] = running
        rows.append(alpha)
    return np.asarray(rows)


def _theta_min_eigenvalues(amps: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of diag(den) - xi xi* for each unit row w = |xi|^2.

    See :func:`verify_positivity_numeric` for the secular equation.  One
    evaluation at x of A = sum_i w_i r_i and B = sum_i w_i r_i^2, with
    r_i = x / (delta_i + x) in [0, 1] and rho = (A - x) / B, bounds mu from
    both sides: the Newton step x + A rho on the concave 1/psi - 1 from
    below, and x / (1 - rho), the root of the model B / mu + (A - B) / x
    that majorises psi (each term is concave in 1/mu), from above.  The next
    point is the lower bound once the bracket is within a factor 2, its
    geometric midpoint before, so rows whose delta_i spread over many
    decades still close in about a dozen steps.
    """
    # weights below eps^2 deflate as well: dropping them moves each
    # eigenvalue by at most 2 sqrt(n) eps (Weyl), and it keeps every
    # quantity below far from underflow
    support = amps > _EPS**2
    w = np.where(support, amps, 0.0)
    on_support = np.where(support, den, np.inf)
    d_min = on_support.min(axis=1)
    delta = on_support - d_min[:, None]  # inf off the support: r_i = 0 there
    lo = np.where(delta == 0, w, 0.0).sum(axis=1)
    hi = w.sum(axis=1)
    active = np.flatnonzero(hi > lo * (1.0 + 4.0 * _EPS))
    for _ in range(_SECULAR_MAX_ITER):
        if active.size == 0:
            break
        l, h = lo[active], hi[active]
        x = np.where(h > 2.0 * l, np.sqrt(l * h), l)
        r = x[:, None] / (delta[active] + x[:, None])
        wr = w[active] * r
        big_a = wr.sum(axis=1)
        rho = (big_a - x) / (wr * r).sum(axis=1)
        l = np.maximum(l, x + big_a * rho)
        h = np.divide(x, 1.0 - rho, out=h.copy(), where=x < h * (1.0 - rho))
        lo[active], hi[active] = l, h
        active = active[h > l * (1.0 + 4.0 * _EPS)]
    if active.size:
        raise RuntimeError(
            "internal consistency failure: the secular equation for the minimum eigenvalue "
            f"of Theta(xi xi*) did not converge in {_SECULAR_MAX_ITER} steps on {active.size} rows"
        )
    deflated = np.where(support, np.inf, den).min(axis=1)
    return np.minimum(d_min - lo, deflated)


def verify_positivity_numeric(p: MapParams, samples: int = 2000, seed: int = 0) -> PositivityEvidence:
    """Sample S(xi) = sum_i |x_i|^2 / (a |x_i|^2 + c_i |x_sigma(i)|^2) and the
    spectra of Theta(xi xi*) over random unit vectors plus the structured
    adversarial families.

    Theta(xi xi*) = diag(den) - xi xi*, with den_i = a w_i + c_i w_sigma(i)
    and w = |xi|^2, is a rank-one update of a diagonal, so its minimum
    eigenvalue is one root of a secular equation (Golub, SIAM Review 15,
    1973), found in O(n) per vector without forming any n x n matrix.  Each
    i with w_i = 0 deflates: den_i is an eigenvalue of its own.  On the
    support, with d_min the least den_i there and delta_i = den_i - d_min,
    the least eigenvalue is d_min - mu for the one root mu of
    psi(mu) = sum_i w_i / (delta_i + mu) = 1 in (0, 1], that is, it lies in
    the bracket [d_min - 1, d_min).  The row's minimum eigenvalue is the
    smaller of d_min - mu and the deflated den_i.

    Counter-based (Philox) seeding keeps runs reproducible for a given seed,
    which must lie in Philox's key range 0 <= seed < 2**128.
    """
    if samples < 0:
        raise ParameterError(f"samples must be >= 0 (got {samples})")
    if not 0 <= seed < 2**128:
        raise ParameterError(f"seed must satisfy 0 <= seed < 2**128 (got {seed})")
    n = p.n
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    zs = np.concatenate([z, np.sqrt(_adversarial_amplitudes(p)).astype(complex)], axis=0)
    zs = zs / np.linalg.norm(zs, axis=1, keepdims=True)

    amps = np.abs(zs) ** 2
    perm = _sigma_index(p)
    c = np.asarray(p.c, dtype=float)
    den = p.a * amps + c[None, :] * amps[:, perm]
    terms = np.divide(amps, den, out=np.zeros_like(amps), where=den > 0)
    s_vals = terms.sum(axis=1)
    worst = int(np.argmax(s_vals))

    # den holds exactly the diagonal of Delta(xi xi*)
    min_eig = float(_theta_min_eigenvalues(amps, den).min())

    return PositivityEvidence(
        max_s=float(s_vals[worst]),
        worst_vector=zs[worst].copy(),
        min_theta_eig=min_eig,
        num_vectors=int(zs.shape[0]),
        tol=S_ORACLE_TOL,
    )


def _evidence_dict(p: MapParams, evidence: Optional[PositivityEvidence]) -> dict:
    out = {
        "a": p.a,
        "threshold": positivity_threshold(p),
        "geometric_mean_c": geometric_mean_c(p),
    }
    if evidence is not None:
        out.update(
            max_s=evidence.max_s,
            min_theta_eig=evidence.min_theta_eig,
            sampled_vectors=evidence.num_vectors,
            s_tol=evidence.tol,
        )
    return out


def on_uniform_family(p: MapParams) -> bool:
    """Uniform weights c with a = n - c (to within BOUNDARY_TOL)."""
    return p.uniform_c and abs(p.a - (p.n - p.c[0])) <= BOUNDARY_TOL


def positivity_verdict(p: MapParams, evidence: Optional[PositivityEvidence] = None) -> Verdict:
    """Decide positivity where a criterion exists; otherwise unknown with evidence."""
    n, a = p.n, p.a
    ev = _evidence_dict(p, evidence)
    if a >= positivity_threshold(p) - BOUNDARY_TOL:
        return Verdict(YES, "a >= max(n-1, n-geomean(c)): sufficient for every sigma", ev)
    if is_single_cycle(p.sigma):
        return Verdict(
            NO, "a below max(n-1, n-geomean(c)): that bound is necessary for a full n-cycle", ev
        )
    if p.sigma.is_identity():
        ev["schur_min_eigenvalue"] = min_eigenvalue(schur_matrix(p))
        status = YES if ev["schur_min_eigenvalue"] >= -DEFAULT_PSD_TOL else NO
        return Verdict(status, "entrywise-multiplier matrix PSD test (sigma = id)", ev)
    if on_uniform_family(p):
        l_max = cycle_decompose(p.sigma).l_max
        ev["cycle_bound"] = n / l_max
        status = YES if p.c[0] <= n / l_max + BOUNDARY_TOL else NO
        return Verdict(status, "uniform family a = n - c: positive iff c <= n/l_max(sigma)", ev)
    return Verdict(UNKNOWN, "no positivity criterion applies below the threshold for this sigma", ev)


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


def two_positive_verdict(
    p: MapParams, cp: Optional[Verdict] = None, psd_tol: float = DEFAULT_PSD_TOL
) -> Verdict:
    """2-positivity; it collapses onto complete positivity except in the mixed
    fixed-point cases, which stay unknown unless complete positivity holds."""
    if cp is None:
        cp = cp_verdict(p, psd_tol)
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
    if cp.status == YES:
        return Verdict(YES, "implied by complete positivity", ev)
    return Verdict(
        UNKNOWN, "no 2-positivity criterion when sigma mixes fixed points with longer cycles", ev
    )


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
    for i in range(1, n + 1):
        si = p.sigma(i)
        product = p.c[i - 1] * p.c[si - 1]
        if i < si and product < 1.0 - BOUNDARY_TOL:
            return f"requires c[{i}]*c[{si}] >= 1 for the 2-cycle ({i}, {si}) (got {product})"
    return None


def decompose_involution(p: MapParams) -> DecomposabilityCertificate:
    """Split the Choi matrix of an involution-driven map into a PSD block plus
    one block per 2-cycle whose partial transpose is PSD.

    Preconditions (each failure is reported by name): sigma an involution,
    a >= n-1, c_i >= 1 at fixed points, c_i * c_sigma(i) >= 1 on 2-cycles.
    """
    failure = _involution_split_failure(p)
    if failure is not None:
        raise PreconditionError(failure)
    n = p.n
    pairs = [(i, p.sigma(i)) for i in range(1, n + 1) if i < p.sigma(i)]

    # the residual check below needs the dense Choi matrix; its size guard
    # fires before P and the Q blocks are allocated
    c_matrix = choi(p).matrix
    # P lives on span{|ii>}: a - 1 (+ c_i at fixed points) on the diagonal,
    # -1 between |ii> and |jj> unless j = sigma(i); each Q block has 4 entries
    img = np.asarray(p.sigma.images) - 1
    c = np.asarray(p.c)
    idx = np.arange(n)
    block = -np.ones((n, n), dtype=complex)
    block[idx, img] = 0.0
    block[idx, idx] = np.where(img == idx, p.a + c, p.a) - 1.0
    ii = idx * (n + 1)
    P = np.zeros((n * n, n * n), dtype=complex)
    P[np.ix_(ii, ii)] = block

    q_blocks = []
    for i, si in pairs:
        u, v = i - 1, si - 1
        q = np.zeros((n * n, n * n), dtype=complex)
        q[u * n + v, u * n + v] = p.c[si - 1]
        q[v * n + u, v * n + u] = p.c[i - 1]
        q[u * n + u, v * n + v] = -1.0
        q[v * n + v, u * n + u] = -1.0
        q_blocks.append(((i, si), q))

    total = P + sum((q for _, q in q_blocks), start=np.zeros_like(P))
    residual = float(np.max(np.abs(total - c_matrix)))
    # P vanishes off span{|ii>}, so its spectrum is the block's plus n^2 - n
    # zeros; Q^PT is [[c_sigma(i), -1], [-1, c_i]] on {|i sigma(i)>, |sigma(i) i>}
    # and zero elsewhere
    p_min = min_eigenvalue(block)
    if n >= 2:
        p_min = min(p_min, 0.0)
    u = np.array([i - 1 for i, _ in pairs], dtype=int)
    q_lo, _ = pair_block_eigenvalues(c[img[u]], c[u])
    q_pt_mins = tuple(float(m) for m in np.minimum(q_lo, 0.0))

    cert = DecomposabilityCertificate(
        P=P,
        q_blocks=tuple(q_blocks),
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


def atomic_verdict(
    p: MapParams,
    pos: Optional[Verdict] = None,
    cp: Optional[Verdict] = None,
    psd_tol: float = DEFAULT_PSD_TOL,
) -> Verdict:
    """Atomicity: complete positivity or the involution split gives no;
    positive, not completely positive with every cycle of length >= 3 gives
    yes.  ``pos`` and ``cp`` are computed here unless the caller has them."""
    if pos is None:
        pos = positivity_verdict(p)
    if cp is None:
        cp = cp_verdict(p, psd_tol)
    dec = cycle_decompose(p.sigma)
    ev = {"l_min": dec.l_min, "positive": pos.status, "completely_positive": cp.status}
    if cp.status == YES:
        return Verdict(NO, "completely positive maps are not atomic", ev)
    if dec.l_min >= 3 and pos.status == YES and cp.status == NO:
        return Verdict(
            YES, "positive, not completely positive, every cycle of length >= 3", ev
        )
    if _involution_split_failure(p) is None:
        return Verdict(NO, "decomposable by the involution splitting", ev)
    return Verdict(UNKNOWN, "no atomicity criterion applies", ev)


def atomic_uniform_c(p: MapParams) -> Verdict:
    """Atomicity on the uniform family a = n - c, where positivity is an iff."""
    n = p.n
    if not p.uniform_c:
        raise ParameterError(
            f"requires uniform weights: c ranges over [{min(p.c)}, {max(p.c)}]"
        )
    c0 = p.c[0]
    if not on_uniform_family(p):
        raise ParameterError(f"requires a = n - c (got a = {p.a}, n - c = {n - c0})")
    dec = cycle_decompose(p.sigma)
    ev = {"c": c0, "l_min": dec.l_min, "l_max": dec.l_max, "cycle_bound": n / dec.l_max}
    if c0 == 0.0:
        return Verdict(NO, "c = 0 is the completely positive map n*diag(X) - X", ev)
    if c0 > n / dec.l_max + BOUNDARY_TOL:
        return Verdict(NO, "not positive: uniform family requires c <= n/l_max(sigma)", ev)
    if dec.l_min >= 3:
        return Verdict(YES, "uniform family, every cycle of length >= 3, 0 < c <= n/l_max", ev)
    return Verdict(UNKNOWN, "uniform-family criterion needs every cycle length >= 3", ev)


def classify_map(
    p: MapParams,
    samples: int = 2000,
    psd_tol: float = DEFAULT_PSD_TOL,
    seed: int = 0,
) -> ClassificationReport:
    """Produce all five verdicts, with sampling evidence and cross-checked closure.

    ``samples = 0`` skips the sampler; a negative count raises ParameterError."""
    if samples < 0:
        raise ParameterError(f"samples must be >= 0 (got {samples})")
    evidence = (
        verify_positivity_numeric(p, samples=samples, seed=seed) if samples > 0 else None
    )
    pos = positivity_verdict(p, evidence)
    cp = cp_verdict(p, psd_tol)
    two = two_positive_verdict(p, cp=cp, psd_tol=psd_tol)
    if pos.status == UNKNOWN and cp.status == YES:
        pos = Verdict(YES, "implied by complete positivity", pos.evidence)
    atomic = atomic_verdict(p, pos=pos, cp=cp)

    decomposition = None
    if cp.status == YES:
        decomposable = Verdict(
            YES, "completely positive (trivial split with no transposed part)", {}
        )
    elif _involution_split_failure(p) is None:
        decomposition = decompose_involution(p)
        decomposable = Verdict(
            YES,
            "involution splitting into a PSD block plus 2-cycle blocks with PSD partial transposes",
            {
                "reconstruction_residual": decomposition.reconstruction_residual,
                "p_min_eigenvalue": decomposition.p_min_eigenvalue,
            },
        )
    elif atomic.status == YES:
        decomposable = Verdict(NO, "atomic maps are not decomposable", {})
    else:
        decomposable = Verdict(UNKNOWN, "no decomposability criterion applies", {})

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
