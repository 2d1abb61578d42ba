"""Independent references for checking what ``cyclemaps`` returns.

Nothing here imports ``cyclemaps``.  Maps are the JSON objects the CLI reads
(``{"n", "sigma", "a", "c"}``), and every reference is built from the map's
definition or from closed forms:

* the dense Choi matrix ``C = diag(d) - sum_ij |ii><jj|`` and the witness
  ``n W = diag(d) - F`` (F the swap), assembled entry by entry here;
* the closed-form Choi spectrum ``{0^(n^2-2n), a^(n-1), a-n, c}`` for sigma
  without fixed points, and the 1x1 / 2x2 block spectrum of ``n W``;
* ``lambda_star = Tr C / (Tr C + n^2 ||C^-||)`` with ``||C^-|| = max(0, n - a)``
  for sigma without fixed points (from the dense spectrum otherwise);
* the verdict rules and thresholds of the paper, with complete positivity
  read off the dense Choi spectrum (Choi's theorem).

``eigvalsh`` is bound at import, before any tracer rebinds ``numpy.linalg``,
so checks never show up in a trace.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigvalsh

PSD_TOL = 1e-9
BOUNDARY_TOL = 1e-9
S_TOL = 1e-7
RESIDUAL_TOL = 1e-10
# sampled S(xi), eigenvalues, lambda_star and Tr(W rho): agreement required
VALUE_TOL = 1e-8

STATUS_FIELDS = ("positive", "two_positive", "completely_positive", "atomic", "decomposable")


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def images(spec: dict) -> np.ndarray:
    """0-based images of sigma, parsed from 'tau:n:k', 'id:n' or 'images:...'."""
    head, _, rest = spec["sigma"].partition(":")
    n = spec["n"]
    if head == "tau":
        _, _, k = rest.partition(":")
        return (np.arange(n) + int(k)) % n
    if head == "id":
        return np.arange(n)
    return np.array([int(t) - 1 for t in rest.split(",")])


def cycles(img: np.ndarray) -> list[list[int]]:
    seen = np.zeros(len(img), dtype=bool)
    out = []
    for start in range(len(img)):
        if seen[start]:
            continue
        cyc, j = [], start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = int(img[j])
        out.append(cyc)
    return out


def diag_d(spec: dict) -> np.ndarray:
    """Diagonal of the Choi matrix, indexed by |i, k> -> i*n + k.

    Delta(E_ii) = a E_ii + c_{sigma^-1(i)} E_{sigma^-1(i), sigma^-1(i)}.
    """
    n, a, c = spec["n"], float(spec["a"]), np.asarray(spec["c"], dtype=float)
    inv = np.argsort(images(spec))
    d = np.zeros(n * n)
    rows = np.arange(n)
    d[rows * n + rows] += a
    d[rows * n + inv] += c[inv]
    return d


def choi_dense(spec: dict) -> np.ndarray:
    n = spec["n"]
    m = np.diag(diag_d(spec)).astype(complex)
    ii = np.arange(n) * (n + 1)
    m[np.ix_(ii, ii)] -= 1.0
    return m


def witness_dense(spec: dict) -> np.ndarray:
    n = spec["n"]
    m = np.diag(diag_d(spec)).astype(complex)
    i, j = np.divmod(np.arange(n * n), n)
    m[i * n + j, j * n + i] -= 1.0
    return m / n


def partial_transpose(m: np.ndarray, n: int) -> np.ndarray:
    return m.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)


def fixed_point_free(spec: dict) -> bool:
    img = images(spec)
    return bool(np.all(img != np.arange(len(img))))


def closed_form_choi_spectrum(spec: dict) -> np.ndarray:
    """Sorted Choi spectrum for sigma without fixed points."""
    n, a = spec["n"], float(spec["a"])
    return np.sort(np.concatenate([np.zeros(n * n - 2 * n), np.full(n - 1, a), [a - n], spec["c"]]))


def witness_block_spectrum(spec: dict) -> np.ndarray:
    """Sorted spectrum of n W = diag(d) - F from its 1x1 blocks on |ii> and
    2x2 blocks [[d_ij, -1], [-1, d_ji]] on {|ij>, |ji>}."""
    n = spec["n"]
    d = diag_d(spec).reshape(n, n)
    vals = list(np.diag(d) - 1.0)
    iu, ju = np.triu_indices(n, 1)
    s, t = d[iu, ju] + d[ju, iu], d[iu, ju] - d[ju, iu]
    root = np.sqrt(t * t + 4.0)
    vals += list((s - root) / 2) + list((s + root) / 2)
    return np.sort(np.asarray(vals))


def choi_min(spec: dict) -> float:
    """Minimum Choi eigenvalue: closed form without fixed points, dense otherwise."""
    if fixed_point_free(spec):
        return float(closed_form_choi_spectrum(spec)[0])
    return float(eigvalsh(choi_dense(spec))[0])


def trace_choi(spec: dict) -> float:
    n = spec["n"]
    return n * float(spec["a"]) + float(np.sum(spec["c"])) - n


def lambda_star(spec: dict, cmin: float) -> float:
    n = spec["n"]
    tr = trace_choi(spec)
    return tr / (tr + n * n * max(0.0, -cmin))


def spa_matrix(spec: dict, cmin: float) -> np.ndarray:
    n = spec["n"]
    neg = max(0.0, -cmin)
    return (neg * np.eye(n * n) + choi_dense(spec)) / (trace_choi(spec) + n * n * neg)


def span_rank(spec: dict) -> int:
    """Rank of the zero-expectation generators on the uniform family a = n - c.

    Phase vectors span the symmetric tensors and basis pairs cover every
    |ij> with j not in {i, sigma^-1(i)}; only a 2-cycle bans both |ij> and
    |ji>, leaving its antisymmetric direction uncovered.
    """
    return spec["n"] ** 2 - sum(1 for cyc in cycles(images(spec)) if len(cyc) == 2)


def s_value(spec: dict, xi: np.ndarray) -> float:
    """S(xi) = sum_i |x_i|^2 / (a |x_i|^2 + c_i |x_sigma(i)|^2)."""
    amp = np.abs(np.asarray(xi)) ** 2
    den = float(spec["a"]) * amp + np.asarray(spec["c"], dtype=float) * amp[images(spec)]
    return float(np.sum(np.divide(amp, den, out=np.zeros_like(amp), where=den > 0)))


def expected_verdicts(spec: dict, cmin: float) -> dict[str, str]:
    """The five statuses the paper's rules give; CP from the Choi spectrum."""
    n, a = spec["n"], float(spec["a"])
    c = np.asarray(spec["c"], dtype=float)
    img = images(spec)
    cyc = cycles(img)
    lengths = [len(x) for x in cyc]
    l_min, l_max = min(lengths), max(lengths)
    identity = l_max == 1
    cp = "yes" if cmin >= -PSD_TOL else "no"

    uniform = float(c.max() - c.min()) <= 1e-12 * max(1.0, abs(c[0]))
    if a >= max(n - 1.0, n - math.exp(float(np.mean(np.log(c))))) - BOUNDARY_TOL:
        pos = "yes"
    elif len(cyc) == 1:
        pos = "no"
    elif identity:
        pos = cp
    elif uniform and abs(a - (n - c[0])) <= BOUNDARY_TOL:
        pos = "yes" if c[0] <= n / l_max + BOUNDARY_TOL else "no"
    else:
        pos = "yes" if cp == "yes" else "unknown"

    if l_min >= 2 or identity:
        two = cp
    else:
        two = "yes" if cp == "yes" else "unknown"

    involution = bool(np.all(img[img] == np.arange(n)))
    split = (
        involution
        and a >= n - 1 - BOUNDARY_TOL
        and all(c[x[0]] >= 1 - BOUNDARY_TOL for x in cyc if len(x) == 1)
        and all(c[x[0]] * c[x[1]] >= 1 - BOUNDARY_TOL for x in cyc if len(x) == 2)
    )
    if cp == "yes" or split:
        atomic, dec = "no", "yes"
    elif l_min >= 3 and pos == "yes":
        atomic, dec = "yes", "no"
    else:
        atomic, dec = "unknown", "unknown"
    return {"positive": pos, "two_positive": two, "completely_positive": cp,
            "atomic": atomic, "decomposable": dec}


def check_statuses(got: dict[str, str], spec: dict, cmin: float) -> None:
    want = expected_verdicts(spec, cmin)
    require(got == want, f"verdicts {got} differ from the reference {want} for {spec}")


def check_split(spec: dict, p: np.ndarray, qs: list[np.ndarray]) -> float:
    """Involution split C = P + sum Q: residual, P PSD, every Q^PT PSD."""
    n = spec["n"]
    resid = float(np.max(np.abs(p + sum(qs, np.zeros_like(p)) - choi_dense(spec))))
    require(resid <= RESIDUAL_TOL, f"involution split residual {resid:.3e}")
    require(float(eigvalsh(p)[0]) >= -PSD_TOL, "P is not PSD")
    for q in qs:
        require(float(eigvalsh(partial_transpose(q, n))[0]) >= -PSD_TOL, "a Q block has a non-PSD partial transpose")
    return resid


def close(got: float, want: float, what: str) -> float:
    err = abs(float(got) - float(want))
    require(err <= VALUE_TOL * max(1.0, abs(float(want))), f"{what}: got {got!r}, reference {want!r}")
    return err
