"""The three workloads: inputs generated from the workload seed, the ops that
call ``cyclemaps``, and each op's check against ``reference``.

Every op looks its ``cyclemaps`` function up at call time (``cm.classify_map``),
so the tracer's rebinding is seen.  ``keep`` runs right after an op, outside
the timed interval, and reduces its result to a small value that is kept;
``check`` runs on that value once timing is over and returns the largest
numeric error against an independent reference, raising ``CheckFailed`` on
a mismatch.  Results are not kept whole: they would inflate peak RSS.
``sweep`` and ``large_n`` check in ``keep`` and keep the error; ``cli`` keeps
a digest of each report and its first report on disk, because parsing a
report back can take more memory than writing it did.

Why these workloads:

* ``sweep`` is the paper's phase-diagram scan, ``classify_map`` with the
  default 2000-sample sampler over n = 3..10: every tau(n, k), a sigma with
  fixed points and an involution per n, each at two of a in {n-1.5, n-1, n-0.5, n},
  with uniform and random c.  The batched sampler eigensolve dominates; the
  dense Choi matrix is at most 100 x 100.
* ``large_n`` asks for scalars only at n in {20, 24, 28, 32}: verdicts without
  sampling, lambda_star, the witness minimum eigenvalue and the span rank, on
  the certified family a = n - c (cycles >= 3) plus one sigma with a fixed
  point.  The dense n^2 x n^2 path dominates and the sampler is bypassed.
  It has no involution only because ``decompose_involution`` alone takes
  2.3 s at n = 24 (2-vCPU Xeon), too long to repeat for every check.
* ``cli`` runs ``cyclemaps.cli.main`` in-process on the committed map files
  (n = 3 flagship, 5, 8), writing every report to a file.  It stops at n = 8
  only because ``spa --decompose`` keeps n(n+1)/2 dense n^2 x n^2 terms,
  16 n^4 bytes each (528 terms, 8.9 GB at n = 32), and serialises every
  entry; the ``matlin.kron.*``, ``spa.terms_bytes`` and ``peak_rss_mb``
  metrics show that growth at the sizes that can be repeated.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import reference as R

BENCH = Path(__file__).resolve().parent
MAPS = BENCH / "maps"
LARGE_N = (20, 24, 28, 32)
FIXED_POINT_N = 24
CLI_N = (3, 5, 8)
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    keep: Callable[[Any], Any]
    check: Callable[[Any], float] = field(default=lambda err: err)


@dataclass
class Workload:
    ops: list[Op]
    warm: list[Op]
    inputs: list[Path]  # what a fresh process parses in the set-up probe
    calibration: tuple[str, ...] = ("python", "eig", "json", "kron")  # kernels of calibrate.py


def _images_text(img) -> str:
    return "images:" + ",".join(str(int(j) + 1) for j in img)


def _perm_from_cycles(n: int, cycs) -> list[int]:
    img = list(range(n))
    for cyc in cycs:
        for pos, i in enumerate(cyc):
            img[i] = int(cyc[(pos + 1) % len(cyc)])
    return img


def _long_cycles(rng, points, min_len: int = 3) -> list[list[int]]:
    """Split the points, shuffled, into cycles of length >= min_len."""
    pts = [int(p) for p in rng.permutation(points)]
    out = []
    while pts:
        rest = len(pts)
        choices = [k for k in range(min_len, rest + 1) if rest - k == 0 or rest - k >= min_len]
        k = int(rng.choice(choices))
        out.append(pts[:k])
        pts = pts[k:]
    return out


def _with_fixed_points(rng, n: int) -> str:
    """One or two fixed points; the other points form one cycle."""
    f = 1 if n < 6 else 2
    pts = [int(p) for p in rng.permutation(n)]
    return _images_text(_perm_from_cycles(n, [pts[f:]]))


def _involution(rng, n: int) -> str:
    pts = [int(p) for p in rng.permutation(n)]
    return _images_text(_perm_from_cycles(n, [pts[i:i + 2] for i in range(0, n - 1, 2)]))


def _write_inputs(path: Path, specs: list[dict]) -> Path:
    path.write_text(json.dumps(specs))
    return path


class _Refs:
    """Reference values shared by all ops on one map, computed once, lazily."""

    def __init__(self) -> None:
        self._cmin: dict[str, float] = {}

    def cmin(self, spec: dict) -> float:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._cmin:
            self._cmin[key] = R.choi_min(spec)
        return self._cmin[key]


def _check_report(report, spec: dict, refs: _Refs) -> float:
    """Statuses against the paper's rules; numbers against the references."""
    cmin = refs.cmin(spec)
    R.check_statuses({f: getattr(report, f).status for f in R.STATUS_FIELDS}, spec, cmin)
    err = R.close(report.completely_positive.evidence["choi_min_eigenvalue"], cmin, "Choi min eigenvalue")
    ev = report.positive.evidence
    if "max_s" in ev:
        # the all-ones vector is always sampled, so max S is at least its S
        ones = R.s_value(spec, np.ones(spec["n"]))
        R.require(ev["max_s"] >= ones - R.VALUE_TOL, f"max_s {ev['max_s']} below S(ones) {ones}")
        if report.positive.status == "yes":
            R.require(ev["max_s"] <= 1.0 + R.S_TOL, f"positive map with sampled S = {ev['max_s']}")
            R.require(ev["min_theta_eig"] >= -R.PSD_TOL, "positive map with a negative Theta(xi xi*)")
    if report.decomposable.status == "yes" and report.completely_positive.status == "no":
        R.require(report.decomposition is not None, "decomposable, not CP, and no split certificate")
    if report.decomposition is not None:
        cert = report.decomposition
        err = max(err, R.check_split(spec, cert.P, [q for _, q in cert.q_blocks]))
    return err


def _check_rank(rank: int, spec: dict) -> float:
    R.require(rank == R.span_rank(spec), f"span rank {rank}, reference {R.span_rank(spec)}")
    return 0.0


def sweep(cm, seed: int, run_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = _Refs()
    specs = []
    for n in range(3, 11):
        sigmas = [f"tau:{n}:{k}" for k in range(1, n + 1)]  # k = n is the identity
        sigmas += [_with_fixed_points(rng, n), _involution(rng, n)]
        for si, sigma in enumerate(sigmas):
            # two of the four a values per sigma, alternating, so that every
            # (a, uniform or random c) pairing occurs at every n
            for ai in (si % 2, si % 2 + 2):
                a = (n - 1.5, n - 1.0, n - 0.5, float(n))[ai]
                if (si // 2 + ai // 2) % 2 == 0:
                    c = [n - a if a < n else 1.0] * n  # the uniform family a = n - c
                else:
                    c = [float(x) for x in rng.uniform(0.5, 2.0, size=n)]
                specs.append({"n": n, "sigma": sigma, "a": a, "c": c})
    sampler_seeds = rng.integers(0, 2**31, size=len(specs))

    def op(spec, s):
        params = cm.cli.parse_map_json(spec)
        return Op("classify", lambda: cm.classify_map(params, seed=s),
                  lambda report: _check_report(report, spec, refs))

    ops = [op(spec, int(s)) for spec, s in zip(specs, sampler_seeds)]
    return Workload(ops, ops[:8], [_write_inputs(run_dir / "inputs.json", specs)])


def large_n(cm, seed: int, run_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = _Refs()
    specs = []
    for n in LARGE_N:
        c0 = float(rng.uniform(0.5, 1.0))
        sigma = _images_text(_perm_from_cycles(n, _long_cycles(rng, range(n))))
        specs.append({"n": n, "sigma": sigma, "a": n - c0, "c": [c0] * n})
    n = FIXED_POINT_N
    c0 = float(rng.uniform(0.5, 1.0))
    sigma = _images_text(_perm_from_cycles(n, _long_cycles(rng, range(1, n))))
    specs.append({"n": n, "sigma": sigma, "a": n - c0, "c": [c0] * n})

    ops = []
    for spec in specs:
        params = cm.cli.parse_map_json(spec)
        n = spec["n"]
        ops += [
            Op("classify0", lambda p=params: cm.classify_map(p, samples=0),
               lambda r, s=spec: _check_report(r, s, refs)),
            Op("lambda_star", lambda p=params: cm.spa_state(p).lambda_star,
               lambda v, s=spec: R.close(v, R.lambda_star(s, refs.cmin(s)), "lambda_star")),
            Op("witness_min", lambda p=params: cm.min_eigenvalue(cm.witness(p)),
               lambda v, s=spec, n=n: R.close(v, R.witness_block_spectrum(s)[0] / n, "witness min eigenvalue")),
            Op("span_rank", lambda p=params: cm.certify_optimality(p).span_rank,
               lambda v, s=spec: _check_rank(v, s)),
        ]
    return Workload(ops, ops[:4], [_write_inputs(run_dir / "inputs.json", specs)], ("dense",))


class CliOutcome(NamedTuple):
    rc: int
    sha: str
    report_bytes: int


def _matrix(obj: dict) -> np.ndarray:
    e = np.asarray(obj["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(obj["rows"], obj["cols"])


def _state_json(rng, n: int) -> dict:
    """A random rank-2 density matrix on C^n (x) C^n."""
    g = rng.standard_normal((n * n, 2)) + 1j * rng.standard_normal((n * n, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return {"rows": n * n, "cols": n * n,
            "entries": [[float(z.real), float(z.imag)] for z in rho.ravel()]}


def _check_cli_result(sub: str, flags: tuple, result: dict, spec: dict, rho, refs: _Refs) -> float:
    n = spec["n"]
    if sub == "classify":
        cmin = refs.cmin(spec)
        R.check_statuses({f: result[f]["status"] for f in R.STATUS_FIELDS}, spec, cmin)
        return R.close(result["completely_positive"]["evidence"]["choi_min_eigenvalue"], cmin, "Choi min eigenvalue")
    if sub == "spectrum":
        got = np.asarray(result["eigenvalues"])
        want = R.witness_block_spectrum(spec) if flags else R.closed_form_choi_spectrum(spec)
        if spec["sigma"] == "tau:3:2" and not flags:
            want = np.array([-1.0, 0, 0, 0, 1, 1, 1, 2, 2])  # the flagship, as the paper states it
        R.require(got.shape == want.shape, "spectrum has the wrong length")
        err = float(np.max(np.abs(got - want)))
        R.require(err <= R.VALUE_TOL, f"spectrum off by {err:.3e}")
        return max(err, R.close(result["trace"], R.trace_choi(spec), "Choi trace"))
    if sub == "spa":
        cmin = refs.cmin(spec)
        err = R.close(result["lambda_star"], R.lambda_star(spec, cmin), "lambda_star")
        spa = R.spa_matrix(spec, cmin)
        diff = float(np.max(np.abs(_matrix(result["matrix"]) - spa)))
        R.require(diff <= R.RESIDUAL_TOL, f"SPA matrix off by {diff:.3e}")
        err = max(err, diff)
        if "decomposition" in result:
            dec = result["decomposition"]
            R.require(dec["residual"] <= R.RESIDUAL_TOL, f"reported SPA residual {dec['residual']:.3e}")
            total = np.zeros_like(spa, dtype=complex)
            for term in dec["terms"]:
                m = _matrix(term["matrix"])
                R.require(term["weight"] >= 0, "negative weight in the SPA decomposition")
                R.require(float(R.eigvalsh(m)[0]) >= -R.PSD_TOL, "SPA term is not PSD")
                R.require(float(R.eigvalsh(R.partial_transpose(m, n))[0]) >= -R.PSD_TOL, "SPA term is not PPT")
                total += term["weight"] * m
            resid = float(np.max(np.abs(total - spa)))
            R.require(resid <= R.RESIDUAL_TOL, f"SPA decomposition residual {resid:.3e}")
            err = max(err, resid)
        return err
    if sub == "decompose":
        return R.check_split(spec, _matrix(result["P"]), [_matrix(q["matrix"]) for q in result["q_blocks"]])
    # witness --certify --state
    w = R.witness_dense(spec)
    err = float(np.max(np.abs(_matrix(result["matrix"]) - w)))
    R.require(err <= R.RESIDUAL_TOL, f"witness matrix off by {err:.3e}")
    err = max(err, R.close(result["min_eigenvalue"], R.witness_block_spectrum(spec)[0] / n, "witness min eigenvalue"))
    cert = result["certificate"]
    R.require(cert["span_rank"] == R.span_rank(spec) == n * n and cert["optimal"], f"span rank {cert['span_rank']}")
    R.require(max(abs(e) for e in cert["expectations"]) <= 1e-9, "nonzero generator expectation")
    return max(err, R.close(result["state_expectation"], float(np.trace(w @ rho).real), "Tr(W rho)"))


def cli(cm, seed: int, run_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    refs = _Refs()
    out_dir = run_dir / "reports"
    out_dir.mkdir()
    commands = [
        ("classify", (), "main"),
        ("spectrum", (), "main"),
        ("spectrum", ("--compose-transpose",), "main"),
        ("spa", (), "main"),
        ("spa", ("--decompose",), "main"),
        ("decompose", (), "invol"),
        ("witness", ("--certify",), "main"),
    ]
    ops, inputs = [], []
    for n in CLI_N:
        state_path = run_dir / f"state_n{n}.json"
        state = _state_json(rng, n)
        state_path.write_text(json.dumps(state))
        rho = _matrix(state)
        inputs.append(state_path)
        for sub, flags, which in commands:
            map_path = MAPS / f"{which}_n{n}.json"
            if map_path not in inputs:
                inputs.append(map_path)
            spec = json.loads(map_path.read_text())
            k = len(ops)
            out = out_dir / f"{k}.json"
            argv = [sub, "--map", str(map_path), "--out", str(out), *flags,
                    "--seed", str(int(rng.integers(0, 2**31)))]
            if sub == "witness":
                argv += ["--state", str(state_path)]
            ops.append(_cli_op(cm, f"{sub}{''.join(flags)}", argv, out, out_dir / f"{k}.first.json",
                               lambda result, sub=sub, flags=flags, spec=spec, rho=rho:
                               _check_cli_result(sub, flags, result, spec, rho, refs)))
    return Workload(ops, ops[: len(commands)], inputs)


def _cli_op(cm, kind: str, argv: list[str], out: Path, first: Path, check_result) -> Op:
    """A CLI call whose first report is kept and checked in full; every later
    report must match it byte for byte apart from the timestamp."""
    state: dict[str, str] = {}

    def keep(rc) -> CliOutcome:
        data = out.read_bytes()
        sha = hashlib.sha256(TIMESTAMP.sub(b"", data)).hexdigest()
        if not first.exists():
            out.replace(first)
        return CliOutcome(rc, sha, len(data))

    def check(outcome: CliOutcome) -> float:
        R.require(outcome.rc == 0, f"{kind} exited with code {outcome.rc}")
        if "sha" in state:
            R.require(outcome.sha == state["sha"], f"{kind} report differs from its checked first report")
            return 0.0
        err = check_result(json.loads(first.read_text())["result"])
        state["sha"] = outcome.sha
        return err

    return Op(kind, lambda: cm.cli.main(argv), keep, check)


WORKLOADS = {"sweep": sweep, "large_n": large_n, "cli": cli}
