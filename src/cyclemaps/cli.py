"""Command line interface.

Five subcommands, all driven by a map-parameter JSON file::

    cyclemaps classify  --map params.json [--samples N] [--tol T] [--seed S]
    cyclemaps spectrum  --map params.json [--compose-transpose]
    cyclemaps decompose --map params.json
    cyclemaps spa       --map params.json [--decompose]
    cyclemaps witness   --map params.json [--certify] [--state rho.json]

The parameter file holds ``{"n": 3, "sigma": "tau:3:2", "a": 2.0, "c": [1, 1, 1]}``;
``sigma`` accepts the formats of :func:`cyclemaps.perm.parse_permutation`.
Reports are JSON on stdout (or ``--out``), embed the input verbatim, and are
byte-identical across runs up to the ``timestamp`` field and to what
``json.dumps(report, indent=2)`` writes (see ``_report_text``).

Exit codes: 0 when verdicts were computed (including "unknown"), 1 on
input/parse problems (non-finite ``--state`` entries among them), 2 when a
computation's precondition fails or a result is not a finite number.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .classify import ClassificationReport, classify_map, decompose_involution
from .dmap import MapParams, choi, choi_structure, delta_n
from .errors import ContractError, ParameterError, PreconditionError
from .matlin import DEFAULT_PSD_TOL, hermitian_spectrum, matrix_from_json, matrix_to_json
from .perm import parse_permutation
from .spa import separable_decomposition, spa_state
from .witness import certify_optimality, expectation_value, witness


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a report byte for byte (except the clock)."""

    subcommand: str
    map_path: str
    samples: int = 2000
    tol: float = DEFAULT_PSD_TOL
    seed: int = 0
    out: Optional[str] = None
    compose_transpose: bool = False
    decompose: bool = False
    certify: bool = False
    state_path: Optional[str] = None


def parse_map_json(obj) -> MapParams:
    """Validate and build MapParams from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ParameterError(f"map file must hold a JSON object (got {type(obj).__name__})")
    for field in ("n", "sigma", "a", "c"):
        if field not in obj:
            raise ParameterError(f"map object is missing field '{field}'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"field 'n' must be an integer (got {n!r})")
    sigma = parse_permutation(obj["sigma"])
    a = obj["a"]
    if isinstance(a, bool) or not isinstance(a, (int, float)):
        raise ParameterError(f"field 'a' must be a number (got {a!r})")
    c = obj["c"]
    if not isinstance(c, list) or any(
        isinstance(ci, bool) or not isinstance(ci, (int, float)) for ci in c
    ):
        raise ParameterError(f"field 'c' must be a list of numbers (got {c!r})")
    a_float = _json_float(a, "field 'a'")
    c_float = tuple(_json_float(ci, f"entry {i} of field 'c'") for i, ci in enumerate(c))
    if c and all(ci == 0 for ci in c):
        # the weight-free map: only n*diag(X) - X exists with zero weights
        if len(c) != n:
            raise ParameterError(f"field 'c' must have length n={n} (got {len(c)})")
        if a_float != float(n):
            raise ParameterError(
                f"zero weights describe the map n*diag(X) - X and require a = n (got a = {a})"
            )
        if not sigma.is_identity():
            raise ParameterError(
                "zero weights make sigma irrelevant; use sigma = 'id:n' for this map"
            )
        return delta_n(n)
    return MapParams(n=n, sigma=sigma, a=a_float, c=c_float)


def _json_float(x: int | float, what: str) -> float:
    """float(x) for a JSON number; an integer past the float range is a ParameterError."""
    try:
        return float(x)
    except OverflowError:
        raise ParameterError(f"{what} is an integer outside the float range") from None


def _load_json_file(path: str, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file '{path}': {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{what} file '{path}' is not valid JSON: {exc}") from exc


def _verdict_json(v) -> dict:
    return {"status": v.status, "criterion": v.criterion, "evidence": dict(v.evidence)}


def _classification_json(report: ClassificationReport) -> dict:
    result = {
        "positive": _verdict_json(report.positive),
        "two_positive": _verdict_json(report.two_positive),
        "completely_positive": _verdict_json(report.completely_positive),
        "atomic": _verdict_json(report.atomic),
        "decomposable": _verdict_json(report.decomposable),
    }
    if report.decomposition is not None:
        cert = report.decomposition
        result["decomposition"] = {
            "pairs": [list(pair) for pair in cert.pairs],
            "reconstruction_residual": cert.reconstruction_residual,
            "p_min_eigenvalue": cert.p_min_eigenvalue,
            "q_pt_min_eigenvalues": list(cert.q_pt_min_eigenvalues),
        }
    return result


def _run_classify(config: RunConfig, params: MapParams) -> dict:
    report = classify_map(params, samples=config.samples, psd_tol=config.tol, seed=config.seed)
    payload = _classification_json(report)
    certificates = {
        name: payload[name]["criterion"]
        for name in ("positive", "two_positive", "completely_positive", "atomic", "decomposable")
    }
    return {"result": payload, "certificates": certificates}


def _run_spectrum(config: RunConfig, params: MapParams) -> dict:
    c = choi(params, compose_transpose=config.compose_transpose)
    spec = hermitian_spectrum(c.matrix)
    return {
        "result": {
            "transposed_composition": c.transposed_composition,
            "eigenvalues": [float(w) for w in spec.eigenvalues],
            "residual": spec.residual,
            "trace": float(np.trace(c.matrix).real),
        }
    }


def _run_decompose(config: RunConfig, params: MapParams) -> dict:
    cert = decompose_involution(params)
    return {
        "result": {
            "pairs": [list(pair) for pair in cert.pairs],
            "P": matrix_to_json(cert.P),
            "p_min_eigenvalue": cert.p_min_eigenvalue,
            "q_blocks": [
                {
                    "pair": list(pair),
                    "matrix": matrix_to_json(q),
                    "pt_min_eigenvalue": cert.q_pt_min_eigenvalues[k],
                }
                for k, (pair, q) in enumerate(cert.q_blocks)
            ],
            "reconstruction_residual": cert.reconstruction_residual,
        }
    }


def _run_spa(config: RunConfig, params: MapParams) -> dict:
    state = spa_state(params)
    result = {
        "lambda_star": state.lambda_star,
        "w_minus_norm": state.w_minus_norm,
        "trace_choi": state.trace_choi,
        "positivity_warning": state.positivity_warning,
        "matrix": matrix_to_json(state.matrix),
    }
    if config.decompose:
        dec = separable_decomposition(params)
        result["decomposition"] = {
            "normalization": dec.normalization,
            "residual": dec.residual,
            "terms": [
                {
                    "kind": t.kind,
                    "indices": list(t.indices),
                    "weight": t.weight,
                    "matrix": matrix_to_json(t.matrix),
                }
                for t in dec.terms
            ],
        }
    return {"result": result}


def _run_witness(config: RunConfig, params: MapParams, state: Optional[np.ndarray]) -> dict:
    w = witness(params)
    result = {
        "matrix": matrix_to_json(w),
        "trace": float(np.trace(w).real),
        "min_eigenvalue": choi_structure(params).min_eigenvalue(compose_transpose=True) / params.n,
    }
    if config.certify:
        cert = certify_optimality(params)
        vectors = (np.exp(1j * cert.generators.phases), np.eye(params.n))
        phase, unit = (np.stack([v.real, v.imag], -1).tolist() for v in vectors)  # [re, im] pairs
        result["certificate"] = {
            "span_rank": cert.span_rank,
            "optimal": cert.optimal,
            "theorem_applies": cert.theorem_applies,
            "note": cert.note,
            "warnings": list(cert.warnings),
            "expectations": [float(e) for e in cert.expectations],
            "generators": [
                {"family": "phase", "left": xi, "right": xi} for xi in phase
            ]
            + [
                {"family": "basis", "left": unit[i], "right": unit[j]}
                for i, j in cert.generators.pairs
            ],
        }
    if state is not None:
        result["state_expectation"] = expectation_value(w, state)
    return {"result": result}


_encode = json.JSONEncoder(allow_nan=False).encode  # C; indented json.dumps runs in Python before 3.13


def _report_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)`` with each number array encoded in one C call."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{_encode(k if isinstance(k, str) else _report_text(k))}: {_report_text(v, inner)}" for k, v in obj.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj:
        items = (_report_text(v, inner) for v in obj)  # walked only if obj is no number array
        return _array_text(obj, pad, inner) or f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, float) and not np.isfinite(obj):  # the C encoder would not name it
        raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
    return _encode(obj)


def _array_text(obj, pad: str, inner: str) -> Optional[str]:
    """The indented text of a list of numbers or of non-empty lists of numbers, else None."""
    head = obj[0][0] if isinstance(obj[0], (list, tuple)) and obj[0] else obj[0]
    try:
        text = _encode(obj) if isinstance(head, (int, float)) else '"'
    except ValueError:  # a non-finite number, named by the walk
        return None
    if '"' in text:  # a string; else only numbers, brackets, ", " and empty dicts
        return None
    if text.count("[") == 1:
        return f"[\n{inner}" + text[1:-1].replace(", ", f",\n{inner}") + f"\n{pad}]"
    deep = inner + "  "  # two deep: each "[" past the first two opens a row after a row
    if text.startswith("[[") and text.endswith("]]") and text.count("[") == text.count("], [") + 2 and "[]" not in text:
        body = text[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{deep}").replace(", ", f",\n{deep}")
        return f"[\n{inner}[\n{deep}{body}\n{inner}]\n{pad}]"


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    # input phase: unreadable or malformed inputs exit 1
    try:
        if not (np.isfinite(config.tol) and config.tol >= 0.0):
            raise ParameterError(f"--tol must be finite and >= 0 (got {config.tol})")
        if config.samples < 0:
            raise ParameterError(f"--samples must be >= 0 (got {config.samples})")
        if not 0 <= config.seed < 2**128:
            raise ParameterError(f"--seed must satisfy 0 <= seed < 2**128 (got {config.seed})")
        raw_map = _load_json_file(config.map_path, "map")
        params = parse_map_json(raw_map)
        state = None
        if config.state_path is not None:
            state = matrix_from_json(_load_json_file(config.state_path, "state"))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # computation phase: violated preconditions exit 2; an overflow shows up
    # as a non-finite result, which the report refuses below
    try:
        with np.errstate(all="ignore"):
            if config.subcommand == "classify":
                body = _run_classify(config, params)
            elif config.subcommand == "spectrum":
                body = _run_spectrum(config, params)
            elif config.subcommand == "decompose":
                body = _run_decompose(config, params)
            elif config.subcommand == "spa":
                body = _run_spa(config, params)
            elif config.subcommand == "witness":
                body = _run_witness(config, params, state)
            else:  # pragma: no cover - argparse restricts the choices
                raise ParameterError(f"unknown subcommand {config.subcommand!r}")
    except (PreconditionError, ContractError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "tool": "cyclemaps",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "subcommand": config.subcommand,
        "map": raw_map,
        "config": {"samples": config.samples, "tol": config.tol, "seed": config.seed},
    }
    report.update(body)
    try:
        text = _report_text(report) + "\n"
    except ValueError as exc:  # a result overflowed or lost its meaning
        print(f"error: the report holds a non-finite number: {exc}", file=sys.stderr)
        return 2

    if config.out is None:
        sys.stdout.write(text)
        return 0
    try:  # in place: ext4 makes a rewrite that truncates first wait for the old data's writeback
        with open(os.open(config.out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
            f.write(text)
            if Path(config.out).is_file():  # pipes and devices cannot be truncated
                f.truncate()
    except OSError as exc:
        print(f"error: cannot write output file '{config.out}': {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclemaps",
        description="Classify permutation-induced positive maps and build their "
        "structural physical approximations and entanglement witnesses.",
    )
    parser.add_argument("--version", action="version", version=f"cyclemaps {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--map", required=True, help="path to the map-parameter JSON file")
    common.add_argument("--samples", type=int, default=2000, help="sampling budget (default 2000)")
    common.add_argument(
        "--tol", type=float, default=DEFAULT_PSD_TOL, help=f"PSD/eigenvalue tolerance (default {DEFAULT_PSD_TOL:g})"
    )
    common.add_argument("--seed", type=int, default=0, help="seed for the classify sampler (default 0)")
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    sub.add_parser("classify", parents=[common], help="all five verdicts with certificates")
    p_spec = sub.add_parser("spectrum", parents=[common], help="Choi matrix spectrum")
    p_spec.add_argument(
        "--compose-transpose",
        action="store_true",
        help="use the Choi matrix of transposition composed with the map",
    )
    sub.add_parser("decompose", parents=[common], help="involution Choi splitting")
    p_spa = sub.add_parser("spa", parents=[common], help="structural physical approximation")
    p_spa.add_argument(
        "--decompose", action="store_true", help="also emit the separable decomposition (a = n-1)"
    )
    p_wit = sub.add_parser("witness", parents=[common], help="entanglement witness")
    p_wit.add_argument("--certify", action="store_true", help="attach the optimality certificate")
    p_wit.add_argument("--state", default=None, help="density matrix JSON to pair with the witness")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        map_path=args.map,
        samples=args.samples,
        tol=args.tol,
        seed=args.seed,
        out=args.out,
        compose_transpose=getattr(args, "compose_transpose", False),
        decompose=getattr(args, "decompose", False),
        certify=getattr(args, "certify", False),
        state_path=getattr(args, "state", None),
    )


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
