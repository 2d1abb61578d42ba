"""Command line interface.

Five subcommands, all driven by a map-parameter JSON file::

    cyclemaps classify  --map params.json [--samples N] [--seed S]
    cyclemaps spectrum  --map params.json [--compose-transpose]
    cyclemaps decompose --map params.json
    cyclemaps spa       --map params.json [--decompose]
    cyclemaps witness   --map params.json [--certify] [--state rho.json]

The parameter file holds ``{"n": 3, "sigma": "tau:3:2", "a": 2.0, "c": [1, 1, 1]}``;
``sigma`` accepts the formats of :func:`cyclemaps.perm.parse_permutation`;
:class:`MapParams` checks the numbers (zero weights with a = n, sigma = id
give n*diag(X) - X).  Only ``classify`` takes ``--samples``, and only it
reads ``--seed``, which every subcommand accepts; only its report echoes
the two, in ``config``.
``witness --certify`` writes one expectation per generator, in the order of
:mod:`cyclemaps.witness`, and not the generators, which n and sigma fix.
``spa`` writes ``positivity_warning`` (positivity "no") beside the SPA, which
does not read it.
Reports are JSON on stdout (or ``--out``), embed the input verbatim, and are
byte-identical across runs up to the ``timestamp`` field.  The handlers hold
number arrays as float arrays, and ``_report_text`` writes the text
``json.dumps(report, indent=2, default=np.ndarray.tolist)`` would, holding
the nonzero text and one array's nonzero numbers, not the report's text.

Each subparser names its handler, ``_run_<subcommand>(args, params, state)``,
and :func:`main` calls it between reading the inputs and writing the report.
The parser is built on the first call of :func:`main` and reused after it.

Exit codes: 0 when verdicts were computed (including "unknown"), 1 on
input/parse problems (non-finite ``--state`` entries among them), 2 when a
computation's precondition fails, an input passes a size bound, or a result
is not a finite number.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .classify import NO, check_sampling, classify_map, decompose_involution, positivity_verdict
from .dmap import MapParams, choi_structure
from .errors import ContractError, ParameterError, PreconditionError
from .matlin import MAX_ENTRIES, _matrix_form, matrix_from_json
from .perm import parse_permutation
from .spa import separable_decomposition, spa_state
from .witness import certify_optimality, expectation_value, witness


_VERDICTS = ("positive", "two_positive", "completely_positive", "atomic", "decomposable")


def parse_map_json(obj) -> MapParams:
    """MapParams from a parsed JSON object holding the four fields, with an
    integer ``n`` and a list ``c`` of length n; :class:`MapParams` checks the values."""
    if not isinstance(obj, dict):
        raise ParameterError(f"map file must hold a JSON object (got {type(obj).__name__})")
    for field in ("n", "sigma", "a", "c"):
        if field not in obj:
            raise ParameterError(f"map object is missing field '{field}'")
    n, c = obj["n"], obj["c"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"field 'n' must be an integer (got {n!r})")
    if not isinstance(c, list):
        raise ParameterError(f"field 'c' must be a list of numbers (got {c!r})")
    if len(c) != n:  # bounds n by the file's size before sigma is built
        raise ParameterError(f"field 'c' must have length n={n} (got {len(c)})")
    return MapParams(n=n, sigma=parse_permutation(obj["sigma"], n), a=obj["a"], c=c)


def _load_json_file(path: str, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file '{path}': {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer past Python's digit limit, or deep nesting
        raise ParameterError(f"{what} file '{path}' is not valid JSON: {exc}") from exc


def _verdict_json(v) -> dict:
    return {"status": v.status, "criterion": v.criterion, "evidence": dict(v.evidence)}


def _run_classify(args, params: MapParams, state) -> dict:
    report = classify_map(params, samples=args.samples, seed=args.seed)
    result = {name: _verdict_json(getattr(report, name)) for name in _VERDICTS}
    if report.decomposition is not None:
        cert = report.decomposition
        result["decomposition"] = {
            "pairs": cert.pairs,
            "reconstruction_residual": cert.reconstruction_residual,
            "p_min_eigenvalue": cert.p_min_eigenvalue,
            "q_pt_min_eigenvalues": cert.q_pt_min_eigenvalues,
        }
    return {"config": {"samples": args.samples, "seed": args.seed}, "result": result}


def _run_spectrum(args, params: MapParams, state) -> dict:
    structure = choi_structure(params)
    spec = structure.spectrum(args.compose_transpose)
    return {
        "result": {
            "transposed_composition": args.compose_transpose,
            "eigenvalues": spec.eigenvalues,
            "residual": spec.residual,
            "trace": structure.trace,
        }
    }


def _run_decompose(args, params: MapParams, state) -> dict:
    cert = decompose_involution(params)
    return {
        "result": {
            "pairs": cert.pairs,
            "P": _matrix_form(cert.P),
            "p_min_eigenvalue": cert.p_min_eigenvalue,
            "q_blocks": [
                {
                    "pair": list(pair),
                    "matrix": _matrix_form(q),
                    "pt_min_eigenvalue": cert.q_pt_min_eigenvalues[k],
                }
                for k, (pair, q) in enumerate(cert.q_blocks)
            ],
            "reconstruction_residual": cert.reconstruction_residual,
        }
    }


def _run_spa(args, params: MapParams, state) -> dict:
    entries = (1 + params.n * (params.n + 1) // 2) * params.n**4  # the SPA matrix and its n(n+1)/2 terms, dense
    if args.decompose and entries > MAX_ENTRIES:  # before any term is built
        raise ParameterError(f"n = {params.n} is too large for spa --decompose: {entries:,} entries (limit {MAX_ENTRIES:,})")
    # the decomposition decides the SPA state first and keeps it
    dec = separable_decomposition(params) if args.decompose else None
    spa = spa_state(params) if dec is None else dec.state
    result = {
        "lambda_star": spa.lambda_star,
        "w_minus_norm": spa.w_minus_norm,
        "trace_choi": spa.trace_choi,
        "positivity_warning": positivity_verdict(params).status == NO,
        "matrix": _matrix_form(spa.matrix),
    }
    if dec is not None:
        result["decomposition"] = {
            "normalization": dec.normalization,
            "residual": dec.residual,
            "terms": [
                {
                    "kind": t.kind,
                    "indices": list(t.indices),
                    "weight": t.weight,
                    "matrix": _matrix_form(t.matrix),
                }
                for t in dec.terms
            ],
        }
    return {"result": result}


def _run_witness(args, params: MapParams, state: Optional[np.ndarray]) -> dict:
    w, structure = witness(params), choi_structure(params)
    result = {
        "matrix": _matrix_form(w),
        "trace": structure.trace / params.n,
        "min_eigenvalue": structure.min_eigenvalue(compose_transpose=True) / params.n,
    }
    if args.certify:
        cert = certify_optimality(params)
        result["certificate"] = {
            "span_rank": cert.span_rank,
            "optimal": cert.optimal,
            "theorem_applies": cert.theorem_applies,
            "note": cert.note,
            "warnings": list(cert.warnings),
            "expectations": cert.expectations,
        }
    if state is not None:
        result["state_expectation"] = expectation_value(w, state)
    return {"result": result}


_encode = json.JSONEncoder(allow_nan=False).encode  # C, for strings, ints, booleans and None


def _report_text(obj, pad: str = "") -> list[str]:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False,
    default=np.ndarray.tolist)`` as chunks, to be joined or written in order.

    A non-finite number raises the ``ValueError`` json.dumps raises for the
    first one in document order, before any text is returned."""
    chunks: list[str] = []
    _append_text(obj, pad, chunks, {})
    return chunks


def _append_text(obj, pad: str, chunks: list[str], blocks: dict) -> None:
    if isinstance(obj, np.ndarray):  # written as its tolist() would be
        if obj.ndim > 2:
            obj = list(obj)
        elif obj.dtype == float and obj.ndim and obj.size:
            _append_array(obj, pad, chunks, blocks)
            return
        else:
            obj = obj.tolist()
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            key = _encode(key if isinstance(key, str) else _scalar_text(key))
            chunks.append(f"{',' if k else '{'}\n{inner}{key}: ")
            _append_text(value, inner, chunks, blocks)
        chunks.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)) and obj:
        for k, value in enumerate(obj):
            chunks.append(f"{',' if k else '['}\n{inner}")
            _append_text(value, inner, chunks, blocks)
        chunks.append(f"\n{pad}]")
    else:
        chunks.append(_scalar_text(obj))


def _scalar_text(obj) -> str:
    if isinstance(obj, float):  # np.float64 too: float.__repr__ is what the C encoder writes
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    return _encode(obj)  # empty containers, and a TypeError for what JSON cannot hold


def _append_array(values: np.ndarray, pad: str, chunks: list[str], blocks: dict) -> None:
    """The text of a float array of shape (k,) or (k, m): k entries, numbers
    or rows of m numbers.

    One nonzero test per entry on the array's uint64 view (only +0.0 has no
    bit set), then one finiteness check and one ``float.__repr__`` pass over
    the nonzero entries.  A run of n all-zero entries is written as
    references to blocks of 2**k copies of the zero entry's text, one per
    set bit of n; ``blocks`` holds them per entry shape and pad, each made on
    first use, so that every array of a report shares them."""
    shape, inner = values.shape[1:], pad + "  "
    deep = inner + "  "
    # an entry's text is open + its numbers joined by sep + close
    open_, sep, close = ("", "", "") if not shape else (f"[\n{deep}", f",\n{deep}", f"\n{inner}]")
    item_sep = f",\n{inner}"
    between = close + item_sep + open_
    width = shape[0] if shape else 1
    entries = values.reshape(len(values), width)
    bits = entries.view(np.uint64)
    nonzero = bits[:, 0] != 0
    for column in bits.T[1:]:
        np.logical_or(nonzero, column, out=nonzero)
    chosen = entries.compress(nonzero, axis=0)
    finite = np.isfinite(chosen)  # nan and the infinities have bits set, so they are chosen
    if not finite.all():
        raise ValueError(f"Out of range float values are not JSON compliant: {float(chosen[~finite][0])!r}")
    numbers = map(float.__repr__, chosen.ravel().tolist())
    rows = list(map(sep.join, zip(*[numbers] * width)))
    zero = open_ + sep.join(["0.0"] * width) + close
    shared = blocks.setdefault((shape, pad), [zero + item_sep])
    chunks.append(f"[\n{inner}")
    end = len(values)
    start = row = 0
    in_nonzero = bool(nonzero[0])  # the runs alternate
    for stop in [*(np.flatnonzero(nonzero[1:] != nonzero[:-1]) + 1).tolist(), end]:
        last = stop == end
        if in_nonzero:
            chunks.append(open_ + between.join(rows[row : row + stop - start]) + (close if last else close + item_sep))
            row += stop - start
        else:
            count = stop - start - last  # entries followed by item_sep
            while len(shared) < count.bit_length():
                shared.append(shared[-1] * 2)
            chunks += [shared[bit] for bit in range(count.bit_length()) if count >> bit & 1]
            if last:
                chunks.append(zero)
        start, in_nonzero = stop, not in_nonzero
    chunks.append(f"\n{pad}]")


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
    common.add_argument("--seed", type=int, default=0, help="classify only: seed for the sampler; the other subcommands ignore it (default 0)")
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_cls = sub.add_parser("classify", parents=[common], help="all five verdicts with certificates")
    p_cls.add_argument("--samples", type=int, default=2000, help="sampling budget (default 2000)")
    p_cls.set_defaults(run=_run_classify)
    p_spec = sub.add_parser("spectrum", parents=[common], help="Choi matrix spectrum")
    p_spec.add_argument(
        "--compose-transpose",
        action="store_true",
        help="use the Choi matrix of transposition composed with the map",
    )
    p_spec.set_defaults(run=_run_spectrum)
    sub.add_parser("decompose", parents=[common], help="involution Choi splitting").set_defaults(run=_run_decompose)
    p_spa = sub.add_parser("spa", parents=[common], help="structural physical approximation")
    p_spa.add_argument(
        "--decompose", action="store_true", help="also emit the separable decomposition (a = n-1)"
    )
    p_spa.set_defaults(run=_run_spa)
    p_wit = sub.add_parser("witness", parents=[common], help="entanglement witness")
    p_wit.add_argument("--certify", action="store_true", help="attach the optimality certificate")
    p_wit.add_argument("--state", default=None, help="density matrix JSON to pair with the witness")
    p_wit.set_defaults(run=_run_witness)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused: importing the module builds nothing."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    args = _parser().parse_args(argv)
    # input phase: unreadable or malformed inputs exit 1
    try:
        if args.run is _run_classify:
            check_sampling(args.samples, args.seed, ("--samples", "--seed"))
        raw_map = _load_json_file(args.map, "map")
        params = parse_map_json(raw_map)
        state_path = getattr(args, "state", None)  # only witness takes --state
        state = None if state_path is None else matrix_from_json(_load_json_file(state_path, "state"))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # computation phase: violated preconditions exit 2; an overflow shows up
    # as a non-finite result, which the report refuses below
    try:
        with np.errstate(all="ignore"):
            body = args.run(args, params, state)
    except (PreconditionError, ContractError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "tool": "cyclemaps",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "subcommand": args.subcommand,
        "map": raw_map,
        **body,
    }
    try:  # the whole report, before a byte of it is written
        chunks = _report_text(report)
    except ValueError as exc:  # a result overflowed or lost its meaning
        print(f"error: the report holds a non-finite number: {exc}", file=sys.stderr)
        return 2
    chunks.append("\n")

    if args.out is None:
        sys.stdout.writelines(chunks)
        return 0
    try:  # in place: ext4 makes a rewrite that truncates first wait for the old data's writeback
        with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
            f.writelines(chunks)
            if Path(args.out).is_file():  # pipes and devices cannot be truncated
                f.truncate()
    except OSError as exc:
        print(f"error: cannot write output file '{args.out}': {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
