"""Command line interface.

Five subcommands, all driven by a map-parameter JSON file::

    cyclemaps classify  --map params.json [--samples N] [--tol T] [--seed S]
    cyclemaps spectrum  --map params.json [--compose-transpose]
    cyclemaps decompose --map params.json
    cyclemaps spa       --map params.json [--decompose]
    cyclemaps witness   --map params.json [--certify] [--state rho.json]

The parameter file holds ``{"n": 3, "sigma": "tau:3:2", "a": 2.0, "c": [1, 1, 1]}``;
``sigma`` accepts the formats of :func:`cyclemaps.perm.parse_permutation`;
:class:`MapParams` checks the numbers (zero weights with a = n, sigma = id
give n*diag(X) - X).  Every subcommand echoes ``--samples``, ``--tol`` and
``--seed`` in the report's ``config``; only ``classify`` reads them.
Reports are JSON on stdout (or ``--out``), embed the input verbatim, and are
byte-identical across runs up to the ``timestamp`` field.  The handlers hold
each matrix's entries, and other number arrays, as float arrays, and
``_report_text`` writes the text ``json.dumps(report, indent=2,
default=np.ndarray.tolist)`` would.  It walks the report once, noting where
each float array goes, then makes one numeric pass over all arrays of an
entry shape: every nonzero number is formatted once, and a run of all-zero
entries is a few references to shared blocks of its text.  The chunks are
written in order once every number is known to be finite, so the writer holds
one copy of the numbers and the nonzero text, not the report's text.

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
from .classify import classify_map, decompose_involution
from .dmap import MapParams, choi_structure
from .errors import ContractError, ParameterError, PreconditionError
from .matlin import DEFAULT_PSD_TOL, _matrix_form, matrix_from_json
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
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{what} file '{path}' is not valid JSON: {exc}") from exc


def _verdict_json(v) -> dict:
    return {"status": v.status, "criterion": v.criterion, "evidence": dict(v.evidence)}


def _run_classify(args, params: MapParams, state) -> dict:
    report = classify_map(params, samples=args.samples, psd_tol=args.tol, seed=args.seed)
    result = {name: _verdict_json(getattr(report, name)) for name in _VERDICTS}
    if report.decomposition is not None:
        cert = report.decomposition
        result["decomposition"] = {
            "pairs": [list(pair) for pair in cert.pairs],
            "reconstruction_residual": cert.reconstruction_residual,
            "p_min_eigenvalue": cert.p_min_eigenvalue,
            "q_pt_min_eigenvalues": list(cert.q_pt_min_eigenvalues),
        }
    return {"result": result, "certificates": {name: result[name]["criterion"] for name in _VERDICTS}}


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
            "pairs": [list(pair) for pair in cert.pairs],
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
    # the decomposition decides the SPA state first and keeps it
    dec = separable_decomposition(params) if args.decompose else None
    spa = spa_state(params) if dec is None else dec.state
    result = {
        "lambda_star": spa.lambda_star,
        "w_minus_norm": spa.w_minus_norm,
        "trace_choi": spa.trace_choi,
        "positivity_warning": spa.positivity_warning,
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
        vectors = (np.exp(1j * cert.generators.phases), np.eye(params.n, dtype=complex))
        phase, unit = (v.view(float).reshape(*v.shape, 2) for v in vectors)  # [re, im] pairs
        result["certificate"] = {
            "span_rank": cert.span_rank,
            "optimal": cert.optimal,
            "theorem_applies": cert.theorem_applies,
            "note": cert.note,
            "warnings": list(cert.warnings),
            "expectations": cert.expectations,
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


_encode = json.JSONEncoder(allow_nan=False).encode  # C, for strings, ints, booleans and None


def _report_text(obj, pad: str = "") -> list[str]:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False,
    default=np.ndarray.tolist)`` as chunks, to be joined or written in order.

    The walk writes everything but the float arrays, whose places it notes;
    :func:`_array_texts` then lays out all of them at once.  A non-finite
    number raises the ``ValueError`` json.dumps raises for the first one in
    document order, before any text is returned."""
    chunks: list[str] = []
    arrays: list[tuple[int, np.ndarray, str]] = []  # (place in chunks, entries, pad)
    try:
        _append_text(obj, pad, chunks, arrays)
    except (TypeError, ValueError):  # json.dumps stops at a non-finite entry of an earlier array first
        _require_finite(arrays)
        raise
    out: list[str] = []
    start = 0
    for (place, _, _), text in zip(arrays, _array_texts(arrays)):
        out += chunks[start:place]
        out += text
        start = place
    out += chunks[start:]
    return out


def _append_text(obj, pad: str, chunks: list[str], arrays: list) -> None:
    if isinstance(obj, np.ndarray):  # written as its tolist() would be
        if obj.ndim > 2:
            obj = list(obj)
        elif obj.dtype == float and obj.ndim and obj.size:
            chunks.append(f"[\n{pad}  ")
            arrays.append((len(chunks), obj, pad))
            chunks.append(f"\n{pad}]")
            return
        else:
            obj = obj.tolist()
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            key = _encode(key if isinstance(key, str) else _scalar_text(key))
            chunks.append(f"{',' if k else '{'}\n{inner}{key}: ")
            _append_text(value, inner, chunks, arrays)
        chunks.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)) and obj:
        for k, value in enumerate(obj):
            chunks.append(f"{',' if k else '['}\n{inner}")
            _append_text(value, inner, chunks, arrays)
        chunks.append(f"\n{pad}]")
    else:
        chunks.append(_scalar_text(obj))


def _scalar_text(obj) -> str:
    if isinstance(obj, float):  # np.float64 too: float.__repr__ is what the C encoder writes
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    return _encode(obj)  # empty containers, and a TypeError for what JSON cannot hold


def _require_finite(arrays: list) -> None:
    """Raise json.dumps's ValueError for the first non-finite entry, in document order."""
    for _, values, _ in arrays:
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"Out of range float values are not JSON compliant: {float(values[~finite][0])!r}")


def _array_texts(arrays: list) -> list[list[str]]:
    """The text between the brackets of each float array, as chunks.

    An array of shape (k,) or (k, m) lists k entries: numbers, or rows of m
    numbers.  The arrays of one entry shape and pad are taken together: one
    nonzero test per entry on their concatenated uint64 view (only +0.0 has
    no bit set), one finiteness check and one ``float.__repr__`` pass over
    the nonzero entries, so that an array's nonzero runs are slices of one
    list.  A run of n all-zero entries is written as references to shared
    blocks of 2**k copies of the zero entry's text, one per set bit of n,
    each made on first use."""
    groups: dict = {}
    for k, (_, values, pad) in enumerate(arrays):
        groups.setdefault((values.shape[1:], pad), []).append(k)
    texts: list = [None] * len(arrays)
    for (shape, pad), members in groups.items():
        lengths = [len(arrays[k][1]) for k in members]
        nonzero, chosen = _nonzero_entries([arrays[k][1] for k in members])
        if not np.isfinite(chosen).all():  # nan and the infinities have bits set, so they are chosen
            _require_finite(arrays)
        numbers = map(float.__repr__, chosen.ravel().tolist())
        inner = pad + "  "
        deep = inner + "  "
        # an entry's text is open + its numbers joined by sep + close
        open_, sep, close = ("", "", "") if not shape else (f"[\n{deep}", f",\n{deep}", f"\n{inner}]")
        item_sep = f",\n{inner}"
        between = close + item_sep + open_
        width = shape[0] if shape else 1
        rows = list(map(sep.join, zip(*[numbers] * width)))
        zero = open_ + sep.join(["0.0"] * width) + close
        blocks = [zero + item_sep]
        ends = np.cumsum(lengths)
        cuts = np.union1d(np.flatnonzero(np.diff(nonzero)) + 1, ends).tolist()
        runs = nonzero[[0, *cuts[:-1]]].tolist()
        start = row = c = 0
        for k, end in zip(members, ends.tolist()):
            text = []
            while start < end:
                stop = cuts[c]
                last = stop == end
                if runs[c]:
                    text.append(open_ + between.join(rows[row : row + stop - start]) + (close if last else close + item_sep))
                    row += stop - start
                else:
                    count = stop - start - last  # entries followed by item_sep
                    while len(blocks) < count.bit_length():
                        blocks.append(blocks[-1] * 2)
                    text += [blocks[bit] for bit in range(count.bit_length()) if count >> bit & 1]
                    if last:
                        text.append(zero)
                start = stop
                c += 1
            texts[k] = text
    return texts


def _nonzero_entries(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of the concatenated parts have a bit set, and those entries."""
    values = np.concatenate(parts)
    values = values.reshape(len(values), -1)
    bits = values.view(np.uint64)
    nonzero = bits[:, 0] != 0
    for column in bits.T[1:]:
        np.logical_or(nonzero, column, out=nonzero)
    return nonzero, values[np.flatnonzero(nonzero)]


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
    common.add_argument("--samples", type=int, default=2000, help="classify only: sampling budget (default 2000)")
    common.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL, help=f"classify only: PSD tolerance (default {DEFAULT_PSD_TOL:g})")
    common.add_argument("--seed", type=int, default=0, help="classify only: seed for the sampler (default 0)")
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    sub.add_parser("classify", parents=[common], help="all five verdicts with certificates").set_defaults(run=_run_classify)
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
        if not (np.isfinite(args.tol) and args.tol >= 0.0):
            raise ParameterError(f"--tol must be finite and >= 0 (got {args.tol})")
        if args.samples < 0:
            raise ParameterError(f"--samples must be >= 0 (got {args.samples})")
        if not 0 <= args.seed < 2**128:
            raise ParameterError(f"--seed must satisfy 0 <= seed < 2**128 (got {args.seed})")
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
        "config": {"samples": args.samples, "tol": args.tol, "seed": args.seed},
    }
    report.update(body)
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
