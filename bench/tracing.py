"""In-memory span tracing of the ``cyclemaps`` layers, installed from outside.

The tracer rebinds every public function of every ``cyclemaps.*`` module, and
``numpy.linalg.eigvalsh`` / ``eigh`` / ``svd``, to wrappers that record one span
``(name, start_ns, end_ns, parent, op, counts)`` per call.  Modules import each
other's functions by name (``from .dmap import choi``), so a function is
rebound in every module that holds it, not only where it is defined.  Nothing
under ``src/`` changes; ``uninstall`` puts every original back.

Spans stay in memory and are written out once, when the run ends.  The
per-layer metrics are derived from the spans alone (see ``layer_metrics``).
Counters attached to spans are *computed* from argument shapes and results
(bytes = 16 per complex128 entry, flops = sum of dim^3 per eigen/SVD matrix),
so they repeat exactly for the same inputs.
"""
from __future__ import annotations

import importlib
import inspect
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

MODULES = ("perm", "dmap", "matlin", "classify", "spa", "witness", "cli")
LINALG = ("eigvalsh", "eigh", "svd")

# matlin helpers that run an eigensolve; is_psd delegates to min_eigenvalue.
MATLIN_EIG = {"matlin.hermitian_spectrum", "matlin.min_eigenvalue", "matlin.negative_part", "matlin.is_psd"}
SAMPLER = "classify.verify_positivity_numeric"
DECOMPOSE = "classify.decompose_involution"

# Metrics a program counter computes from shapes and results, not a clock.
COMPUTED = (
    "classify.sampler.vectors",
    "classify.sampler.bytes",
    "dmap.choi.bytes",
    "linalg.max_dim",
    "linalg.flops",
    "witness.generators",
    "spa.terms",
    "spa.terms_bytes",
    "matlin.matrix_to_json.entries",
    "cli.report_bytes",
)


def _linalg_counts(args, result) -> dict:
    a = np.asarray(args[0])
    rows, cols = a.shape[-2], a.shape[-1]
    batch = int(np.prod(a.shape[:-2]))
    # dim^3 for a square matrix; rows*cols*min(rows, cols) for a rectangular SVD
    return {"max_dim": max(rows, cols), "flops": batch * rows * cols * min(rows, cols)}


def _counts_for(name: str):
    """The counter extractor for a span name, or None."""
    if name == SAMPLER:
        return lambda args, r: {
            "vectors": r.num_vectors,
            "bytes": r.num_vectors * args[0].n ** 2 * 16,
        }
    if name == "dmap.choi":
        return lambda args, r: {"bytes": 16 * args[0].n ** 4}
    if name == "witness.certify_optimality":
        return lambda args, r: {"generators": len(r.generators)}
    if name == "spa.separable_decomposition":
        return lambda args, r: {
            "terms": len(r.terms),
            "terms_bytes": len(r.terms) * 16 * args[0].n ** 4,
        }
    if name == "matlin.matrix_to_json":
        return lambda args, r: {"entries": r["rows"] * r["cols"]}
    if name.startswith("linalg."):
        return _linalg_counts
    return None


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counts_for = _counts_for(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counts_for is not None:
                span[5] = counts_for(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one op."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op, None])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter_ns()

    def install(self) -> None:
        import cyclemaps

        # by import path: the package attribute ``witness`` is the function
        modules = [importlib.import_module(f"cyclemaps.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for holder in [cyclemaps, *modules]:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(holder, attr, wrappers[obj])
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def _patch(self, holder, attr: str, new) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._patches):
            setattr(holder, attr, old)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write all spans as JSON: one [name, start_ns, end_ns, parent, op, counts] row each."""
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
                                    "spans": self.spans}))


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer totals over ``spans[lo:hi]``: counts, inclusive ms and self ms.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans[lo:hi]:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]

    m: dict[str, float] = defaultdict(float)
    for i in range(lo, hi):
        s = spans[i]
        name, dur = s[0], s[2] - s[1]
        self_ms = (dur - child_ns.get(i, 0)) / 1e6
        counts = s[5] or {}
        layer = name.split(".", 1)[0]
        if name == SAMPLER:
            m["classify.sampler.ms"] += dur / 1e6
            m["classify.sampler.vectors"] += counts["vectors"]
            m["classify.sampler.bytes"] += counts["bytes"]
        elif name == DECOMPOSE:
            m["classify.decompose_involution.ms"] += dur / 1e6
        elif layer == "classify":
            m["classify.verdicts.self_ms"] += self_ms
        if layer == "perm":
            m["perm.self_ms"] += self_ms
        if name == "dmap.choi":
            m["dmap.choi.calls"] += 1
            m["dmap.choi.ms"] += dur / 1e6
            m["dmap.choi.bytes"] += counts["bytes"]
        if name in MATLIN_EIG and (s[3] < 0 or spans[s[3]][0] not in MATLIN_EIG):
            m["matlin.eig.calls"] += 1
            m["matlin.eig.ms"] += dur / 1e6
        if layer == "linalg":
            m["linalg.calls"] += 1
            m["linalg.ms"] += dur / 1e6
            m["linalg.max_dim"] = max(m["linalg.max_dim"], counts["max_dim"])
            m["linalg.flops"] += counts["flops"]
        if name == "witness.certify_optimality":
            m["witness.certify.ms"] += dur / 1e6
            m["witness.certify.self_ms"] += self_ms
            m["witness.generators"] += counts["generators"]
        if name == "spa.spa_state":
            m["spa.spa_state.ms"] += dur / 1e6
        if name == "matlin.kron":
            m["matlin.kron.calls"] += 1
            m["matlin.kron.ms"] += dur / 1e6
        if name == "spa.separable_decomposition":
            m["spa.separable_decomposition.ms"] += dur / 1e6
            m["spa.terms"] += counts["terms"]
            m["spa.terms_bytes"] += counts["terms_bytes"]
        if name == "matlin.matrix_to_json":
            m["matlin.matrix_to_json.entries"] += counts["entries"]
            m["matlin.matrix_to_json.ms"] += dur / 1e6
        if layer == "cli":
            m["cli.main.self_ms"] += self_ms
    return dict(m)


def median_metrics(per_pass: list[dict[str, float]], names: list[str]) -> dict[str, float]:
    """Median over passes of each named metric (0.0 where a layer never ran)."""
    return {k: float(statistics.median(p.get(k, 0.0) for p in per_pass)) for k in names}
