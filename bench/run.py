#!/usr/bin/env python3
"""Benchmark of the ``cyclemaps`` package, run from the repository checkout:

    python3 bench/run.py --workload {sweep,large_n,cli} --seed N --seconds S --trace {0,1}

Each workload is one closed loop in this process: the next op starts only
after the previous one returned.  Inputs come from ``--seed`` alone (see
``workloads.py`` for what each workload runs and why).  After a short warm-up,
the workload's fixed batch of ops ("a pass") repeats until ``--seconds`` would
be exceeded, with at least three passes.  Every op's output is checked against
an independent reference (``reference.py``) outside the timed interval; an op
that raises or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``       time to finish the batch: the sum over its ops of each
                   op's latency, taken as its median over the passes
* ``op_p50_ms``    median over the batch's ops of those per-op latencies
* ``op_p90_ms``    90th percentile of the same (ops per pass printed above)
* ``peak_rss_mb``  high-water RSS of this process, read after the passes
                   (ops keep small values only; cli reports are parsed back
                   for checking afterwards)
* ``setup_s``      time for a fresh process to import cyclemaps and parse
                   the workload's inputs (``probe.py``): median of 9

Every time above is stated at the reference machine speed of
``calibrate.py``: fixed kernels are timed between ops (at least every
``CALIBRATE_EVERY_S``), and an op's latency is divided by the mean slowdown
measured just before and just after it; a set-up probe's time is divided by
the mean time of a bare interpreter start just before and just after it.
The raw times and the slowdowns are kept in the result file.

``--trace 1`` alternates untraced passes with traced ones, in which every
public ``cyclemaps`` function and ``numpy.linalg.eigvalsh/eigh/svd`` is
rebound to a span recorder (``tracing.py``), and prints the per-layer
metrics: medians over traced passes of per-pass totals, plus
``trace.overhead_ratio`` (traced over untraced batch time, as for
``wall_s``), ``check.ref_err_max`` and ``failed_ratio``.

The last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The full result, with the environment, is also written to
``bench/out/<workload>-seed<N>-trace<T>.json``, and a traced run's spans to
``bench/out/<workload>-seed<N>-trace1/spans.json``.  BLAS is pinned to
``min(2, usable CPUs)`` threads before numpy loads.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the pin)

from calibrate import REFERENCE_START_S, START_CMD, Speedometer  # noqa: E402
from reference import CheckFailed  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
CALIBRATE_EVERY_S = 0.1

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "classify.sampler.ms": "ms",
    "classify.sampler.vectors": "count",
    "classify.sampler.bytes": "B",
    "classify.verdicts.self_ms": "ms",
    "perm.self_ms": "ms",
    "dmap.choi.calls": "count",
    "dmap.choi.ms": "ms",
    "dmap.choi.bytes": "B",
    "matlin.eig.calls": "count",
    "matlin.eig.ms": "ms",
    "linalg.calls": "count",
    "linalg.ms": "ms",
    "linalg.max_dim": "count",
    "linalg.flops": "flop",
    "witness.certify.ms": "ms",
    "witness.certify.self_ms": "ms",
    "witness.generators": "count",
    "spa.spa_state.ms": "ms",
    "matlin.kron.calls": "count",
    "matlin.kron.ms": "ms",
    "classify.decompose_involution.ms": "ms",
    "spa.separable_decomposition.ms": "ms",
    "spa.terms": "count",
    "spa.terms_bytes": "B",
    "matlin.matrix_to_json.entries": "count",
    "matlin.matrix_to_json.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.report_bytes": "B",
    "trace.overhead_ratio": "ratio",
    "check.ref_err_max": "abs",
    "failed_ratio": "ratio",
}


@dataclass
class Failure:
    """An op that raised or failed its check right away; ``text`` says how."""

    text: str


@dataclass
class Pass:
    latencies: list[float]  # raw, in seconds
    slowdowns: list[float]  # each op's mean slowdown before and after it
    outcomes: list
    spans: tuple[int, int]
    elapsed: float  # the whole pass, calibration and checks included

    @property
    def scaled(self) -> list[float]:
        """Latencies at the reference speed."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]


def run_pass(ops, meter: Speedometer, tracer=None, index: int = 0) -> Pass:
    start = perf_counter()
    latencies, outcomes, samples, before = [], [], [], []
    last = float("-inf")
    lo = len(tracer.spans) if tracer else 0
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = index * len(ops) + k
        if perf_counter() - last >= CALIBRATE_EVERY_S:
            samples.append(meter.slowdown())
            last = perf_counter()
        before.append(len(samples) - 1)
        t0 = perf_counter()
        try:
            if tracer:
                with tracer.span("op." + op.kind):
                    result = op.call()
            else:
                result = op.call()
        except Exception:  # a raising op is counted as failed; the loop goes on
            result = Failure(traceback.format_exc())
        latencies.append(perf_counter() - t0)
        if not isinstance(result, Failure):
            try:
                result = op.keep(result)
            except CheckFailed as exc:
                result = Failure(str(exc))
            except Exception:
                result = Failure(traceback.format_exc())
        outcomes.append(result)
    samples.append(meter.slowdown())
    # the sample after op k is the next one taken: before a later op or at the end
    slowdowns = [(samples[i] + samples[i + 1]) / 2 for i in before]
    return Pass(latencies, slowdowns, outcomes, (lo, len(tracer.spans) if tracer else 0),
                perf_counter() - start)


def timed_passes(ops, meter: Speedometer, budget_s: float, min_passes: int) -> list[Pass]:
    """Repeat the batch while another pass fits in the budget."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(ops, meter))
        if len(passes) >= min_passes and perf_counter() - start + passes[-1].elapsed > budget_s:
            return passes


def alternating_passes(ops, meter: Speedometer, budget_s: float, tracer) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes in turn, so that both see the same drift in
    machine speed, while another pair fits in the budget."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while not traced or perf_counter() - start + untraced[-1].elapsed + traced[-1].elapsed <= budget_s:
        gc.collect()
        untraced.append(run_pass(ops, meter))
        gc.collect()
        tracer.install()
        try:
            traced.append(run_pass(ops, meter, tracer, len(traced)))
        finally:
            tracer.uninstall()
    return untraced, traced


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each op's median latency at the reference speed over the passes, in
    batch order."""
    return list(np.median(np.array([p.scaled for p in passes]), axis=0))


def check_passes(ops, passes: list[Pass]) -> tuple[list[str], float]:
    """Check every outcome; returns the failure messages and the largest error."""
    failures, err_max = [], 0.0
    for p in passes:
        for op, out in zip(ops, p.outcomes):
            if isinstance(out, Failure):
                failures.append(f"{op.kind}: {out.text}")
                continue
            try:
                err_max = max(err_max, float(op.check(out)))
            except CheckFailed as exc:
                failures.append(f"{op.kind}: {exc}")
            except Exception:
                failures.append(f"{op.kind}: checking its output raised:\n{traceback.format_exc()}")
    return failures, err_max


def run_timed(cmd: list[str]) -> float:
    """Wall time of a child process run in the checkout; raises if it fails."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would round
    # the times up; a timer kills a hung process instead
    guard = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    t = perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return t


def measure_setup(inputs: list[Path]) -> tuple[float, list[float]]:
    """Median wall time, at the reference speed, of fresh processes that
    import cyclemaps and parse the inputs, with the raw times.  A first probe,
    which writes the bytecode cache, is not counted."""
    cmd = [sys.executable, str(BENCH / "probe.py"), *map(str, inputs)]
    run_timed(cmd)
    raw, scaled = [], []
    start = run_timed(START_CMD)
    for _ in range(SETUP_PROBES):
        t = run_timed(cmd)
        after = run_timed(START_CMD)
        raw.append(t)
        scaled.append(t / ((start + after) / 2) * REFERENCE_START_S)
        start = after
    return statistics.median(scaled), raw


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "large_n", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclemaps" / "__init__.py").is_file():
        print(f"error: no cyclemaps sources at {SRC}; run inside a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cyclemaps
    import cyclemaps.cli  # noqa: F401  (not imported by the package itself)

    if Path(cyclemaps.__file__).resolve().parent != SRC / "cyclemaps":
        print(f"error: imported cyclemaps from {cyclemaps.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracing as tr
    from workloads import WORKLOADS

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](cyclemaps, args.seed, run_dir)
    ops = workload.ops

    meter = Speedometer(workload.calibration)
    for _ in range(20):  # warm the kernels
        meter.slowdown()
    setup_s, setup_raw = measure_setup(workload.inputs) if args.trace == 0 else (None, [])
    for op in workload.warm:
        try:
            op.call()
        except Exception:  # the timed passes record it
            pass

    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(), "ops_per_pass": len(ops)}
    if args.trace == 0:
        passes = timed_passes(ops, meter, args.seconds, min_passes=3)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, _ = check_passes(ops, passes)
        op_ms = [t * 1e3 for t in op_latencies(passes)]
        values = {
            "wall_s": sum(op_ms) / 1e3,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": statistics.quantiles(op_ms, n=10)[8],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = END_TO_END
    else:
        tracer = tr.Tracer()
        untraced, passes = alternating_passes(ops, meter, args.seconds, tracer)
        failures, err_max = check_passes(ops, untraced + passes)
        per_pass = []
        for p in passes:
            m = tr.layer_metrics(tracer.spans, *p.spans)
            m["cli.report_bytes"] = sum(getattr(o, "report_bytes", 0) for o in p.outcomes)
            per_pass.append(m)
        values = tr.median_metrics(per_pass, list(PER_LAYER))
        values["trace.overhead_ratio"] = sum(op_latencies(passes)) / sum(op_latencies(untraced))
        values["check.ref_err_max"] = err_max
        attempted_all = len(ops) * (len(untraced) + len(passes))
        values["failed_ratio"] = len(failures) / attempted_all
        units = PER_LAYER
        result.update(computed=list(tr.COMPUTED), traced_passes=len(passes))
        passes = untraced + passes
        tracer.write(run_dir / "spans.json")

    shutil.rmtree(run_dir / "reports", ignore_errors=True)
    attempted = len(ops) * len(passes)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    result.update(summary, passes=len(passes), failures=failures[:20], op_kinds=[op.kind for op in ops],
                  op_latency_ms=[[t * 1e3 for t in p.latencies] for p in passes],
                  op_slowdown=[p.slowdowns for p in passes], setup_raw_s=setup_raw)
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    for text in failures[:5]:
        print(text, file=sys.stderr)
    print(f"# {args.workload}: {len(ops)} ops per pass, {len(passes)} passes, {attempted} ops timed; "
          f"environment {json.dumps(result['environment'])}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
