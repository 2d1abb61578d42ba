"""Acceptance gate: one test per published guarantee of the package.

Each test prints a single PASS/FAIL line (run with -s to see them on success)
and asserts the guarantee at its stated tolerance.  Everything here is
independent of the unit tests: expected values come from closed forms, from
independently coded oracles, or from explicit certificate checks.
"""
import math

import numpy as np

from cyclemaps import (
    MapParams,
    Permutation,
    certify_optimality,
    choi,
    classify_map,
    decompose_involution,
    delta_n,
    identity,
    min_eigenvalue,
    positivity_verdict,
    separable_decomposition,
    spa_state,
    tau,
    verify_positivity_numeric,
)
from matrix_helpers import (
    elementary_symmetric,
    is_psd,
    positivity_threshold,
    ppt_check,
    schur_matrix,
    symmetric_F,
)


def _gate(number: int, slug: str, ok: bool, detail: str = "") -> None:
    print(f"CRITERION {number} ({slug}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({slug}) failed: {detail}"


def test_criterion_1_choi_spectrum_closed_form():
    rng = np.random.default_rng(101)
    worst = 0.0
    cases = 0
    for n in range(3, 9):
        for k in range(1, n):
            for a in (n - 1.0, float(n), n + 0.5):
                for _ in range(20):
                    c = tuple(rng.uniform(0.2, 3.0, size=n))
                    p = MapParams(n, tau(n, k), a, c)
                    spectrum = np.linalg.eigvalsh(choi(p))
                    expect = np.sort(
                        np.concatenate(
                            [np.zeros(n * n - 2 * n), np.full(n - 1, a), [a - n], c]
                        )
                    )
                    worst = max(worst, float(np.max(np.abs(spectrum - expect))))
                    cases += 1
    ok = cases == 1620 and worst <= 1e-8
    _gate(1, "choi-spectrum-closed-form", ok, f"{cases} cases, worst deviation {worst:.3e}")


def test_criterion_2_positivity_theorem_vs_oracle():
    rng = np.random.default_rng(202)
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        coprime = [k for k in range(1, n + 1) if math.gcd(n, k) == 1]
        k = int(rng.choice(coprime))
        c = tuple(rng.uniform(0.2, 3.0, size=n))
        probe = MapParams(n, tau(n, k), 1.0, c)
        threshold = positivity_threshold(probe)
        offset = float(rng.uniform(0.05, 0.8))
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        a = threshold + side * offset
        p = MapParams(n, tau(n, k), a, c)

        theorem = positivity_verdict(p).status
        assert theorem in ("yes", "no")
        evidence = verify_positivity_numeric(p, samples=4000, seed=7)
        oracle = "yes" if evidence.consistent_with_positive else "no"
        if theorem != oracle:
            disagreements += 1
    _gate(2, "positivity-theorem-vs-oracle", disagreements == 0, f"{disagreements} of 200 disagreed")


def test_criterion_3_flagship_classification():
    p = MapParams(3, tau(3, 2), 2.0, (1.0, 1.0, 1.0))
    report = classify_map(p)
    min_eig = min_eigenvalue(choi(p))
    ok = (
        report.positive.status == "yes"
        and report.completely_positive.status == "no"
        and report.atomic.status == "yes"
        and abs(min_eig - (-1.0)) <= 1e-9
    )
    _gate(
        3,
        "flagship-atomic-example",
        ok,
        f"positive={report.positive.status}, cp={report.completely_positive.status}, "
        f"atomic={report.atomic.status}, choi min eig={min_eig:.12f}",
    )


def test_criterion_4_spa_separability():
    problems = []
    for n in range(3, 8):
        for k in range(1, n):
            p = MapParams(n, tau(n, k), n - 1.0, (1.0,) * n)
            dec = separable_decomposition(p)
            expected_norm = 1.0 / (n * (n - 2) + n + n * n)
            if dec.residual > 1e-10:
                problems.append(f"(n={n}, k={k}) residual {dec.residual:.3e}")
            if abs(dec.normalization - expected_norm) > 1e-12:
                problems.append(f"(n={n}, k={k}) normalization {dec.normalization!r}")
            for term in dec.terms:
                psd_ok = is_psd(term.matrix)
                ppt_ok, _ = ppt_check(term.matrix, n, n)
                if not (psd_ok and ppt_ok):
                    problems.append(f"(n={n}, k={k}) term {term.kind}{term.indices}")
    _gate(4, "spa-separability", not problems, "; ".join(problems[:4]))


def test_criterion_5_lambda_star_formula():
    problems = []
    for n in range(3, 8):
        for k in range(1, n):
            p = MapParams(n, tau(n, k), n - 1.0, (1.0,) * n)
            state = spa_state(p)
            # ||C^-|| = 1 at a = n - 1, so ||W^-|| Tr(C) = 1.
            if abs(state.w_minus_norm * state.trace_choi - 1.0) > 1e-10:
                problems.append(f"(n={n}, k={k}) ||W-|| Tr = {state.w_minus_norm * state.trace_choi!r}")
            expect = state.trace_choi / (state.trace_choi + n * n)
            if abs(state.lambda_star - expect) > 1e-10:
                problems.append(f"(n={n}, k={k}) lambda* = {state.lambda_star!r}")
            if n == 3 and abs(state.lambda_star - 0.4) > 1e-10:
                problems.append(f"(n=3, k={k}) lambda* = {state.lambda_star!r} != 0.4")
    _gate(5, "spa-mixing-threshold", not problems, "; ".join(problems[:4]))


def test_criterion_6_witness_optimality():
    problems = []
    for n in range(3, 9):
        for k in range(1, n):
            l = n // math.gcd(n, k)
            if l < 3:
                continue
            for c0 in sorted({1.0, n / l}):
                p = MapParams(n, tau(n, k), n - c0, (c0,) * n)
                cert = certify_optimality(p)
                worst = float(np.max(np.abs(cert.expectations)))
                if worst > 1e-9:
                    problems.append(f"(n={n}, k={k}, c={c0}) expectation {worst:.3e}")
                if cert.span_rank != n * n or not cert.optimal:
                    problems.append(f"(n={n}, k={k}, c={c0}) rank {cert.span_rank}")
    for n in range(2, 7):
        cert = certify_optimality(delta_n(n))
        if cert.span_rank != n * n or not cert.optimal:
            problems.append(f"delta_{n} rank {cert.span_rank}")
    _gate(6, "witness-optimality", not problems, "; ".join(problems[:4]))


def _random_involution(rng) -> tuple[int, Permutation]:
    n = int(rng.integers(2, 9))
    order = [int(v) + 1 for v in rng.permutation(n)]
    images = list(range(n + 1))  # 1-based scratch
    num_pairs = int(rng.integers(0, n // 2 + 1))
    for t in range(num_pairs):
        i, j = order[2 * t], order[2 * t + 1]
        images[i], images[j] = j, i
    return n, Permutation(tuple(images[1:]))


def test_criterion_7_involution_decomposability():
    rng = np.random.default_rng(707)
    problems = []
    for _ in range(50):
        n, sigma = _random_involution(rng)
        a = float(rng.uniform(n - 1.0, n + 1.0))
        c = np.empty(n)
        done = set()
        for i in range(1, n + 1):
            if i in done:
                continue
            j = sigma(i)
            if j == i:
                c[i - 1] = rng.uniform(1.0, 3.0)
            else:
                lo = float(rng.uniform(0.4, 2.5))
                c[i - 1] = lo
                c[j - 1] = rng.uniform(1.0 / lo, 1.0 / lo + 2.0)
                done.add(j)
        p = MapParams(n, sigma, a, tuple(c))
        cert = decompose_involution(p)
        if cert.reconstruction_residual > 1e-10:
            problems.append(f"n={n} residual {cert.reconstruction_residual:.3e}")
        if cert.p_min_eigenvalue < -1e-9:
            problems.append(f"n={n} P min eig {cert.p_min_eigenvalue:.3e}")
        if any(m < -1e-9 for m in cert.q_pt_min_eigenvalues):
            problems.append(f"n={n} Q^PT min {min(cert.q_pt_min_eigenvalues):.3e}")
    _gate(7, "involution-decomposability", not problems, "; ".join(problems[:4]))


def test_criterion_8_lemma_suite():
    rng = np.random.default_rng(808)
    problems = []

    # Sign equivalence: F(a, x) >= 0 iff sum_i 1/(a + x_i) <= 1, strict cases.
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 7))
        a = float(rng.uniform(n - 1.0, n + 3.0))
        xs = rng.uniform(1e-3, 10.0, size=n)
        gap = 1.0 - float(np.sum(1.0 / (a + xs)))
        if abs(gap) < 1e-6:
            continue
        checked += 1
        if (symmetric_F(a, xs) >= 0.0) != (gap >= 0.0):
            problems.append(f"sign mismatch at a={a}, xs={xs}")

    # Elementary-symmetric lower bound e_k >= C(n, k) geomean^k.
    for _ in range(500):
        n = int(rng.integers(2, 7))
        xs = rng.uniform(0.05, 5.0, size=n)
        g = float(np.exp(np.mean(np.log(xs))))
        e = elementary_symmetric(xs)
        for k in range(n + 1):
            bound = math.comb(n, k) * g**k
            if e[k] < bound - 1e-9 * max(1.0, bound):
                problems.append(f"e_{k} bound fails at xs={xs}")

    # Power expansion: F(a, (t, ..., t)) = (t + a)^(n-1) (t + a - n).
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = float(rng.uniform(0.1, 4.0))
        t = float(rng.uniform(0.1, 8.0)) ** (1.0 / n)
        lhs = symmetric_F(a, (t,) * n)
        rhs = (t + a) ** (n - 1) * (t + a - n)
        if abs(lhs - rhs) > 1e-10:
            problems.append(f"identity off by {abs(lhs - rhs):.3e} at n={n}, a={a}")
    _gate(8, "symmetric-polynomial-lemmas", not problems, "; ".join(problems[:4]))


def test_criterion_9_entrywise_multiplier_case():
    rng = np.random.default_rng(909)
    problems = []
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 7))
        a = float(rng.uniform(0.3, n + 1.0))
        c = tuple(rng.uniform(0.2, 3.0, size=n))
        p = MapParams(n, identity(n), a, c)
        schur_min = min_eigenvalue(schur_matrix(p))
        if abs(schur_min) < 1e-6:
            continue
        checked += 1
        if is_psd(schur_matrix(p)) != is_psd(choi(p)):
            problems.append(f"mismatch at n={n}, a={a}, c={c}")
    _gate(9, "entrywise-multiplier-psd-equivalence", not problems, "; ".join(problems[:4]))
