"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they execute.
"""

import json
import math

import numpy as np
import pytest

from helpers import random_sparse_pmf, run_cli
from photonthin import (
    McConfig,
    build_report,
    eta_for_target_lambda,
    make_pmf,
    moments,
    poisson_family,
    risk_approx,
    risk_exact,
    simulate_thinned,
    thin_direct,
    thin_via_gf,
    tv_distance,
)
from photonthin.cli import table1_inputs, wide_input

EX3 = [(1, 0.95), (1001, 0.05)]

# Closed-form oracle values, frozen from independent evaluation:
# risk_exact uses the two-term forms for q(0), q(1) at eta = 0.1/51;
# the Poisson figure is (1 - e^-l - l e^-l) / (1 - e^-l) at l = 0.1.
EX3_RISK_EXACT_ORACLE = 0.6511063642497655
POISSON_RISK_EXACT_ORACLE = 0.04916680552249556


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_expectation_scaling():
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for _ in range(200):
        p = random_sparse_pmf(rng, max_index=2000, max_atoms=40)
        for eta in (1e-4, 1e-2, 0.1, 0.5, 0.9, 1.0):
            q = thin_direct(p, eta)
            err = abs(q.mean - eta * p.mean) / (1.0 + p.mean)
            worst = max(worst, err)
    _verdict(1, worst <= 1e-10, f"200 inputs x 6 etas, worst scaled mean error {worst:.3e} <= 1e-10")


def test_criterion_02_poisson_closure():
    worst = 0.0
    for mu in (0.5, 5.0, 50.0):
        for eta in (0.001, 0.1, 0.5):
            q = thin_direct(poisson_family(mu, 1e-14), eta)
            ref = poisson_family(eta * mu, 1e-14)
            worst = max(worst, tv_distance(q, ref))
    _verdict(2, worst <= 1e-10, f"closure grid worst tv {worst:.3e} <= 1e-10")


def test_criterion_03_wide_two_point_coefficient():
    c = moments(make_pmf(EX3)).c
    ok = abs(c - 9.12) <= 0.02
    _verdict(3, ok, f"c = {c:.6f}, within 9.12 +/- 0.02 (source rounds to 9.11)")


def test_criterion_04_poisson_risk():
    approx_formula = risk_approx(0.0, 0.1)
    p = poisson_family(50.0, 1e-14)
    report = build_report(p, eta_for_target_lambda(p, 0.1))
    exact = report.risk_exact
    ok = (
        approx_formula == 0.05
        and abs(report.risk_approx - 0.05) <= 1e-9
        and abs(exact - 0.0492) <= 1e-4
        and abs(exact - POISSON_RISK_EXACT_ORACLE) <= 1e-9
    )
    _verdict(4, ok, f"risk_approx = {report.risk_approx!r} (formula 0.05), risk_exact = {exact:.6f}")


def test_criterion_05_wide_two_point_breakdown():
    p = make_pmf(EX3)
    report = build_report(p, eta_for_target_lambda(p, 0.1))
    ok = (
        0.955 <= report.risk_approx <= 0.97
        and 0.60 <= report.risk_exact <= 0.70
        and abs(report.risk_exact - EX3_RISK_EXACT_ORACLE) <= 1e-9
    )
    _verdict(
        5,
        ok,
        f"risk_approx = {report.risk_approx:.4f} in [0.955, 0.97], "
        f"risk_exact = {report.risk_exact:.4f} in [0.60, 0.70]",
    )


def test_criterion_06_error_ladder():
    targets = (0.0045, 0.0030, 0.0018, 0.0011, 0.0005, -0.00016)
    ok = True
    details = []
    for pmf, target in zip(table1_inputs(), targets):
        ms = moments(pmf)
        report = build_report(pmf, eta_for_target_lambda(pmf, 0.1), n_report=4)
        lam = report.lam
        l2c = report.predicted[0]
        envelope = (ms.d + 1.0) * lam**3
        row_ok = (
            abs(l2c - target) <= 1e-12
            and abs(report.delta[0] - l2c) <= envelope
            and abs(report.delta[1] + 2.0 * l2c) <= envelope
            and abs(report.delta[2] - l2c) <= envelope
            and abs(report.delta[3]) <= envelope
            and abs(report.delta[4]) <= envelope
            and math.copysign(1.0, report.delta[0]) == math.copysign(1.0, ms.c)
            and math.copysign(1.0, report.delta[1]) == -math.copysign(1.0, ms.c)
        )
        ok = ok and row_ok
        details.append(f"{target:+.5f}:{'ok' if row_ok else 'BAD'}")
    _verdict(6, ok, "ladder rows " + " ".join(details))


def test_criterion_07_remainder_bounds():
    rng = np.random.default_rng(7_2026)
    worst_low, worst_high = 0.0, 0.0
    for _ in range(200):
        p = random_sparse_pmf(rng, max_index=400, max_atoms=30, min_index=1)
        ms = moments(p)
        tol = 1e-6 * (1.0 + ms.d)
        for lam in (0.05, 0.1, 0.2):
            report = build_report(p, lam / ms.mean)
            for res in report.residuals:
                worst_low = max(worst_low, -res)
                worst_high = max(worst_high, res - ms.d)
                if not (-tol <= res <= ms.d + tol):
                    _verdict(7, False, f"residual {res} outside [0, {ms.d}] + {tol}")
    _verdict(
        7,
        True,
        f"200 inputs x 3 lambdas: residuals in [0, d] within "
        f"(low excess {worst_low:.2e}, high excess {worst_high:.2e})",
    )


def test_criterion_08_route_equivalence():
    rng = np.random.default_rng(8_2026)
    worst = 0.0
    for i in range(50):
        if i % 2 == 0:
            p = random_sparse_pmf(rng, max_index=500, max_atoms=25, min_index=1)
        else:
            # Force the far support point the wide two-point example uses.
            base = random_sparse_pmf(rng, max_index=900, max_atoms=10, min_index=1)
            w = float(rng.uniform(0.02, 0.2))
            pairs = [(n, m * (1.0 - w)) for n, m in base.entries] + [(1001, w)]
            p = make_pmf(pairs)
        eta = eta_for_target_lambda(p, min(0.1, p.mean))
        worst = max(worst, tv_distance(thin_via_gf(p, eta, 40), thin_direct(p, eta)))
    _verdict(8, worst <= 1e-10, f"50 inputs incl. support 1001, worst route tv {worst:.3e} <= 1e-10")


def test_criterion_09_semigroup():
    rng = np.random.default_rng(9_2026)
    worst = 0.0
    for _ in range(50):
        p = random_sparse_pmf(rng, max_index=500, max_atoms=20)
        eta1 = float(rng.uniform(0.05, 0.95))
        eta2 = float(rng.uniform(0.05, 0.95))
        twice = thin_direct(thin_direct(p, eta1), eta2)
        once = thin_direct(p, eta1 * eta2)
        worst = max(worst, tv_distance(twice, once))
    _verdict(9, worst <= 1e-10, f"50 random (eta1, eta2) pairs, worst tv {worst:.3e} <= 1e-10")


def test_criterion_10_monte_carlo_concordance():
    p = make_pmf(EX3)
    eta = eta_for_target_lambda(p, 0.1)
    cfg = McConfig(seed=20260811, trials=10_000_000)
    serial = simulate_thinned(p, eta, cfg, workers=1)
    threaded = simulate_thinned(p, eta, cfg, workers=4)
    identical = (
        serial.empirical == threaded.empirical
        and serial.tv_to_analytic == threaded.tv_to_analytic
    )
    ok = serial.tv_to_analytic <= 0.002 and identical
    _verdict(
        10,
        ok,
        f"1e7 trials: tv = {serial.tv_to_analytic:.2e} <= 2e-3, "
        f"bit-identical across 1 and 4 workers: {identical}",
    )


def test_criterion_11_figure_data(tmp_path):
    out_dir = tmp_path / "figs"
    result = run_cli(["figures", "--out-dir", str(out_dir)])
    assert result.exit_code == 0
    summary = json.loads(result.output)
    lam2 = summary["fig2"]["lambda"]
    lam3 = summary["fig3"]["lambda"]

    rows = []
    with open(out_dir / "fig3.csv") as fh:
        next(fh)
        for line in fh:
            _, p_eta, p_poisson = line.split(",")
            rows.append((float(p_eta), float(p_poisson)))
    gap = max(abs(a - b) for a, b in rows)
    ms = moments(wide_input())
    bound = lam3**2 * (ms.c + 1.0) + (ms.d + 1.0) * lam3**3
    ok = abs(lam2 - 0.4885) <= 1e-9 and abs(lam3 - 0.0977) <= 1e-9 and gap <= bound
    _verdict(
        11,
        ok,
        f"fig2 lambda = {lam2!r}, fig3 lambda = {lam3!r}, "
        f"fig3 max gap {gap:.3e} <= bound {bound:.3e}",
    )
