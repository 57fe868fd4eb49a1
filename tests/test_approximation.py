"""Approximation reports: deviations, predicted errors, residuals, risk."""

import math

import mpmath
import numpy as np
import pytest

from helpers import random_sparse_pmf
from photonthin import (
    AllVacuumError,
    DegenerateLambdaError,
    InvalidParameterError,
    ZeroMeanError,
    build_report,
    make_pmf,
    moments,
    poisson_family,
    predicted_delta,
    risk_approx,
    risk_exact,
    thin_direct,
    thinned_reference,
)

EX3 = [(1, 0.95), (1001, 0.05)]
EX3_C = 9.121299500192233

# Frozen closed-form oracles (two-term evaluation / direct series).
EX3_RISK_EXACT = 0.6511063642497655
EX3_RISK_APPROX = 0.9621299500192233
POISSON_01_RISK_EXACT = 0.04916680552249556

# ROADMAP item 1's reference input for the open faint-regime causes.
FAINT_37 = make_pmf([(3, 0.5), (7, 0.5)])
OPEN_ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")


def exact_faint(entries, eta):
    """Risk P(n >= 2) / P(n >= 1), residuals (d0, d1, d2) and d of thinning
    entries by eta, in 50 digits: each a sum over atoms of closed-form
    brackets, on the table's own total mass."""
    with mpmath.workdps(50):
        e = mpmath.mpf(eta)
        survived = several = r0 = r1 = r2 = m1 = m3 = mpmath.mpf(0)
        for n, mass in entries:
            m = mpmath.mpf(mass)
            pair = n * (n - 1) * e * e / 2
            none, one, two = (1 - e) ** n, n * e * (1 - e) ** (n - 1), pair * (1 - e) ** (n - 2)
            survived += m * (1 - none)
            several += m * (1 - none - one)
            r0 += m * (1 - n * e + pair - none)
            r1 += m * (one - n * e + 2 * pair)
            r2 += m * (pair - two)
            m1 += m * n
            m3 += m * n * (n - 1) * (n - 2)
        lam3 = (e * m1) ** 3
        residuals = tuple(float(r / lam3) for r in (r0, r1, r2))
        return float(several / survived), residuals, float(m3 / m1**3)


class TestBuildReport:
    def test_deterministic_input_has_zero_residuals(self):
        p = make_pmf([(1, 1.0)])
        for eta in (0.05, 0.1, 0.3):
            r = build_report(p, eta)
            assert all(abs(res) <= 1e-9 for res in r.residuals)
            assert r.delta[0] == pytest.approx(
                (1.0 - r.lam) - math.exp(-r.lam), abs=1e-12
            )

    def test_wide_two_point_breaks_approximation(self):
        p = make_pmf(EX3)
        eta = 0.1 / 51.0
        r = build_report(p, eta)
        assert r.lam == pytest.approx(0.1, rel=1e-15)
        assert r.predicted[0] == pytest.approx(0.0912, abs=2e-4)
        # Deviation is on the order of the predicted quadratic error and
        # far above the generic cubic scale.
        assert abs(r.delta[0]) > 10.0 * r.lam**3
        assert abs(r.delta[0] - r.predicted[0]) <= r.bound

    def test_poisson_input_has_vanishing_deltas(self):
        p = poisson_family(100.0, 1e-12)
        eta = 0.1 / p.mean
        r = build_report(p, eta)
        assert all(abs(d) <= 1e-12 for d in r.delta)

    def test_bright_point_mass_reports_at_every_integer_lambda(self):
        # A reference Poisson whose cut was inferred as one minus its
        # masses raised "could not reach tail mass" at 44 of these.
        p = make_pmf([(1000, 1.0)])
        for lam in range(50, 151):
            assert build_report(p, lam / 1000).lam == pytest.approx(lam, rel=1e-15)
            _, ref, _ = thinned_reference(p, lam / 1000)
            assert ref.tail_defect <= 1e-14

    def test_delta_length_follows_n_report(self):
        p = make_pmf([(1, 1.0)])
        assert len(build_report(p, 0.1, n_report=4).delta) == 5
        assert len(build_report(p, 0.1).delta) == 11

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            build_report(make_pmf([(0, 1.0)]), 0.5)

    def test_zero_eta_rejected(self):
        with pytest.raises(DegenerateLambdaError):
            build_report(make_pmf([(1, 1.0)]), 0.0)

    def test_deltas_sum_to_zero_over_full_support(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_sparse_pmf(rng, max_index=400, max_atoms=20)
            q, ref, _ = thinned_reference(p, 0.1 / p.mean)
            union = sorted(set(q.support) | set(ref.support))
            total = math.fsum(q.mass(n) - ref.mass(n) for n in union)
            total += q.tail_defect - ref.tail_defect
            assert abs(total) <= 1e-9


class TestResidualRecovery:
    def test_recovered_residuals_within_d(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            p = random_sparse_pmf(rng, max_index=300, max_atoms=20, min_index=1)
            ms = moments(p)
            for lam in (0.05, 0.1, 0.2):
                r = build_report(p, lam / ms.mean)
                tol = 1e-6 * (1.0 + ms.d)
                for res in r.residuals:
                    assert -tol <= res <= ms.d + tol

    def test_tail_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_sparse_pmf(rng, max_index=300, max_atoms=20, min_index=1)
            ms = moments(p)
            lam = 0.1
            r = build_report(p, lam / ms.mean)
            d0, d1, d2 = r.residuals
            assert abs(r.tail3 - (d0 + d2 - d1) * r.lam**3) <= 1e-6 * r.lam**3 * (
                1.0 + ms.d
            )

    def test_leading_error_envelope(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            p = random_sparse_pmf(rng, max_index=250, max_atoms=15, min_index=1)
            ms = moments(p)
            for lam in (0.05, 0.1, 0.2):
                r = build_report(p, lam / ms.mean)
                for n in range(3):
                    assert abs(r.delta[n] - r.predicted[n]) <= r.bound

    def test_sign_structure_when_leading_term_dominates(self):
        # Two-point inputs on {0, b} let c and d be dialed; keep
        # d * lambda <= c / 2 so the quadratic term decides the sign.
        tested = 0
        for c_target in (0.3, 0.6, 1.0, 2.0):
            for b in (4, 5, 6):
                w = (b - 1) / (b * (2.0 * c_target + 1.0))
                p = make_pmf([(0, 1.0 - w), (b, w)])
                ms = moments(p)
                lam = min(0.1, ms.c / (2.5 * ms.d))
                if ms.d * lam > ms.c / 2.0:
                    continue
                r = build_report(p, lam / ms.mean)
                assert r.delta[0] > 0.0
                assert r.delta[1] < 0.0
                assert r.delta[2] > 0.0
                tested += 1
        assert tested >= 8


class TestFaintRegime:
    @pytest.mark.parametrize(
        "entries", [[(3, 0.5), (7, 0.5 + 4e-10)], [(1, 0.95), (1001, 0.05 - 5e-10)]]
    )
    @pytest.mark.parametrize("lam", [1e-2, 1e-3])
    def test_lossy_table_residuals_against_mpmath(self, entries, lam):
        # Masses that sum to 1 + 4e-10 or 1 - 5e-10: with 1 in place of
        # the table's own mass, d0 reads -0.256 for 0.144 at lambda 1e-3.
        p = make_pmf(entries)
        eta = lam / p.mean
        _, want, d = exact_faint(entries, eta)
        assert build_report(p, eta).residuals == pytest.approx(want, rel=0, abs=1e-6 * max(d, 1.0))

    @OPEN_ITEM_1
    @pytest.mark.parametrize("lam", [1e-6, 1e-8, 1e-10])
    def test_risk_against_mpmath(self, lam):
        eta = lam / FAINT_37.mean
        want = exact_faint(FAINT_37.entries, eta)[0]
        got = build_report(FAINT_37, eta).risk_exact
        assert abs(got - want) <= 1e-12 * want

    @OPEN_ITEM_1
    @pytest.mark.parametrize("lam", [1e-6, 1e-8])
    def test_d0_against_mpmath(self, lam):
        eta = lam / FAINT_37.mean
        _, (want, _, _), d = exact_faint(FAINT_37.entries, eta)
        got = build_report(FAINT_37, eta).residuals[0]
        assert abs(got - want) <= 1e-6 * max(d, 1.0)

    @OPEN_ITEM_1
    @pytest.mark.parametrize("lam", [1e-7, 1e-10])
    def test_delta2_is_its_leading_term(self, lam):
        r = build_report(FAINT_37, lam / FAINT_37.mean)
        assert abs(r.delta[2] / r.predicted[2] - 1.0) <= 1e-2


class TestPredictedDelta:
    def test_table_first_row_scale(self):
        assert predicted_delta(0.45, 0.1) == pytest.approx(
            (0.0045, -0.009, 0.0045), rel=1e-12
        )

    def test_zero_coefficient(self):
        assert predicted_delta(0.0, 0.37) == (0.0, -0.0, 0.0)

    def test_wide_two_point_coefficient(self):
        got = predicted_delta(EX3_C, 0.1)
        assert got[0] == pytest.approx(0.091213, abs=1e-6)
        assert got[1] == pytest.approx(-0.182426, abs=1e-6)
        assert got[2] == got[0]

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(InvalidParameterError):
            predicted_delta(0.5, 0.0)


class TestRiskExact:
    def test_poisson_01_closed_form(self):
        q = poisson_family(0.1, 1e-14)
        assert risk_exact(q) == pytest.approx(POISSON_01_RISK_EXACT, abs=1e-12)
        # The commonly quoted figure: about a 5% chance of a multi-photon
        # pulse at a mean of 0.1.
        assert abs(risk_exact(q) - 0.0492) <= 1e-4

    def test_no_multiphoton_mass(self):
        assert risk_exact(make_pmf([(0, 0.5), (1, 0.5)])) == 0.0

    def test_wide_two_point_thinned(self):
        q = thin_direct(make_pmf(EX3), 0.1 / 51.0)
        value = risk_exact(q)
        assert value == pytest.approx(EX3_RISK_EXACT, abs=1e-12)
        assert 0.6 < value < 0.7

    def test_all_vacuum_rejected(self):
        with pytest.raises(AllVacuumError):
            risk_exact(make_pmf([(0, 1.0)]))

    def test_any_mass_past_vacuum_is_accepted(self):
        # 1e-16 at n = 1 is mass there, however light: P(n >= 2) is 0.
        assert risk_exact(make_pmf([(0, 1 - 1e-16), (1, 1e-16)])) == 0.0

    @pytest.mark.parametrize("eta", [0.1, 0.3, 1e-5])
    def test_single_photon_source_has_no_risk(self, eta):
        # Thinning {1: 1} leaves rows 0 and 1 only, so both the risk and
        # the mass at n >= 3 are exactly 0, with no 1 - q(0) to cancel.
        p = make_pmf([(1, 1.0)])
        assert risk_exact(thin_direct(p, eta)) == 0.0
        r = build_report(p, eta)
        assert r.risk_exact == 0.0
        assert r.tail3 == 0.0

    @pytest.mark.parametrize("entries", [[(1, 0.9), (2, 0.1)], [(0, 0.5), (2, 0.5)]])
    @pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-5])
    def test_faint_risk_against_mpmath(self, entries, eta):
        # At eta = 1e-5 forming P(n >= 2) as 1 - q(0) - q(1) errs by about
        # 1e-6 relative; summing the rows keeps the risk to rounding.
        want = exact_faint(entries, eta)[0]
        got = risk_exact(thin_direct(make_pmf(entries), eta))
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize(
        ("entries", "lam"),
        [([(1, 1 - 3e-12), (2000, 3e-12)], 1e-2), ([(1, 1 - 1e-9), (2**20, 1e-9)], 1e-4)],
        ids=["one_and_2000", "one_and_2**20"],
    )
    def test_light_far_atom_risk_against_mpmath(self, entries, lam):
        # The far atom carries nearly all of P(n >= 2); thin_direct used to
        # cut it whole and read 1e-16 and 2e-47. Truncation may still leave
        # 1e-15 of mass, which shifts the risk by up to 1e-15 / P(n >= 1),
        # and P(n >= 1) <= lambda (ROADMAP item 1).
        p = make_pmf(entries)
        eta = lam / p.mean
        want = exact_faint(entries, eta)[0]
        assert abs(risk_exact(thin_direct(p, eta)) - want) <= 1e-15 / lam


class TestRiskApprox:
    def test_poisson_case(self):
        assert risk_approx(0.0, 0.1) == 0.05

    def test_overdispersed_case(self):
        assert risk_approx(9.11, 0.1) == pytest.approx(0.961, abs=1e-12)
        assert risk_approx(EX3_C, 0.1) == pytest.approx(EX3_RISK_APPROX, rel=1e-15)

    def test_deterministic_floor(self):
        for k in (1, 5, 100):
            assert risk_approx(-1.0 / (2 * k), 0.2) == pytest.approx(
                (0.5 - 1.0 / (2 * k)) * 0.2, rel=1e-15
            )

    def test_not_clamped_above_one(self):
        assert risk_approx(12.0, 0.1) > 1.0

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(InvalidParameterError):
            risk_approx(0.5, -0.1)


class TestRiskConsistency:
    def test_exact_and_approx_converge_for_small_lambda(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            p = random_sparse_pmf(rng, max_index=200, max_atoms=15, min_index=1)
            ms = moments(p)
            lam = min(0.04, 0.045 / (1.0 + abs(ms.c)))
            if lam > ms.mean:
                continue
            r = build_report(p, lam / ms.mean)
            assert lam * (1.0 + abs(ms.c)) <= 0.05
            assert abs(r.risk_exact - r.risk_approx) <= 5.0 * (1.0 + abs(ms.c)) * lam**2
