"""Core distribution type: construction, families, moments, distance."""

import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EX3_ETA, ex3_q0_closed_form, random_sparse_pmf
from photonthin import (
    AttenuationCoefficient,
    DuplicateIndexError,
    InvalidParameterError,
    McConfig,
    NegativeMassError,
    NotNormalizedError,
    Pmf,
    ZeroMeanError,
    build_report,
    eta_for_target_lambda,
    make_pmf,
    moments,
    poisson_family,
    predicted_delta,
    risk_approx,
    simulate_thinned,
    thin_direct,
    thin_via_gf,
    tv_distance,
)
from photonthin.pmf import _MAX_KERNEL_N

# Frozen oracle values (independent routes, see each test).
EX3_PAIRS = [(1, 0.95), (1001, 0.05)]
EX3_C = 9.121299500192233  # exact rational 47449/5202
TV_POISSON_01_00977 = 0.0020835211923684303  # direct series to n = 80


class TestMakePmf:
    def test_fair_two_point(self):
        p = make_pmf([(0, 0.5), (1, 0.5)])
        assert p.support == (0, 1)
        assert p.mass(0) == 0.5 and p.mass(1) == 0.5
        assert p.tail_defect == 0.0

    def test_wide_two_point(self):
        p = make_pmf(EX3_PAIRS)
        assert p.support == (1, 1001)
        assert p.mass(1001) == 0.05

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            make_pmf([(0, 0.5), (1, 0.4)])

    def test_negative_mass(self):
        with pytest.raises(NegativeMassError):
            make_pmf([(0, 1.2), (1, -0.2)])

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndexError):
            make_pmf([(3, 0.5), (3, 0.5)])

    def test_input_order_normalized(self):
        p = make_pmf([(7, 0.25), (2, 0.75)])
        assert p.support == (2, 7)

    def test_rejects_fractional_index(self):
        with pytest.raises(InvalidParameterError):
            make_pmf([(0.5, 1.0)])

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidParameterError):
            make_pmf([(-1, 1.0)])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_normalized_weights_always_accepted(self, raw):
        total = math.fsum(raw)
        pairs = [(i, w / total) for i, w in enumerate(raw)]
        p = make_pmf(pairs)
        assert all(m >= 0.0 for m in p.masses)
        assert abs(math.fsum(p.masses) + p.tail_defect - 1.0) <= 1e-9


class TestAttenuationCoefficient:
    @pytest.mark.parametrize("eta", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range(self, eta):
        with pytest.raises(InvalidParameterError):
            AttenuationCoefficient(eta)

    def test_accepts_bounds(self):
        assert AttenuationCoefficient(0.0).eta == 0.0
        assert AttenuationCoefficient(1.0).eta == 1.0


class TestPoissonFamily:
    def test_small_mu_concentrates_at_zero(self):
        p = poisson_family(1e-6, 1e-12)
        assert p.mass(0) == pytest.approx(1.0, abs=2e-6)
        assert p.support[0] == 0

    def test_mass_at_zero_matches_formula(self):
        p = poisson_family(0.1, 1e-12)
        assert p.mass(0) == pytest.approx(math.exp(-0.1), rel=1e-14)

    def test_mean_against_deep_series(self):
        # Oracle: direct series summation far past the library truncation.
        p = poisson_family(5.0, 1e-12)
        oracle = math.fsum(
            n * math.exp(-5.0 + n * math.log(5.0) - math.lgamma(n + 1))
            for n in range(200)
        )
        assert abs(oracle - 5.0) < 1e-12
        assert abs(p.mean - 5.0) <= 1e-10
        assert abs(p.mean - oracle) <= 1e-10

    def test_tail_defect_within_budget(self):
        for mu, eps in [(0.5, 1e-12), (5.0, 1e-8), (50.0, 1e-14)]:
            p = poisson_family(mu, eps)
            assert 0.0 <= p.tail_defect <= eps

    def test_default_defect_below_1e12(self):
        assert poisson_family(7.3).tail_defect <= 1e-12

    def test_truncation_index_is_smallest(self):
        p = poisson_family(5.0, 1e-12)
        # One entry fewer would leave more than tail_eps uncovered.
        assert 1.0 - math.fsum(p.masses[:-1]) > 1e-12

    @pytest.mark.parametrize("mu,eps", [(0.0, 1e-12), (-1.0, 1e-12), (5.0, 0.0), (5.0, 1e-5)])
    def test_invalid_parameters(self, mu, eps):
        with pytest.raises(InvalidParameterError):
            poisson_family(mu, eps)

    @pytest.mark.parametrize("eps", [1e-14, 1e-12])
    @pytest.mark.parametrize("grid", ["geomspace", "arange"])
    def test_cut_against_incomplete_gamma(self, grid, eps):
        # Both grids hold means where a cut inferred as one minus the kept
        # masses raised, or cut more than it reported.
        for mu in POISSON_GRIDS[grid]:
            _check_poisson_table(mu, eps)

    @pytest.mark.parametrize("eps", [1e-17, 1e-30, 1e-300])
    @pytest.mark.parametrize("mu", [0.1, 5.0, 50.0, 1e4])
    def test_tail_eps_below_mass_rounding(self, mu, eps):
        _check_poisson_table(mu, eps)

    @pytest.mark.parametrize("mu", [1e4, 1e5, 1e6])
    def test_large_means_against_mpmath(self, mu):
        # A mass formed as exp(-mu + n log mu - log n!) carries the rounding
        # of n log mu, about 3e-9 relative at mu = 1e6.
        p = _check_poisson_table(mu, 1e-12)
        assert abs(math.fsum(p.masses) + p.tail_defect - 1.0) <= 1e-12

    # Rows below the first normal mass are not stored: at mu = 709 row 0
    # (e**-709, below the smallest normal float) is the only one; at 1e6 the table holds
    # 44 242 rows, not the 1 007 044 from row 0.
    @pytest.mark.parametrize(("mu", "first", "rows"), [(708.0, 0, 904), (709.0, 1, 904),
                                                      (1e4, 6493, 4219), (1e6, 962_802, 44_242)])
    def test_table_starts_at_first_normal_mass(self, mu, first, rows):
        p = poisson_family(mu)
        assert (p.support[0], len(p.entries)) == (first, rows)
        assert p.mass(first) >= sys.float_info.min
        assert p.mass(first - 1) == 0.0

    def test_kernel_bound_is_where_the_walk_reaches(self):
        assert poisson_family(1.03e6).max_index == 1_037_147
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="walk reaches past index"):
            poisson_family(1.0395e6)
        assert time.perf_counter() - start < 1.0


POISSON_GRIDS = {
    "geomspace": np.geomspace(1, 2000, 300).tolist(),
    "arange": np.arange(500, 10001, 250).tolist(),
}


def _check_poisson_table(mu, eps):
    """poisson_family(mu, eps), returned, against 30-digit mpmath: the masses
    at rows 0, 1, the row below the first stored one, the mode and the row
    past it, the last two, and 16 spaced from 8 sd below the mean, within
    1e-14 relative (under twice the smallest normal float where the exact
    mass is under that float), and the cut. The table runs without a gap
    from its first stored row, and every stored mass is normal."""
    p = poisson_family(mu, eps)
    first, n_max, mode = p.support[0], p.max_index, int(mu)
    assert p.support == tuple(range(first, n_max + 1))
    assert min(p.masses) >= sys.float_info.min
    low = max(0, int(mu - 8.0 * math.sqrt(mu)))
    rows = {0, 1, first - 1, mode, mode + 1, n_max - 1, n_max,
            *range(low, n_max, max(1, (n_max - low) // 16))}
    with mpmath.workdps(30):
        for n in sorted(n for n in rows if 0 <= n <= n_max):
            exact = float(mpmath.exp(n * mpmath.log(mu) - mu - mpmath.loggamma(n + 1)))
            if exact >= sys.float_info.min:
                assert p.mass(n) == pytest.approx(exact, rel=1e-14, abs=0.0), (mu, n)
            else:
                assert p.mass(n) < 2.0 * sys.float_info.min, (mu, n)
        cut = float(mpmath.gammainc(n_max + 1, 0, mu, regularized=True))
    assert cut <= eps, mu
    assert p.tail_defect == pytest.approx(cut, rel=1e-10, abs=0.0), mu
    # One entry fewer would cut more than eps, so n_max is the smallest.
    assert p.masses[-1] + p.tail_defect > eps, mu
    return p


class TestMoments:
    def test_deterministic_point(self):
        ms = moments(make_pmf([(3, 1.0)]))
        assert ms.mean == 3.0
        assert ms.variance == 0.0
        assert ms.m3 == 6.0
        assert ms.c == pytest.approx(-1.0 / 6.0, rel=1e-15)
        assert ms.d == pytest.approx(6.0 / 27.0, rel=1e-15)

    def test_wide_two_point(self):
        ms = moments(make_pmf(EX3_PAIRS))
        assert ms.mean == pytest.approx(51.0, abs=1e-12)
        assert ms.variance == pytest.approx(47500.0, abs=1e-9)
        assert ms.c == pytest.approx(EX3_C, abs=1e-12)
        assert abs(ms.c - 9.12) <= 0.02

    def test_poisson_c_near_zero(self):
        ms = moments(poisson_family(2.0, 1e-14))
        assert abs(ms.c) <= 1e-8

    def test_zero_mean_rejected(self):
        with pytest.raises(ZeroMeanError):
            moments(make_pmf([(0, 1.0)]))

    @pytest.mark.parametrize(
        "pairs, variance",
        [
            ([(2**53 + 1, 1.0)], 0.0),
            ([(2**53, 0.5), (2**53 + 1, 0.5)], 0.25),
            ([(10**9, 0.5), (10**9 + 1, 0.5)], 0.25),
        ],
        ids=["point_at_2_53_plus_1", "pair_at_2_53", "pair_at_1e9"],
    )
    def test_variance_of_large_indices(self, pairs, variance):
        assert moments(make_pmf(pairs)).variance == variance

    @pytest.mark.parametrize(
        "pmf",
        [
            make_pmf([(10**6, 0.75 - 2.0**-30), (10**6 + 1, 0.25)]),
            make_pmf([(3, 0.1234567891), (40, 0.3456789012), (299, 0.5308643096)]),
            poisson_family(50.0, 1e-12),
        ],
        ids=["lossy_pair_at_1e6", "lossy_table", "poisson_50_with_tail"],
    )
    def test_variance_of_masses_as_given(self, pmf):
        # E[n^2] - E[n]^2 over the stored masses, whose total is not 1. The
        # pair's total 1 - 2**-30 is exact in floating point, so its missing
        # mass term, 931.3 of a variance of 931.5, carries no rounding.
        masses = [Fraction(m) for m in pmf.masses]
        e1 = sum(n * m for n, m in zip(pmf.support, masses))
        e2 = sum(n * n * m for n, m in zip(pmf.support, masses))
        assert sum(masses) != 1
        assert moments(pmf).variance == pytest.approx(float(e2 - e1 * e1), rel=1e-14)

    def test_seeded_tables_against_exact_moments(self):
        # Mean, variance and third factorial moment of sparse tables against
        # exact rational sums over the stored masses.
        rng = np.random.default_rng(44)
        for _ in range(20):
            p = random_sparse_pmf(rng, max_index=1500, max_atoms=30)
            masses = [Fraction(m) for m in p.masses]
            e1 = sum(n * m for n, m in zip(p.support, masses))
            e2 = sum(n * n * m for n, m in zip(p.support, masses))
            m3 = sum(n * (n - 1) * (n - 2) * m for n, m in zip(p.support, masses))
            ms = moments(p)
            assert ms.mean == pytest.approx(float(e1), rel=1e-15)
            assert ms.variance == pytest.approx(float(e2 - e1 * e1), rel=1e-14)
            assert ms.m3 == pytest.approx(float(m3), rel=1e-15)

    def test_c_floor_and_m3_nonnegative(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            ms = moments(random_sparse_pmf(rng, max_index=500, max_atoms=20))
            assert ms.c >= -1.0 / (2.0 * ms.mean) - 1e-12
            assert ms.m3 >= -1e-12
            assert ms.variance >= -1e-12


def _worst_rel_err(q: Pmf, big_n: int, eta: float, rows) -> float:
    """Largest relative error of the rows of ``q``, the thinned point mass
    at ``big_n``, against 50-digit mpmath binomials."""
    worst = 0.0
    with mpmath.workdps(50):
        e = mpmath.mpf(eta)
        for n in rows:
            ref = mpmath.binomial(big_n, n) * e**n * (1 - e) ** (big_n - n)
            worst = max(worst, float(abs(q.mass(n) - ref) / ref))
    return worst


def _around_mode(big_n: int, eta: float, offsets) -> list[int]:
    mode = int((big_n + 1) * eta)
    return [mode + k for k in offsets]


class TestThinDirectRows:
    """Rows of thinned point masses against 50-digit mpmath binomials."""

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("big_n", [2000, 40_000, 2**20])
    def test_row_zero_start(self, big_n, lam):
        q = thin_direct(make_pmf([(big_n, 1.0)]), lam / big_n)
        assert _worst_rel_err(q, big_n, lam / big_n, range(6)) <= 1e-12

    @pytest.mark.parametrize("big_n, eta", [(1000, 0.647), (2**20, 0.5)])
    def test_mode_start(self, big_n, eta):
        # Row 0 underflows here, so the rows start at the mode.
        q = thin_direct(make_pmf([(big_n, 1.0)]), eta)
        assert _worst_rel_err(q, big_n, eta, _around_mode(big_n, eta, (-40, -3, 0, 2, 40))) <= 1e-12

    @pytest.mark.parametrize("big_n", [300, 2000, 6000])
    def test_every_row_of_a_long_walk(self, big_n):
        # (1 - eta)^N is 1e-275 at N = 6000; exp(N log1p(-eta)) would carry
        # N eps |log(1 - eta)| of rounding into every row.
        q = thin_direct(make_pmf([(big_n, 1.0)]), 0.1)
        assert _worst_rel_err(q, big_n, 0.1, q.support) <= 1e-14
        assert abs(math.fsum(q.masses) + q.tail_defect - 1.0) <= 1e-15

    def test_no_subnormal_row(self):
        # Walking down from the mode, rows 210-214 fall below the smallest
        # normal float (row 210 would read 1.55e-312, 6.4e-13 off); they
        # join the cut instead of being emitted.
        q = thin_direct(make_pmf([(2000, 1.0)]), 0.5)
        assert min(q.masses) >= sys.float_info.min
        assert _worst_rel_err(q, 2000, 0.5, q.support) <= 1e-14
        assert abs(math.fsum(q.masses) + q.tail_defect - 1.0) <= 1e-15


class TestThinViaGfRows:
    """Rows of the generating-function route against 50-digit mpmath
    binomials, within twice eps log(N!), the rounding of its lgamma terms."""

    @staticmethod
    def _bound(big_n: int) -> float:
        return 2.0 * sys.float_info.epsilon * math.lgamma(big_n + 1)

    @pytest.mark.parametrize("lam", [0.1, 10.0])
    @pytest.mark.parametrize("big_n", [2000, 10_000, 2**20])
    def test_first_rows(self, big_n, lam):
        q = thin_via_gf(make_pmf([(big_n, 1.0)]), lam / big_n, 5)
        assert _worst_rel_err(q, big_n, lam / big_n, range(6)) <= self._bound(big_n)

    @pytest.mark.parametrize("big_n", [2000, 2**20])
    def test_rows_around_mode(self, big_n):
        sigma = math.isqrt(big_n) // 2  # sqrt(N eta (1 - eta)) at eta 0.5
        rows = _around_mode(big_n, 0.5, (-3 * sigma, -sigma, 0, sigma, 3 * sigma))
        q = thin_via_gf(make_pmf([(big_n, 1.0)]), 0.5, rows[-1])
        assert _worst_rel_err(q, big_n, 0.5, rows) <= self._bound(big_n)

    def test_row_zero_of_wide_two_point(self):
        q = thin_via_gf(make_pmf(EX3_PAIRS), EX3_ETA, 0)
        assert abs(q.mass(0) - ex3_q0_closed_form(EX3_ETA)) <= 1e-15


class TestTvDistance:
    def test_identity_is_zero(self):
        p = make_pmf([(0, 0.25), (3, 0.75)])
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance(make_pmf([(0, 1.0)]), make_pmf([(1, 1.0)])) == 1.0

    def test_nearby_poissons_pinned(self):
        # Oracle: term-by-term series evaluation on n = 0..80.
        p = poisson_family(0.1, 1e-14)
        q = poisson_family(0.0977, 1e-14)
        d = tv_distance(p, q)
        assert d == pytest.approx(TV_POISSON_01_00977, abs=1e-12)
        assert d > 0.0

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            a = random_sparse_pmf(rng, max_index=200, max_atoms=12)
            b = random_sparse_pmf(rng, max_index=200, max_atoms=12)
            c = random_sparse_pmf(rng, max_index=200, max_atoms=12)
            assert tv_distance(a, b) == tv_distance(b, a)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    def test_includes_tail_defects(self):
        p = poisson_family(5.0, 1e-8)
        assert tv_distance(p, p) == pytest.approx(p.tail_defect, rel=1e-12)

    def test_bit_equal_to_sorted_union_fsum(self):
        def sorted_union(p, q):
            union = sorted(set(p.support) | set(q.support))
            diff = math.fsum(abs(p.mass(n) - q.mass(n)) for n in union)
            return 0.5 * diff + 0.5 * (p.tail_defect + q.tail_defect)

        rng = np.random.default_rng(91)
        pairs = [(make_pmf([(0, 1.0)]), make_pmf([(5, 0.5), (9, 0.5)]))]  # disjoint supports
        pairs += [(poisson_family(mu, 1e-8), poisson_family(mu * 1.01, 1e-10)) for mu in (0.5, 5.0, 40.0)]
        for _ in range(20):
            a = random_sparse_pmf(rng, max_index=300, max_atoms=30)
            b = random_sparse_pmf(rng, max_index=300, max_atoms=30)
            eta = float(rng.uniform(0.05, 0.95))
            pairs += [(a, b), (thin_direct(a, eta), thin_via_gf(a, eta, 40))]
        assert any(p.tail_defect > 0.0 and q.tail_defect > 0.0 for p, q in pairs)
        for p, q in pairs:
            assert tv_distance(p, q) == sorted_union(p, q)
            assert tv_distance(q, p) == sorted_union(q, p)


# The bad values of the CLI's TestSpecNumbers, by name, plus the two
# non-finite floats.
BAD_VALUES = {
    "bool": True,
    "string": "3",
    "none": None,
    "fraction": 1.5,
    "negative": -1,
    "float_past_2_53": 9007199254740994.0,
    "1e300": 1e300,
    "10**400": 10**400,
    "nan": math.nan,
    "inf": math.inf,
}

# Each parameter under the input contract, as a call that passes it the value.
CONTRACT_TARGETS = {
    "index": lambda v: make_pmf([(v, 1.0)]),
    "mass": lambda v: make_pmf([(3, v)]),
    "mu": lambda v: poisson_family(v),
    "tail_eps": lambda v: poisson_family(5.0, v),
    "eta": lambda v: thin_direct(make_pmf(EX3_PAIRS), v),
    "target_lambda": lambda v: eta_for_target_lambda(make_pmf(EX3_PAIRS), v),
    "n_report": lambda v: build_report(make_pmf(EX3_PAIRS), 0.1, n_report=v),
    "n_max": lambda v: thin_via_gf(make_pmf(EX3_PAIRS), 0.1, n_max=v),
    "predicted_c": lambda v: predicted_delta(v, 0.1),
    "predicted_lambda": lambda v: predicted_delta(0.1, v),
    "risk_c": lambda v: risk_approx(v, 0.1),
    "risk_lambda": lambda v: risk_approx(0.1, v),
    "seed": lambda v: McConfig(seed=v, trials=10),
    "trials": lambda v: McConfig(seed=1, trials=v),
    "workers": lambda v: simulate_thinned(make_pmf(EX3_PAIRS), 0.1, McConfig(1, 10), workers=v),
}

# Pairs where the value is legal or is refused by another typed error.
# Legal: a mean or target of 1.5; an n_max, trial count or worker count of
# 10**400, since those have no upper bound; any finite c, negative or 1e300
# included; a lambda of 1.5, 2**53 + 2 or 1e300. Refused otherwise: a mass
# of -1, nan or inf is a NegativeMassError, a mass of 1.5 a
# NotNormalizedError, a target of 2**53 + 2 or 1e300, above ex3's mean of
# 51, a TargetExceedsMeanError.
NOT_APPLICABLE = {
    ("mass", "fraction"), ("mass", "negative"), ("mass", "float_past_2_53"), ("mass", "1e300"),
    ("mass", "nan"), ("mass", "inf"),
    ("mu", "fraction"), ("target_lambda", "fraction"), ("target_lambda", "float_past_2_53"),
    ("target_lambda", "1e300"), ("n_max", "10**400"), ("trials", "10**400"),
    ("workers", "10**400"),
    *((target, value) for target in ("predicted_c", "risk_c")
      for value in ("fraction", "negative", "float_past_2_53", "1e300")),
    *((target, value) for target in ("predicted_lambda", "risk_lambda")
      for value in ("fraction", "float_past_2_53", "1e300")),
}

# Each integer parameter's bound and the value one past it.
INTEGER_EDGES = {
    "seed": (2**64 - 1, 2**64),
    "n_report": (_MAX_KERNEL_N, _MAX_KERNEL_N + 1),
    "trials": (1, 0),
    "workers": (1, 0),
    "n_max": (0, -1),
}

CONTRACT_CASES = [
    (target, value)
    for target in CONTRACT_TARGETS
    for value in BAD_VALUES
    if (target, value) not in NOT_APPLICABLE
]


class TestInputContract:
    @pytest.mark.parametrize(
        "target, value", CONTRACT_CASES, ids=[f"{t}-{v}" for t, v in CONTRACT_CASES]
    )
    def test_bad_value_is_invalid_parameter(self, target, value):
        with pytest.raises(InvalidParameterError):
            CONTRACT_TARGETS[target](BAD_VALUES[value])

    @pytest.mark.parametrize("target", INTEGER_EDGES)
    def test_integer_rule_at_its_edges(self, target):
        bound, past = INTEGER_EDGES[target]
        CONTRACT_TARGETS[target](bound)
        with pytest.raises(InvalidParameterError):
            CONTRACT_TARGETS[target](past)

    def test_numpy_scalars_accepted(self):
        p = make_pmf([(np.int64(n), np.float64(m)) for n, m in EX3_PAIRS])
        assert p == make_pmf(EX3_PAIRS)
        assert all(type(n) is int and type(m) is float for n, m in p.entries)
        assert AttenuationCoefficient(np.float64(0.1)).eta == 0.1
        assert type(AttenuationCoefficient(np.float64(0.1)).eta) is float
        assert thin_direct(p, np.float64(0.1)) == thin_direct(p, 0.1)
        assert poisson_family(np.float64(5.0)) == poisson_family(5.0)

    def test_pmf_index_is_int_or_numpy_int_never_bool(self):
        assert Pmf(((np.int64(3), 1.0),)).support == (3,)
        for n in (True, np.True_, 3.0):
            with pytest.raises(InvalidParameterError):
                Pmf(((n, 1.0),))

    # The last cases break Pmf's own rules: entries in ascending index
    # order, and a finite tail defect >= 0.
    @pytest.mark.parametrize(
        "entries, tail_defect",
        [(((3, m),), 0.0) for m in (True, np.True_, "1.0", None, Decimal("1"), 10**400)]
        + [(((3, 1.0),), d) for d in (True, "0.0", -1e-12, math.nan, math.inf)]
        + [(((3, 0.5), (1, 0.5)), 0.0)],
        ids=["mass_true", "mass_np_true", "mass_str", "mass_none", "mass_decimal",
             "mass_10**400", "tail_defect_true", "tail_defect_str", "tail_defect_negative",
             "tail_defect_nan", "tail_defect_inf", "descending_entries"],
    )
    def test_pmf_mass_and_tail_defect_follow_the_number_rule(self, entries, tail_defect):
        with pytest.raises(InvalidParameterError):
            Pmf(entries, tail_defect=tail_defect)

    def test_pmf_takes_numpy_and_int_masses(self):
        p = Pmf(((np.int64(1), np.float64(0.5)), (np.int64(3), 0.5)))
        assert p == Pmf(((1, 0.5), (3, 0.5)))
        assert Pmf(((3, 1),)).total_mass == 1.0

    def test_pmf_stores_int_indices_and_float_masses(self):
        p = Pmf(((np.int64(1), np.float32(0.5)), (3, 0.5)))
        assert [(type(n), type(m)) for n, m in p.entries] == [(int, float), (int, float)]
        assert p.entries == ((1, 0.5), (3, 0.5))
        assert type(Pmf(((3, 1),)).entries[0][1]) is float

    @pytest.mark.parametrize(
        "entries, tail_defect",
        [(((0, 0.5), (3, 0.5 - 1e-12)), np.float32(1e-12)),
         (((0, 0.5), (3, 0.5 - 1e-12)), Fraction(1, 10**12)),
         (((0, 0.5), (3, 0.5)), Fraction(0))],
        ids=["float32", "fraction", "fraction_zero"],
    )
    def test_pmf_stores_float_tail_defect(self, entries, tail_defect):
        p = Pmf(entries, tail_defect=tail_defect)
        assert p.tail_defect == float(tail_defect)
        for q in (p, thin_direct(p, 0.3), thin_via_gf(p, 0.3, 3)):
            assert type(q.tail_defect) is float
        assert type(tv_distance(p, p)) is float

    @pytest.mark.parametrize(
        "make",
        [lambda: [(0, 0.5), (1, 0.5)], lambda: [[0, 0.5], [1, 0.5]],
         lambda: ((0, 0.5), [1, 0.5])],
        ids=["list_of_tuples", "list_of_lists", "tuple_with_a_list"],
    )
    def test_pmf_stores_entries_as_tuples(self, make):
        entries = make()
        p, expected = Pmf(entries), Pmf(((0, 0.5), (1, 0.5)))
        assert type(p.entries) is tuple and all(type(e) is tuple for e in p.entries)
        assert p == expected and hash(p) == hash(expected)
        # Changing what was passed in leaves the instance as it was checked.
        if isinstance(entries, list):
            entries.append((2, 0.1))
        for entry in entries:
            if isinstance(entry, list):
                entry[1] = 0.9
        assert p.entries == ((0, 0.5), (1, 0.5)) and p.total_mass == 1.0

    def test_moments_of_numpy_index_do_not_wrap(self):
        # n(n-1)(n-2) at 3e6 is past the int64 range.
        ms = moments(Pmf(((np.int64(3_000_000), 1.0),)))
        assert ms.m3 == float(3_000_000 * 2_999_999 * 2_999_998)
        assert ms.d == pytest.approx(2_999_999 * 2_999_998 / 3e6**2, rel=1e-12)

    def test_index_past_int64_rejected(self):
        for n in (2**63, 10**103):
            with pytest.raises(InvalidParameterError):
                make_pmf([(n, 1.0)])

    def test_largest_int64_index_accepted(self):
        ms = moments(make_pmf([(2**63 - 1, 1.0)]))
        assert ms.mean == float(2**63 - 1)
        assert ms.variance == 0.0


class TestKernelBound:
    @pytest.mark.parametrize("n", [_MAX_KERNEL_N + 1, 10**12], ids=["past_bound", "1e12"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: thin_direct(p, 0.5),
            lambda p: thin_via_gf(p, 0.5, 10),
            lambda p: build_report(p, 0.5),
            lambda p: simulate_thinned(p, 0.5, McConfig(seed=1, trials=10)),
            lambda p: simulate_thinned(p, 1.0, McConfig(seed=1, trials=10)),
        ],
        ids=["thin_direct", "thin_via_gf", "build_report", "simulate_thinned",
             "simulate_thinned_eta_1"],
    )
    def test_point_mass_past_bound_rejected(self, n, call):
        with pytest.raises(InvalidParameterError):
            call(make_pmf([(n, 1.0)]))

    def test_poisson_past_bound_rejected(self):
        with pytest.raises(InvalidParameterError):
            poisson_family(1e12)

    def test_point_mass_at_bound_thins(self):
        q = thin_direct(make_pmf([(_MAX_KERNEL_N, 1.0)]), 0.5)
        assert q.mean == pytest.approx(_MAX_KERNEL_N / 2, rel=1e-10)
        assert q.total_mass + q.tail_defect == pytest.approx(1.0, abs=1e-12)

    def test_moments_take_any_int64_index(self):
        assert moments(make_pmf([(10**12, 1.0)])).mean == 1e12
