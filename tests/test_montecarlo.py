"""Monte Carlo oracle: determinism, binomial statistics, convergence."""

import math
import statistics

import numpy as np
import pytest

from photonthin import (
    InvalidParameterError,
    McConfig,
    make_pmf,
    moments,
    poisson_family,
    simulate_thinned,
    thin_direct,
)
from photonthin.montecarlo import _simulate_chunk

EX3 = [(1, 0.95), (1001, 0.05)]


class TestMcConfig:
    def test_defaults(self):
        cfg = McConfig(seed=1, trials=10)
        assert cfg.chunk_size >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1, "trials": 10},
            {"seed": 2**64, "trials": 10},
            {"seed": 0, "trials": 0},
            {"seed": 0, "trials": 10, "chunk_size": 0},
            {"seed": 1.5, "trials": 10},
            {"seed": 1.0, "trials": 10},
            {"seed": 0, "trials": 1000.0},
            {"seed": 0, "trials": np.float64(1000)},
            {"seed": 0, "trials": 10, "chunk_size": 2.5e4},
            {"seed": True, "trials": 10},
            {"seed": 0, "trials": True},
            {"seed": 0, "trials": 10, "chunk_size": np.bool_(True)},
            {"seed": "1", "trials": 10},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParameterError):
            McConfig(**kwargs)

    def test_numpy_integers_become_int(self):
        cfg = McConfig(seed=np.uint64(2**64 - 1), trials=np.int64(1000), chunk_size=np.int32(300))
        assert (cfg.seed, cfg.trials, cfg.chunk_size) == (2**64 - 1, 1000, 300)
        assert all(type(v) is int for v in (cfg.seed, cfg.trials, cfg.chunk_size))
        res = simulate_thinned(make_pmf(EX3), 0.3, cfg)
        assert type(res.trials) is int
        assert all(type(m) is float for m in res.empirical.masses)


class TestSimulateThinned:
    def test_single_particle_binomial_ci(self):
        res = simulate_thinned(
            make_pmf([(1, 1.0)]), 0.5, McConfig(seed=123, trials=1_000_000)
        )
        # 3 sigma of a fair coin at 1e6 trials.
        assert abs(res.empirical.mass(1) - 0.5) <= 3.0 * math.sqrt(0.25 / 1e6)

    def test_total_absorption_is_exact(self):
        res = simulate_thinned(
            make_pmf([(2, 0.5), (40, 0.5)]), 0.0, McConfig(seed=9, trials=5000)
        )
        assert res.empirical.entries == ((0, 1.0),)
        assert res.tv_to_analytic == 0.0
        assert res.max_count_observed == 0

    def test_identity_eta(self):
        p = make_pmf([(2, 0.5), (7, 0.5)])
        res = simulate_thinned(p, 1.0, McConfig(seed=9, trials=20_000))
        assert res.empirical.support == (2, 7)

    def test_deterministic_across_runs_and_workers(self):
        p = make_pmf(EX3)
        cfg = McConfig(seed=2026, trials=400_000, chunk_size=50_000)
        first = simulate_thinned(p, 0.1 / 51.0, cfg, workers=1)
        again = simulate_thinned(p, 0.1 / 51.0, cfg, workers=1)
        threaded = simulate_thinned(p, 0.1 / 51.0, cfg, workers=4)
        assert first.empirical == again.empirical
        assert first.empirical == threaded.empirical
        assert first.tv_to_analytic == threaded.tv_to_analytic

    def test_masses_are_count_multiples(self):
        trials = 30_000
        res = simulate_thinned(
            make_pmf([(3, 0.5), (70, 0.5)]), 0.4, McConfig(seed=4, trials=trials)
        )
        reconstructed = 0
        for _, m in res.empirical.entries:
            k = round(m * trials)
            assert m == k / trials
            reconstructed += k
        assert reconstructed == trials

    def test_mean_agreement_five_sigma(self):
        p = make_pmf([(1, 0.6), (30, 0.4)])
        eta = 0.25
        q = thin_direct(p, eta)
        var_thinned = moments(q).variance
        trials = 40_000
        failures = 0
        for seed in range(50):
            res = simulate_thinned(p, eta, McConfig(seed=seed, trials=trials))
            err = abs(res.empirical.mean - eta * p.mean)
            if err > 5.0 * math.sqrt(var_thinned / trials):
                failures += 1
        assert failures <= 1

    def test_tv_shrinks_with_sqrt_trials(self):
        # ~15 effective atoms, all in the normal-count regime at the small
        # size, so the 16x trial increase shrinks the median tv by ~4x;
        # requiring 3x leaves room for seed noise.
        p = poisson_family(6.0, 1e-12)
        eta = 0.9

        def median_tv(trials: int) -> float:
            return statistics.median(
                simulate_thinned(p, eta, McConfig(seed=s, trials=trials)).tv_to_analytic
                for s in range(20)
            )

        small = median_tv(20_000)
        large = median_tv(320_000)  # trials doubled four times
        assert small >= 3.0 * large

    def test_rejects_large_tail_defect(self):
        p = poisson_family(5.0, 1e-7)
        with pytest.raises(InvalidParameterError):
            simulate_thinned(p, 0.5, McConfig(seed=0, trials=10))

    def test_family_input_residual_tail_on_largest_atom(self):
        # Small inputs sampled heavily: result must stay a valid table.
        p = poisson_family(2.0, 1e-12)
        res = simulate_thinned(p, 0.5, McConfig(seed=11, trials=50_000))
        assert res.max_count_observed <= p.max_index
        assert abs(math.fsum(res.empirical.masses) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        ("entries", "top"),
        [
            ([(0, 0.5), (1, 0.5 + 5e-10), (2, 1e-12)], 1),
            ([(0, 0.3), (5, 0.7 + 9e-10)], 5),
            ([(1, 0.95), (1001, 0.05 - 9e-10)], 1001),
        ],
        ids=["over_three_atoms", "over_two_atoms", "under_ex3"],
    )
    def test_lossy_tables_sample_their_inverse_cdf_law(self, entries, top):
        # Ingestion accepts totals within 1e-9 of one either way; sampling
        # keeps the inverse-CDF law: an atom past a CDF of 1 is never
        # drawn, and a shortfall goes to the largest atom.
        p = make_pmf(entries)
        eta = 0.3
        cfg = McConfig(seed=5, trials=200_000, chunk_size=50_000)
        serial = simulate_thinned(p, eta, cfg, workers=1)
        threaded = simulate_thinned(p, eta, cfg, workers=2)
        assert serial.empirical == threaded.empirical
        assert abs(math.fsum(serial.empirical.masses) - 1.0) <= 1e-9
        assert serial.max_count_observed <= top
        sd = math.sqrt(moments(thin_direct(p, eta)).variance / cfg.trials)
        assert abs(serial.empirical.mean - eta * p.mean) <= 5.0 * sd

    def test_per_outcome_law_across_old_sampler_split(self):
        # Atoms on both sides of N = 64, where an earlier sampler switched
        # from per-photon coin flips to numpy's binomial sampler.
        p = make_pmf([(0, 0.1), (3, 0.3), (64, 0.2), (65, 0.2), (1001, 0.2)])
        eta = 0.3
        trials = 1_000_000
        res = simulate_thinned(p, eta, McConfig(seed=7, trials=trials))
        checked = 0
        for n, q in thin_direct(p, eta).entries:
            if q * trials < 100:
                continue
            sigma = math.sqrt(q * (1.0 - q) / trials)
            assert abs(res.empirical.mass(n) - q) <= 5.0 * sigma, n
            checked += 1
        assert checked == 111


def _reference_chunk(sup, pvals, eta, n_trials, seed, chunk_index, hist_len):
    """A chunk's histogram from one array-n binomial call over all pulses."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.Philox(ss))
    groups = rng.multinomial(n_trials, pvals)
    return np.bincount(rng.binomial(np.repeat(sup, groups), eta), minlength=hist_len)


class TestChunkStream:
    @pytest.mark.parametrize("eta", [0.0, 1e-4, 0.3, 1.0])
    @pytest.mark.parametrize(
        "p",
        [
            make_pmf(EX3),
            poisson_family(50.0, 1e-12),
            make_pmf([(n, 1.0 / 3000) for n in range(3000)]),
            # Groups of 25k..75k pulses with runs of zero to a few pulses
            # between them.
            make_pmf(
                [(0, 0.1), (2, 1e-7), (3, 0.3 - 1.111e-5), (5, 1e-5), (64, 0.2),
                 (65, 0.2), (500, 1e-6), (1001, 0.2), (2000, 1e-8)]
            ),
        ],
        ids=["ex3", "poisson50", "uniform3000", "mixed_with_tiny_atoms"],
    )
    def test_histograms_equal_one_array_call(self, p, eta):
        # Splitting the survivor draw into per-atom calls must consume each
        # substream exactly as one array-n call in ascending N does.
        sup, pvals = p.arrays()
        hist_len = int(sup[-1]) + 1
        seed = 99
        for index, n_trials in enumerate([250_000, 250_000, 37_123]):
            got = _simulate_chunk(sup, pvals, eta, n_trials, seed, index, hist_len)
            want = _reference_chunk(sup, pvals, eta, n_trials, seed, index, hist_len)
            np.testing.assert_array_equal(got, want)
