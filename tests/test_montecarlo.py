"""Monte Carlo oracle: determinism, binomial statistics, convergence."""

import itertools
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
from photonthin import montecarlo
from photonthin.montecarlo import (
    _dense_survivors,
    _simulate_chunk,
    _sparse_survivors,
    _uniform_subset,
)

EX3 = [(1, 0.95), (1001, 0.05)]
# Groups of 25k..75k pulses with runs of zero to a few pulses between them.
MIXED_WITH_TINY_ATOMS = [
    (0, 0.1), (2, 1e-7), (3, 0.3 - 1.111e-5), (5, 1e-5), (64, 0.2),
    (65, 0.2), (500, 1e-6), (1001, 0.2), (2000, 1e-8),
]
UNIFORM_3000 = [(n, 1.0 / 3000) for n in range(3000)]


def _outcomes_within_five_sigma(p, eta, seed, trials=1_000_000):
    """Checks every outcome expected at least 100 times against thin_direct.

    Each empirical mass must lie within 5 sigma of the analytic one;
    returns how many outcomes were checked.
    """
    res = simulate_thinned(p, eta, McConfig(seed=seed, trials=trials))
    checked = 0
    for n, q in thin_direct(p, eta).entries:
        if q * trials < 100:
            continue
        sigma = math.sqrt(q * (1.0 - q) / trials)
        assert abs(res.empirical.mass(n) - q) <= 5.0 * sigma, n
        checked += 1
    return checked


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
        assert _outcomes_within_five_sigma(p, 0.3, seed=7) == 111

    @pytest.mark.parametrize(
        ("p", "eta", "seed", "outcomes"),
        [
            (poisson_family(50.0, 1e-12), 0.1 / 50.0, 501, 4),
            (make_pmf(EX3), 0.9, 502, 48),
        ],
        ids=["faint_poisson50", "bright_ex3"],
    )
    def test_per_outcome_law_faint_and_bright(self, p, eta, seed, outcomes):
        # A faint eta (lambda = 0.1) and a bright one.
        assert _outcomes_within_five_sigma(p, eta, seed=seed) == outcomes

    @pytest.mark.parametrize(
        "workers", [0, -3, True, np.bool_(True), 2.5, 2.0, "2", None]
    )
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(InvalidParameterError):
            simulate_thinned(make_pmf(EX3), 0.3, McConfig(seed=1, trials=1000), workers=workers)

    def test_rejects_chunks_of_2_63_photons(self):
        # 2**62 pulses of up to 4 photons: the int64 slot count would wrap.
        p = make_pmf([(0, 0.5), (4, 0.5)])
        cfg = McConfig(seed=1, trials=2**62, chunk_size=2**62)
        with pytest.raises(InvalidParameterError):
            simulate_thinned(p, 0.1, cfg)

    def test_huge_chunk_size_with_few_trials(self):
        # The guard bounds the pulses a chunk actually holds.
        p = make_pmf([(0, 0.5), (4, 0.5)])
        res = simulate_thinned(p, 0.1, McConfig(seed=1, trials=10, chunk_size=2**62))
        assert res.trials == 10

    def test_empirical_entries_equal_walk_over_every_count(self):
        # A table reaching 10**6 photons: the entries are read off the
        # observed counts only and must equal a walk over all 10**6 + 1.
        p = make_pmf([(1, 0.95), (10**6, 0.05)])
        eta = 0.1 / p.mean
        cfg = McConfig(seed=609, trials=100_001, chunk_size=50_000)
        res = simulate_thinned(p, eta, cfg)
        sup, mas = p.arrays()
        pvals = np.diff(np.minimum(np.cumsum(mas), 1.0), prepend=0.0)
        hist_len = int(sup[-1]) + 1
        counts = sum(
            _simulate_chunk(sup, pvals, eta, n, cfg.seed, i, hist_len)
            for i, n in enumerate([50_000, 50_000, 1])
        )
        want = tuple((int(n), int(k) / cfg.trials) for n, k in enumerate(counts) if k > 0)
        assert len(want) >= 3
        assert res.empirical.entries == want

    def test_numpy_integer_workers(self):
        p = make_pmf(EX3)
        cfg = McConfig(seed=3, trials=20_000, chunk_size=5_000)
        serial = simulate_thinned(p, 0.3, cfg)
        threaded = simulate_thinned(p, 0.3, cfg, workers=np.int64(2))
        assert threaded.empirical == serial.empirical


def _chunk_start(pvals, n_trials, seed, chunk_index):
    """A chunk's generator after its multinomial draw, and the group sizes."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(ss))
    return rng, rng.multinomial(n_trials, pvals)


def _reference_chunk(sup, pvals, eta, n_trials, seed, chunk_index, hist_len):
    """A chunk's histogram from one array-n binomial call over all pulses."""
    rng, groups = _chunk_start(pvals, n_trials, seed, chunk_index)
    return np.bincount(rng.binomial(np.repeat(sup, groups), eta), minlength=hist_len)


class TestChunkStream:
    @pytest.mark.parametrize("eta", [0.0, 1e-4, 0.3, 1.0])
    @pytest.mark.parametrize(
        "p",
        [
            make_pmf(EX3),
            poisson_family(50.0, 1e-12),
            make_pmf(UNIFORM_3000),
            make_pmf(MIXED_WITH_TINY_ATOMS),
        ],
        ids=["ex3", "poisson50", "uniform3000", "mixed_with_tiny_atoms"],
    )
    def test_histograms_equal_one_array_call(self, p, eta):
        # Splitting the dense survivor draw into per-atom calls must
        # consume each substream exactly as one array-n call in ascending
        # N does. The helper is called directly, since chunks at small eta
        # take the sparse path.
        sup, pvals = p.arrays()
        hist_len = int(sup[-1]) + 1
        seed = 99
        for index, n_trials in enumerate([250_000, 250_000, 37_123]):
            rng, groups = _chunk_start(pvals, n_trials, seed, index)
            got = _dense_survivors(rng, sup, groups, eta, hist_len)
            want = _reference_chunk(sup, pvals, eta, n_trials, seed, index, hist_len)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "p", [make_pmf(EX3), poisson_family(50.0, 1e-12), make_pmf(MIXED_WITH_TINY_ATOMS)],
        ids=["ex3", "poisson50", "mixed_with_tiny_atoms"],
    )
    def test_quarter_rule_edge(self, p):
        # Just above the rule a chunk takes the dense path and draws as
        # one array-n call; at the rule it takes the sparse one.
        sup, pvals = p.arrays()
        hist_len = int(sup[-1]) + 1
        n_trials, seed, index = 250_000, 17, 3
        photons = int(_chunk_start(pvals, n_trials, seed, index)[1] @ sup)
        limit = 0.25 * n_trials
        at = limit / photons
        while at * photons > limit:
            at = np.nextafter(at, 0.0)
        above = np.nextafter(at, 1.0)
        assert above * photons > limit >= at * photons

        got = _simulate_chunk(sup, pvals, above, n_trials, seed, index, hist_len)
        want = _reference_chunk(sup, pvals, above, n_trials, seed, index, hist_len)
        np.testing.assert_array_equal(got, want)

        got = _simulate_chunk(sup, pvals, at, n_trials, seed, index, hist_len)
        rng, groups = _chunk_start(pvals, n_trials, seed, index)
        want = _sparse_survivors(rng, sup, groups, at, photons, n_trials, hist_len)
        np.testing.assert_array_equal(got, want)


@pytest.fixture
def sparse_only(monkeypatch):
    """Fails any chunk that takes the dense path."""

    def dense(*args):
        raise AssertionError("chunk took the dense path")

    monkeypatch.setattr(montecarlo, "_dense_survivors", dense)


@pytest.mark.usefixtures("sparse_only")
class TestSparsePath:
    @pytest.mark.parametrize(
        ("entries", "lam", "seed", "outcomes"),
        [
            (MIXED_WITH_TINY_ATOMS, 0.1, 601, 5),
            (UNIFORM_3000, 0.01, 602, 2),
            # eta = 2/15 puts about a seventh of the slots in the subset,
            # so several rounds draw repeated slots again.
            ([(1, 0.5), (2, 0.5)], 0.2, 603, 3),
        ],
        ids=["mixed_with_tiny_atoms", "uniform3000", "one_or_two"],
    )
    def test_per_outcome_law(self, entries, lam, seed, outcomes):
        p = make_pmf(entries)
        assert _outcomes_within_five_sigma(p, lam / p.mean, seed=seed) == outcomes

    def test_trials_not_a_multiple_of_chunk_size(self):
        p = poisson_family(50.0, 1e-12)
        eta = 0.1 / p.mean
        cfg = McConfig(seed=604, trials=123_457, chunk_size=50_000)
        res = simulate_thinned(p, eta, cfg)
        sup, pvals = p.arrays()
        hist_len = int(sup[-1]) + 1
        chunks = [
            _simulate_chunk(sup, pvals, eta, n, cfg.seed, i, hist_len)
            for i, n in enumerate([50_000, 50_000, 23_457])
        ]
        total = sum(chunks)
        assert [int(h.sum()) for h in chunks] == [50_000, 50_000, 23_457]
        want = tuple((n, int(k) / cfg.trials) for n, k in enumerate(total) if k)
        assert res.empirical.entries == want

    @pytest.mark.parametrize(
        ("entries", "eta"),
        [
            (EX3, 0.1 / 51.0),
            (MIXED_WITH_TINY_ATOMS, 1e-4),
            (UNIFORM_3000, 1e-4),
            ([(1, 0.5), (2, 0.5)], 0.15),
        ],
        ids=["ex3", "mixed_with_tiny_atoms", "uniform3000", "one_or_two"],
    )
    def test_chunk_sums_to_its_trials(self, entries, eta):
        sup, pvals = make_pmf(entries).arrays()
        hist_len = int(sup[-1]) + 1
        for index, n_trials in enumerate([250_000, 1, 7_919]):
            hist = _simulate_chunk(sup, pvals, eta, n_trials, 605, index, hist_len)
            assert hist.shape == (hist_len,)
            assert hist.min() >= 0
            assert int(hist.sum()) == n_trials

    def test_no_photons_or_no_survival_count_zero(self):
        sup, pvals = make_pmf([(0, 1.0)]).arrays()
        np.testing.assert_array_equal(
            _simulate_chunk(sup, pvals, 0.2, 1_000, 606, 0, 1), [1_000]
        )
        sup, pvals = make_pmf(EX3).arrays()
        hist = _simulate_chunk(sup, pvals, 0.0, 1_000, 606, 0, 1002)
        assert hist[0] == 1_000
        assert not hist[1:].any()

    def test_full_survival_keeps_every_photon(self):
        # At eta = 1 every slot survives, so each pulse keeps its N, as
        # the one-array-call reference does; mostly empty pulses keep the
        # chunk under the quarter rule.
        sup, pvals = make_pmf([(0, 0.92), (2, 0.06), (3, 1e-6), (5, 0.02 - 1e-6)]).arrays()
        for index, n_trials in enumerate([250_000, 37_123]):
            got = _simulate_chunk(sup, pvals, 1.0, n_trials, 608, index, 6)
            want = _reference_chunk(sup, pvals, 1.0, n_trials, 608, index, 6)
            np.testing.assert_array_equal(got, want)

    def test_workers_bit_identical(self):
        p = make_pmf(MIXED_WITH_TINY_ATOMS)
        cfg = McConfig(seed=607, trials=1_000_003, chunk_size=100_000)
        eta = 0.1 / p.mean
        serial = simulate_thinned(p, eta, cfg, workers=1)
        threaded = simulate_thinned(p, eta, cfg, workers=2)
        assert serial.empirical == threaded.empirical
        assert serial.tv_to_analytic == threaded.tv_to_analytic


class _CountingRng:
    """A generator whose integers() calls are counted."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)


def _redraw_process(rng, size, count):
    """The subset process on a Python set, as a sorted list.

    Draws as many slots as are still missing until count are distinct;
    above size / 2, draws the slots left out instead.
    """
    if 2 * count > size:
        return sorted(set(range(size)).difference(_redraw_process(rng, size, size - count)))
    chosen = set()
    while missing := count - len(chosen):
        chosen.update(rng.integers(size, size=missing).tolist())
    return sorted(chosen)


class TestUniformSubset:
    @pytest.mark.parametrize("size", [1, 2, 7, 10, 1000, 250_000])
    def test_sorted_distinct_in_range_and_sized(self, size):
        rng = np.random.Generator(np.random.PCG64(610))
        for count in sorted({0, 1, size // 2, size // 2 + 1, size}):
            slots = _uniform_subset(rng, size, count)
            assert slots.dtype == np.int64
            assert slots.shape == (count,)
            assert np.all(np.diff(slots) > 0)
            if count:
                assert 0 <= slots[0] and slots[-1] < size

    @pytest.mark.parametrize(
        ("size", "count"),
        [(1000, 1), (1000, 99), (1000, 100), (1000, 500), (1000, 501), (1000, 999),
         (250_000, 24_999), (250_000, 62_500), (12_750_000, 25_000)],
    )
    def test_same_set_as_the_redraw_process(self, size, count):
        # Sorted slots below a tenth of the slots, a mask from there on
        # and the complement above a half: each must give the set that
        # the process itself gives on the same stream.
        got = _uniform_subset(np.random.Generator(np.random.PCG64(615)), size, count)
        want = _redraw_process(np.random.Generator(np.random.PCG64(615)), size, count)
        assert got.tolist() == want

    @pytest.mark.parametrize(
        ("size", "count", "seed", "limit"),
        [(6, 3, 611, 50.8), (6, 4, 612, 42.6), (21, 2, 616, 293.7)],
        ids=["mask", "complement", "sorted"],
    )
    def test_every_subset_equally_likely(self, size, count, seed, limit):
        # Chi-square over all C(size, count) subsets; limit is the 0.9999
        # quantile for C(size, count) - 1 degrees of freedom.
        rng = np.random.Generator(np.random.PCG64(seed))
        cell = {c: i for i, c in enumerate(itertools.combinations(range(size), count))}
        draws = 20_000
        observed = np.zeros(len(cell))
        for _ in range(draws):
            observed[cell[tuple(_uniform_subset(rng, size, count).tolist())]] += 1
        expected = draws / len(cell)
        assert ((observed - expected) ** 2 / expected).sum() < limit

    @pytest.mark.parametrize("count", [24_999, 62_500], ids=["sorted", "mask"])
    def test_several_redraw_rounds(self, count):
        # 62_500 of 250_000 is a point mass at 1 at the quarter rule:
        # about one draw in nine repeats, and the repeats of the repeats
        # need more rounds.
        rng = _CountingRng(613)
        slots = _uniform_subset(rng, 250_000, count)
        assert rng.calls >= 4
        assert slots.shape == (count,)
        assert np.all(np.diff(slots) > 0)
        assert 0 <= slots[0] and slots[-1] < 250_000

    @pytest.mark.usefixtures("sparse_only")
    def test_point_mass_at_the_quarter_rule(self):
        # eta = 1/4 on a point mass at 1 puts a quarter of the slots in
        # the subset, the most the quarter rule lets a table without
        # vacuum draw.
        assert _outcomes_within_five_sigma(make_pmf([(1, 1.0)]), 0.25, seed=614) == 2
