"""Monte Carlo oracle: determinism, binomial statistics, convergence."""

import collections
import dataclasses
import itertools
import math
import statistics

import mpmath
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
from photonthin.cli import wide_input
from photonthin.montecarlo import (
    _CHUNK_PULSES,
    _bernoulli_slots,
    _pmf_arrays,
    _simulate_chunk,
    _sparse_survivors,
)
from photonthin.pmf import _MAX_KERNEL_N

EX3 = [(1, 0.95), (1001, 0.05)]
# Groups of 25k..75k pulses with runs of zero to a few pulses between them.
MIXED_WITH_TINY_ATOMS = [
    (0, 0.1), (2, 1e-7), (3, 0.3 - 1.111e-5), (5, 1e-5), (64, 0.2),
    (65, 0.2), (500, 1e-6), (1001, 0.2), (2000, 1e-8),
]
UNIFORM_3000 = [(n, 1.0 / 3000) for n in range(3000)]
# The 0.9999 quantile of the chi-square law with 63 degrees of freedom,
# checked against mpmath in TestBernoulliSlots.
CHI2_63_QUANTILE_9999 = 113.505


def _summed(histograms):
    """Sum of count histograms of any lengths."""
    total = np.zeros(max(h.size for h in histograms), dtype=np.int64)
    for h in histograms:
        total[: h.size] += h
    return total


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
        # The seed and the trial count are the whole reproducibility key.
        cfg = McConfig(seed=1, trials=10)
        assert dataclasses.astuple(cfg) == (1, 10)
        assert [f.name for f in dataclasses.fields(McConfig)] == ["seed", "trials"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1, "trials": 10},
            {"seed": 2**64, "trials": 10},
            {"seed": 0, "trials": 0},
            {"seed": 0, "trials": -1},
            {"seed": 1.5, "trials": 10},
            {"seed": 1.0, "trials": 10},
            {"seed": 0, "trials": 1000.0},
            {"seed": 0, "trials": np.float64(1000)},
            {"seed": 0, "trials": 2.5e4},
            {"seed": True, "trials": 10},
            {"seed": 0, "trials": True},
            {"seed": 0, "trials": np.bool_(True)},
            {"seed": "1", "trials": 10},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParameterError):
            McConfig(**kwargs)

    def test_numpy_integers_become_int(self):
        cfg = McConfig(seed=np.uint64(2**64 - 1), trials=np.int64(1000))
        assert (cfg.seed, cfg.trials) == (2**64 - 1, 1000)
        assert all(type(v) is int for v in (cfg.seed, cfg.trials))
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
        assert res.empirical.max_index == 0

    def test_identity_eta(self):
        p = make_pmf([(2, 0.5), (7, 0.5)])
        res = simulate_thinned(p, 1.0, McConfig(seed=9, trials=20_000))
        assert res.empirical.support == (2, 7)

    def test_deterministic_across_runs_and_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_PULSES", 50_000)
        p = make_pmf(EX3)
        cfg = McConfig(seed=2026, trials=400_000)
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
        assert res.empirical.max_index <= p.max_index
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
    def test_lossy_tables_sample_their_inverse_cdf_law(self, entries, top, monkeypatch):
        # Ingestion accepts totals within 1e-9 of one either way; sampling
        # keeps the inverse-CDF law: an atom past a CDF of 1 is never
        # drawn, and a shortfall goes to the largest atom.
        monkeypatch.setattr(montecarlo, "_CHUNK_PULSES", 50_000)
        p = make_pmf(entries)
        eta = 0.3
        cfg = McConfig(seed=5, trials=200_000)
        serial = simulate_thinned(p, eta, cfg, workers=1)
        threaded = simulate_thinned(p, eta, cfg, workers=2)
        assert serial.empirical == threaded.empirical
        assert abs(math.fsum(serial.empirical.masses) - 1.0) <= 1e-9
        assert serial.empirical.max_index <= top
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

    def test_chunks_keep_float64_slot_positions_exact(self):
        # A sparse chunk of P pulses of up to N photons places its slots
        # in float64, exact while (P + 1) * N <= 2**53. The fixed chunk
        # layout must meet that at the kernel bound; raising either
        # constant past it needs a new argument for the sparse path.
        assert (_CHUNK_PULSES + 1) * _MAX_KERNEL_N <= 2**53

    @pytest.mark.parametrize(
        ("p", "lam"),
        [(make_pmf(EX3), 0.1), (poisson_family(50.0, 1e-12), 1.0)],
        ids=["sparse_ex3", "dense_poisson50"],
    )
    def test_fixed_chunk_layout(self, p, lam):
        # 2 * 250_000 + 3 trials run as chunks of 250_000, 250_000 and 3
        # pulses, with substream indices 0, 1 and 2, summed.
        eta = lam / p.mean
        cfg = McConfig(seed=619, trials=2 * 250_000 + 3)
        res = simulate_thinned(p, eta, cfg)
        sup, mas = _pmf_arrays(p)
        pvals = np.diff(np.minimum(np.cumsum(mas), 1.0), prepend=0.0)
        counts = _summed(
            [_simulate_chunk(sup, pvals, eta, n, cfg.seed, i)
             for i, n in enumerate([250_000, 250_000, 3])]
        )
        want = tuple((n, int(k) / cfg.trials) for n, k in enumerate(counts) if k)
        assert res.empirical.entries == want
        assert res.empirical.max_index == want[-1][0]

    def test_empirical_entries_equal_walk_over_every_count(self, monkeypatch):
        # A table reaching 10**6 photons: the entries are read off the
        # observed counts only and must equal a walk over all 10**6 + 1.
        monkeypatch.setattr(montecarlo, "_CHUNK_PULSES", 50_000)
        p = make_pmf([(1, 0.95), (10**6, 0.05)])
        eta = 0.1 / p.mean
        cfg = McConfig(seed=609, trials=100_001)
        res = simulate_thinned(p, eta, cfg)
        sup, mas = _pmf_arrays(p)
        pvals = np.diff(np.minimum(np.cumsum(mas), 1.0), prepend=0.0)
        counts = _summed(
            [_simulate_chunk(sup, pvals, eta, n, cfg.seed, i)
             for i, n in enumerate([50_000, 50_000, 1])]
        )
        want = tuple((int(n), int(k) / cfg.trials) for n, k in enumerate(counts) if k > 0)
        assert len(want) >= 3
        assert res.empirical.entries == want

    def test_dense_entries_equal_full_length_histograms(self, monkeypatch):
        # Chunk histograms end at the largest count drawn. On a dense
        # (lambda = 1) input reaching 2**16 photons, the entries must equal
        # those of max N + 1 long histograms of one array-n call a chunk,
        # with a remainder chunk.
        monkeypatch.setattr(montecarlo, "_CHUNK_PULSES", 125_000)
        top = 2**16
        p = make_pmf([(1, 0.95), (top, 0.05)])
        eta = 1.0 / p.mean
        cfg = McConfig(seed=617, trials=250_001)
        res = simulate_thinned(p, eta, cfg)
        sup, pvals = _pmf_arrays(p)
        counts = np.zeros(top + 1, dtype=np.int64)
        for i, n in enumerate([125_000, 125_000, 1]):
            rng, groups = _chunk_start(pvals, n, cfg.seed, i)
            counts += np.bincount(rng.binomial(np.repeat(sup, groups), eta), minlength=top + 1)
        want = tuple((n, int(k) / cfg.trials) for n, k in enumerate(counts) if k)
        assert len(want) >= 3
        assert res.empirical.entries == want

    def test_numpy_integer_workers(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_PULSES", 5_000)
        p = make_pmf(EX3)
        cfg = McConfig(seed=3, trials=20_000)
        serial = simulate_thinned(p, 0.3, cfg)
        threaded = simulate_thinned(p, 0.3, cfg, workers=np.int64(2))
        assert threaded.empirical == serial.empirical


def _chunk_start(pvals, n_trials, seed, chunk_index):
    """A chunk's generator after its multinomial draw, and the group sizes."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(ss))
    return rng, rng.multinomial(n_trials, pvals)


def _reference_chunk(sup, pvals, eta, n_trials, seed, chunk_index):
    """A chunk's histogram from one array-n binomial call over all pulses."""
    rng, groups = _chunk_start(pvals, n_trials, seed, chunk_index)
    return np.bincount(rng.binomial(np.repeat(sup, groups), eta))


class TestChunkStream:
    @pytest.mark.parametrize(
        "p", [make_pmf(EX3), poisson_family(50.0, 1e-12), make_pmf(MIXED_WITH_TINY_ATOMS)],
        ids=["ex3", "poisson50", "mixed_with_tiny_atoms"],
    )
    def test_quarter_rule_edge(self, p):
        # Just above the rule a chunk takes the dense path and draws as
        # one array-n call; at the rule it takes the sparse one.
        sup, pvals = _pmf_arrays(p)
        n_trials, seed, index = 250_000, 17, 3
        photons = int(_chunk_start(pvals, n_trials, seed, index)[1] @ sup)
        limit = 0.25 * n_trials
        at = limit / photons
        while at * photons > limit:
            at = np.nextafter(at, 0.0)
        above = np.nextafter(at, 1.0)
        assert above * photons > limit >= at * photons

        got = _simulate_chunk(sup, pvals, above, n_trials, seed, index)
        want = _reference_chunk(sup, pvals, above, n_trials, seed, index)
        np.testing.assert_array_equal(got, want)

        got = _simulate_chunk(sup, pvals, at, n_trials, seed, index)
        rng, groups = _chunk_start(pvals, n_trials, seed, index)
        want = _sparse_survivors(rng, sup, groups, at, photons, n_trials)
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
            # eta = 2/15 keeps about a seventh of the slots, so gaps of 1
            # are common and some pulses keep both photons.
            ([(1, 0.5), (2, 0.5)], 0.2, 603, 3),
        ],
        ids=["mixed_with_tiny_atoms", "uniform3000", "one_or_two"],
    )
    def test_per_outcome_law(self, entries, lam, seed, outcomes):
        p = make_pmf(entries)
        assert _outcomes_within_five_sigma(p, lam / p.mean, seed=seed) == outcomes

    def test_trials_not_a_multiple_of_chunk_size(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_PULSES", 50_000)
        p = poisson_family(50.0, 1e-12)
        eta = 0.1 / p.mean
        cfg = McConfig(seed=604, trials=123_457)
        res = simulate_thinned(p, eta, cfg)
        sup, pvals = _pmf_arrays(p)
        chunks = [
            _simulate_chunk(sup, pvals, eta, n, cfg.seed, i)
            for i, n in enumerate([50_000, 50_000, 23_457])
        ]
        total = _summed(chunks)
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
        sup, pvals = _pmf_arrays(make_pmf(entries))
        for index, n_trials in enumerate([250_000, 1, 7_919]):
            hist = _simulate_chunk(sup, pvals, eta, n_trials, 605, index)
            assert hist.size <= int(sup[-1]) + 1
            assert hist[-1] > 0
            assert hist.min() >= 0
            assert int(hist.sum()) == n_trials

    def test_no_photons_or_no_survival_count_zero(self):
        sup, pvals = _pmf_arrays(make_pmf([(0, 1.0)]))
        np.testing.assert_array_equal(
            _simulate_chunk(sup, pvals, 0.2, 1_000, 606, 0), [1_000]
        )
        sup, pvals = _pmf_arrays(make_pmf(EX3))
        hist = _simulate_chunk(sup, pvals, 0.0, 1_000, 606, 0)
        assert hist[0] == 1_000
        assert not hist[1:].any()

    def test_full_survival_keeps_every_photon(self):
        # At eta = 1 every slot survives, so each pulse keeps its N, as
        # the one-array-call reference does; mostly empty pulses keep the
        # chunk under the quarter rule.
        sup, pvals = _pmf_arrays(make_pmf([(0, 0.92), (2, 0.06), (3, 1e-6), (5, 0.02 - 1e-6)]))
        for index, n_trials in enumerate([250_000, 37_123]):
            got = _simulate_chunk(sup, pvals, 1.0, n_trials, 608, index)
            want = _reference_chunk(sup, pvals, 1.0, n_trials, 608, index)
            np.testing.assert_array_equal(got, want)

    def test_workers_bit_identical(self):
        p = make_pmf(MIXED_WITH_TINY_ATOMS)
        cfg = McConfig(seed=607, trials=1_000_003)
        eta = 0.1 / p.mean
        serial = simulate_thinned(p, eta, cfg, workers=1)
        threaded = simulate_thinned(p, eta, cfg, workers=2)
        assert serial.empirical == threaded.empirical
        assert serial.tv_to_analytic == threaded.tv_to_analytic


class _ShortFirstDraw:
    """A generator whose first exponential draw is scaled by `first`.

    Scaled down, the first draw's gaps end short of the last slot, so the
    top-up draws run. Every value handed out is kept in `drawn`.
    """

    def __init__(self, seed, first):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._first = first
        self.drawn = []

    def standard_exponential(self, size):
        e = self._rng.standard_exponential(size)
        if not self.drawn:
            e *= self._first
        self.drawn.append(e.copy())
        return e


class _ZeroDraws:
    """A generator whose exponential draws are all 0.0.

    Fails after 100 draws, so a top-up loop that stops advancing fails
    instead of hanging.
    """

    def __init__(self):
        self.calls = 0

    def standard_exponential(self, size):
        self.calls += 1
        assert self.calls <= 100, "the top-up draws stopped advancing"
        return np.zeros(size)


class TestUniformSubset:
    """The kept slots: sorted, distinct and in range, and, given how many
    there are, a uniform subset of range(size)."""

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 10, 1000, 250_000])
    def test_sorted_distinct_in_range_and_sized(self, size):
        rng = np.random.Generator(np.random.PCG64(610))
        for eta in [0.0, 1e-6, 0.15, 0.5, 1.0]:
            slots = _bernoulli_slots(rng, size, eta)
            # float64 holding integers, exact below 2**53.
            assert slots.dtype == np.float64
            assert np.array_equal(slots, np.floor(slots))
            assert np.all(np.diff(slots) > 0)
            if slots.size:
                assert 0 <= slots[0] and slots[-1] < size
            # Within 6 sigma of eta * size: none at eta = 0, all at eta = 1.
            assert abs(slots.size - eta * size) <= 6.0 * math.sqrt(size * eta * (1.0 - eta))

    @pytest.mark.parametrize(
        ("size", "count", "seed", "limit"),
        [(6, 3, 611, 50.8), (6, 4, 612, 42.6), (21, 2, 616, 293.7)],
        ids=["mask", "complement", "sorted"],
    )
    def test_every_subset_equally_likely(self, size, count, seed, limit):
        # Blocks of size slots of one draw at eta = count / size, kept
        # where the block holds count slots: a chi-square over all
        # C(size, count) subsets; limit is the 0.9999 quantile for
        # C(size, count) - 1 degrees of freedom. The ids name the share
        # kept: a half, more than a half and under a tenth.
        blocks = 100_000
        rng = np.random.Generator(np.random.PCG64(seed))
        slots = _bernoulli_slots(rng, size * blocks, count / size).astype(np.int64)
        block = slots // size
        held = np.bincount(block, minlength=blocks)
        subset = np.bincount(block, weights=1 << (slots % size), minlength=blocks)
        subset = subset[held == count].astype(np.int64)
        cell = {
            sum(1 << s for s in c): i
            for i, c in enumerate(itertools.combinations(range(size), count))
        }
        observed = np.bincount([cell[s] for s in subset.tolist()], minlength=len(cell))
        assert observed.sum() >= 20_000
        expected = observed.sum() / len(cell)
        assert ((observed - expected) ** 2 / expected).sum() < limit

    @pytest.mark.usefixtures("sparse_only")
    def test_point_mass_at_the_quarter_rule(self):
        # eta = 1/4 on a point mass at 1 puts a quarter of the slots in
        # the subset, the most the quarter rule lets a table without
        # vacuum draw.
        assert _outcomes_within_five_sigma(make_pmf([(1, 1.0)]), 0.25, seed=614) == 2


class TestBernoulliSlots:
    def test_chi_square_quantile(self):
        # P(chi2_63 > x) is the regularised upper incomplete gamma Q(63/2, x/2).
        tail = mpmath.gammainc(31.5, CHI2_63_QUANTILE_9999 / 2, mpmath.inf, regularized=True)
        assert abs(float(tail) - 1e-4) <= 1e-8

    @pytest.mark.parametrize(("eta", "seed"), [(0.15, 611), (0.5, 612)])
    def test_every_subset_of_six_slots_has_its_bernoulli_mass(self, eta, seed):
        # Each block of six slots of one draw holds an independent subset of
        # range(6), whose k slots have mass eta**k (1 - eta)**(6 - k). A
        # chi-square over all 2**6 subsets; the rarest is still expected
        # about 12 times at eta = 0.15.
        blocks = 2**20
        slots = _bernoulli_slots(
            np.random.Generator(np.random.PCG64(seed)), 6 * blocks, eta
        ).astype(np.int64)
        subset = np.bincount(slots // 6, weights=1 << (slots % 6), minlength=blocks)
        observed = np.bincount(subset.astype(np.int64), minlength=64)
        k = np.array([bin(s).count("1") for s in range(64)])
        expected = blocks * eta**k * (1.0 - eta) ** (6 - k)
        assert ((observed - expected) ** 2 / expected).sum() < CHI2_63_QUANTILE_9999

    def test_top_up_draws_continue_from_the_last_slot(self):
        # The first draw's gaps are shrunk tenfold, so they end short of
        # the last slot and more are drawn. The slots must be those of the
        # gaps of all draws laid end to end.
        size, eta = 250_000, 0.01
        rng = _ShortFirstDraw(618, first=0.1)
        slots = _bernoulli_slots(rng, size, eta)
        assert len(rng.drawn) >= 2
        gaps = np.maximum(np.ceil(np.concatenate(rng.drawn) / -math.log1p(-eta)), 1.0)
        ends = np.cumsum(gaps.astype(np.int64)) - 1
        assert slots.tolist() == ends[ends < size].tolist()

    def test_zero_draws_repeat_no_slot(self):
        # standard_exponential can return 0.0; every gap is then clamped to
        # 1, and many top-up draws must cover each slot once.
        # 1000 slots at 44 gaps a draw take 23 draws.
        assert _bernoulli_slots(_ZeroDraws(), 1000, 0.01).tolist() == list(range(1000))

    def test_positions_near_2_53_stay_exact(self):
        # 2**53 - 2**20 slots, just inside the 2**53 up to which
        # _bernoulli_slots is exact, and eta keeping about 5 of them:
        # gaps near 2**51 sum past 2**53, where float64 sums round.
        # The slots must equal those of the same gaps summed in Python ints.
        size, seeds = 2**53 - 2**20, 200
        eta = 5.0 / size
        rate = -math.log1p(-eta)
        total = 0
        for seed in range(seeds):
            rng = _ShortFirstDraw(seed, first=1.0)
            slots = _bernoulli_slots(rng, size, eta)
            assert slots.size < 30
            assert np.all(np.diff(slots) > 0)
            if slots.size:
                assert 0 <= slots[0] and slots[-1] < size
            gaps = np.maximum(np.ceil(np.concatenate(rng.drawn) / rate), 1.0)
            ends = list(itertools.accumulate(int(g) for g in gaps.tolist()))
            assert [int(x) for x in slots.tolist()] == [e - 1 for e in ends if e <= size]
            total += slots.size
        mean = seeds * eta * size
        assert abs(total - mean) <= 6.0 * math.sqrt(mean * (1.0 - eta))


def _reference_sparse(rng, sup, groups, eta, photons, n_trials):
    """The sparse path on int64 slot positions, as before float64 ones.

    Positions are summed in uint64 with every gap capped at 2**63, and
    pulses are found by integer division; kept to check that the float64
    path gives the same histograms.
    """
    pulse = _reference_slots(rng, photons, eta)
    survivors = pulse.size
    if not survivors:
        return np.array([n_trials], dtype=np.int64)
    widths = groups * sup
    photon_end = np.cumsum(widths)
    held = np.diff(np.searchsorted(pulse, photon_end), prepend=0)
    first_pulse = np.cumsum(groups) - groups
    pulse -= np.repeat(photon_end - widths - first_pulse * sup, held)
    pulse //= np.repeat(sup, held)
    new = np.empty(survivors, dtype=bool)
    new[0] = True
    np.not_equal(pulse[1:], pulse[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    hist = np.bincount(np.diff(starts, append=survivors))
    hist[0] = n_trials - starts.size
    return hist


def _reference_slots(rng, size, eta):
    """Kept slots as int64, from the same gaps as _bernoulli_slots."""
    if not (eta and size):
        return np.empty(0, dtype=np.int64)
    rate = -math.log1p(-eta) if eta < 1.0 else math.inf
    mean = eta * size
    count = int(mean + 6.0 * math.sqrt(mean)) + 16
    parts = []
    start = 0
    while start < size:
        gaps = rng.standard_exponential(count)
        ends = np.cumsum(np.ceil(np.clip(gaps / rate, 1.0, 2.0**63)).astype(np.uint64))
        past = ends > size - start
        kept = int(past.argmax()) if past.any() else count
        slots = ends[:kept].astype(np.int64) + (start - 1)
        parts.append(slots)
        if kept < count:
            break
        start = int(slots[-1]) + 1
    return np.concatenate(parts)


def _eta_with_rate(rate):
    """The eta whose -log1p(-eta) is exactly rate."""
    eta = -math.expm1(-rate)
    for _ in range(64):
        got = -math.log1p(-eta)
        if got == rate:
            return eta
        eta = math.nextafter(eta, 0.0 if got > rate else 1.0)
    raise AssertionError(f"no eta has rate {rate!r}")


class _GapDraws:
    """A generator whose exponential draws give chosen gaps.

    The rate is a power of two, so each E = gap * rate divides back to the
    gap exactly; after the chosen gaps, every gap is 2**60, past any slot.
    """

    def __init__(self, gaps, rate):
        self._e = [g * rate for g in gaps]
        self._rate = rate

    def standard_exponential(self, size):
        e = np.full(size, 2.0**60 * self._rate)
        head, self._e = self._e[:size], self._e[size:]
        e[: len(head)] = head
        return e


class TestFloatPositions:
    """The sparse path on float64 slot positions gives the histograms of
    the int64 one while (pulses + 1) * max N <= 2**53."""

    @pytest.mark.parametrize(
        ("p", "lam"),
        [
            (make_pmf(EX3), 0.1),
            (poisson_family(3.0, 1e-12), 0.1),
            (poisson_family(50.0, 1e-12), 0.1),
            (make_pmf([(0, 0.6), (1, 0.4)]), 0.2),
            (make_pmf([(1, 1.0)]), 0.1),
            (make_pmf([(2**20, 1.0)]), 0.1),
            (wide_input(), 0.1),
        ],
        ids=["ex3", "poisson3", "poisson50", "vacuum_heavy", "point_1", "point_2_20", "wide"],
    )
    def test_histograms_equal_integer_reference(self, p, lam):
        # lam = 0.2 on {0: .6, 1: .4} is eta = 0.5.
        sup, pvals = _pmf_arrays(p)
        eta = lam / p.mean
        for seed in range(40):
            n_trials = (250_000, 250_000, 37_123, 1)[seed % 4]
            rng, groups = _chunk_start(pvals, n_trials, seed, seed)
            photons = int(groups @ sup)
            got = _sparse_survivors(rng, sup, groups, eta, photons, n_trials)
            rng, groups = _chunk_start(pvals, n_trials, seed, seed)
            want = _reference_sparse(rng, sup, groups, eta, photons, n_trials)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 3, 5, 1001, 2**20])
    def test_floor_at_the_chunk_bound(self, n):
        # The most pulses of n photons float64 slots admit, with the first and
        # the last slot of each of its last 50 pulses kept: offsets jN - 1
        # and jN on both sides of each pulse boundary, and jN + N - 1, whose
        # quotient lies closest below the next integer. Each pulse j must
        # count its own slots, as Python's integer division says. At n = 5,
        # multiplying by a rounded 1 / n instead of dividing floors some
        # last slots into the next pulse.
        pulses = 2**53 // n - 1
        last = pulses - 1
        slots = sorted({j * n + r for j in range(last - 49, last + 1) for r in (0, n - 1)})
        gaps = [slots[0] + 1] + [b - a for a, b in zip(slots, slots[1:])]
        rate = 2.0**-50
        eta = _eta_with_rate(rate)
        sup, groups = np.array([n]), np.array([pulses])
        hist = _sparse_survivors(_GapDraws(gaps, rate), sup, groups, eta, pulses * n, pulses)
        counts = collections.Counter(s // n for s in slots)
        assert sorted(counts) == list(range(last - 49, last + 1))
        want = np.bincount(list(counts.values()))
        want[0] = pulses - len(counts)
        np.testing.assert_array_equal(hist, want)
