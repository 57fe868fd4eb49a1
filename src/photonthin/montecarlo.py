"""Stochastic cross-check of the analytic thinning.

Simulates the physical process: draw a photon count per pulse, let each
photon independently survive with probability eta, histogram the
survivors, and compare the empirical distribution against the analytic
one. Each chunk of trials takes one multinomial draw, the number of
pulses carrying each photon count N, and from it the chunk's photon
count T, the sum over atoms of pulses times N. It then draws the
survivors on one of two paths:

- Sparse, when the expected survivor count eta * T is at most a quarter
  of the chunk's pulses, as in the faint regime. Given the group sizes,
  the T photons survive independently with probability eta, so their
  number S is Binomial(T, eta) and, given S, the surviving photons are a
  uniform S-subset of the T photon slots. The chunk draws S, then S
  slots uniformly with replacement, sorted, drawing the repeats again
  until S distinct slots remain (when S exceeds T / 2 it draws the
  T - S slots that do not survive instead), and counts how many of
  each pulse's N slots the subset holds; pulses it misses count zero.
- Dense, otherwise: binomial draws for the survivors of every pulse in
  ascending N, one scalar-n call for each atom carrying at least
  ``_OWN_CALL_PULSES`` pulses and one array-n call for each run of
  smaller groups between them. numpy's binomial sampler draws pulse by
  pulse, so this consumes the stream exactly as a single array-n call
  over all pulses would.

Both paths are exact for every N and every eta in [0, 1], including
N = 0, T = 0 and eta in {0, 1}, and neither reads a pmf, so the oracle
stays independent of the thinning kernel. The sparse path costs a few
operations per survivor and the dense path a binomial draw per pulse;
the quarter keeps the sparse path to chunks where it is clearly cheaper.

Reproducibility contract: results are bit-identical for a fixed
(seed, trials, chunk_size) regardless of how many workers execute the
chunks. Each chunk derives its own generator as
``PCG64(SeedSequence(entropy=seed, spawn_key=(chunk_index,)))``, and the
per-chunk histograms merge by exact integer addition, which is order
independent. A counter-based generator such as Philox would add nothing:
its one advantage is cheap jumps to any point of a stream, and no chunk
ever jumps, since each seeds a stream of its own. PCG64, numpy's default
bit generator, makes each draw cheaper. The path a chunk takes depends
only on its own multinomial draw, so it too is the same for any number
of workers. Dense chunks draw the same stream as before the sparse path
existed; sparse chunks do not, so fixed-seed results with faint chunks
differ from those of earlier versions. Reproducibility across numpy
versions is not promised.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .pmf import _MAX_KERNEL_N, Pmf, _as_int, tv_distance
from .thinning import AttenuationCoefficient, _as_eta, thin_direct

_MAX_INPUT_DEFECT = 1e-9

# Group size from which an atom's pulses get a binomial call of their own.
# On PCG64 a scalar-n call costs about 1.6 us plus 15 ns a pulse, an
# array-n call about 12 us plus 25 ns a pulse (N = 1..1001, eta 0.002 to
# 0.03). Taking a group out of a run of small ones costs at worst one more
# call of each kind, about 14 us, and saves about 10 ns a pulse, so
# break-even at worst lies near 1300 pulses; 1024 is close enough, and
# the threshold leaves the stream unchanged either way.
_OWN_CALL_PULSES = 1024

# Largest expected survivor count, as a share of the chunk's pulses, at
# which a chunk draws its survivors as a uniform subset of photon slots
# instead of pulse by pulse. The subset path costs a few operations per
# survivor, the pulse-by-pulse path a binomial draw per pulse. On 250k
# pulses (ex3, Poisson 3 and 50, the wide input, a point mass at 1; 2
# cores, numpy 2.4) the subset path took 0.13-0.21 ms against 3.5-5.1 ms
# at lambda = 0.01, 0.5-1.2 against 3.7-4.9 ms at 0.1 and 1.6-3.1
# against 4.1-6.5 ms at 0.25. The two cross between lambda 0.25 and 1,
# and at 1 the subset path is 1.1-2.5x slower. Either path gives the
# exact law, so the share moves only time.
_SPARSE_SURVIVOR_SHARE = 0.25


@dataclass(frozen=True)
class McConfig:
    """Trial count and seeding for one simulation run.

    chunk_size fixes the substream layout, so it is part of the
    reproducibility key along with the seed.
    """

    seed: int
    trials: int
    chunk_size: int = 250_000

    def __post_init__(self) -> None:
        for name in ("seed", "trials", "chunk_size"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not (0 <= self.seed < 2**64):
            raise InvalidParameterError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        if self.trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {self.trials!r}")
        if self.chunk_size < 1:
            raise InvalidParameterError(f"chunk_size must be >= 1, got {self.chunk_size!r}")


@dataclass(frozen=True)
class McResult:
    """Empirical thinned distribution plus concordance diagnostics."""

    empirical: Pmf
    trials: int
    seed: int
    tv_to_analytic: float
    max_count_observed: int


def simulate_thinned(
    p: Pmf,
    eta: float | AttenuationCoefficient,
    cfg: McConfig,
    *,
    workers: int = 1,
) -> McResult:
    """Monte Carlo estimate of the thinned distribution.

    Per chunk of trials: draw how many pulses carry each photon count N
    with one multinomial draw over the sparse input table (any residual
    tail mass of a truncated family input goes to the largest support
    point), then draw the survivors. When the chunk's expected survivor
    count, eta times its photon count T, is at most a quarter of its
    pulses, draw their number S ~ Binomial(T, eta) and the surviving
    photons as a uniform S-subset of the chunk's photon slots (slots
    drawn uniformly, repeats drawn again; for S > T / 2 the T - S lost
    slots are drawn instead), then count each pulse's survivors;
    otherwise draw every pulse's survivor count as a Binomial(N, eta)
    sample, pulse by pulse in ascending N, one scalar-n call per atom
    with at least 1024 pulses in the chunk and one array-n call per run
    of smaller groups. Both give the exact law of independent photon
    survival; see the module docstring.
    Deterministic in cfg: every chunk draws from its own PCG64 substream
    keyed by (cfg.seed, chunk index), and the path it takes depends only
    on that substream.

    Args:
        p: input distribution, tail defect at most 1e-9.
        eta: survival probability.
        cfg: seed, trial count and substream chunking.
        workers: number of threads executing chunks, an integer >= 1;
            does not affect the result.

    Raises:
        InvalidParameterError: workers is not an integer >= 1, eta is
            not in [0, 1], the input's tail defect exceeds 1e-9, the
            input table is empty or reaches past the kernel bound 2**20,
            or a chunk's photon count could reach 2**63
            (min(chunk_size, trials) times the largest N).
    """
    workers = _as_int("workers", workers)
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers!r}")
    eta = _as_eta(eta)
    if p.tail_defect > _MAX_INPUT_DEFECT:
        raise InvalidParameterError(
            f"input tail defect {p.tail_defect!r} exceeds {_MAX_INPUT_DEFECT}"
        )
    if not p.entries:
        raise InvalidParameterError("cannot sample from an empty table")
    if p.max_index > _MAX_KERNEL_N:
        raise InvalidParameterError(f"outcome index {p.max_index} exceeds {_MAX_KERNEL_N}")
    # A chunk counts its photon slots in int64, which must not wrap.
    chunk_pulses = min(cfg.chunk_size, cfg.trials)
    if chunk_pulses * p.max_index >= 2**63:
        raise InvalidParameterError(
            f"a chunk of {chunk_pulses} pulses of up to {p.max_index} photons "
            "could hold 2**63 photons or more"
        )

    sup, mas = p.arrays()
    # Increments of the CDF clamped at 1: a lossy table summing to up to
    # 1 + 1e-9 keeps the law of sampling by inverse CDF, where numpy's
    # multinomial would reject its raw masses. The multinomial gives the
    # last atom whatever the others leave, so residual tail mass lands on
    # the largest support point.
    pvals = np.diff(np.minimum(np.cumsum(mas), 1.0), prepend=0.0)

    sizes = [cfg.chunk_size] * (cfg.trials // cfg.chunk_size)
    if cfg.trials % cfg.chunk_size:
        sizes.append(cfg.trials % cfg.chunk_size)

    hist_len = int(sup[-1]) + 1

    def run_chunk(index: int) -> np.ndarray:
        return _simulate_chunk(sup, pvals, eta, sizes[index], cfg.seed, index, hist_len)

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            histograms = list(pool.map(run_chunk, range(len(sizes))))
    else:
        histograms = [run_chunk(i) for i in range(len(sizes))]

    counts = np.zeros(hist_len, dtype=np.int64)
    for h in histograms:
        counts += h

    observed = np.flatnonzero(counts)
    entries = tuple(
        (n, k / cfg.trials) for n, k in zip(observed.tolist(), counts[observed].tolist())
    )
    empirical = Pmf(entries, tail_defect=0.0)
    analytic = thin_direct(p, eta)
    return McResult(
        empirical=empirical,
        trials=cfg.trials,
        seed=cfg.seed,
        tv_to_analytic=tv_distance(empirical, analytic),
        max_count_observed=entries[-1][0],
    )


def _simulate_chunk(
    sup: np.ndarray,
    pvals: np.ndarray,
    eta: float,
    n_trials: int,
    seed: int,
    chunk_index: int,
    hist_len: int,
) -> np.ndarray:
    """One chunk's histogram from its own seeded substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(ss))

    groups = rng.multinomial(n_trials, pvals)
    # simulate_thinned keeps n_trials * max N below 2**63, so the int64
    # products and their sum cannot wrap.
    photons = int(groups @ sup)
    if eta * photons <= _SPARSE_SURVIVOR_SHARE * n_trials:
        return _sparse_survivors(rng, sup, groups, eta, photons, n_trials, hist_len)
    return _dense_survivors(rng, sup, groups, eta, hist_len)


def _dense_survivors(
    rng: np.random.Generator,
    sup: np.ndarray,
    groups: np.ndarray,
    eta: float,
    hist_len: int,
) -> np.ndarray:
    """Histogram of per-pulse Binomial(N, eta) draws, pulse by pulse."""
    hist = np.zeros(hist_len, dtype=np.int64)

    def add(survived: np.ndarray) -> None:
        b = np.bincount(survived)
        hist[: b.size] += b

    # Pulses are drawn one by one in ascending N, each run of small groups
    # in one array-n call and each large group in one scalar-n call, so
    # the stream is consumed exactly as by one array-n call over
    # np.repeat(sup, groups), and the histogram does not depend on the
    # split. An empty run is skipped: an array-n call costs about 12 us
    # even then.
    start = 0
    for i in np.flatnonzero(groups >= _OWN_CALL_PULSES).tolist() + [sup.size]:
        run = np.repeat(sup[start:i], groups[start:i])
        if run.size:
            add(rng.binomial(run, eta))
        if i < sup.size:
            add(rng.binomial(sup[i], eta, size=groups[i]))
        start = i + 1
    return hist


def _sparse_survivors(
    rng: np.random.Generator,
    sup: np.ndarray,
    groups: np.ndarray,
    eta: float,
    photons: int,
    n_trials: int,
    hist_len: int,
) -> np.ndarray:
    """Histogram of survivors drawn as a uniform subset of photon slots.

    The chunk's photons are numbered atom by atom in ascending N and, in
    each atom, N consecutive slots a pulse. Each survives independently
    with probability eta, so their number S is Binomial(photons, eta) and,
    given S, the surviving slots are a uniform S-subset; a pulse's count
    is how many of them fall in its slots.
    """
    hist = np.zeros(hist_len, dtype=np.int64)
    hist[0] = n_trials
    survivors = rng.binomial(photons, eta)
    if survivors:
        # The surviving slots, sorted: repeats redrawn, or the slots left
        # out drawn when survivors outnumber them.
        pulse = _uniform_subset(rng, photons, survivors)
        widths = groups * sup
        photon_end = np.cumsum(widths)
        # How many surviving slots each atom holds; an atom without slots
        # (N = 0 or no pulses) holds none, so nothing divides by N = 0.
        held = np.diff(np.searchsorted(pulse, photon_end), prepend=0)
        # Slot to pulse in place: offset within the atom, over N, plus the
        # atom's first pulse. Temporaries are kept few, since heap pages
        # freed by one chunk can go back to the system and fault again in
        # the next.
        pulse -= np.repeat(photon_end - widths, held)
        pulse //= np.repeat(sup, held)
        pulse += np.repeat(np.cumsum(groups) - groups, held)
        # Slots are sorted, so each pulse hit owns one run of equal ids.
        new = np.empty(survivors, dtype=bool)
        new[0] = True
        np.not_equal(pulse[1:], pulse[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        hits = starts.size
        # Run lengths into pulse's first entries, which are read by then.
        runs = pulse[:hits]
        np.subtract(starts[1:], starts[:-1], out=runs[:-1])
        runs[-1] = survivors - starts[-1]
        b = np.bincount(runs)
        hist[: b.size] += b
        hist[0] -= hits
    return hist


def _uniform_subset(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """Sorted uniform count-subset of range(size), as int64.

    Draws count slots uniformly with replacement, then as many slots
    again as there are repeats among those drawn so far, until count
    distinct slots remain. When count exceeds size / 2 it draws the
    size - count slots left out the same way and returns the rest, so
    fewer than half the slots are ever drawn and each slot drawn again
    repeats with probability under a half.

    Why the subset is uniform: every round draws independent uniform
    slots and keeps the set of distinct slots drawn so far, and both
    commute with every permutation of range(size). The law of the final
    set is therefore invariant under all permutations, and the only such
    law on count-subsets is the uniform one. The complement of a uniform
    subset is uniform too.

    The set is kept as sorted slots, repeats dropped and new slots merged
    in with searchsorted; from a tenth of the slots on, as a mask over
    all of them, which is cheaper there. Both give the same set from the
    same draws.
    """
    if 2 * count > size:
        keep = np.ones(size, dtype=bool)
        keep[_uniform_subset(rng, size, size - count)] = False
        return np.flatnonzero(keep)
    if 10 * count >= size:
        drawn = np.zeros(size, dtype=bool)
        while missing := count - int(np.count_nonzero(drawn)):
            drawn[rng.integers(size, size=missing)] = True
        return np.flatnonzero(drawn)
    slots = rng.integers(size, size=count)
    slots.sort()
    while True:
        # Keep the first of each run of equal slots and draw the rest
        # again. The flags are freed before the merge allocates: held
        # over it, they raised a 2e6-trial call at lambda = 0.1 to about
        # 950 minor page faults.
        first = np.empty(count, dtype=bool)
        first[:1] = True
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        missing = count - int(np.count_nonzero(first))
        if not missing:
            return slots
        slots = slots[first]
        del first
        extra = rng.integers(size, size=missing)
        extra.sort()
        slots = np.insert(slots, np.searchsorted(slots, extra), extra)
