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
  the T photon slots survive independently with probability eta, so the
  gaps between surviving slots are i.i.d. Geometric(eta). The chunk
  draws each gap as the ceiling of a standard exponential over
  -log(1 - eta), lays the gaps end to end to find the surviving slots in
  ascending order, and counts how many of each pulse's N slots survive;
  pulses without a surviving slot count zero. The number of survivors
  comes out Binomial(T, eta) with no draw of its own. Slot positions and
  pulse ids are float64 holding integers, with no integer division: the
  sums, differences and floored quotients the path forms stay exact
  while (pulses + 1) * max N <= 2**53, which a chunk of at most
  ``_CHUNK_PULSES`` pulses meets for every N up to the kernel bound
  2**20; float sums never wrap.
- Dense, otherwise: one array-n binomial draw for the survivors of
  every pulse, the pulses in ascending N.

Both paths are exact for every N and every eta in [0, 1], including
N = 0, T = 0 and eta in {0, 1}, and neither reads a pmf, so the oracle
stays independent of the thinning kernel. The sparse path costs an
exponential draw and a few operations per survivor, the dense path a
binomial draw per pulse; the quarter keeps the sparse path to chunks
where it is clearly cheaper.

Reproducibility contract: results are bit-identical for a fixed
(seed, trials). The trials run one chunk after another, in the calling
thread, in chunks of a fixed ``_CHUNK_PULSES`` pulses with a shorter
last one. Chunk i derives its own generator as
``PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))``, and its histogram
is added into a running total by exact integer addition. The path a
chunk takes depends only on its own multinomial draw. Reproducibility
across numpy versions is not promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .pmf import (
    NORMALIZATION_TOL, AttenuationCoefficient, Pmf, _as_eta, _as_int_in, _check_kernel_bound, tv_distance,
)
from .thinning import thin_direct

# Pulses in every chunk but the last, so the substream layout and with it
# every fixed-seed result. Sparse chunks place their photon slots in
# float64, exact while (pulses + 1) * max N <= 2**53; at this size that
# holds for every N up to _MAX_KERNEL_N, and a test checks that it does.
_CHUNK_PULSES = 250_000

# Largest expected survivor count, as a share of the chunk's pulses, at
# which a chunk draws its surviving photon slots from geometric gaps
# instead of pulse by pulse. The gap path costs an exponential draw and a
# few operations per survivor, the pulse-by-pulse path a binomial draw
# per pulse. On 250k pulses (ex3, Poisson 3 and 50, a point mass at 1;
# 2 cores, numpy 2.4; medians of 15 chunks, three runs) the gap path, on
# float64 slot positions, took 0.35-0.68 ms against 2.9-4.8 ms at
# lambda = 0.1, 0.79-1.4 against 3.1-6.0 ms at 0.25 and 1.6-2.8 against
# 3.6-7.5 ms at 0.5, and 4.3-8.2 against 3.5-8.3 ms at 1, where it is up
# to 1.3x slower on ex3 and the point mass. The two cross between lambda
# 0.5 and 1, but no benchmark input lies between 0.25 and 1, and moving
# the share would change the fixed-seed output of every chunk that
# switches path, so it stays. Either path gives the exact law, so the
# share moves only time.
_SPARSE_SURVIVOR_SHARE = 0.25


@dataclass(frozen=True)
class McConfig:
    """Trial count and seeding for one simulation run: the reproducibility key."""

    seed: int
    trials: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _as_int_in("seed", self.seed, 0, 2**64 - 1))
        object.__setattr__(self, "trials", _as_int_in("trials", self.trials, 1))


@dataclass(frozen=True)
class McResult:
    """Empirical thinned distribution plus concordance diagnostics."""

    empirical: Pmf
    trials: int
    seed: int
    tv_to_analytic: float


def simulate_thinned(
    p: Pmf,
    eta: float | AttenuationCoefficient,
    cfg: McConfig,
    *,
    workers: int = 1,
) -> McResult:
    """Monte Carlo estimate of the thinned distribution.

    Simulates cfg.trials pulses chunk by chunk, each from its own seeded
    substream, as the module docstring describes, and compares the
    empirical distribution with ``thin_direct``. Any residual tail mass
    of a truncated family input goes to the largest support point.
    Deterministic in (cfg.seed, cfg.trials).

    Args:
        p: input distribution, tail defect at most 1e-9.
        eta: survival probability.
        cfg: seed and trial count.
        workers: an integer >= 1, checked and otherwise ignored; the
            chunks always run in the calling thread.

    Raises:
        InvalidParameterError: workers is not an integer >= 1, eta is
            not in [0, 1], the input's tail defect exceeds 1e-9 (as an
            empty table's does) or the input reaches past index 2**20.
    """
    _as_int_in("workers", workers, 1)
    eta = _as_eta(eta)
    if p.tail_defect > NORMALIZATION_TOL:
        raise InvalidParameterError(
            f"input tail defect {p.tail_defect!r} exceeds {NORMALIZATION_TOL}"
        )
    _check_kernel_bound(p)

    sup, mas = _pmf_arrays(p)
    # Increments of the CDF clamped at 1: a lossy table summing to up to
    # 1 + 1e-9 keeps the law of sampling by inverse CDF, where numpy's
    # multinomial would reject its raw masses. The multinomial gives the
    # last atom whatever the others leave, so residual tail mass lands on
    # the largest support point.
    pvals = np.diff(np.minimum(np.cumsum(mas), 1.0), prepend=0.0)

    counts = np.zeros(1, dtype=np.int64)
    for index, start in enumerate(range(0, cfg.trials, _CHUNK_PULSES)):
        n_trials = min(_CHUNK_PULSES, cfg.trials - start)
        chunk = _simulate_chunk(sup, pvals, eta, n_trials, cfg.seed, index)
        if chunk.size > counts.size:
            counts, chunk = chunk, counts
        counts[: chunk.size] += chunk
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
    )


def _pmf_arrays(p: Pmf) -> tuple[np.ndarray, np.ndarray]:
    """Support and masses of ``p`` as int64 and float64 arrays; int64 holds
    every index, since a Pmf rejects indices from 2**63 on."""
    return np.asarray(p.support, dtype=np.int64), np.asarray(p.masses, dtype=np.float64)


def _simulate_chunk(
    sup: np.ndarray,
    pvals: np.ndarray,
    eta: float,
    n_trials: int,
    seed: int,
    chunk_index: int,
) -> np.ndarray:
    """One chunk's histogram from its own seeded substream.

    The histogram reaches the largest survivor count drawn and no
    further, so its last entry is positive.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(ss))

    groups = rng.multinomial(n_trials, pvals)
    # n_trials * max N stays below _CHUNK_PULSES * _MAX_KERNEL_N < 2**53,
    # so the int64 products and their sum cannot wrap.
    photons = int(groups @ sup)
    if eta * photons <= _SPARSE_SURVIVOR_SHARE * n_trials:
        return _sparse_survivors(rng, sup, groups, eta, photons, n_trials)
    return _dense_survivors(rng, sup, groups, eta)


def _dense_survivors(
    rng: np.random.Generator,
    sup: np.ndarray,
    groups: np.ndarray,
    eta: float,
) -> np.ndarray:
    """Histogram of per-pulse Binomial(N, eta) draws, pulse by pulse in ascending N."""
    return np.bincount(rng.binomial(np.repeat(sup, groups), eta))


def _sparse_survivors(
    rng: np.random.Generator,
    sup: np.ndarray,
    groups: np.ndarray,
    eta: float,
    photons: int,
    n_trials: int,
) -> np.ndarray:
    """Histogram of survivors drawn as independently kept photon slots.

    The chunk's photons are numbered atom by atom in ascending N and, in
    each atom, N consecutive slots a pulse. Each survives independently
    with probability eta, so the surviving slots are those that
    _bernoulli_slots keeps; a pulse's count is how many of them fall in
    its slots.
    """
    pulse = _bernoulli_slots(rng, photons, eta)
    survivors = pulse.size
    if not survivors:
        return np.array([n_trials], dtype=np.int64)
    widths = groups * sup
    photon_end = np.cumsum(widths)
    # How many surviving slots each atom holds; an atom without slots
    # (N = 0 or no pulses) holds none, so nothing divides by N = 0.
    ends = np.searchsorted(pulse, photon_end)
    held = ends - np.concatenate(([0], ends[:-1]))
    # Slot to pulse in place: the slot's offset within its atom plus the
    # atom's first pulse times N, over N, floored. Chunks of at most
    # _CHUNK_PULSES pulses keep (pulses + 1) * max N <= 2**53, so every
    # term is an integer that float64 holds exactly, and for an offset
    # o = q * N + r the quotient o / N rounds into [q, q + 1): with
    # q + 1 <= 2**53 / N the doubles below q + 1 are spaced less than
    # 2 / N apart, and o / N lies at least 1 / N below it. The slots are
    # rewritten in place: heap pages freed by one chunk can go back to the
    # system and fault in the next.
    first_pulse = np.cumsum(groups) - groups
    pulse -= np.repeat((photon_end - widths - first_pulse * sup).astype(np.float64), held)
    pulse /= np.repeat(sup.astype(np.float64), held)
    np.floor(pulse, out=pulse)
    # Slots are sorted, so each pulse hit owns one run of equal ids. Most
    # runs hold one slot, so only the repeats, slots whose id equals the
    # one before, are located: a run of L >= 2 slots leaves L - 1
    # consecutive repeats.
    repeat = np.flatnonzero(pulse[1:] == pulse[:-1])
    first = np.empty(repeat.size, dtype=bool)
    first[:1] = True
    np.not_equal(repeat[1:] - 1, repeat[:-1], out=first[1:])
    bounds = np.append(np.flatnonzero(first), repeat.size)
    hist = np.bincount(bounds[1:] - bounds[:-1] + 1, minlength=2)
    # Each repeat adds a slot to a pulse already hit; the pulses hit in
    # no run of two or more hold one slot each.
    hits = survivors - repeat.size
    hist[0] = n_trials - hits
    hist[1] = hits - (bounds.size - 1)
    return hist


def _bernoulli_slots(rng: np.random.Generator, size: int, eta: float) -> np.ndarray:
    """Sorted slots of range(size), each kept independently with probability eta.

    Draws the gaps between kept slots as G = ceil(E / -log1p(-eta)), with
    E standard exponential, and keeps the slots cumsum(G) - 1 below size.
    Why this is exact: for every integer k >= 0,
    P(G > k) = P(E > k * -log(1 - eta)) = (1 - eta)**k, so the gaps are
    i.i.d. Geometric(eta) on {1, 2, ...}. That is the law of the gaps
    between kept slots when each slot is kept independently with
    probability eta, so the number kept comes out Binomial(size, eta)
    with no draw of its own. At eta = 1 every gap is 1 and every slot is
    kept; at eta = 0 none is.

    standard_exponential can return exactly 0.0, so every gap is clamped
    to at least 1; a gap of 0 would repeat a slot. The first draw holds
    eta * size + 6 sqrt(eta * size) + 16 gaps, which almost always run
    past the last slot; draws of as many more continue from the last slot
    kept for as long as they fall short.

    The slots are float64 holding integers, exact for size < 2**53. Every
    gap is an integer, and every position up to the last one kept is at
    most size, so the float cumsum forms them exactly. The first position
    past the end is a correctly rounded sum of integers whose exact value
    is at least size + 1 <= 2**53, itself a float64, so it rounds to no
    less and the cut falls after the last kept slot. Later sums can round,
    or reach inf for gaps of eta near 0, but never decrease, so the
    positions stay sorted for searchsorted. Each draw's gaps, their
    ceilings and the positions share one buffer: buffers this size, freed
    chunk by chunk, go back to the system and fault in again.
    """
    if not (eta and size):
        return np.empty(0)
    rate = -math.log1p(-eta) if eta < 1.0 else math.inf
    mean = eta * size
    count = int(mean + 6.0 * math.sqrt(mean)) + 16
    parts = []
    start = 0
    while start < size:
        ends = rng.standard_exponential(count)
        np.divide(ends, rate, out=ends)
        np.ceil(ends, out=ends)
        np.maximum(ends, 1.0, out=ends)
        np.cumsum(ends, out=ends)
        kept = int(ends.searchsorted(size - start, side="right"))
        slots = ends[:kept]
        slots += start - 1
        parts.append(slots)
        if kept < count:
            break
        start = int(slots[-1]) + 1
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
