"""Stochastic cross-check of the analytic thinning.

Simulates the physical process: draw a photon count per pulse, let each
photon independently survive with probability eta, histogram the
survivors, and compare the empirical distribution against the analytic
one. Each chunk of trials takes one multinomial draw, the number of
pulses carrying each photon count N, and then binomial draws for the
survivors of every pulse in ascending N: one scalar-n call for each atom
carrying at least ``_OWN_CALL_PULSES`` pulses, and one array-n call for
each run of smaller groups between them. numpy's binomial sampler draws
pulse by pulse, so this consumes the stream exactly as a single array-n
call over all pulses would. It is exact for every N and every eta in
[0, 1], including N = 0 and eta in {0, 1}, so no other sampling path is
needed.

Reproducibility contract: results are bit-identical for a fixed
(seed, trials, chunk_size) regardless of how many workers execute the
chunks. Each chunk derives its own generator as
``PCG64(SeedSequence(entropy=seed, spawn_key=(chunk_index,)))``, and the
per-chunk histograms merge by exact integer addition, which is order
independent. A counter-based generator such as Philox would add nothing:
its one advantage is cheap jumps to any point of a stream, and no chunk
ever jumps, since each seeds a stream of its own. PCG64, numpy's default
bit generator, makes each draw cheaper. Reproducibility across numpy
versions is not promised.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .pmf import Pmf, tv_distance
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


def _as_int(name: str, value: object) -> int:
    """value as an int; bools, floats, strings and the like are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    # Numpy integers become int, so that masses stay Python floats.
    return int(value)


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
    point), then draw every pulse's survivor count as a Binomial(N, eta)
    sample, pulse by pulse in ascending N: one scalar-n call per atom
    with at least 1024 pulses in the chunk, one array-n call per run of
    smaller groups. Splitting the calls leaves the stream as one array-n
    call over all pulses would consume it, so histograms are those of
    that single call. Deterministic in cfg: every chunk draws from its
    own PCG64 substream keyed by (cfg.seed, chunk index); see the module
    docstring.

    Args:
        p: input distribution, tail defect at most 1e-9.
        eta: survival probability.
        cfg: seed, trial count and substream chunking.
        workers: number of threads executing chunks, an integer >= 1;
            does not affect the result.

    Raises:
        InvalidParameterError: workers is not an integer >= 1, eta is
            not in [0, 1], the input's tail defect exceeds 1e-9, or the
            input table is empty.
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

    entries = tuple(
        (int(n), int(k) / cfg.trials) for n, k in enumerate(counts) if k > 0
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
