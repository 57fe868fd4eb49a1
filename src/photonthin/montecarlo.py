"""Stochastic cross-check of the analytic thinning.

Simulates the physical process: draw a photon count per pulse, let each
photon independently survive with probability eta, histogram the
survivors, and compare the empirical distribution against the analytic
one. Each chunk of trials takes one multinomial draw, the number of
pulses carrying each photon count N, and one vectorised binomial draw,
the survivors of every pulse in ascending N; numpy's binomial sampler
is exact for every N and every eta in [0, 1], including N = 0 and
eta in {0, 1}, so no other sampling path is needed.

Reproducibility contract: results are bit-identical for a fixed
(seed, trials, chunk_size) regardless of how many workers execute the
chunks. Each chunk derives its own generator as
``Philox(SeedSequence(entropy=seed, spawn_key=(chunk_index,)))``, and the
per-chunk histograms merge by exact integer addition, which is order
independent. Reproducibility across numpy versions is not promised.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .pmf import Pmf, tv_distance
from .thinning import AttenuationCoefficient, _as_eta, thin_direct

_MAX_INPUT_DEFECT = 1e-9


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
    sample in one vectorised call. Deterministic in cfg; see the module
    docstring for the substream scheme.

    Args:
        p: input distribution, tail defect at most 1e-9.
        eta: survival probability.
        cfg: seed, trial count and substream chunking.
        workers: number of threads executing chunks; does not affect
            the result.
    """
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
    """One chunk's histogram from its own counter-based substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.Philox(ss))

    groups = rng.multinomial(n_trials, pvals)
    # np.repeat lists the pulses in ascending N, which fixes the order in
    # which the binomial draw consumes the stream.
    survived = rng.binomial(np.repeat(sup, groups), eta)
    return np.bincount(survived, minlength=hist_len)
