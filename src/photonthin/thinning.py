"""Binomial decay of a photon-count distribution, by two equivalent routes.

``thin_direct`` is the reference implementation: it sums the binomial
decay kernel over the input support. ``thin_via_gf`` reaches the same
distribution through derivatives of the generating function evaluated at
1 - eta. Both form their terms with the one log-space helper of
:mod:`photonthin.pmf`; independent checks of that helper are the
high-precision reference tests, the semigroup property and the Monte
Carlo oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, TargetExceedsMeanError
from .pmf import (
    AttenuationCoefficient,
    CompensatedSum,
    Pmf,
    _as_int,
    _as_real,
    _log_factorials,
    _log_sum_exp,
    _log_terms,
)

# Output truncation: stop once the cumulative mass is within this of
# everything the input had to give; below double-precision resolution of
# the normalization invariant.
_TRUNCATION_SLACK = 1e-15

# Cap on log-term matrix entries per chunk, to bound peak memory.
_CHUNK_CELLS = 4_000_000

# Rows in the first chunk of thin_direct; later chunks double up to the cap.
_FIRST_CHUNK_ROWS = 32


def _as_eta(eta: float | AttenuationCoefficient) -> float:
    if isinstance(eta, AttenuationCoefficient):
        return eta.eta
    return AttenuationCoefficient(eta).eta


def _truncated(p: Pmf, entries: list[tuple[int, float]]) -> Pmf:
    """Output table whose defect is the inherited one plus the mass cut.

    The cut is measured against the input's own total mass, so ingestion
    slack of a lossy table is never reported as truncation.
    """
    cut = max(0.0, p.total_mass - math.fsum(m for _, m in entries))
    return Pmf(tuple(entries), tail_defect=p.tail_defect + cut)


def thin_direct(p: Pmf, eta: float | AttenuationCoefficient) -> Pmf:
    """Distribution of survivors when each photon independently keeps
    probability eta of passing the attenuator.

    Output mass at n is sum over N >= n of binom(N, n) eta^n (1-eta)^(N-n)
    times the input mass at N, each term formed in log space. Rows are
    built in chunks that start at 32 rows and double, and the output is
    truncated once the cumulative mass reaches the input's total mass
    less 1e-15, or, within the rounding of the log terms of that total,
    at the first row that no longer changes the sum. Whatever is cut
    joins the inherited tail defect.

    eta = 0 and eta = 1 short-circuit exactly, with no log round trip.
    """
    eta = _as_eta(eta)
    if eta == 0.0:
        return Pmf(((0, p.total_mass),), tail_defect=p.tail_defect)
    if eta == 1.0 or not p.entries:
        return p

    log_eta = math.log(eta)
    log_keep = math.log1p(-eta)
    max_n = p.max_index
    lf = _log_factorials(max_n)
    target = p.total_mass - _TRUNCATION_SLACK
    # Log terms near lf[max_n] round at about eps * lf[max_n] relative, so
    # the float sum may settle short of the target by about that much.
    near = p.total_mass - 4.0 * np.finfo(np.float64).eps * lf[max_n]
    max_rows = max(1, _CHUNK_CELLS // len(p.entries))

    entries: list[tuple[int, float]] = []
    acc = CompensatedSum()
    lo, rows = 0, min(_FIRST_CHUNK_ROWS, max_rows)
    while lo <= max_n:
        n_col = np.arange(lo, min(max_n + 1, lo + rows))[:, None]
        log_binom = _log_terms(p, n_col, log_keep) + (n_col * log_eta - lf[n_col])
        for n, q_n in enumerate(np.exp(log_binom).sum(axis=1).tolist(), start=lo):
            before = acc.value
            acc.add(q_n)
            if q_n > 0.0:
                entries.append((n, q_n))
            if acc.value >= target or (acc.value >= near and acc.value == before):
                return _truncated(p, entries)
        lo += rows
        rows = min(2 * rows, max_rows)
    return _truncated(p, entries)


def thin_via_gf(p: Pmf, eta: float | AttenuationCoefficient, n_max: int) -> Pmf:
    """Same transformation through generating-function derivatives.

    Output mass at n is (eta^n / n!) times the n-th derivative of the
    generating function at 1 - eta, for n = 0..n_max. The derivative is
    kept as a log-sum of :func:`photonthin.pmf.gf_derivative`'s terms,
    since it overflows the float range long before the product does. The
    defect is the inherited one plus whatever the n_max cutoff leaves of
    the input's total mass.
    """
    n_max = _as_int("n_max", n_max)
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be a nonnegative int, got {n_max!r}")
    eta = _as_eta(eta)
    if eta == 0.0:
        return Pmf(((0, p.total_mass),), tail_defect=p.tail_defect)
    if eta == 1.0:
        return _truncated(p, [(n, m) for n, m in p.entries if n <= n_max])

    log_eta = math.log(eta)
    log_z = math.log1p(-eta)
    top = min(n_max, p.max_index)
    lf = _log_factorials(top)
    entries: list[tuple[int, float]] = []
    for n in range(top + 1):
        q_n = math.exp(n * log_eta - lf[n] + _log_sum_exp(_log_terms(p, n, log_z)))
        if q_n > 0.0:
            entries.append((n, q_n))
    return _truncated(p, entries)


def eta_for_target_lambda(p: Pmf, target_lambda: float) -> AttenuationCoefficient:
    """Attenuation coefficient that lands the thinned mean on target.

    Expectation scales exactly linearly under thinning, so this is a
    plain division, no search.

    Raises:
        InvalidParameterError: if the target is not positive and finite.
        TargetExceedsMeanError: if the target exceeds mean(p).
    """
    target_lambda = _as_real("target mean", target_lambda)
    if not (math.isfinite(target_lambda) and target_lambda > 0.0):
        raise InvalidParameterError(
            f"target mean must be positive and finite, got {target_lambda!r}"
        )
    mean = p.mean
    if target_lambda > mean:
        raise TargetExceedsMeanError(
            f"target mean {target_lambda} exceeds input mean {mean}"
        )
    return AttenuationCoefficient(target_lambda / mean)
