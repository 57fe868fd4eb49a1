"""Binomial decay of a photon-count distribution, by two equivalent routes.

``thin_direct`` is the reference implementation: it sums the binomial
decay kernel over the input support. ``thin_via_gf`` reaches the same
distribution through derivatives of the generating function evaluated at
1 - eta. This module is the home of the one log-space term helper that
both routes and :func:`gf_derivative` form their terms with, over a
shared log-factorial table, to avoid overflow at support points in the
thousands; independent checks of that helper are the high-precision
reference tests, the semigroup property and the Monte Carlo oracle.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import InvalidParameterError, TargetExceedsMeanError
from .pmf import (
    _MAX_KERNEL_N,
    AttenuationCoefficient,
    CompensatedSum,
    Pmf,
    _as_int,
    _as_real,
)

# Output truncation: stop once the cumulative mass is within this of
# everything the input had to give; below double-precision resolution of
# the normalization invariant.
_TRUNCATION_SLACK = 1e-15

# Cap on log-term matrix entries per chunk, to bound peak memory.
_CHUNK_CELLS = 4_000_000

# Rows in the first chunk of thin_direct; later chunks double up to the cap.
_FIRST_CHUNK_ROWS = 32

# Largest exponent math.exp accepts; beyond it results degrade to inf.
_MAX_LOG = math.log(sys.float_info.max)

# Read-only log(k!) for k < len(_LOG_FACTORIALS). _log_factorials grows it
# by replacing the array, never writing into it, so a caller in another
# thread always holds a complete table.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(k_max: int) -> np.ndarray:
    """Read-only log(k!) from math.lgamma for k = 0..k_max at least; k_max <= _MAX_KERNEL_N."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= k_max:
        if k_max > _MAX_KERNEL_N:
            raise InvalidParameterError(f"outcome index {k_max} exceeds {_MAX_KERNEL_N}")
        size = min(max(k_max + 1, 2 * len(table)), _MAX_KERNEL_N + 1)
        table = np.array([math.lgamma(k + 1.0) for k in range(size)])
        table.setflags(write=False)
        _LOG_FACTORIALS = table
    return table


def _log_terms(p: Pmf, n: int | np.ndarray, log_z: float) -> np.ndarray:
    """log(N!/(N-n)! * p(N) * z^(N-n)) for every atom N of ``p``.

    The one place a falling factorial, or with log(eta^n / n!) added a
    binomial term, is formed. ``n`` is an int or a column of ints (one
    row each); cells with N < n or zero mass are -inf. z = 0 is passed
    as ``log_z = -inf`` and leaves only N = n finite.
    """
    sup, mas = p.arrays()
    lf = _log_factorials(p.max_index)
    lag = sup - n
    valid = lag >= 0
    lag = np.where(valid, lag, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(lag > 0, lag * log_z, 0.0)
        log_terms = lf[sup] - lf[lag] + power + np.log(mas)
    return np.where(valid, log_terms, -np.inf)


def _log_sum_exp(log_terms: np.ndarray) -> float:
    """log of the sum of exp(log_terms), via a max shift; -inf when empty."""
    shift = float(np.max(log_terms, initial=-np.inf))
    if shift == -np.inf:
        return shift
    return shift + math.log(float(np.exp(log_terms - shift).sum()))


def _exp_or_inf(log_value: float) -> float:
    """exp that degrades to inf instead of raising past the float range."""
    if log_value > _MAX_LOG:
        return math.inf
    return math.exp(log_value)


def gf_derivative(p: Pmf, order: int, z: float) -> float:
    """Order-th derivative of the probability generating function at z.

    Computes sum over N >= order of N!/(N-order)! * p(N) * z^(N-order).
    Every term is evaluated in log space by :func:`_log_terms` and the
    terms, all nonnegative, are combined by max-shifted exponential
    summation; a result past the float range degrades to inf.
    """
    order, z = _as_int("derivative order", order), _as_real("evaluation point", z)
    if not 0 <= order < 2**63:
        raise InvalidParameterError(f"derivative order must lie in [0, 2**63), got {order!r}")
    if not (0.0 <= z <= 1.0):
        raise InvalidParameterError(f"evaluation point must lie in [0, 1], got {z!r}")
    log_z = math.log(z) if z > 0.0 else -math.inf
    return _exp_or_inf(_log_sum_exp(_log_terms(p, order, log_z)))


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
    kept as a log-sum of :func:`photonthin.thinning.gf_derivative`'s terms,
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
