"""Poisson approximation quality of a thinned distribution.

After strong attenuation the thinned distribution is close to
Poisson(lambda) with lambda = eta * E(X). This module quantifies how
close: per-outcome deviations, the quadratic leading error lambda^2 * c
predicted from the input's moments alone, rigorous cubic remainder
recovery, and the multi-photon risk numbers used in security analysis of
faint pulsed sources.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from operator import sub

from .errors import AllVacuumError, DegenerateLambdaError
from .pmf import (
    _MAX_KERNEL_N, DEFAULT_N_REPORT, AttenuationCoefficient, Pmf, _as_eta, _as_finite, _as_int_in,
    _as_positive, moments, poisson_family,
)
from .thinning import thin_direct

_REFERENCE_TAIL_EPS = 1e-14


@dataclass(frozen=True)
class ApproxReport:
    """Everything one run of the approximation analysis produces.

    delta[n] is the thinned mass minus the reference Poisson mass at n.
    predicted holds the quadratic leading errors (l2c, -2*l2c, l2c) for
    n = 0, 1, 2 where l2c = lambda^2 * c. bound = (d + 1) * lambda^3 is
    the envelope within which delta may deviate from predicted.
    residuals are the recovered cubic remainder coefficients, each of
    which must land in [0, d] up to numeric noise. tail3 is the thinned
    mass at n >= 3, summed over its rows. risk_approx is
    deliberately not clamped to [0, 1]: values above one are the
    security red flag for overdispersed inputs.
    """

    lam: float
    delta: tuple[float, ...]
    predicted: tuple[float, float, float]
    bound: float
    residuals: tuple[float, float, float]
    tail3: float
    risk_exact: float
    risk_approx: float


def thinned_reference(
    p: Pmf, eta: float | AttenuationCoefficient
) -> tuple[Pmf, Pmf, float]:
    """Thinned distribution, its reference Poisson, and lambda.

    Shared by the report builder and the CSV emitter so both see
    bit-identical numbers.
    """
    eta = _as_eta(eta)
    lam = eta * p.mean
    if lam <= 0.0:
        raise DegenerateLambdaError(f"post-attenuation mean is {lam!r}; need eta > 0 and mean > 0")
    q = thin_direct(p, eta)
    ref = poisson_family(lam, _REFERENCE_TAIL_EPS)
    return q, ref, lam


def build_report(
    p: Pmf, eta: float | AttenuationCoefficient, n_report: int = DEFAULT_N_REPORT
) -> ApproxReport:
    """Full approximation analysis of thinning ``p`` by ``eta``.

    Raises:
        InvalidParameterError: if n_report is not an int in [0, 2**20].
        ZeroMeanError: if the input mean is zero.
        DegenerateLambdaError: if eta * mean is zero.
    """
    n_report = _as_int_in("n_report", n_report, 0, _MAX_KERNEL_N)
    ms = moments(p)
    q, ref, lam = thinned_reference(p, eta)
    c, lam = _as_finite("c", ms.c), _as_positive("lambda", lam)

    # Each table's masses by one dict lookup a row; absent rows read 0.0.
    q_at, ref_at = q._lookup.get, ref._lookup.get
    rows = range(n_report + 1)
    delta = tuple(map(sub, map(q_at, rows, repeat(0.0)), map(ref_at, rows, repeat(0.0))))
    bound = (ms.d + 1.0) * lam**3

    lam3 = lam**3
    quad = lam * lam / 2.0 + c * lam * lam
    q0, q1, q2 = map(q_at, range(3), repeat(0.0))
    # The table's own mass, not 1: a lossy table's slack over lambda^3
    # would otherwise land in d0.
    d0 = (p.total_mass - lam + quad - q0) / lam3
    d1 = (q1 - lam + lam * lam + 2.0 * c * lam * lam) / lam3
    d2 = (quad - q2) / lam3

    return ApproxReport(
        lam=lam,
        delta=delta,
        predicted=_predicted_delta(c, lam),
        bound=bound,
        residuals=(d0, d1, d2),
        tail3=_mass_from(q, 3),
        risk_exact=risk_exact(q),
        risk_approx=_risk_approx(c, lam),
    )


def predicted_delta(c: float, lam: float) -> tuple[float, float, float]:
    """Leading quadratic deviations at n = 0, 1, 2: (l2c, -2*l2c, l2c), for a
    finite c and a positive, finite lam."""
    return _predicted_delta(_as_finite("c", c), _as_positive("lambda", lam))


def _predicted_delta(c: float, lam: float) -> tuple[float, float, float]:
    l2c = lam * lam * c
    return (l2c, -2.0 * l2c, l2c)


def risk_exact(q: Pmf) -> float:
    """P(n > 1 | n > 0): chance a non-empty pulse carries several photons.

    Both probabilities sum the table's rows at n >= 1 and n >= 2, never
    1 - q(0): a single-photon source reads exactly 0.

    Raises:
        AllVacuumError: if all mass sits at zero photons.
    """
    survived = _mass_from(q, 1)
    if survived == 0.0:
        raise AllVacuumError("all mass at zero photons; conditional risk undefined")
    return _mass_from(q, 2) / survived


def _mass_from(q: Pmf, k: int) -> float:
    """Mass of the rows at n >= k, summed without cancellation: the ``fsum``
    of the masses from the first row at or past k, found by ``bisect``."""
    return math.fsum(q.masses[bisect_left(q.support, k):])


def risk_approx(c: float, lam: float) -> float:
    """First-order risk estimate (1/2 + c) * lambda, for a finite c and a
    positive, finite lam.

    Not clamped: a value above one signals the approximation's breakdown
    regime and must stay visible.
    """
    return _risk_approx(_as_finite("c", c), _as_positive("lambda", lam))


def _risk_approx(c: float, lam: float) -> float:
    return (0.5 + c) * lam
