"""Finite-support photon-count distributions and their moment machinery.

The central type is :class:`Pmf`, a sparse, immutable probability mass
function over nonnegative integers. Distributions truncated from an
infinite-support family carry the discarded mass in ``tail_defect``
instead of being renormalized, so downstream tolerance budgets can track
it explicitly.

All sums that feed invariants (normalization, moments) are accumulated
with full-precision summation (``math.fsum``) in ascending index order.
The module is pure Python.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, repeat, takewhile
from operator import itemgetter, le, mul, sub, truediv

from .errors import (
    DuplicateIndexError,
    InvalidParameterError,
    NegativeMassError,
    NotNormalizedError,
    ZeroMeanError,
)

# Ingestion tolerance: user data is lossy decimal. Internal ops target 1e-12.
NORMALIZATION_TOL = 1e-9
DEFAULT_TAIL_EPS = 1e-12
_MAX_TAIL_EPS = 1e-6

# Largest outcome index the kernels take: thinning, reports, Poisson
# references and Monte Carlo; any Pmf index up to 2**63 - 1 is fine
# elsewhere. The Monte Carlo sparse path places photon slots in float64,
# exact while (montecarlo._CHUNK_PULSES + 1) * _MAX_KERNEL_N <= 2**53, so
# raising this bound means revisiting that chunk size; a test checks the
# product.
_MAX_KERNEL_N = 2**20

# Largest outcome of a report's per-outcome series unless asked otherwise.
DEFAULT_N_REPORT = 10

# The mode-anchored walks (poisson_family, thinning.thin_direct) keep no term
# below _TINY, sum a walk over its terms of at least _NEGLIGIBLE of the mode's,
# and stop where a tail bound is at most _UNIT_ROUNDOFF of what it must resolve.
_TINY = sys.float_info.min
_NEGLIGIBLE = 2.0**-64
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2


def _as_int(name: str, value: object) -> int:
    """value as an int; bools, floats, strings and the like are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    # Other Integral types become int, so that masses stay Python floats.
    return int(value)


def _as_real(name: str, value: object) -> float:
    """value as a float; bools, strings, None and ints past the float range
    are rejected. Exact types are tested first, since every report runs it."""
    if type(value) is float:
        return value
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise InvalidParameterError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} {value!r} is out of range") from None


def _as_tail_eps(tail_eps: object) -> float:
    """tail_eps as a float in (0, 1e-6]; the one rule for every spec variant."""
    tail_eps = _as_real("tail_eps", tail_eps)
    if not (0.0 < tail_eps <= _MAX_TAIL_EPS):
        raise InvalidParameterError(f"tail_eps must lie in (0, {_MAX_TAIL_EPS}], got {tail_eps!r}")
    return tail_eps


def _as_int_in(name: str, value: object, low: int, high: float = math.inf) -> int:
    """value as an int (the rule of ``_as_int``) in [low, high]."""
    value = _as_int(name, value)
    if not low <= value <= high:
        bounds = f"lie in [{low}, {high}]" if high < math.inf else f"be >= {low}"
        raise InvalidParameterError(f"{name} must {bounds}, got {value!r}")
    return value


def _as_unit(name: str, value: object) -> float:
    """value as a float (the rule of ``_as_real``) in [0, 1]."""
    value = _as_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _as_positive(name: str, value: object) -> float:
    """value as a positive, finite float (the rule of ``_as_real``)."""
    value = _as_real(name, value)
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")
    return value


def _as_finite(name: str, value: object) -> float:
    """value as a finite float (the rule of ``_as_real``)."""
    value = _as_real(name, value)
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def _as_eta(eta: float | AttenuationCoefficient) -> float:
    """An attenuation coefficient's eta, or a number checked as one."""
    if isinstance(eta, AttenuationCoefficient):
        return eta.eta
    return _as_unit("attenuation coefficient", eta)


def _check_normalized(total: float) -> None:
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(f"masses plus tail defect sum to {total!r}, "
                                 f"expected 1 within {NORMALIZATION_TOL}")


def _check_kernel_bound(p: Pmf) -> None:
    if p.max_index > _MAX_KERNEL_N:
        raise InvalidParameterError(f"outcome index {p.max_index} exceeds {_MAX_KERNEL_N}")


@dataclass(frozen=True)
class AttenuationCoefficient:
    """Per-photon survival probability of the attenuator, in [0, 1]."""

    eta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", _as_unit("attenuation coefficient", self.eta))


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over nonnegative integer photon counts.

    ``entries`` holds (index, mass) pairs with strictly increasing
    indices; ``tail_defect`` is the mass discarded by truncating an
    infinite-support family (0 for explicit tables). The masses plus the
    defect must sum to one within ``NORMALIZATION_TOL``. Indices follow
    the rule of ``_as_int``, masses and the defect that of ``_as_real``,
    and are stored as the int and float those return, the entries as a
    tuple of tuples.

    Instances are immutable and safe to share across threads.
    """

    entries: tuple[tuple[int, float], ...]
    tail_defect: float = 0.0

    def __post_init__(self) -> None:
        prev = -1
        entries, converted = tuple(self.entries), type(self.entries) is not tuple
        for entry in entries:
            n, mass = entry
            if type(n) is not int or type(mass) is not float or type(entry) is not tuple:
                n, mass = _as_int("outcome index", n), _as_real("mass", mass)
                converted = True
            if n < 0:
                raise InvalidParameterError(f"outcome index {n} is negative")
            if mass < 0.0 or not math.isfinite(mass):
                raise NegativeMassError(
                    f"mass {mass!r} at index {n} must be finite and nonnegative"
                )
            if n == prev:
                raise DuplicateIndexError(f"outcome index {n} appears twice")
            if n < prev:
                raise InvalidParameterError("entries must be in ascending index order")
            prev = n
        if prev >= 2**63:
            raise InvalidParameterError(f"outcome index {prev} does not fit in int64")
        if converted:
            # Stored as checked, as a tuple of tuples, so that no kernel does
            # fixed-width integer arithmetic, which wraps silently, and the
            # instance stays hashable and unchanged.
            object.__setattr__(self, "entries", tuple(
                (_as_int("outcome index", n), _as_real("mass", m)) for n, m in entries))
        tail_defect = _as_real("tail defect", self.tail_defect)
        if tail_defect < 0.0 or not math.isfinite(tail_defect):
            raise InvalidParameterError(f"tail defect {tail_defect!r} must be >= 0")
        object.__setattr__(self, "tail_defect", tail_defect)
        _check_normalized(math.fsum(m for _, m in self.entries) + tail_defect)

    @classmethod
    def _from_kernel(cls, entries: tuple[tuple[int, float], ...], masses: tuple[float, ...],
                     total: float, tail_defect: float) -> Pmf:
        """A kernel's table: ``masses`` are the entries' masses, ``total`` their
        fsum. It checks only ``total`` plus ``tail_defect`` against 1 and fills
        the cached ``support``, ``masses``, ``total_mass`` and ``_lookup`` now.
        In place of the per-entry checks its callers, ``poisson_family``,
        ``thin_direct`` and ``thin_via_gf``, guarantee (int, float) tuples in a
        tuple, indices ascending, masses finite and >= 0 (``thin_via_gf``'s may
        be subnormal), and a float defect >= 0."""
        _check_normalized(total + tail_defect)
        p = object.__new__(cls)
        # cached_property reads the instance __dict__ first, locked (< 3.12) or not.
        p.__dict__.update(entries=entries, tail_defect=tail_defect, masses=masses, total_mass=total,
                          support=tuple(map(itemgetter(0), entries)), _lookup=dict(entries))
        return p

    @cached_property
    def _lookup(self) -> dict[int, float]:
        return dict(self.entries)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    @cached_property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.entries)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def mass(self, n: int) -> float:
        """Mass at outcome ``n``; absent indices carry zero mass."""
        return self._lookup.get(n, 0.0)

    @cached_property
    def total_mass(self) -> float:
        return math.fsum(self.masses)

    @cached_property
    def mean(self) -> float:
        return math.fsum(n * m for n, m in self.entries)


@dataclass(frozen=True)
class MomentSummary:
    """First three (factorial) moments and the derived error coefficients.

    ``c`` is (Var - E) / (2 E^2): it governs the leading quadratic error
    of the Poisson approximation after strong attenuation. ``d`` is the
    third factorial moment over E^3 and bounds the cubic remainders.
    """

    mean: float
    variance: float
    m3: float
    c: float
    d: float


def make_pmf(pairs: list[tuple[int, float]] | tuple[tuple[int, float], ...]) -> Pmf:
    """Validate and normalize a table of (index, mass) pairs into a Pmf.

    Input order is irrelevant; entries are sorted by index. An index is an
    int, any other ``numbers.Integral`` or an integral float up to 2**53,
    never a bool; a mass is any real number but a bool. Raises
    :class:`InvalidParameterError`, :class:`NegativeMassError`,
    :class:`DuplicateIndexError` or :class:`NotNormalizedError` on bad data.
    """
    cleaned: list[tuple[int, float]] = []
    for n, mass in pairs:
        # Floats past 2**53 are rejected, since they may be rounded integers.
        if isinstance(n, float) and n.is_integer() and n <= 2**53:
            n = int(n)
        cleaned.append((_as_int("outcome index", n), _as_real("mass", mass)))
    cleaned.sort(key=lambda pair: pair[0])
    return Pmf(tuple(cleaned), tail_defect=0.0)


def poisson_family(mu: float, tail_eps: float = DEFAULT_TAIL_EPS) -> Pmf:
    """Truncated Poisson(mu) table with the cut mass recorded, not hidden.

    The truncation index is the smallest n_max whose upper-tail mass is
    at most ``tail_eps``; the retained masses are NOT renormalized, and
    ``tail_defect`` is the sum of the terms dropped past n_max.

    The terms are walked from 1 at the mode floor(mu), up by mu/(n + 1) and
    down by n/mu until below the smallest normal float, each divided by the
    ``fsum`` of those at least 2**-64: no log-factorial. The table starts at
    its first mass of at least the smallest normal float; rows below it are
    not stored and read 0.0. It ends likewise: the trailing masses below the
    smallest normal float go to ``tail_defect`` before any other, so for a
    ``tail_eps`` below that float the defect can exceed ``tail_eps`` by the
    mass they hold.

    Args:
        mu: Poisson mean, must be positive and finite.
        tail_eps: largest acceptable discarded tail mass, in (0, 1e-6].

    Raises:
        InvalidParameterError: if ``mu`` or ``tail_eps`` is out of range,
            or the upward walk reaches past the kernel bound.
    """
    mu, tail_eps = _as_positive("poisson mean", mu), _as_tail_eps(tail_eps)
    if mu > _MAX_KERNEL_N:
        raise InvalidParameterError(f"poisson mean {mu!r} reaches past index {_MAX_KERNEL_N}")
    # Past the mean, n > mu, each term is at most mu / (n + 1) times the one before,
    # so the terms after n sum to at most t_n mu / (n + 1 - mu). Once that is at most
    # tail_eps * 2**-53 of the mode's term 1 <= the sum, the rest cannot move the cut.
    mode, floor = int(mu), tail_eps * _UNIT_ROUNDOFF
    ups, t, n = [1.0], 1.0, mode
    while n <= mu or t * mu > floor * (n + 1 - mu):
        n += 1
        t *= mu / n
        ups.append(t)
    if n > _MAX_KERNEL_N:
        raise InvalidParameterError(f"poisson mean {mu!r}: the walk reaches past index {_MAX_KERNEL_N}")
    downs = list(takewhile(partial(le, _TINY), accumulate(map(truediv, range(mode, 0, -1), repeat(mu)), mul)))
    keep = partial(le, _NEGLIGIBLE)
    total = math.fsum(chain(takewhile(keep, ups), takewhile(keep, downs)))
    # The masses below the mode ascend, so the table starts at the first normal one.
    lows = [t / total for t in reversed(downs)]
    first = bisect_left(lows, _TINY)
    masses = lows[first:] + [t / total for t in ups]
    # The cut is the sum of the dropped terms, added smallest first; one
    # minus the kept masses would sit under their rounding. Masses below the
    # smallest normal float are dropped whatever tail_eps.
    tail = 0.0
    while masses[-1] < _TINY or tail + masses[-1] <= tail_eps:
        tail += masses.pop()
    masses = tuple(masses)
    return Pmf._from_kernel(tuple(enumerate(masses, mode - len(downs) + first)), masses,
                            math.fsum(masses), tail)


def moments(p: Pmf) -> MomentSummary:
    """Mean, variance, third factorial moment and the derived c, d.

    Summation runs in ascending index order with full-precision
    accumulation; support up to 1e4 with n^3-sized terms would lose
    digits under naive addition.

    The variance is E[n^2] - E[n]^2 over the masses as given, the form
    whose c is the lambda^2 coefficient of delta0 when the masses sum to
    M != 1. It is formed in two passes over the exact integer offsets
    y = n - n0 from the first atom, as sum (y - s)^2 m with s = sum y m,
    plus (1 - M) (s^2 + 2 n0 s + n0^2 M) for the missing mass, since
    E[n^2] - E[n]^2 itself cancels to nothing for indices near 2**53.
    Only the missing-mass term carries the rounding of M.

    Raises:
        ZeroMeanError: if the mean is zero (c and d are undefined).
    """
    mean = p.mean
    if mean <= 0.0:
        raise ZeroMeanError("distribution has zero mean; c and d are undefined")
    n0 = p.entries[0][0]
    shift = math.fsum([(n - n0) * m for n, m in p.entries])
    spread = math.fsum([(dev := n - n0 - shift) * dev * m for n, m in p.entries])
    total, x0 = p.total_mass, float(n0)
    variance = spread + (1.0 - total) * (shift * (shift + 2.0 * x0) + x0 * x0 * total)
    m3 = math.fsum([(n * (n - 1) * (n - 2)) * m for n, m in p.entries])
    c = (variance - mean) / (2.0 * mean * mean)
    d = m3 / mean**3
    return MomentSummary(mean=mean, variance=variance, m3=m3, c=c, d=d)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance between two tables, defect-inclusive.

    Half the L1 distance over the union of supports, plus half of each
    tail defect as worst-case slack for the truncated mass.
    """
    # fsum is exact, so the order of the union does not matter.
    keys = p._lookup.keys() | q._lookup.keys()
    masses = [map(t._lookup.get, keys, repeat(0.0)) for t in (p, q)]
    diff = math.fsum(map(abs, map(sub, *masses)))
    return 0.5 * diff + 0.5 * (p.tail_defect + q.tail_defect)
