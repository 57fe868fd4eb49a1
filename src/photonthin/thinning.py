"""Binomial decay of a photon-count distribution, by two equivalent routes.

``thin_direct`` steps each atom's binomial terms by the ratio of
consecutive terms; ``thin_via_gf`` goes through generating-function
derivatives at 1 - eta, each term one ``exp`` of lgamma logs. The routes
share no arithmetic, and high-precision reference tests, the semigroup
property and the Monte Carlo oracle check both. Pure Python: no numpy.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections.abc import Iterator
from functools import partial
from itertools import accumulate, chain, islice, repeat, takewhile, zip_longest
from operator import add, le, mul, truediv

from .errors import TargetExceedsMeanError
from .pmf import (
    AttenuationCoefficient, Pmf, _as_eta, _as_int_in, _as_positive, _check_kernel_bound,
)

# Output truncation: stop once the cumulative mass is within this of
# everything the input had to give; below double-precision resolution of
# the normalization invariant.
_TRUNCATION_SLACK = 1e-15

# thin_direct also stops at the first row that leaves its running sum
# unchanged, once the sum is within this of the input's total: the rows'
# rounding can leave the sum short of _TRUNCATION_SLACK for good. About
# twice the largest shortfall measured, 1.43e-14 at N 300, eta 0.9. The
# rule can fire in the zero rows before a far atom lighter than the
# window and cut that atom whole, so the window is kept this narrow.
_STALL_WINDOW = 2.0**-45

# thin_direct starts no term below the smallest normal float; every
# _PRUNE_EVERY rows it drops terms below it or below _PRUNE of their row's
# largest (see _sweep), and it emits no row below it. It sums a mode's walk
# to _NEGLIGIBLE.
_TINY = sys.float_info.min
_PRUNE = 2.0**-70
_PRUNE_EVERY = 16
_NEGLIGIBLE = 2.0**-64

# Terms per block of rows in thin_via_gf (see _gf_columns): bounds its memory.
_GF_BLOCK_TERMS = 2**14


def _gf_columns(atoms: tuple[list[int], list[float], list[float]], rows: range,
                shifts: Iterator[float]) -> Iterator[tuple[int, list[list[float]]]]:
    """The GF terms of ``rows``: exp of ((log N! - lgamma(N - n + 1)) + the
    atom's constant) + the next value of ``shifts`` at row n. The lgamma
    difference comes first, so at n = 0 it is exactly 0. They come in blocks
    of at most max(_GF_BLOCK_TERMS, atoms) terms, each block as its first row
    and one column per atom N >= that row, ascending in N, over the block's
    rows up to N. Within a block the atoms' windows of lgamma arguments are
    merged, so each distinct one costs one call."""
    ns, lfs, consts = atoms
    exp, step = math.exp, max(1, _GF_BLOCK_TERMS // max(1, len(ns)))
    for b0 in range(rows.start, rows.stop, step):
        b1, k = min(b0 + step, rows.stop), bisect_left(ns, b0)
        block = list(islice(shifts, b1 - b0))
        table, cols, top = [], [], 0  # table ends with lgamma(top)
        for n, lf, c in zip(ns[k:], lfs[k:], consts[k:]):
            table.extend(map(math.lgamma, range(max(n - b1 + 2, top + 1), n - b0 + 2)))
            top = n - b0 + 1
            lgs = table[-1:-2 - (min(n, b1 - 1) - b0):-1]  # lgamma(N - n + 1), n from b0 up
            cols.append([exp(((lf - g) + c) + s) for g, s in zip(lgs, block)])
        yield b0, cols


def _truncated(p: Pmf, entries: list[tuple[int, float]]) -> Pmf:
    """Output table whose defect is the inherited one plus the mass cut.

    The cut is measured against the input's own total mass, so ingestion
    slack of a lossy table is never reported as truncation.
    """
    cut = max(0.0, p.total_mass - math.fsum(m for _, m in entries))
    return Pmf(tuple(entries), tail_defect=p.tail_defect + cut)


def _mode_share(big_n: int, mode: int, eta: float) -> float:
    """binom(N, mode) eta^mode (1-eta)^(N-mode), free of the rounding of log N!:
    by the binomial theorem, the reciprocal of the sum of the terms walked
    both ways from 1 at the mode until they fall below _NEGLIGIBLE."""
    ups = map(truediv, range(big_n - mode, 0, -1), range(mode + 1, big_n + 1))
    downs = map(truediv, range(mode, 0, -1), range(big_n - mode + 1, big_n + 1))
    halves = (accumulate(map(mul, steps, repeat(ratio)), mul)
              for steps, ratio in ((ups, eta / (1.0 - eta)), (downs, (1.0 - eta) / eta)))
    return 1.0 / math.fsum(chain((1.0,), *(takewhile(partial(le, _NEGLIGIBLE), h) for h in halves)))


def _sweep(starts: list[tuple[int, float, float]], ratio: float, step: float) -> Iterator[float]:
    """fsum of each row's terms, row after row from the first start's row.
    Atom N joins at the row of its (row, N, term) in ``starts``. Each row
    steps every term by (N-n)/(n+1) * ratio upward (step 1) or by
    n/(N-n+1) * ratio downward (step -1); the row index is a float, so
    that each step is float arithmetic only. A term is dropped for good
    below _TINY, or below _PRUNE times the row's largest term while its
    atom lies behind that term's in the sweep's direction: their ratio
    only shrinks from then on. Both are checked every _PRUNE_EVERY rows."""
    terms, atoms, k, n = [], [], 0, float(starts[0][0])
    while (k < len(starts) or terms) and n >= 0.0:
        if not terms:
            yield from repeat(0.0, int(abs(starts[k][0] - n)))
            n = float(starts[k][0])
        while k < len(starts) and starts[k][0] == n:
            atoms.append(starts[k][1])
            terms.append(starts[k][2])
            k += 1
        yield math.fsum(terms)
        if step > 0.0:
            c = ratio / (n + 1.0)
            terms = [t * ((a - n) * c) for t, a in zip(terms, atoms)]
        else:
            c = n * ratio
            terms = [t * (c / (a - n + 1.0)) for t, a in zip(terms, atoms)]
        n += step
        if n % _PRUNE_EVERY == 1.0 and terms:
            top = max(terms)
            cut, lead = top * _PRUNE, atoms[terms.index(top)] * step
            kept = [(t, a) for t, a in zip(terms, atoms) if t >= _TINY and (t >= cut or a * step > lead)]
            terms, atoms = [list(col) for col in zip(*kept)] if kept else ([], [])


def thin_direct(p: Pmf, eta: float | AttenuationCoefficient) -> Pmf:
    """Distribution of survivors when each photon independently keeps
    probability eta of passing the attenuator.

    Output mass at n is sum over N >= n of binom(N, n) eta^n (1-eta)^(N-n)
    times the input mass m at N, each row an ``fsum`` (:func:`_sweep`).
    An atom starts at row 0 with m (1-eta)^N where that is a normal float,
    else at its mode (:func:`_mode_share`), walked down and up. Rows are
    cut once their mass reaches the input's total less 1e-15, or, within
    2**-45 of it, at the first row that leaves the sum unchanged.
    A row below the smallest normal float is not emitted. The cut joins the
    inherited tail defect. eta 0 and 1 are exact."""
    eta = _as_eta(eta)
    if eta == 0.0:
        return Pmf(((0, p.total_mass),), tail_defect=p.tail_defect)
    if eta == 1.0 or not p.entries:
        return p
    _check_kernel_bound(p)

    # (1 - eta)^N = keep^N (1 + lost/keep)^N, with lost the exact rounding of keep.
    keep, ratio = 1.0 - eta, eta / (1.0 - eta)
    log_fix = math.log1p(((1.0 - keep) - eta) / keep)
    up, down = [], []
    for big_n, m in p.entries:
        keep_n = keep**big_n
        b = m * keep_n * math.exp(big_n * log_fix) if keep_n >= _TINY else 0.0
        if b >= _TINY:
            up.append((0, float(big_n), b))
        elif m >= _TINY:
            mode = min(big_n, int((big_n + 1) * eta))
            b = m * _mode_share(big_n, mode, eta)
            if b >= _TINY:
                down.append((mode, float(big_n), b))
                up.append((mode + 1, float(big_n), b * (big_n - mode) / (mode + 1) * ratio))
    down.sort(reverse=True)
    lower = list(_sweep(down, (1.0 - eta) / eta, -1.0))[::-1] if down else []
    low = down[0][0] + 1 - len(lower) if down else 0
    up.append((low, 0.0, 0.0))  # a zero term, so the upward rows start at the lowest row
    up.sort()
    rows = _sweep(up, ratio, 1.0)
    if lower:
        rows = map(add, rows, chain(repeat(0.0, low - up[0][0]), lower, repeat(0.0)))
    target = p.total_mass - _TRUNCATION_SLACK
    near = p.total_mass - _STALL_WINDOW

    # The rows' running sum, Neumaier-compensated; every row is >= 0.
    entries: list[tuple[int, float]] = []
    value = total = carry = 0.0
    for n, q_n in enumerate(rows, start=up[0][0]):
        t = total + q_n
        carry += (total - t) + q_n if total >= q_n else (q_n - t) + total
        total, before, value = t, value, t + carry
        if q_n >= _TINY:
            entries.append((n, q_n))
        if value >= target or (value >= near and value == before):
            break
    return _truncated(p, entries)


def thin_via_gf(p: Pmf, eta: float | AttenuationCoefficient, n_max: int) -> Pmf:
    """Same transformation through generating-function derivatives.

    Output mass at n is (eta^n / n!) times the n-th derivative of the
    generating function at 1 - eta, for n = 0..n_max. The factor goes into
    each log term, as the derivative overflows the float range long before
    the product does. The terms are formed by atom columns
    (:func:`_gf_columns`), and a row is the builtin ``sum`` of its terms'
    ``exp``, each at most 1, in ascending N. The defect is the inherited one
    plus what the n_max cutoff leaves of the input's total mass.
    """
    n_max = _as_int_in("n_max", n_max, 0)
    eta = _as_eta(eta)
    if eta == 0.0:
        return Pmf(((0, p.total_mass),), tail_defect=p.tail_defect)
    if eta == 1.0:
        return _truncated(p, [(n, m) for n, m in p.entries if n <= n_max])

    _check_kernel_bound(p)
    # Columns N, log N! and log p(N) + N log(1 - eta) over the atoms of
    # positive mass, ascending in N.
    log_keep, log_ratio = math.log1p(-eta), math.log(eta / (1.0 - eta))
    kept = [(n, m) for n, m in p.entries if m > 0.0]
    atoms = ([n for n, _ in kept], [math.lgamma(n + 1) for n, _ in kept],
             [math.log(m) + n * log_keep for n, m in kept])
    # Rows below every atom's mean by sqrt(1492 N eta) or more are skipped:
    # by the Chernoff bound P(X <= mu - t) <= exp(-t^2 / (2 mu)) each of
    # their terms is below e^-746, where exp returns 0, so none is emitted.
    low = min((n * eta - math.sqrt(1492.0 * n * eta) for n in atoms[0]), default=0.0)
    rows = range(max(0, math.floor(low)), min(n_max, p.max_index) + 1)
    shifts = (n * log_ratio - math.lgamma(n + 1) for n in rows)
    entries: list[tuple[int, float]] = []
    for first, cols in _gf_columns(atoms, rows, shifts):
        # An atom's column ends at its own N; the 0.0 padding is exact under sum.
        for n, q_n in enumerate(map(sum, zip_longest(*cols, fillvalue=0.0)), start=first):
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
    target_lambda = _as_positive("target mean", target_lambda)
    mean = p.mean
    if target_lambda > mean:
        raise TargetExceedsMeanError(f"target mean {target_lambda} exceeds input mean {mean}")
    return AttenuationCoefficient(target_lambda / mean)
