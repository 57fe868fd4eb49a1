"""Binomial decay of a photon-count distribution, by two equivalent routes.

``thin_direct`` steps each atom's binomial terms by the ratio of
consecutive terms; ``thin_via_gf`` goes through generating-function
derivatives at 1 - eta, each term one ``exp`` of log-factorials read from
one process-wide table of ``math.lgamma`` values. The routes share no
arithmetic, and high-precision reference tests, the semigroup
property and the Monte Carlo oracle check both. Pure Python: no numpy.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from functools import partial
from itertools import accumulate, chain, islice, repeat, takewhile, zip_longest
from operator import le, mul, truediv

from .errors import TargetExceedsMeanError
from .pmf import (
    _NEGLIGIBLE, _TINY, _UNIT_ROUNDOFF, AttenuationCoefficient, Pmf, _as_eta, _as_int_in,
    _as_positive, _check_kernel_bound,
)

# Output truncation: stop once the cumulative mass is within this of
# everything the input had to give; below double-precision resolution of
# the normalization invariant.
_TRUNCATION_SLACK = 1e-15

# Every _PRUNE_EVERY rows thin_direct drops terms below _TINY or below _PRUNE
# of their row's largest (see _pruned). It stops at a row that leaves its sum
# unchanged once the rows past it are at most _UNIT_ROUNDOFF of it by a bound:
# their rounding can leave the sum short of _TRUNCATION_SLACK for good.
_PRUNE = 2.0**-70
_PRUNE_EVERY = 16

# Terms per block of rows in thin_via_gf (see _gf_columns): bounds its memory.
_GF_BLOCK_TERMS = 2**14

# log k! = math.lgamma(k + 1), shared by the whole process in chunks of
# 2**_LOG_FACTORIAL_SHIFT values, chunk c holding k from c << shift; a chunk
# is computed when a call first reads one of its k (see _log_factorial_chunk).
_LOG_FACTORIAL_SHIFT = 10
_LOG_FACTORIALS: dict[int, array] = {}


def _log_factorial_chunk(c: int) -> array:
    """log k! = math.lgamma(k + 1) for the k of chunk ``c``, computed once
    per process. A chunk never changes once stored, so threads need no
    lock: two that compute one chunk at once store and return equal values."""
    chunk = _LOG_FACTORIALS.get(c)
    if chunk is None:
        k0 = c << _LOG_FACTORIAL_SHIFT
        values = array("d", map(math.lgamma, range(k0 + 1, k0 + (1 << _LOG_FACTORIAL_SHIFT) + 1)))
        chunk = _LOG_FACTORIALS.setdefault(c, values)
    return chunk


def _log_factorial(k: int) -> float:
    """log k! = math.lgamma(k + 1), read from its chunk."""
    return _log_factorial_chunk(k >> _LOG_FACTORIAL_SHIFT)[k & ((1 << _LOG_FACTORIAL_SHIFT) - 1)]


def _log_factorials(start: int, stop: int) -> array:
    """log k! for k from ``start`` through the end of the chunk that holds
    ``stop`` - 1, as a new array: at least the ``stop`` - ``start`` values
    asked for. Only the chunks holding those k are computed."""
    if stop <= start:
        return array("d")
    shift = _LOG_FACTORIAL_SHIFT
    first = start >> shift
    window = _log_factorial_chunk(first)[start - (first << shift):]
    for c in range(first + 1, ((stop - 1) >> shift) + 1):
        window += _log_factorial_chunk(c)
    return window


def _gf_columns(atoms: tuple[list[int], list[float], list[float]], rows: range,
                shifts: Iterator[float]) -> Iterator[tuple[int, list[list[float]]]]:
    """The GF terms of ``rows``: exp of ((log N! - log (N - n)!) + the atom's
    constant) + the next value of ``shifts`` at row n, so at n = 0 the log
    difference is exactly 0. They come in blocks of at most
    max(_GF_BLOCK_TERMS, atoms) terms, each block as its first row and one
    column per atom N >= that row, ascending in N, over the block's rows up
    to N. A column reads its log (N - n)! from the process-wide table of
    log k! (``_log_factorials``), which computes a chunk of it only when
    a call first reads it."""
    ns, lfs, consts = atoms
    exp, step = math.exp, max(1, _GF_BLOCK_TERMS // max(1, len(ns)))
    for b0 in range(rows.start, rows.stop, step):
        b1, k = min(b0 + step, rows.stop), bisect_left(ns, b0)
        block = list(islice(shifts, b1 - b0))
        # table holds log k! for k from t0 to t1 - 1. A column reads k from
        # N - b0 down to max(0, N - b1 + 1); a table fetched for it starts
        # one below that, so a reversed slice never stops at -1, and runs to
        # the end of a chunk. Columns ascend in N, so it serves the next ones
        # until one reads past t1.
        cols, table, t0, t1 = [], None, 0, 0
        for n, lf, c in zip(ns[k:], lfs[k:], consts[k:]):
            hi = n - b0 + 1
            if hi > t1:
                t0 = max(0, n - b1)
                table = _log_factorials(t0, hi)
                t1 = t0 + len(table)
            lgs = table[hi - 1 - t0:n - b1 - t0 if n >= b1 else None:-1]  # log (N - n)!, n from b0 up
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


def _pruned(terms: list[float], atoms: list[float], up: bool) -> tuple[list[float], list[float]]:
    """``terms`` and ``atoms`` less each term below _TINY, or below _PRUNE
    times the largest while its atom lies behind that term's in the walk's
    direction (their ratio only shrinks); as they are if no term goes."""
    top = max(terms)
    cut = top * _PRUNE
    if min(terms) >= max(cut, _TINY):
        return terms, atoms
    lead = atoms[terms.index(top)]
    kept = [(t, a) for t, a in zip(terms, atoms) if t >= _TINY and (t >= cut or (a > lead if up else a < lead))]
    return [list(col) for col in zip(*kept)] if kept else ([], [])


def _sweep(starts: list[tuple[int, float, float]], ratio: float) -> Iterator[float]:
    """fsum of each row's terms, from the first start's row down to row 0:
    the rows below the mode of the atoms that start there. Atom N joins at
    the row of its (row, N, term) in ``starts``, sorted descending. Each row
    steps every term by n/(N-n+1) * ratio, the row index a float so that each
    step is float arithmetic only, and prunes (:func:`_pruned`) every
    _PRUNE_EVERY rows."""
    terms, atoms, k, n = [], [], 0, float(starts[0][0])
    while (k < len(starts) or terms) and n >= 0.0:
        if not terms:
            yield from repeat(0.0, int(n - starts[k][0]))
            n = float(starts[k][0])
        while k < len(starts) and starts[k][0] == n:
            atoms.append(starts[k][1])
            terms.append(starts[k][2])
            k += 1
        yield math.fsum(terms)
        c = n * ratio
        terms = [t * (c / (a - n + 1.0)) for t, a in zip(terms, atoms)]
        n -= 1.0
        if n % _PRUNE_EVERY == 1.0 and terms:
            terms, atoms = _pruned(terms, atoms, False)


def thin_direct(p: Pmf, eta: float | AttenuationCoefficient) -> Pmf:
    """Distribution of survivors when each photon independently keeps
    probability eta of passing the attenuator.

    Output mass at n is sum over N >= n of binom(N, n) eta^n (1-eta)^(N-n)
    times the input mass m at N. An atom starts at row 0 with m (1-eta)^N
    where that is a normal float, else at its mode (:func:`_mode_share`),
    with its rows below from :func:`_sweep`. One loop walks the rows up: a
    row joins the atoms that start there, is the ``fsum`` of its terms plus
    its lower row, and steps each term by (N-n)/(n+1) * eta/(1-eta); a row
    with neither is skipped. Rows are cut once their mass reaches the
    input's total less 1e-15, or at the first row that leaves the sum
    unchanged where a bound on the rows past it is at most 2**-53 of the
    sum. The bound holds once every atom has started: from row n on, each
    term of atom N is at most r = (N_max - n)/(n + 1) * eta/(1 - eta) times
    the one before, N_max the input's largest index, and r only shrinks, so
    for r < 1 the rows past n hold at most q_n r / (1 - r). A row below the
    smallest normal float is not emitted. The cut joins the inherited tail
    defect. eta 0 and 1 are exact."""
    eta = _as_eta(eta)
    if eta == 0.0:
        return Pmf(((0, p.total_mass),), tail_defect=p.tail_defect)
    if eta == 1.0 or not p.entries:
        return p
    _check_kernel_bound(p)

    # (1 - eta)^N = keep^N (1 + lost/keep)^N, with lost the exact rounding of keep.
    keep, ratio = 1.0 - eta, eta / (1.0 - eta)
    log_fix = math.log1p(((1.0 - keep) - eta) / keep)
    # Row-0 atoms join the walk's terms now, the others as (row, N, term) in up.
    terms, atoms, up, down = [], [], [], []
    for big_n, m in p.entries:
        keep_n = keep**big_n
        b = m * keep_n * math.exp(big_n * log_fix) if keep_n >= _TINY else 0.0
        if b >= _TINY:
            atoms.append(float(big_n))
            terms.append(b)
        elif m >= _TINY:
            mode = min(big_n, int((big_n + 1) * eta))
            b = m * _mode_share(big_n, mode, eta)
            if b >= _TINY:
                down.append((mode, float(big_n), b))
                up.append((mode + 1, float(big_n), b * (big_n - mode) / (mode + 1) * ratio))
    down.sort(reverse=True)
    lower = list(_sweep(down, (1.0 - eta) / eta))[::-1] if down else []
    low = down[0][0] + 1 - len(lower) if down else 0
    high = low + len(lower)  # the lower rows are low..high - 1
    up.sort()
    k, start, last = 0, up[0][0] if up else -1, up[-1][0] if up else low
    n = min(low, start) if up and not terms else 0
    target, n_top = p.total_mass - _TRUNCATION_SLACK, float(p.max_index)

    # The rows' running sum, Neumaier-compensated; every row is >= 0.
    entries: list[tuple[int, float]] = []
    value = total = carry = 0.0
    while True:
        if n == start:  # the atoms that start at row n join
            j = bisect_right(up, (n, math.inf))
            atoms += [a for _, a, _ in up[k:j]]
            terms += [b for _, _, b in up[k:j]]
            k, start = j, up[j][0] if j < len(up) else -1
        q_n = math.fsum(terms)
        if low <= n < high:
            q_n += lower[n - low]
        t = total + q_n
        carry += (total - t) + q_n if total >= q_n else (q_n - t) + total
        total, before, value = t, value, t + carry
        if q_n >= _TINY:
            entries.append((n, q_n))
        if value >= target:
            break
        if value == before and n >= last:
            r = (n_top - n) / (n + 1) * ratio
            if r < 1.0 and q_n * r <= _UNIT_ROUNDOFF * value * (1.0 - r):
                break
        x = float(n)
        c = ratio / (x + 1.0)
        terms = [t * ((a - x) * c) for t, a in zip(terms, atoms)]
        n += 1
        if n % _PRUNE_EVERY == 1 and terms:
            terms, atoms = _pruned(terms, atoms, True)
        if not (terms or low <= n < high):  # on to the next row with a term or a lower row
            if start < 0:
                break
            n = min(start, low) if n < low else start
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
    atoms = ([n for n, _ in kept], [_log_factorial(n) for n, _ in kept],
             [math.log(m) + n * log_keep for n, m in kept])
    # Rows below every atom's mean by min(sqrt(1492 N eta), sqrt(373 N)) or
    # more are skipped: by the Chernoff bound P(X <= mu - t) <= exp(-t^2 / (2 mu))
    # and Hoeffding's exp(-2 t^2 / N) each of their terms is below e^-746,
    # where exp returns 0, so none is emitted.
    low = min((n * eta - min(math.sqrt(1492.0 * n * eta), math.sqrt(373.0 * n)) for n in atoms[0]),
              default=0.0)
    rows = range(max(0, math.floor(low)), min(n_max, p.max_index) + 1)
    shifts = (n * log_ratio - g for n, g in zip(rows, _log_factorials(rows.start, rows.stop)))
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
