"""Shared generators for randomized distribution tests, row-wise copies of
the two thinning routes, and an in-process runner for CLI commands."""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add
from unittest import mock

import numpy as np

import photonthin.cli
from photonthin import Pmf, make_pmf
from photonthin.thinning import (
    _PRUNE, _PRUNE_EVERY, _TINY, _TRUNCATION_SLACK, _UNIT_ROUNDOFF, _mode_share,
)


# ex3 (0.95 at 1 photon, 0.05 at 1001) thinned to mean 0.1, and its row 0.
EX3_ETA = 0.1 / 51.0


def ex3_q0_closed_form(eta: float) -> float:
    return 0.95 * (1.0 - eta) + 0.05 * (1.0 - eta) ** 1001


def random_sparse_pmf(
    rng: np.random.Generator,
    max_index: int = 2000,
    max_atoms: int = 40,
    min_atoms: int = 2,
    min_index: int = 0,
) -> Pmf:
    """Sparse table with Dirichlet-random masses on distinct indices."""
    n_atoms = int(rng.integers(min_atoms, max_atoms + 1))
    span = max_index - min_index + 1
    n_atoms = min(n_atoms, span)
    idx = rng.choice(np.arange(min_index, max_index + 1), size=n_atoms, replace=False)
    idx.sort()
    weights = rng.dirichlet(np.ones(n_atoms))
    return make_pmf([(int(i), float(w)) for i, w in zip(idx, weights)])


def gf_rows_rowwise(p: Pmf, eta: float, n_max: int) -> list[tuple[int, float]]:
    """The GF route's emitted rows formed one row at a time, over every atom
    N >= n: sum of exp(((log N! - lgamma(N - n + 1)) + log p(N) + N log(1-eta))
    + n log(eta/(1-eta)) - log n!), in ascending N, with one lgamma per term.
    The same operations as ``thin_via_gf``, in the same order, without its
    columns or blocks, so the two agree bit for bit."""
    atoms = [(big_n, math.lgamma(big_n + 1), math.log(m) + big_n * math.log1p(-eta))
             for big_n, m in p.entries if m > 0.0]
    log_ratio = math.log(eta / (1.0 - eta))
    rows = []
    for n in range(min(n_max, p.max_index) + 1):
        shift = n * log_ratio - math.lgamma(n + 1)
        q_n = sum(math.exp(((lf - math.lgamma(big_n - n + 1)) + c) + shift)
                  for big_n, lf, c in atoms if big_n >= n)
        if q_n > 0.0:
            rows.append((n, q_n))
    return rows


def _sweep_rowwise(starts, ratio, step):
    """fsum of each row's terms, one generator step a row, from the first
    start's row, upward (step 1) or downward (step -1): the sweep that
    ``thin_direct`` walked both ways before it folded the upward one into
    its truncation loop."""
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


def direct_rows_rowwise(p: Pmf, eta: float) -> tuple[list[tuple[int, float]], float]:
    """``thin_direct``'s emitted rows and tail defect for 0 < eta < 1, formed
    by one generator for the rows below the mode starts and one for the
    rows upward, with a zero start at the lowest row, the two added row by
    row and run through the same truncation loop: the same operations as
    ``thin_direct``, in the same order, so the two agree bit for bit."""
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
    lower = list(_sweep_rowwise(down, (1.0 - eta) / eta, -1.0))[::-1] if down else []
    low = down[0][0] + 1 - len(lower) if down else 0
    up.append((low, 0.0, 0.0))
    up.sort()
    rows = _sweep_rowwise(up, ratio, 1.0)
    if lower:
        rows = map(add, rows, chain(repeat(0.0, low - up[0][0]), lower, repeat(0.0)))
    target = p.total_mass - _TRUNCATION_SLACK
    last, n_top = up[-1][0], float(p.max_index)
    entries = []
    value = total = carry = 0.0
    for n, q_n in enumerate(rows, start=up[0][0]):
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
    cut = max(0.0, p.total_mass - math.fsum(m for _, m in entries))
    return entries, p.tail_defect + cut


def check_kernel_table(q: Pmf) -> None:
    """A kernel's output, built by ``Pmf._from_kernel``, against the public
    constructor, which checks every entry: it equals its public rebuild, its
    entries are (int, float) tuples in a tuple, and each cache filled at
    construction equals the rebuild's, computed when read."""
    public = Pmf(q.entries, q.tail_defect)
    assert public == q
    assert type(q.entries) is tuple and type(q.tail_defect) is float
    assert all(type(e) is tuple and type(e[0]) is int and type(e[1]) is float for e in q.entries)
    filled = {name: q.__dict__[name] for name in ("support", "masses", "total_mass", "_lookup")}
    assert filled == {name: getattr(public, name) for name in filled}


@dataclass(frozen=True)
class CliResult:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """Run ``photonthin.cli.main(args)`` in this process and capture what it prints.

    A command may set environment variables (``mc`` pins
    OPENBLAS_NUM_THREADS); they are undone afterwards, so no test sees
    another's.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        try:
            photonthin.cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue(), err.getvalue())
