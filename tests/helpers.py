"""Shared generators for randomized distribution tests, a row-wise copy of
the generating-function route, and an in-process runner for CLI commands."""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock

import numpy as np

import photonthin.cli
from photonthin import Pmf, make_pmf


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
