"""Shared generators for randomized distribution tests, and an in-process
runner for CLI commands."""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock

import numpy as np

import photonthin.cli
from photonthin import Pmf, make_pmf


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
