"""Command-line front end.

Reads a distribution from a JSON spec file, runs thinning, approximation
or Monte Carlo analyses, and emits machine-readable results: JSON objects
on stdout for scalar reports, CSV files for per-outcome series.

Spec file format, exactly one variant per file::

    {"table": [[n, p], ...]}
    {"poisson": {"mu": M}}
    {"two_point": {"a": A, "pa": PA, "b": B, "pb": PB}}

plus an optional top-level "tail_eps" for truncated families, checked
for every variant. The rules for indices and numbers are those of
``pmf.make_pmf`` and ``pmf.poisson_family``, which get the values as
parsed: indices are JSON integers >= 0 or integral floats up to 2**53,
every other value is a JSON number, and bools and strings are rejected.

Exit codes: 0 success, 2 validation or usage error, 1 internal error.
A spec that is unreadable or malformed in any shape, a library error, a
negative --n-report and an output path that cannot be written all exit 2;
all but the usage errors print one ``error:`` line on stderr.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from pathlib import Path

import click

# The kernels are called as photonthin.<name>: the package loads their
# module on first use (and numpy for the Monte Carlo oracle), so a
# command loads only what it runs.
import photonthin

from .errors import InvalidParameterError, PhotonThinError
from .pmf import (
    _MAX_KERNEL_N, DEFAULT_N_REPORT, DEFAULT_TAIL_EPS, Pmf, _as_tail_eps, make_pmf, moments,
    poisson_family,
)

_TABLE1_LAMBDA = 0.1
_TABLE1_C_TARGETS = (0.45, 0.30, 0.18, 0.11, 0.05, -0.016)


def load_source_spec(path: str | Path, tail_eps: float | None = None) -> Pmf:
    """Parse a JSON spec file into a validated distribution.

    ``tail_eps`` overrides the file's own setting when given.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("spec file must contain a JSON object")
    variants = [k for k in ("table", "poisson", "two_point") if k in data]
    if len(variants) != 1:
        raise ValueError(
            "spec must contain exactly one of 'table', 'poisson', 'two_point'"
        )
    if tail_eps is None:
        tail_eps = data.get("tail_eps", DEFAULT_TAIL_EPS)
    # Checked for every variant, though only the poisson one reads it.
    tail_eps = _as_tail_eps(tail_eps)

    variant = variants[0]
    body = data[variant]
    if variant == "table":
        if not isinstance(body, list):
            raise ValueError("'table' must be a list of [n, p] pairs")
        return make_pmf(body)
    if variant == "poisson":
        return poisson_family(body["mu"], tail_eps)
    return make_pmf([(body["a"], body["pa"]), (body["b"], body["pb"])])


def table1_inputs() -> list[Pmf]:
    """Built-in ladder of inputs whose lambda^2 * c values, at an
    attenuated mean of 0.1, step through
    0.0045, 0.0030, 0.0018, 0.0011, 0.0005 and -0.00016.

    Positive rows are two-point tables on {0, 5} with the weight solved
    in closed form; the negative row is a near-deterministic table on
    {31, 32}, also solved in closed form.
    """
    inputs: list[Pmf] = []
    for c_target in _TABLE1_C_TARGETS[:-1]:
        b = 5
        w = (b - 1) / (b * (2.0 * c_target + 1.0))
        inputs.append(make_pmf([(0, 1.0 - w), (b, w)]))
    # {31: 1 - w, 32: w} has c = -(w^2 + 31) / (2 (31 + w)^2), so c = c_target
    # is (1 + 2c) w^2 + 124 c w + 1922 c + 31 = 0. For c < 0 the root in
    # (0, 1) is the smaller one, taken in the form -2k / (b - sqrt(disc))
    # that does not cancel.
    c = _TABLE1_C_TARGETS[-1]
    a, b, k = 1.0 + 2.0 * c, 124.0 * c, 1922.0 * c + 31.0
    w = -2.0 * k / (b - math.sqrt(b * b - 4.0 * a * k))
    inputs.append(make_pmf([(31, 1.0 - w), (32, w)]))
    return inputs


def wide_input() -> Pmf:
    """Built-in wide bimodal input with mean 488.5 (within 1e-9).

    An equal mixture of Binomial(600, 0.55) and Binomial(1000, 0.647),
    each built as the thinning of a point mass. Only its mean matters for
    the emitted datasets; the silhouette is a documented stand-in for an
    unspecified broad lab source.
    """
    low = photonthin.thin_direct(make_pmf([(600, 1.0)]), 0.55)
    high = photonthin.thin_direct(make_pmf([(1000, 1.0)]), 0.647)
    top = max(low.max_index, high.max_index)
    masses = [0.5 * low.mass(k) + 0.5 * high.mass(k) for k in range(top + 1)]
    return make_pmf([(k, m) for k, m in enumerate(masses) if m > 0.0])


def heavy_two_point_input() -> Pmf:
    """Built-in overdispersed table: mass 0.95 at 1 and 0.05 at 1001."""
    return make_pmf([(1, 0.95), (1001, 0.05)])


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _pmf_input(command):
    """Add SPEC and --tail-eps to ``command`` and pass it the loaded Pmf.

    A spec that does not parse, whatever its shape, is an
    InvalidParameterError, so the group reports it like any other.
    """

    @click.argument("spec_path", metavar="SPEC", type=click.Path())
    @click.option(
        "--tail-eps",
        type=float,
        default=None,
        help=f"Tail mass allowed when truncating families (default {DEFAULT_TAIL_EPS}).",
    )
    @functools.wraps(command)
    def load(spec_path: str, tail_eps: float | None, **kwargs):
        try:
            pmf = load_source_spec(spec_path, tail_eps)
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidParameterError(str(exc)) from exc
        return command(pmf, **kwargs)

    return load


def _eta_input(command):
    """:func:`_pmf_input` plus --eta and --target-lambda, exactly one of
    which is given; pass ``command`` the Pmf and the resolved eta."""

    @_pmf_input
    @click.option("--eta", type=float, default=None, help="Survival probability in [0, 1].")
    @click.option(
        "--target-lambda", type=float, default=None, help="Desired post-attenuation mean."
    )
    @functools.wraps(command)
    def resolve(pmf: Pmf, eta: float | None, target_lambda: float | None, **kwargs):
        if (eta is None) == (target_lambda is None):
            raise InvalidParameterError("exactly one of --eta / --target-lambda is required")
        if eta is None:
            eta = photonthin.eta_for_target_lambda(pmf, target_lambda).eta
        return command(pmf, eta, **kwargs)

    return resolve


_n_report_option = click.option(
    "--n-report", type=click.IntRange(0, _MAX_KERNEL_N), default=DEFAULT_N_REPORT,
    show_default=True,
    help="Largest outcome included in per-outcome series.",
)


class _Cli(click.Group):
    """The one error boundary: a library error or a file that cannot be
    read or written ends the command with one ``error:`` line on stderr
    and exit 2. A broken pipe stays with click."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (PhotonThinError, OSError) as exc:
            _fail(str(exc))


@click.group(cls=_Cli)
def cli() -> None:
    """Photon-count statistics under optical attenuation.

    Computes exact thinned distributions, certifies how well a Poisson
    distribution approximates them, and estimates multi-photon risk for
    faint pulsed sources.
    """


@cli.command("moments")
@_pmf_input
def cmd_moments(pmf: Pmf) -> None:
    """Print mean, variance, third factorial moment, c and d as JSON."""
    ms = moments(pmf)
    click.echo(
        json.dumps(
            {"mean": ms.mean, "var": ms.variance, "m3": ms.m3, "c": ms.c, "d": ms.d}
        )
    )


@cli.command("thin")
@_eta_input
@_n_report_option
@click.option("--out", required=True, type=click.Path(), help="Output CSV path.")
def cmd_thin(pmf: Pmf, eta: float, n_report: int, out: str) -> None:
    """Write the thinned vs reference-Poisson table as CSV.

    Columns: n, p_eta, p_poisson, delta for n = 0..n-report. Prints the
    resolved lambda and eta as JSON on stdout.
    """
    q, ref, lam = photonthin.thinned_reference(pmf, eta)
    rows = [
        [n, q.mass(n), ref.mass(n), q.mass(n) - ref.mass(n)]
        for n in range(n_report + 1)
    ]
    _write_csv(out, ["n", "p_eta", "p_poisson", "delta"], rows)
    click.echo(json.dumps({"lambda": lam, "eta": eta}))


@cli.command("report")
@_eta_input
@_n_report_option
def cmd_report(pmf: Pmf, eta: float, n_report: int) -> None:
    """Print the full approximation report as JSON."""
    report = photonthin.build_report(pmf, eta, n_report)
    click.echo(
        json.dumps(
            {
                "lambda": report.lam,
                "delta": list(report.delta),
                "predicted": list(report.predicted),
                "bound": report.bound,
                "residuals": list(report.residuals),
                "tail3": report.tail3,
                "risk_exact": report.risk_exact,
                "risk_approx": report.risk_approx,
            }
        )
    )


@cli.command("mc")
@_eta_input
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=42, show_default=True)
@click.option("--trials", type=click.IntRange(1), default=1_000_000, show_default=True)
def cmd_mc(pmf: Pmf, eta: float, seed: int, trials: int) -> None:
    """Simulate pulses through the attenuator and print diagnostics.

    The input's tail defect must be at most 1e-09: a poisson spec needs
    a tail_eps of 1e-09 or less.
    """
    result = photonthin.simulate_thinned(pmf, eta, photonthin.McConfig(seed=seed, trials=trials))
    click.echo(
        json.dumps(
            {
                "trials": result.trials,
                "seed": result.seed,
                "tv_to_analytic": result.tv_to_analytic,
                "empirical_mean": result.empirical.mean,
                "analytic_mean": eta * pmf.mean,
            }
        )
    )


@cli.command("table1")
@click.option("--out", required=True, type=click.Path(), help="Output CSV path.")
def cmd_table1(out: str) -> None:
    """Write the built-in error-ladder validation table as CSV.

    Six inputs whose lambda^2 * c values step from 0.0045 down to
    -0.00016 at an attenuated mean of 0.1; columns are lambda2C and the
    observed deviations delta0..delta4.
    """
    rows = []
    for pmf in table1_inputs():
        eta = photonthin.eta_for_target_lambda(pmf, _TABLE1_LAMBDA)
        report = photonthin.build_report(pmf, eta, n_report=4)
        l2c = report.predicted[0]
        rows.append([l2c, *report.delta[:5]])
    _write_csv(
        out, ["lambda2C", "delta0", "delta1", "delta2", "delta3", "delta4"], rows
    )


_FIGURE_ETAS = {"fig1": 0.1, "fig2": 0.001, "fig3": 0.0002}


@cli.command("figures")
@click.option(
    "--out-dir", required=True, type=click.Path(file_okay=False), help="Output directory."
)
def cmd_figures(out_dir: str) -> None:
    """Write four thinned-vs-Poisson datasets as fig1.csv .. fig4.csv.

    fig1-fig3 attenuate the built-in wide bimodal input (mean 488.5, a
    documented stand-in shape; only the mean matters) by eta = 0.1,
    0.001 and 0.0002. fig4 attenuates the built-in overdispersed
    two-point input down to a mean of 0.1, the regime where the Poisson
    approximation visibly fails. Prints eta and lambda per file as JSON.
    """
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    wide = wide_input()
    jobs: list[tuple[str, Pmf, float]] = [
        (name, wide, eta) for name, eta in _FIGURE_ETAS.items()
    ]
    heavy = heavy_two_point_input()
    jobs.append(("fig4", heavy, photonthin.eta_for_target_lambda(heavy, 0.1).eta))

    summary = {}
    for name, pmf, eta in jobs:
        q, ref, lam = photonthin.thinned_reference(pmf, eta)
        top = max(q.max_index, ref.max_index)
        rows = [[n, q.mass(n), ref.mass(n)] for n in range(top + 1)]
        _write_csv(directory / f"{name}.csv", ["n", "p_eta", "p_poisson"], rows)
        summary[name] = {"eta": eta, "lambda": lam}
    click.echo(json.dumps(summary))


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
