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

Exit codes: 0 success, 2 validation or usage error, 1 internal error or
broken pipe. A spec that is unreadable or malformed in any shape, a
library error, an option out of range (checked by the library's rules)
and an output path that cannot be written all exit 2 with one ``error:``
line on stderr; a usage error (an unknown or abbreviated option, or a
value that is not a number) prints argparse's usage line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import types
from pathlib import Path

# The kernels are called as photonthin.<name>: the package loads their
# module on first use (and numpy for the Monte Carlo oracle), so a
# command loads only what it runs.
import photonthin

from .errors import InvalidParameterError, PhotonThinError
from .pmf import (
    _MAX_KERNEL_N, DEFAULT_N_REPORT, DEFAULT_TAIL_EPS, Pmf, _as_int_in, _as_tail_eps, make_pmf,
    moments, poisson_family,
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
        raise ValueError("spec must contain exactly one of 'table', 'poisson', 'two_point'")
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


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _pmf(args: argparse.Namespace) -> Pmf:
    """The distribution of SPEC and --tail-eps. A spec that does not parse,
    whatever its shape, is an InvalidParameterError, like any other."""
    try:
        return load_source_spec(args.spec, args.tail_eps)
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidParameterError(str(exc)) from exc


def _pmf_and_eta(args: argparse.Namespace) -> tuple[Pmf, float]:
    """:func:`_pmf` plus the eta of --eta or --target-lambda, exactly one
    of which is given."""
    pmf = _pmf(args)
    if (args.eta is None) == (args.target_lambda is None):
        raise InvalidParameterError("exactly one of --eta / --target-lambda is required")
    if args.eta is None:
        return pmf, photonthin.eta_for_target_lambda(pmf, args.target_lambda).eta
    return pmf, args.eta


def _cmd_moments(args: argparse.Namespace) -> None:
    """Print mean, variance, third factorial moment, c and d as JSON."""
    ms = moments(_pmf(args))
    print(json.dumps({"mean": ms.mean, "var": ms.variance, "m3": ms.m3, "c": ms.c, "d": ms.d}))


def _cmd_thin(args: argparse.Namespace) -> None:
    """Write the thinned vs reference-Poisson table as CSV.

    Columns: n, p_eta, p_poisson, delta for n = 0..n-report. Prints the
    resolved lambda and eta as JSON on stdout.
    """
    n_report = _as_int_in("--n-report", args.n_report, 0, _MAX_KERNEL_N)
    pmf, eta = _pmf_and_eta(args)
    q, ref, lam = photonthin.thinned_reference(pmf, eta)
    rows = [[n, q.mass(n), ref.mass(n), q.mass(n) - ref.mass(n)] for n in range(n_report + 1)]
    _write_csv(args.out, ["n", "p_eta", "p_poisson", "delta"], rows)
    print(json.dumps({"lambda": lam, "eta": eta}))


def _cmd_report(args: argparse.Namespace) -> None:
    """Print the full approximation report as JSON."""
    n_report = _as_int_in("--n-report", args.n_report, 0, _MAX_KERNEL_N)
    pmf, eta = _pmf_and_eta(args)
    report = photonthin.build_report(pmf, eta, n_report)
    print(json.dumps({
        "lambda": report.lam, "delta": list(report.delta), "predicted": list(report.predicted),
        "bound": report.bound, "residuals": list(report.residuals), "tail3": report.tail3,
        "risk_exact": report.risk_exact, "risk_approx": report.risk_approx,
    }))


def _cmd_mc(args: argparse.Namespace) -> None:
    """Simulate pulses through the attenuator and print diagnostics.

    The input's tail defect must be at most 1e-09: a poisson spec needs
    a tail_eps of 1e-09 or less. Needs numpy, which the mc extra
    installs: pip install 'photonthin[mc]'.
    """
    # The oracle does no BLAS work, so the OpenBLAS thread pool that
    # importing numpy starts (on the photonthin.McConfig lookup below)
    # would only cost start-up time. A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        mc_config = photonthin.McConfig
    except ModuleNotFoundError:
        raise PhotonThinError("mc needs numpy: pip install 'photonthin[mc]'") from None
    pmf, eta = _pmf_and_eta(args)
    config = mc_config(seed=args.seed, trials=args.trials)
    result = photonthin.simulate_thinned(pmf, eta, config)
    print(json.dumps({
        "trials": result.trials, "seed": result.seed, "tv_to_analytic": result.tv_to_analytic,
        "empirical_mean": result.empirical.mean, "analytic_mean": eta * pmf.mean,
    }))


def _cmd_table1(args: argparse.Namespace) -> None:
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
    _write_csv(args.out, ["lambda2C", "delta0", "delta1", "delta2", "delta3", "delta4"], rows)


_FIGURE_ETAS = {"fig1": 0.1, "fig2": 0.001, "fig3": 0.0002}


def _cmd_figures(args: argparse.Namespace) -> None:
    """Write four thinned-vs-Poisson datasets as fig1.csv .. fig4.csv.

    fig1-fig3 attenuate the built-in wide bimodal input (mean 488.5, a
    documented stand-in shape; only the mean matters) by eta = 0.1,
    0.001 and 0.0002. fig4 attenuates the built-in overdispersed
    two-point input down to a mean of 0.1, the regime where the Poisson
    approximation visibly fails. Prints eta and lambda per file as JSON.
    """
    directory = Path(args.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    wide = wide_input()
    jobs = [(name, wide, eta) for name, eta in _FIGURE_ETAS.items()]
    heavy = heavy_two_point_input()
    jobs.append(("fig4", heavy, photonthin.eta_for_target_lambda(heavy, 0.1).eta))

    summary = {}
    for name, pmf, eta in jobs:
        q, ref, lam = photonthin.thinned_reference(pmf, eta)
        top = max(q.max_index, ref.max_index)
        rows = [[n, q.mass(n), ref.mass(n)] for n in range(top + 1)]
        _write_csv(directory / f"{name}.csv", ["n", "p_eta", "p_poisson"], rows)
        summary[name] = {"eta": eta, "lambda": lam}
    print(json.dumps(summary))


# Each command's arguments, as (flag, add_argument keywords) pairs.
_HELP = ("--help", {"action": "help", "help": "Show this message and exit."})
_SPEC = (
    ("spec", {"metavar": "SPEC", "help": "JSON spec file."}),
    ("--tail-eps", {"type": float, "metavar": "FLOAT", "help": "Tail mass allowed when "
                    f"truncating families (default {DEFAULT_TAIL_EPS})."}),
)
_ETA = (
    ("--eta", {"type": float, "metavar": "FLOAT", "help": "Survival probability in [0, 1]."}),
    ("--target-lambda", {"type": float, "metavar": "FLOAT",
                         "help": "Desired post-attenuation mean."}),
)
_N_REPORT = ("--n-report", {
    "type": int, "default": DEFAULT_N_REPORT, "metavar": "INTEGER",
    "help": f"Largest outcome included in per-outcome series (default %(default)s; "
    f"0<=x<={_MAX_KERNEL_N}).",
})
_OUT_CSV = ("--out", {"required": True, "metavar": "PATH", "help": "Output CSV path (required)."})
_COMMANDS = (
    (_cmd_moments, _SPEC),
    (_cmd_thin, (*_SPEC, *_ETA, _N_REPORT, _OUT_CSV)),
    (_cmd_report, (*_SPEC, *_ETA, _N_REPORT)),
    (_cmd_mc, (*_SPEC, *_ETA,
               ("--seed", {"type": int, "default": 42, "metavar": "INTEGER",
                           "help": "Random seed (default %(default)s; 0<=x<=2**64-1)."}),
               ("--trials", {"type": int, "default": 1_000_000, "metavar": "INTEGER",
                             "help": "Pulses to simulate (default %(default)s; x>=1)."}))),
    (_cmd_table1, (_OUT_CSV,)),
    (_cmd_figures, (("--out-dir", {"required": True, "metavar": "DIRECTORY",
                                   "help": "Output directory (required)."}),)),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonthin", add_help=False, allow_abbrev=False,
        description="Photon-count statistics under optical attenuation. Computes exact "
        "thinned distributions, certifies how well a Poisson distribution approximates "
        "them, and estimates multi-photon risk for faint pulsed sources.",
    )
    parser.add_argument(_HELP[0], **_HELP[1])
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for run, arguments in _COMMANDS:
        sub = commands.add_parser(
            run.__name__.removeprefix("_cmd_"), help=run.__doc__.partition("\n")[0],
            description=run.__doc__, add_help=False, allow_abbrev=False,
            usage="%(prog)s [OPTIONS]" + " SPEC" * (_SPEC[0] in arguments),
        )
        sub.set_defaults(run=run)
        for flag, keywords in (_HELP, *arguments):
            sub.add_argument(flag, **keywords)
    return parser


def main(args: list[str] | None = None, **_click_keywords) -> None:
    """Run one command. The one error boundary: a library error or a file
    that cannot be read or written ends it with one ``error:`` line on
    stderr and exit 2; a broken pipe exits 1 without a message."""
    parsed = _parser().parse_args(args)
    try:
        parsed.run(parsed)
        sys.stdout.flush()
    except BrokenPipeError:
        # Nothing more can reach the reader; with stdout gone, the flush
        # at exit does not fail again.
        sys.stdout = None
        sys.exit(1)
    except (PhotonThinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


# perfbench's in-process client calls cli.main(args, prog_name=...,
# standalone_mode=False), the signature of the click group this module
# used to have. `main` accepts and ignores those keywords for that caller
# until the benchmark is next changed (ROADMAP item 5).
cli = types.SimpleNamespace(main=main)


if __name__ == "__main__":
    main()
