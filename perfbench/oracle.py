"""Reference results and output checks of the photonthin benchmark.

References are computed before the timed region starts. The faint-regime
reference is exact arithmetic in mpmath on the input table as given: the
residuals and the multi-photon risk are sums over atoms of closed-form
brackets, so they do not depend on the cancellation a double-precision
implementation has to avoid. The reference uses the table's own total
mass, not 1; for a truncated family the two differ by the tail defect,
whose effect on these quantities is below 1e-11 relative.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath

from photonthin import (
    build_report,
    eta_for_target_lambda,
    make_pmf,
    moments,
    poisson_family,
    simulate_thinned,
    thinned_reference,
    McConfig,
)
from photonthin.cli import heavy_two_point_input, table1_inputs, wide_input

from cases import CLI_MC_TRIALS, CliCommand

RISK_REL_TOL = 1e-6
RESIDUAL_TOL = 1e-6  # times max(d, 1)
ROUTE_GAP_TOL = 1e-10
MASS_TOL = 1e-10
MC_SIGMAS = 6.0

_DPS = 60


@dataclass(frozen=True)
class FaintReference:
    risk: float
    residuals: tuple[float, float, float]
    d: float


def faint_reference(p, eta: float) -> FaintReference:
    """Exact risk P(n>1 | n>0) and cubic residuals (d0, d1, d2) of thinning p."""
    with mpmath.workdps(_DPS):
        e = mpmath.mpf(eta)
        keep = 1 - e
        s1 = s2 = r0 = r1 = r2 = m1 = m3 = mpmath.mpf(0)
        for n, mass in p.entries:
            if n == 0:
                continue
            m = mpmath.mpf(mass)
            pair = n * (n - 1) * e * e / 2
            a0 = keep**n
            a1 = n * e * keep ** (n - 1)
            a2 = pair * keep ** (n - 2) if n >= 2 else mpmath.mpf(0)
            s1 += m * (1 - a0)
            s2 += m * (1 - a0 - a1)
            r0 += m * (1 - n * e + pair - a0)
            r1 += m * (a1 - n * e + 2 * pair)
            r2 += m * (pair - a2)
            m1 += m * n
            m3 += m * n * (n - 1) * (n - 2)
        lam3 = (e * m1) ** 3
        return FaintReference(
            risk=float(s2 / s1),
            residuals=(float(r0 / lam3), float(r1 / lam3), float(r2 / lam3)),
            d=float(m3 / m1**3),
        )


def check_faint(risk: float, residuals, ref: FaintReference) -> list[str]:
    """Reasons the report fails its reference; empty when it passes."""
    problems = []
    rel = abs(risk - ref.risk) / abs(ref.risk)
    if not rel <= RISK_REL_TOL:
        problems.append(f"risk_exact rel err {rel:.3g}")
    tol = RESIDUAL_TOL * max(ref.d, 1.0)
    for i, (got, want) in enumerate(zip(residuals, ref.residuals)):
        err = abs(got - want)
        if not err <= tol:
            problems.append(f"d{i} = {got:.6g} vs {want:.6g}")
    return problems


def risk_rel_err(risk: float, ref: FaintReference) -> float:
    return abs(risk - ref.risk) / abs(ref.risk)


def check_bright(route_gap: float, direct_total: float, gf_total: float) -> list[str]:
    problems = []
    if not route_gap <= ROUTE_GAP_TOL:
        problems.append(f"route gap {route_gap:.3g}")
    for label, total in (("direct", direct_total), ("gf", gf_total)):
        if not abs(total - 1.0) <= MASS_TOL:
            problems.append(f"{label} mass+defect - 1 = {total - 1.0:.3g}")
    return problems


@dataclass(frozen=True)
class McReference:
    lam: float
    std_err: float
    trials: int


def mc_reference(p, eta: float, trials: int) -> McReference:
    """Mean and standard error of the empirical mean of thinned counts."""
    ms = moments(p)
    lam = eta * ms.mean
    var = eta * eta * ms.variance + eta * (1.0 - eta) * ms.mean
    return McReference(lam=lam, std_err=math.sqrt(var / trials), trials=trials)


def check_mc(empirical_mean: float, trials: int, ref: McReference) -> list[str]:
    problems = []
    if trials != ref.trials:
        problems.append(f"trials {trials} != {ref.trials}")
    z = (empirical_mean - ref.lam) / ref.std_err
    if not abs(z) <= MC_SIGMAS:
        problems.append(f"empirical mean off by {z:.2f} standard errors")
    return problems


# --- cli_session -----------------------------------------------------------

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(paths) -> dict[str, str]:
    """Digests of the output files that exist, keyed by file name."""
    return {Path(p).name: digest(Path(p).read_bytes()) for p in paths if Path(p).exists()}


def _csv(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _json_line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def _spec_pmf(body: dict):
    if "two_point" in body:
        b = body["two_point"]
        return make_pmf([(b["a"], b["pa"]), (b["b"], b["pb"])])
    if "poisson" in body:
        return poisson_family(float(body["poisson"]["mu"]))
    return make_pmf([(int(n), float(m)) for n, m in body["table"]])


def cli_expected(cmd: CliCommand, specs: dict[str, dict], mc_seed: int) -> dict:
    """Stdout and output files the command must print, byte for byte.

    Built in-process from the library's public functions and the output
    format the README documents, then reduced to sha256 digests.
    """
    files: dict[str, bytes] = {}
    pmf = _spec_pmf(specs[cmd.spec]) if cmd.spec else None
    args = dict(zip(cmd.args[2::2], cmd.args[3::2])) if cmd.spec else {}
    if cmd.command == "moments":
        ms = moments(pmf)
        out = _json_line({"mean": ms.mean, "var": ms.variance, "m3": ms.m3, "c": ms.c, "d": ms.d})
    elif cmd.command == "report":
        eta = eta_for_target_lambda(pmf, float(args["--target-lambda"])).eta
        r = build_report(pmf, eta)
        out = _json_line({
            "lambda": r.lam, "delta": list(r.delta), "predicted": list(r.predicted),
            "bound": r.bound, "residuals": list(r.residuals), "tail3": r.tail3,
            "risk_exact": r.risk_exact, "risk_approx": r.risk_approx,
        })
    elif cmd.command == "thin":
        eta = eta_for_target_lambda(pmf, float(args["--target-lambda"])).eta
        q, ref, lam = thinned_reference(pmf, eta)
        rows = [[n, q.mass(n), ref.mass(n), q.mass(n) - ref.mass(n)] for n in range(11)]
        files[cmd.outputs[0]] = _csv(["n", "p_eta", "p_poisson", "delta"], rows)
        out = _json_line({"lambda": lam, "eta": eta})
    elif cmd.command == "mc":
        eta = eta_for_target_lambda(pmf, float(args["--target-lambda"])).eta
        res = simulate_thinned(pmf, eta, McConfig(seed=mc_seed, trials=CLI_MC_TRIALS))
        out = _json_line({
            "trials": res.trials, "seed": res.seed, "tv_to_analytic": res.tv_to_analytic,
            "empirical_mean": res.empirical.mean, "analytic_mean": eta * pmf.mean,
        })
    elif cmd.command == "table1":
        rows = []
        for p in table1_inputs():
            r = build_report(p, eta_for_target_lambda(p, 0.1), n_report=4)
            rows.append([r.predicted[0], *r.delta[:5]])
        files[cmd.outputs[0]] = _csv(["lambda2C", "delta0", "delta1", "delta2", "delta3", "delta4"], rows)
        out = b""
    elif cmd.command == "figures":
        wide = wide_input()
        heavy = heavy_two_point_input()
        jobs = [(wide, 0.1), (wide, 0.001), (wide, 0.0002), (heavy, eta_for_target_lambda(heavy, 0.1).eta)]
        summary = {}
        for i, (p, eta) in enumerate(jobs, start=1):
            q, ref, lam = thinned_reference(p, eta)
            top = max(q.max_index, ref.max_index)
            rows = [[n, q.mass(n), ref.mass(n)] for n in range(top + 1)]
            files[cmd.outputs[i - 1]] = _csv(["n", "p_eta", "p_poisson"], rows)
            summary[f"fig{i}"] = {"eta": eta, "lambda": lam}
        out = _json_line(summary)
    else:
        raise ValueError(f"unknown command {cmd.command!r}")
    return {"stdout": digest(out), "files": {Path(k).name: digest(v) for k, v in files.items()}}


def check_cli(returncode: int, stdout_digest: str, file_digests: dict, expected: dict) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if stdout_digest != expected["stdout"]:
        problems.append("stdout differs")
    for name, want in expected["files"].items():
        got = file_digests.get(name)
        if got is None:
            problems.append(f"missing {name}")
        elif got != want:
            problems.append(f"{name} differs")
    return problems


def self_test() -> None:
    """The checkers must pass true outputs and count perturbed ones as failures.

    Raises RuntimeError when a checker accepts a deliberately wrong output
    or rejects a right one, since no result of the run could be trusted.
    """
    p = make_pmf([(1, 0.95), (1001, 0.05)])
    eta = eta_for_target_lambda(p, 1e-2).eta
    ref = faint_reference(p, eta)
    verdicts = {
        "exact faint report": check_faint(ref.risk, ref.residuals, ref),
        "risk_exact perturbed by 1e-5": check_faint(ref.risk * (1 + 1e-5), ref.residuals, ref),
    }
    ms = moments(p)
    line = _json_line({"mean": ms.mean, "var": ms.variance, "m3": ms.m3, "c": ms.c, "d": ms.d})
    wrong = bytearray(line)
    wrong[len(wrong) // 2] ^= 0x01
    expected = {"stdout": digest(line), "files": {}}
    verdicts["exact CLI stdout"] = check_cli(0, digest(line), {}, expected)
    verdicts["CLI stdout with one wrong byte"] = check_cli(0, digest(bytes(wrong)), {}, expected)
    should_fail = {"risk_exact perturbed by 1e-5", "CLI stdout with one wrong byte"}
    for name, problems in verdicts.items():
        if bool(problems) != (name in should_fail):
            raise RuntimeError(f"checker self-test failed on {name}: {problems}")
