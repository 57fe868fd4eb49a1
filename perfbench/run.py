"""Benchmark of photonthin: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload faint_report --seed 1 --seconds 20 --trace 0

Workloads: cli_session, faint_report, bright_thin, mc_oracle (see README.md
in this directory for why each exists). With ``--trace 0`` the run reports
the end-to-end metrics of the workload; with ``--trace 1`` it reports the
per-layer metrics from a separate, span-recorded run of fixed size. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run,
with the machine description and the failing cases, is written under
``.perfbench_out/results/``.

Load is one closed-loop client in one process: the next call starts when
the previous one has returned. The program only sees inputs built from
``--seed``; every output a run times is checked (see oracle.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_CLI_SESSIONS = 2
IMPORT_PROBES = 3
INTERP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
CLI_TIMEOUT_S = 60.0
TIER1_TIMEOUT_S = 100.0

END_TO_END = {
    "setup_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("moments", "report", "thin", "mc", "table1", "figures")
LAYER_SELF = (
    "cli.load_source_spec", "thinning.thin_direct", "thinning.thin_via_gf",
    "approximation.build_report", "approximation.thinned_reference",
    "pmf.make_pmf", "pmf.poisson_family", "pmf.moments", "pmf.tv_distance",
    "montecarlo.simulate_thinned",
)


def per_layer_units(error_types) -> dict[str, str]:
    units = {
        "cli.interp_s": "s", "cli.import_s": "s",
        "import.scipy_s": "s", "import.numpy_s": "s", "import.click_s": "s",
    }
    units.update({f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS})
    units["cli.command.self_s"] = "s"
    units.update({f"{name}.self_s": "s" for name in LAYER_SELF})
    units.update({
        "thinning.thin_direct.calls": "count",
        "thinning.thin_direct.rows_out": "count",
        "thinning.thin_direct.useful_rows_frac": "frac",
        "thinning.route_gap": "prob",
        "approximation.risk_exact.max_rel_err": "rel",
        "approximation.faint_probe.risk_max_rel_err": "rel",
        "approximation.faint_probe.failed": "count",
        "pmf.make_pmf.atoms": "count",
        "pmf.poisson_family.terms": "count",
        "montecarlo.simulate_thinned.trials": "count",
        "montecarlo.ns_per_trial": "ns",
        "montecarlo.speedup_2w": "ratio",
        "montecarlo.bit_identical_2w": "bool",
        "trace.overhead_frac": "frac",
    })
    units.update({f"errors.raised.{t}": "count" for t in error_types})
    return units


# --- child processes -----------------------------------------------------------

@dataclass
class ChildRun:
    code: int
    started: float
    wall: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str], scratch: Path, timeout: float) -> ChildRun:
    """Run one child to completion; its peak RSS comes from wait4."""
    out_path, err_path = scratch / "child.stdout", scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, started, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_bytes(), err_path.read_bytes())


def run_worker(mode: str, workload: str, seed: int, scratch: Path, seconds: float = 0.0):
    """Start perfbench/worker.py; returns (ChildRun, its JSON result)."""
    directory = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=scratch))
    out_file = directory / "result.json"
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(out_file)]
    if mode == "run":
        argv.append(repr(seconds))
    run = run_child(argv, directory, CHILD_TIMEOUT_S)
    if run.code != 0:
        raise RuntimeError(
            f"worker {mode} {workload} exited with {run.code}:\n{run.stderr.decode(errors='replace')}"
        )
    return run, json.loads(out_file.read_text(encoding="utf-8"))


def cli_argv(args) -> list[str]:
    """The `photonthin` console script, spelled without needing it installed."""
    return [sys.executable, "-c", "from photonthin.cli import main; main()", *args]


# --- machine record --------------------------------------------------------------

def parse_importtime(text: str) -> list[tuple[int, int, int, str]]:
    """(self_us, cumulative_us, depth, module) rows of `python -X importtime`."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((int(self_us), int(cum_us), depth, name.strip()))
    return rows


def import_self_seconds(rows, package: str) -> float:
    """Time spent executing the modules of `package`, children excluded."""
    return sum(r[0] for r in rows if r[3].split(".")[0] == package) / 1e6


def import_total_seconds(rows, package: str) -> float:
    """Cumulative time of the top-level imports of `package`."""
    return sum(r[1] for r in rows if r[2] == 0 and r[3].split(".")[0] == package) / 1e6


def measure_importtime(scratch: Path):
    run = run_child([sys.executable, "-X", "importtime", "-c", "import photonthin.cli"],
                    scratch, CLI_TIMEOUT_S)
    if run.code != 0:
        raise RuntimeError(f"importing photonthin.cli failed:\n{run.stderr.decode(errors='replace')}")
    return parse_importtime(run.stderr.decode())


def machine_record(importtime_rows) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "click", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "versions": versions,
        "importtime_us": [[s, c, d, n] for s, c, d, n in importtime_rows],
    }


# --- statistics ------------------------------------------------------------------

# Percentile of call_tail_s per workload. A pass mixes groups of calls of
# very different cost, and the percentile must stay inside one dense group
# whatever the number of passes and the seed. In faint_report p95 falls
# among the seeded tables of 30-40 atoms (the three wide_input calls are
# only 0.25 % of a pass, and the slowest seeded tables are the few the
# truncation bug hits hardest, which change with the seed); in
# bright_thin p99 falls among the lambda = 10 calls on 40-atom tables.
# cli_session and mc_oracle make about 30 calls a run, so p50.
TAIL_PERCENTILE = {"cli_session": 50.0, "faint_report": 95.0, "bright_thin": 99.0, "mc_oracle": 50.0}


def tail(durations: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of calls beyond it."""
    ordered = sorted(durations)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def per_pass_rate(durations: list[float], pass_size: int) -> float:
    """Median over whole passes of calls per second spent in calls."""
    rates = [pass_size / sum(durations[i:i + pass_size])
             for i in range(0, len(durations) - pass_size + 1, pass_size)]
    return statistics.median(rates)


class Tally:
    """Attempted and failed checks, with the failures listed by case."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_case: dict[str, dict] = {}

    def add(self, case: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            entry = self.by_case.setdefault(case, {"count": 0, "reason": "; ".join(problems)})
            entry["count"] += 1


# --- checks of worker records ------------------------------------------------------

def references(workload: str, pmfs, case_list):
    import oracle

    if workload == "faint_report":
        return [oracle.faint_reference(pmfs[c.input_name], c.eta) for c in case_list]
    if workload == "mc_oracle":
        from cases import MC_TRIALS
        return [oracle.mc_reference(pmfs[c.input_name], c.eta, MC_TRIALS) for c in case_list]
    return [None] * len(case_list)


def check_record(workload: str, record, refs) -> list[str]:
    import oracle

    ci, _, err, outputs = record[:4]
    if err:
        return [f"raised {err}"]
    if workload == "faint_report":
        return oracle.check_faint(outputs[0], outputs[1:], refs[ci])
    if workload == "bright_thin":
        return oracle.check_bright(*outputs)
    return oracle.check_mc(outputs[0], outputs[1], refs[ci])


def faint_probe(seed: int) -> dict:
    """build_report below the faint_report range, against mpmath, untimed.

    At these lambdas photonthin's certificates lose to cancellation
    (ROADMAP item 3), so the outputs are measured and listed here rather
    than timed and checked: a workload's timed calls must all pass.
    """
    import cases
    import oracle
    from photonthin import PhotonThinError, build_report

    pmfs, case_list = cases.resolve("faint_probe", seed)
    failing, refused, worst = {}, {}, 0.0
    for case in case_list:
        ref = oracle.faint_reference(pmfs[case.input_name], case.eta)
        try:
            report = build_report(pmfs[case.input_name], case.eta)
        except PhotonThinError as exc:  # a typed refusal is not a wrong number
            refused[case.name] = type(exc).__name__
            continue
        worst = max(worst, oracle.risk_rel_err(report.risk_exact, ref))
        problems = oracle.check_faint(report.risk_exact, report.residuals, ref)
        if problems:
            failing[case.name] = "; ".join(problems)
    return {"cases": len(case_list), "risk_max_rel_err": worst,
            "failing": failing, "refused": refused}


def cli_expectations(seed: int, commands) -> list[dict]:
    import cases
    import oracle

    specs = cases.cli_specs(seed)
    mc_seed = cases.cli_mc_seed(seed)
    return [oracle.cli_expected(cmd, specs, mc_seed) for cmd in commands]


def cli_subprocess_session(commands, expected, scratch: Path, tally: Tally, sampler=None):
    """One pass of the session as separate processes; returns per-call runs.

    With a ``speed.Sampler``, reference samples are taken before each
    command and after the last.
    """
    import oracle

    runs = []
    for cmd, want in zip(commands, expected):
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
        if sampler:
            sampler.take()
        run = run_child(cli_argv(cmd.args), scratch, CLI_TIMEOUT_S)
        files = oracle.output_digests(cmd.outputs)
        tally.add(cmd.label, oracle.check_cli(run.code, oracle.digest(run.stdout), files, want))
        runs.append((cmd, run))
    if sampler:
        sampler.take()
    return runs


def setup_times(workload: str, seed: int, scratch: Path, sampler) -> list[float]:
    """Time from a fresh interpreter to the first call, per probe, unscaled."""
    times = []
    for _ in range(SETUP_PROBES):
        sampler.take()
        run, res = run_worker("setup", workload, seed, scratch)
        times.append(res["ready"] - run.started)
    sampler.take()
    return times


# --- end-to-end run ---------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    import cases
    import speed

    tally = Tally()
    setup_sampler = speed.Sampler()
    setups = setup_times(workload, seed, scratch, setup_sampler)
    reference = list(setup_sampler.samples)
    if workload == "cli_session":
        spec_paths = cases.write_cli_specs(seed, scratch / "specs")
        (scratch / "out").mkdir()
        commands = cases.cli_session(seed, spec_paths, scratch / "out")
        expected = cli_expectations(seed, commands)
        raw, durations, peak = [], [], 0.0
        start = time.monotonic()
        sessions = 0
        while True:  # whole sessions, so every command has the same weight
            sampler = speed.Sampler()
            runs = cli_subprocess_session(commands, expected, scratch, tally, sampler)
            for _, run in runs:
                raw.append(run.wall)
                durations.append(run.wall * sampler.scale())
                peak = max(peak, run.maxrss_mb)
            reference += sampler.samples
            sessions += 1
            if sessions >= MIN_CLI_SESSIONS and time.monotonic() - start >= seconds:
                break
        pass_size = len(commands)
    else:
        pmfs, case_list = cases.resolve(workload, seed)
        refs = references(workload, pmfs, case_list)
        run, res = run_worker("run", workload, seed, scratch, seconds)
        peak = run.maxrss_mb
        pass_size = len(case_list)
        scales = speed.scales(res["reference_s"])
        reference += [d for _, d in res["reference_s"]]
        raw, durations = [], []
        for record in res["records"]:
            raw.append(record[1])
            durations.append(record[1] * scales[record[4]])
            tally.add(case_list[record[0]].name, check_record(workload, record, refs))
    tail_pct = TAIL_PERCENTILE[workload]
    tail_value, beyond = tail(durations, tail_pct)
    metrics = {
        "setup_s": statistics.median(setups) * setup_sampler.scale(),
        "call_p50_s": statistics.median(durations),
        "call_tail_s": tail_value,
        "calls_per_s": per_pass_rate(durations, pass_size),
        "peak_rss_mb": peak,
    }
    info = {
        "calls": len(durations),
        "passes": len(durations) // pass_size,
        "tail_percentile": tail_pct,
        "calls_beyond_tail": beyond,
        "setup_samples_s": setups,
        "unscaled": {
            "setup_s": statistics.median(setups),
            "call_p50_s": statistics.median(raw),
            "call_tail_s": tail(raw, tail_pct)[0],
            "calls_per_s": per_pass_rate(raw, pass_size),
        },
        "reference_loop_s": {"median": statistics.median(reference), "samples": len(reference),
                             "min": min(reference), "max": max(reference)},
    }
    return {"metrics": metrics, "units": END_TO_END, "tally": tally, "info": info}


# --- traced run ----------------------------------------------------------------------------

def traced(workload: str, seed: int, scratch: Path, importtime_rows) -> dict:
    import cases
    import oracle
    from tracing import ERROR_TYPES

    tally = Tally()
    metrics: dict[str, float] = {}

    imports = [importtime_rows] + [measure_importtime(scratch) for _ in range(IMPORT_PROBES - 1)]
    metrics["cli.import_s"] = statistics.median(import_total_seconds(r, "photonthin") for r in imports)
    for package in ("scipy", "numpy", "click"):
        metrics[f"import.{package}_s"] = statistics.median(
            import_self_seconds(r, package) for r in imports)
    metrics["cli.interp_s"] = statistics.median(
        run_child([sys.executable, "-c", "pass"], scratch, CLI_TIMEOUT_S).wall
        for _ in range(INTERP_PROBES)
    )

    spec_paths = cases.write_cli_specs(seed, scratch / "specs")
    (scratch / "out").mkdir()
    commands = cases.cli_session(seed, spec_paths, scratch / "out")
    expected = cli_expectations(seed, commands)
    walls: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    for cmd, run in cli_subprocess_session(commands, expected, scratch, tally):
        walls[cmd.command].append(run.wall)
    for command, values in walls.items():
        metrics[f"cli.{command}.wall_s"] = statistics.median(values)

    _, res = run_worker("trace", workload, seed, scratch)
    if workload == "cli_session":
        for ci, _, code, stdout_digest, files in res["records"]:
            tally.add(commands[ci].label, oracle.check_cli(code, stdout_digest, files, expected[ci]))
    else:
        pmfs, case_list = cases.resolve(workload, seed)
        refs = references(workload, pmfs, case_list)
        for record in res["records"]:
            tally.add(case_list[record[0]].name, check_record(workload, record, refs))

    # Only bright_thin calls both routes; its first checked output is the gap.
    gaps = [r[3][0] for r in res["records"] if r[3]] if workload == "bright_thin" else []
    layers, counters = res["layers"], res["counters"]
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = layers.get(name, {}).get("self_s", 0.0)
    metrics["cli.command.self_s"] = layers.get("cli.command", {}).get("self_s", 0.0)
    rows_out = counters["thinning.thin_direct.rows_out"]
    trials = counters["montecarlo.simulate_thinned.trials"]
    metrics.update({
        "thinning.thin_direct.calls": layers.get("thinning.thin_direct", {}).get("calls", 0),
        "thinning.thin_direct.rows_out": rows_out,
        "thinning.thin_direct.useful_rows_frac":
            counters["thinning.thin_direct.useful_rows"] / rows_out if rows_out else 0.0,
        "thinning.route_gap": max(gaps, default=0.0),
        "approximation.risk_exact.max_rel_err": max(res["risk_rel_errs"], default=0.0),
        "pmf.make_pmf.atoms": counters["pmf.make_pmf.atoms"],
        "pmf.poisson_family.terms": counters["pmf.poisson_family.terms"],
        "montecarlo.simulate_thinned.trials": trials,
        "montecarlo.ns_per_trial":
            1e9 * metrics["montecarlo.simulate_thinned.self_s"] / trials if trials else 0.0,
        "montecarlo.speedup_2w": res["scaling"]["w1_s"] / res["scaling"]["w2_s"],
        "montecarlo.bit_identical_2w": 1 if res["scaling"]["bit_identical"] else 0,
        "trace.overhead_frac": res["traced_s"] / res["untraced_s"] - 1.0,
    })
    tally.add("montecarlo workers=1 vs workers=2 histograms",
              [] if res["scaling"]["bit_identical"] else ["histograms differ"])
    for name in ERROR_TYPES:
        metrics[f"errors.raised.{name}"] = res["raised"].get(name, 0)

    probe = faint_probe(seed) if workload == "faint_report" else {
        "cases": 0, "risk_max_rel_err": 0.0, "failing": {}, "refused": {}}
    metrics["approximation.faint_probe.risk_max_rel_err"] = probe["risk_max_rel_err"]
    metrics["approximation.faint_probe.failed"] = len(probe["failing"])

    info = {"scaling": res["scaling"], "tier1": tier1_wall(scratch), "faint_probe": probe}
    return {"metrics": metrics, "units": per_layer_units(ERROR_TYPES), "tally": tally, "info": info}


def tier1_wall(scratch: Path) -> dict:
    """Wall time of the repository's tier-1 tests, recorded as information only."""
    if not (ROOT / "tests").is_dir():
        return {"skipped": "no tests directory"}
    run = run_child([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--continue-on-collection-errors"], scratch, TIER1_TIMEOUT_S)
    summary = run.stdout.decode(errors="replace").strip().splitlines()
    return {"wall_s": run.wall, "exit_code": run.code, "summary": summary[-1] if summary else ""}


# --- entry point -----------------------------------------------------------------------------

def check_declaration(units: dict, key: str) -> None:
    """The metrics this run prints must be the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"]: m["unit"] for m in declared[key]}
    if names != units:
        raise RuntimeError(f"BENCHMARK.json {key} does not match the metrics of perfbench/run.py")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_session", "faint_report", "bright_thin", "mc_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "photonthin" / "__init__.py").is_file():
        print(f"error: no photonthin source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    from speed import REFERENCE_S

    oracle.self_test()
    out_root = ROOT / ".perfbench_out"
    (out_root / "results").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_root))
    try:
        importtime_rows = measure_importtime(scratch)
        if args.trace:
            result = traced(args.workload, args.seed, scratch, importtime_rows)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_declaration(result["units"], "per_layer" if args.trace else "end_to_end")

    tally: Tally = result["tally"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(importtime_rows),
        "metrics": result["metrics"], "units": result["units"], "info": result["info"],
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted, "failures_by_case": tally.by_case,
    }
    record_path = out_root / "results" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {record['machine']['python']}, nproc {record['machine']['nproc']}, "
          f"versions {record['machine']['versions']}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {result['units'][name]}")
    print(f"  fail_frac = {record['fail_frac']:.6g} ({tally.failed} of {tally.attempted} checked calls)")
    if not args.trace:
        info = result["info"]
        print(f"  call_tail_s is the p{info['tail_percentile']:g} of {info['calls']} calls "
              f"({info['calls_beyond_tail']} beyond it, {info['passes']} passes)")
        ref = info["reference_loop_s"]
        print(f"  times are at the reference speed (perfbench/speed.py): the reference loop "
              f"took {ref['median']:.4g} s (median of {ref['samples']}, reference "
              f"{REFERENCE_S:g} s); unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in info["unscaled"].items()))
    else:
        print(f"  tier-1 tests (information only): {result['info']['tier1']}")
        probe = result["info"]["faint_probe"]
        for case, reason in sorted(probe["failing"].items()):
            print(f"  FAINT PROBE (measured, not a timed call) {case}: {reason}")
        if probe["cases"]:
            print(f"  faint probe: {len(probe['failing'])} of {probe['cases']} reports "
                  f"fail the faint_report check, {len(probe['refused'])} refused with a typed error")
    for case, entry in sorted(tally.by_case.items()):
        print(f"  FAILED {case}: {entry['count']}x {entry['reason']}")
    print(f"  full record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
