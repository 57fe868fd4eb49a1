"""Program side of the benchmark: the closed-loop client in a fresh interpreter.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED OUT_JSON [SECONDS]

  setup  import photonthin, build the workload's inputs, record the time
         (CLOCK_MONOTONIC, comparable with the parent's) and exit
  run    setup, then call the workload's cases in whole passes until
         SECONDS have passed, one call at a time, with the reference loop
         of speed.py run every 0.1 s between calls
  trace  setup, then a fixed number of passes untraced and the same passes
         with span recording, plus the two-worker Monte Carlo scaling run

The results, with each call's duration and the outputs the parent checks,
go to OUT_JSON. A call that raises is recorded with the exception's type.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402  (needs the source tree on sys.path)
import photonthin as pt  # noqa: E402
import speed  # noqa: E402

# Passes of the traced run: fixed work, so per-layer totals and counts are
# comparable between commits.
TRACE_PASSES = {"faint_report": 2, "bright_thin": 2, "mc_oracle": 2, "cli_session": 1}
SCALING_REPS = 3
REFERENCE_EVERY_S = 0.1
# Fewest passes of a timed run, so that calls_per_s is a median over passes.
MIN_PASSES = 2
_TRUNCATION_SLACK = 1e-15


def _mc_seed(seed: int, call_index: int) -> int:
    return (seed * 1_000_003 + call_index) % 2**64


def _call(workload: str, p, eta: float, seed: int, index: int):
    """One timed call; returns (duration_s, error type or None, raw result)."""
    t0 = time.perf_counter()
    try:
        if workload == "faint_report":
            result = pt.build_report(p, eta)
        elif workload == "bright_thin":
            q = pt.thin_direct(p, eta)
            g = pt.thin_via_gf(p, eta, q.max_index)
            pt.tv_distance(q, g)
            result = (q, g)
        else:
            cfg = pt.McConfig(seed=_mc_seed(seed, index), trials=cases.MC_TRIALS)
            result = pt.simulate_thinned(p, eta, cfg, workers=1)
    except Exception as exc:  # a raising call is a failed call, not a crash
        return time.perf_counter() - t0, type(exc).__name__, None
    return time.perf_counter() - t0, None, result


def _outputs(workload: str, result) -> list:
    """The numbers the parent checks, extracted outside the timed region."""
    if workload == "faint_report":
        return [result.risk_exact, *result.residuals]
    if workload == "bright_thin":
        q, g = result
        gap = max(abs(q.mass(n) - g.mass(n)) for n in set(q.support) | set(g.support))
        return [gap, math.fsum(q.masses) + q.tail_defect, math.fsum(g.masses) + g.tail_defect]
    return [result.empirical.mean, result.trials]


def _passes(workload, pmfs, case_list, seed, passes=None, seconds=None, reference=None):
    """Whole passes over the cases; a time limit ends the loop only between passes,
    and not before MIN_PASSES.

    With a ``reference`` list, the reference loop runs before a call
    whenever REFERENCE_EVERY_S have passed since its last run; its start
    and duration go to the list, and each record ends with the index of
    the sample taken last before the call.
    """
    records = []
    index = 0
    deadline = time.perf_counter() + (seconds or 0.0)
    last_reference = -math.inf
    done = 0
    while True:
        for ci, case in enumerate(case_list):
            if reference is not None and time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                reference.append((time.perf_counter(), speed.reference_loop()))
                last_reference = time.perf_counter()
            dur, err, result = _call(workload, pmfs[case.input_name], case.eta, seed, index)
            index += 1
            records.append([ci, dur, err, None if err else _outputs(workload, result),
                            len(reference) - 1 if reference is not None else None])
        done += 1
        if (passes is not None and done >= passes) or (
            passes is None and time.perf_counter() >= deadline and done >= MIN_PASSES
        ):
            return records


# --- cli_session, in-process -------------------------------------------------

def _cli_pass(commands, tracer=None):
    """Run the session's commands through click in this process."""
    import oracle

    records = []
    for ci, cmd in enumerate(commands):
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
        buf = io.StringIO()
        t0 = time.perf_counter()
        code = 0
        span = tracer.span("cli.command") if tracer else nullcontext()
        try:
            with redirect_stdout(buf), span:
                pt.cli.cli.main(list(cmd.args), prog_name="photonthin", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raising command is a failed call
            code = 1
        dur = time.perf_counter() - t0
        records.append([ci, dur, code, oracle.digest(buf.getvalue().encode()),
                        oracle.output_digests(cmd.outputs)])
    return records


# --- traced run ----------------------------------------------------------------

def _useful_rows(p, q) -> int:
    """Rows of q emitted before its mass came within 1e-15 of all it reaches.

    The target is p's own total mass minus 1e-15, or q's final mass minus
    1e-15 where rounding keeps q below p's total: rows past that point add
    less than the slack and are wasted.
    """
    target = min(p.total_mass, math.fsum(q.masses)) - _TRUNCATION_SLACK
    acc = 0.0
    carry = 0.0
    for i, m in enumerate(q.masses):
        t = acc + m
        carry += (acc - t) + m if abs(acc) >= abs(m) else (m - t) + acc
        acc = t
        if acc + carry >= target:
            return i + 1
    return len(q.masses)


def _layer_summary(tracer) -> dict:
    from tracing import self_seconds

    grouped = tracer.by_name()
    layers = {name: {"self_s": self_seconds(spans), "calls": len(spans)}
              for name, spans in grouped.items()}
    rows_out = useful = 0
    for s in grouped.get("thinning.thin_direct", []):
        rows_out += len(s.result.entries)
        useful += _useful_rows(s.args[0], s.result)
    trials = 0
    for s in grouped.get("montecarlo.simulate_thinned", []):
        cfg = s.args[2] if len(s.args) > 2 else s.kwargs["cfg"]
        trials += cfg.trials
    counters = {
        "thinning.thin_direct.rows_out": rows_out,
        "thinning.thin_direct.useful_rows": useful,
        "pmf.make_pmf.atoms": sum(len(s.result.entries) for s in grouped.get("pmf.make_pmf", [])),
        "pmf.poisson_family.terms": sum(
            len(s.result.entries) for s in grouped.get("pmf.poisson_family", [])),
        "montecarlo.simulate_thinned.trials": trials,
    }
    return {"layers": layers, "counters": counters, "raised": dict(tracer.raised)}


def _risk_errors(tracer) -> list[float]:
    """Relative error of every traced build_report's risk_exact against mpmath."""
    import oracle

    refs = {}
    errs = []
    for s in tracer.by_name().get("approximation.build_report", []):
        p = s.args[0]
        eta = s.args[1] if len(s.args) > 1 else s.kwargs["eta"]
        eta = getattr(eta, "eta", eta)
        key = (id(p), eta)
        if key not in refs:
            refs[key] = oracle.faint_reference(p, eta)
        errs.append(oracle.risk_rel_err(s.result.risk_exact, refs[key]))
    return errs


def _scaling(seed: int) -> dict:
    """Monte Carlo wall time at workers=1 and workers=2 on one config."""
    p = cases.build_pmf({"kind": "poisson", "mu": 50.0})
    eta = pt.eta_for_target_lambda(p, cases.MC_LAMBDA).eta
    cfg = pt.McConfig(seed=cases.cli_mc_seed(seed), trials=cases.MC_TRIALS)
    times = {1: [], 2: []}
    entries = {1: set(), 2: set()}
    for _ in range(SCALING_REPS):
        for workers in (1, 2):
            t0 = time.perf_counter()
            res = pt.simulate_thinned(p, eta, cfg, workers=workers)
            times[workers].append(time.perf_counter() - t0)
            entries[workers].add(res.empirical.entries)
    identical = len(entries[1]) == 1 and entries[1] == entries[2]
    return {
        "w1_s": statistics.median(times[1]),
        "w2_s": statistics.median(times[2]),
        "bit_identical": identical,
    }


def _trace(workload, seed, pmfs, case_list, commands):
    from tracing import Tracer

    tracer = Tracer()

    def run(passes: int, traced: bool = False) -> list:
        if workload == "cli_session":
            return [r for _ in range(passes)
                    for r in _cli_pass(commands, tracer if traced else None)]
        return _passes(workload, pmfs, case_list, seed, passes=passes)

    run(1)  # warm-up, so lazy first-call work lands in neither timing
    untraced = run(TRACE_PASSES[workload])
    tracer.install()
    try:
        traced = run(TRACE_PASSES[workload], traced=True)
    finally:
        tracer.uninstall()
    out = _layer_summary(tracer)
    out["records"] = traced
    out["untraced_s"] = sum(r[1] for r in untraced)
    out["traced_s"] = sum(r[1] for r in traced)
    out["risk_rel_errs"] = _risk_errors(tracer)
    out["scaling"] = _scaling(seed)
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed_text, out_path = argv[:4]
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    seed = int(seed_text)
    out_file = Path(out_path)
    pmfs, case_list, commands = {}, [], []
    if workload == "cli_session":
        spec_paths = cases.write_cli_specs(seed, out_file.parent / "specs")
        commands = cases.cli_session(seed, spec_paths, out_file.parent / "out")
        (out_file.parent / "out").mkdir(exist_ok=True)
    else:
        pmfs, case_list = cases.resolve(workload, seed)
    result: dict = {"ready": time.monotonic()}
    if mode == "run":
        result["reference_s"] = []
        result["records"] = _passes(workload, pmfs, case_list, seed, seconds=seconds,
                                    reference=result["reference_s"])
    elif mode == "trace":
        result.update(_trace(workload, seed, pmfs, case_list, commands))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out_file.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
