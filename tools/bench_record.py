"""Alternating parent/change benchmark runs, kept and summarised in BENCH_<pr>.json.

    python tools/bench_record.py pairs --parent ../parent --change . \
        --workload bright_thin --seeds 71 72 73 --seconds 18 --records records/
    python tools/bench_record.py summary --records records/ --out BENCH_26.json

``pairs`` runs ``perfbench/run.py --trace 0`` in each checkout, seed by seed,
the parent first on even pairs and the change first on odd ones. A run
writes its record to ``.perfbench_out/results/`` of its checkout, where the
next run of the same seed overwrites it, so each record is copied into
``--records`` after its run, tagged with its side and position in the pair.
``summary`` gives, per workload and side, the median and quartiles of every
end-to-end metric that BENCHMARK.json declares and of the calls attempted
(a run keeps a record per call, so its peak RSS grows with them), the pairs
the change won, the seeds, ``--seconds``, the side order and one machine
block.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pairs(args: argparse.Namespace) -> None:
    records = Path(args.records)
    records.mkdir(parents=True, exist_ok=True)
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            checkout = Path(getattr(args, side)).resolve()
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                           cwd=checkout, check=True, stdout=subprocess.DEVNULL)
            name = f"{args.workload}_seed{seed}_trace0.json"
            record = json.loads((checkout / ".perfbench_out" / "results" / name).read_text())
            record.update(side=side, position=position)
            (records / f"{side}_{name}").write_text(json.dumps(record, indent=1))


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(args: argparse.Namespace) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[tuple[str, int], dict[str, dict]] = {}
    for path in sorted(Path(args.records).glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["seed"]), {})[record["side"]] = record
    workloads: dict[str, dict] = {}
    machine = None
    for (workload, seed), sides in sorted(runs.items()):
        parent, change = sides["parent"], sides["change"]
        entry = workloads.setdefault(workload, {"seconds": parent["seconds"], "seeds": [], "first": [],
                                                "parent": [], "change": [], "attempted": {}})
        entry["seeds"].append(seed)
        entry["first"].append("parent" if parent["position"] == 0 else "change")
        for side, record in (("parent", parent), ("change", change)):
            if record["failed"] or not record["attempted"]:
                raise SystemExit(f"{side} {workload} seed {seed} failed checks or ran none")
            entry[side].append(record["metrics"])
            entry["attempted"].setdefault(side, []).append(record["attempted"])
            block = {k: v for k, v in record["machine"].items() if k != "importtime_us"}
            if machine not in (None, block):
                raise SystemExit("records from more than one machine")
            machine = block
    for entry in workloads.values():
        parent, change = entry.pop("parent"), entry.pop("change")
        entry["pairs"] = len(entry["seeds"])
        entry["attempted"] = {side: _spread(calls) for side, calls in entry["attempted"].items()}
        entry["metrics"] = {}
        for metric in declared:
            name, lower = metric["name"], metric["better"] == "lower"
            before, after = [m[name] for m in parent], [m[name] for m in change]
            won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
            entry["metrics"][name] = {"unit": metric["unit"], "better": metric["better"],
                                      "parent": _spread(before), "change": _spread(after),
                                      "change_won_pairs": won}
    out = {"machine": machine, "workloads": workloads}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pairs = sub.add_parser("pairs", help="run alternating pairs and keep every record")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seeds", type=int, nargs="+", required=True)
    pairs.add_argument("--seconds", type=float, required=True)
    pairs.add_argument("--records", required=True)
    pairs.set_defaults(func=run_pairs)
    summ = sub.add_parser("summary", help="write the kept records' medians and quartiles")
    summ.add_argument("--records", required=True)
    summ.add_argument("--out", required=True)
    summ.set_defaults(func=summary)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
