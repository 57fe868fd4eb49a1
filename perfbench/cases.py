"""Seeded inputs of the photonthin benchmark.

Everything a run feeds the program is derived here from the run's seed, so
the parent process and every worker it starts rebuild identical inputs.
The raw specs are plain JSON-able data; ``resolve`` turns them into
``Pmf`` objects and attenuation values through the library's public API.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from photonthin import eta_for_target_lambda, make_pmf, poisson_family
from photonthin.cli import table1_inputs, wide_input

MC_LAMBDA = 0.1
# faint_report stops at lambda = 0.02: below it build_report's certificates
# lose to cancellation (ROADMAP item 3; at 0.01 the worst built-in case is
# already at 0.83 of the check's tolerance). That defect is measured, not
# timed, by the faint probe of the traced run, at 1e-8, 1e-6 and 1e-4.
LAMBDAS = {
    "faint_report": (0.02, 0.05, 0.1),
    "faint_probe": (1e-8, 1e-6, 1e-4),
    "bright_thin": (1.0, 10.0),
    "mc_oracle": (MC_LAMBDA,),
}
FIG1_ETA = 0.1
MC_TRIALS = 2_000_000
CLI_MC_TRIALS = 1_000_000

# Random tables per faint/bright run, each called at one lambda of the
# workload in turn. Their atom counts follow a fixed ladder over 2..40 and
# every table reaches index 2000; only the other positions and the
# Dirichlet weights are drawn. What a table costs still depends on its
# draw (its mean sets eta and so the rows emitted, and a float total just
# below one triggers ROADMAP item 2's truncation bug in about a third of
# the tables), so a pass holds many tables, one call each, for the
# seed's share of these to average out.
RANDOM_TABLES = {"faint_report": 1152, "bright_thin": 768}
RANDOM_MAX_ATOMS = 40
RANDOM_MAX_INDEX = 2000

EX3 = [[1, 0.95], [1001, 0.05]]


@dataclass(frozen=True)
class Case:
    """One call the closed-loop client makes: an input and its attenuation."""

    name: str
    input_name: str
    eta: float


def _builtin_specs() -> list[tuple[str, dict]]:
    specs = [
        ("wide", {"kind": "wide"}),
        ("ex3", {"kind": "table", "pairs": EX3}),
        ("poisson3", {"kind": "poisson", "mu": 3.0}),
        ("poisson50", {"kind": "poisson", "mu": 50.0}),
    ]
    specs += [(f"table1_{i}", {"kind": "table1", "row": i}) for i in range(6)]
    specs.append(("two_point_3_7", {"kind": "table", "pairs": [[3, 0.5], [7, 0.5]]}))
    return specs


def _random_table_specs(rng: random.Random, count: int) -> list[tuple[str, dict]]:
    """Sparse Dirichlet(1, ..., 1) tables, normalised by a float division."""
    specs = []
    for i in range(count):
        atoms = 2 + round(i * (RANDOM_MAX_ATOMS - 2) / max(1, count - 1))
        support = sorted(rng.sample(range(RANDOM_MAX_INDEX), atoms - 1)) + [RANDOM_MAX_INDEX]
        weights = [rng.expovariate(1.0) for _ in support]
        total = sum(weights)
        pairs = [[n, w / total] for n, w in zip(support, weights)]
        specs.append((f"rand{i:03d}_k{atoms}", {"kind": "table", "pairs": pairs, "seeded": True}))
    return specs


def input_specs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """Named input specs of one workload; random parts come from ``seed``."""
    rng = random.Random(f"photonthin-bench/{seed}")
    if workload in ("faint_report", "bright_thin"):
        return _builtin_specs() + _random_table_specs(rng, RANDOM_TABLES[workload])
    if workload == "faint_probe":
        return _builtin_specs()
    if workload == "mc_oracle":
        return [s for s in _builtin_specs() if s[0] in ("ex3", "poisson3", "poisson50")]
    raise ValueError(f"no in-process inputs for workload {workload!r}")


@functools.lru_cache(maxsize=1)
def _table1() -> tuple:
    return tuple(table1_inputs())


def build_pmf(spec: dict):
    kind = spec["kind"]
    if kind == "wide":
        return wide_input()
    if kind == "table":
        return make_pmf([(int(n), float(m)) for n, m in spec["pairs"]])
    if kind == "poisson":
        return poisson_family(float(spec["mu"]))
    if kind == "table1":
        return _table1()[spec["row"]]
    raise ValueError(f"unknown input kind {kind!r}")


def resolve(workload: str, seed: int) -> tuple[dict, list[Case]]:
    """Build the workload's inputs and the ordered list of calls of one pass.

    Built-in inputs run at every lambda of the workload, the i-th seeded
    table at lambda number i modulo their count. A target lambda above an
    input's mean would need eta > 1, which the attenuator cannot do; such
    (input, lambda) pairs are not generated.
    """
    specs = input_specs(workload, seed)
    pmfs = {name: build_pmf(spec) for name, spec in specs}
    lams = LAMBDAS[workload]
    cases: list[Case] = []
    seeded = 0
    for name, spec in specs:
        p = pmfs[name]
        chosen = lams
        if spec.get("seeded"):
            chosen = (lams[seeded % len(lams)],)
            seeded += 1
        for lam in chosen:
            if lam <= p.mean:
                eta = eta_for_target_lambda(p, lam).eta
                cases.append(Case(f"{name}@{lam:g}", name, eta))
    if workload == "bright_thin":
        cases.append(Case(f"wide@eta{FIG1_ETA:g}", "wide", FIG1_ETA))
    return pmfs, cases


# --- cli_session -----------------------------------------------------------

def cli_specs(seed: int) -> dict[str, dict]:
    """Spec files of the CLI session: ex3, Poisson(50) and a lossy table.

    The lossy table's masses are rounded to ten decimals, so its total is
    one only within the 1e-9 that ingestion accepts.
    """
    rng = random.Random(f"photonthin-bench-cli/{seed}")
    support = sorted(rng.sample(range(1, 301), 12))
    weights = [rng.expovariate(1.0) for _ in support]
    total = sum(weights)
    table = [[n, round(w / total, 10)] for n, w in zip(support, weights)]
    return {
        "ex3": {"two_point": {"a": 1, "pa": 0.95, "b": 1001, "pb": 0.05}},
        "poisson50": {"poisson": {"mu": 50}},
        "lossy": {"table": table},
    }


def cli_mc_seed(seed: int) -> int:
    return random.Random(f"photonthin-bench-mc/{seed}").getrandbits(63)


def write_cli_specs(seed: int, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, body in cli_specs(seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        paths[name] = path
    return paths


@dataclass(frozen=True)
class CliCommand:
    """One command line of the session and the files it must write."""

    label: str
    command: str
    spec: str | None
    args: tuple[str, ...]
    outputs: tuple[str, ...]


def cli_session(seed: int, spec_paths: dict[str, Path], out_dir: Path) -> list[CliCommand]:
    """The commands a user types, in order: four per spec, then the datasets."""
    mc_seed = str(cli_mc_seed(seed))
    commands = []
    for name, path in spec_paths.items():
        thin_csv = out_dir / f"thin_{name}.csv"
        commands += [
            CliCommand(f"moments:{name}", "moments", name, ("moments", str(path)), ()),
            CliCommand(
                f"report:{name}", "report", name,
                ("report", str(path), "--target-lambda", "0.1"), (),
            ),
            CliCommand(
                f"thin:{name}", "thin", name,
                ("thin", str(path), "--target-lambda", "0.5", "--out", str(thin_csv)),
                (str(thin_csv),),
            ),
            CliCommand(
                f"mc:{name}", "mc", name,
                ("mc", str(path), "--target-lambda", "0.1", "--seed", mc_seed,
                 "--trials", str(CLI_MC_TRIALS)),
                (),
            ),
        ]
    table1_csv = out_dir / "table1.csv"
    figs = out_dir / "figs"
    commands.append(CliCommand("table1", "table1", None, ("table1", "--out", str(table1_csv)), (str(table1_csv),)))
    commands.append(
        CliCommand(
            "figures", "figures", None, ("figures", "--out-dir", str(figs)),
            tuple(str(figs / f"fig{i}.csv") for i in range(1, 5)),
        )
    )
    return commands

