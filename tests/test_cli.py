"""End-to-end CLI behavior: spec parsing, outputs, exit codes."""

import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import photonthin
from photonthin import moments
from photonthin.cli import (
    heavy_two_point_input,
    load_source_spec,
    table1_inputs,
    wide_input,
)
from photonthin.pmf import _MAX_KERNEL_N

from helpers import run_cli

EX3_SPEC = {"two_point": {"a": 1, "pa": 0.95, "b": 1001, "pb": 0.05}}

# Every command that takes SPEC, with the arguments it needs besides it.
SPEC_COMMANDS = {
    "moments": [],
    "thin": ["--eta", "0.1", "--out", "OUT"],
    "report": ["--eta", "0.1"],
    "mc": ["--eta", "0.1", "--trials", "1000"],
}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def command_line(tmp_path, name, spec, args):
    """``name SPEC args``, with OUT standing for tmp_path / "thin.csv"."""
    return [name, spec, *(a.replace("OUT", str(tmp_path / "thin.csv")) for a in args)]


def assert_one_error_line(result):
    """Exit 2 with a single ``error:`` line on stderr and no traceback."""
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [[float(v) for v in row] for row in body]


class TestMomentsCommand:
    def test_wide_two_point(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        result = run_cli(["moments", spec])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["c"] - 9.12) <= 0.02
        assert payload["mean"] == pytest.approx(51.0, abs=1e-12)

    def test_poisson(self, tmp_path):
        spec = write_spec(tmp_path, {"poisson": {"mu": 5}})
        result = run_cli(["moments", spec])
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["c"]) <= 1e-8

    def test_deterministic_table(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[3, 1.0]]})
        result = run_cli(["moments", spec])
        payload = json.loads(result.output)
        assert payload["var"] == 0.0
        assert payload["c"] == pytest.approx(-1.0 / 6.0, rel=1e-15)

    def test_invalid_spec_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[0, 0.5], [1, 0.4]]})
        result = run_cli(["moments", spec])
        assert result.exit_code == 2

    def test_zero_mean_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[0, 1.0]]})
        result = run_cli(["moments", spec])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "table, var",
        [
            ([[9007199254740993, 1.0]], 0.0),
            ([[9007199254740992, 0.5], [9007199254740993, 0.5]], 0.25),
            ([[10**9, 0.5], [10**9 + 1, 0.5]], 0.25),
        ],
        ids=["point_at_2_53_plus_1", "pair_at_2_53", "pair_at_1e9"],
    )
    def test_variance_of_large_indices(self, tmp_path, table, var):
        result = run_cli(["moments", write_spec(tmp_path, {"table": table})])
        assert result.exit_code == 0
        assert json.loads(result.output)["var"] == var


class TestSpecNumbers:
    @pytest.mark.parametrize(
        "payload",
        [
            {"table": [[True, 1.0]]},
            {"table": [["3", 1.0]]},
            {"table": [[None, 1.0]]},
            {"table": [[1.5, 1.0]]},
            {"table": [[-1, 1.0]]},
            {"table": [[9007199254740994.0, 1.0]]},
            {"table": [[1e300, 1.0]]},
            {"table": [[3, "1.0"]]},
            {"table": [[3, True]]},
            {"table": [[3, 10**400]]},
            {"two_point": {"a": 1, "pa": 0.95, "b": 1001, "pb": "0.05"}},
            {"two_point": {"a": "1", "pa": 0.95, "b": 1001, "pb": 0.05}},
            {"poisson": {"mu": "5"}},
            {"poisson": {"mu": True}},
            {"poisson": {"mu": 5}, "tail_eps": "1e-12"},
        ],
        ids=[
            "index_true", "index_string", "index_null", "index_fraction",
            "index_negative", "index_float_past_2_53", "index_1e300",
            "mass_string", "mass_true", "mass_overflow", "pb_string",
            "a_string", "mu_string", "mu_true", "tail_eps_string",
        ],
    )
    def test_non_numbers_exit_2(self, tmp_path, payload):
        spec = write_spec(tmp_path, payload)
        result = run_cli(["moments", spec])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize(
        "variant",
        [{"table": [[1, 1.0]]}, EX3_SPEC, {"poisson": {"mu": 5}}],
        ids=["table", "two_point", "poisson"],
    )
    @pytest.mark.parametrize(
        "in_file, value",
        [(True, -5), (True, 1e-3), (True, "1e-12"), (False, "-5"), (False, "nan")],
        ids=["file_negative", "file_above_1e-6", "file_string", "option_negative", "option_nan"],
    )
    def test_bad_tail_eps_exits_2(self, tmp_path, variant, in_file, value):
        # The one tail_eps rule holds though only the poisson variant reads it.
        payload = {**variant, "tail_eps": value} if in_file else variant
        option = [] if in_file else ["--tail-eps", value]
        result = run_cli(["moments", write_spec(tmp_path, payload), *option])
        assert_one_error_line(result)
        assert "tail_eps" in result.stderr

    def test_integral_float_index(self, tmp_path):
        as_float = run_cli(["moments", write_spec(tmp_path, {"table": [[3.0, 1.0]]})])
        as_int = run_cli(["moments", write_spec(tmp_path, {"table": [[3, 1.0]]})])
        assert as_float.exit_code == 0
        assert as_float.output == as_int.output

    def test_large_indices_are_exact(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[9007199254740993, 0.5], [2.0**53, 0.5]]})
        assert load_source_spec(spec).support == (2**53, 2**53 + 1)

    def test_equal_two_point_outcomes_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, {"two_point": {"a": 3, "pa": 0.5, "b": 3, "pb": 0.5}})
        assert_one_error_line(run_cli(["moments", spec]))

    @pytest.mark.parametrize("command", ["moments", "report"])
    def test_index_past_int64_exits_2(self, tmp_path, command):
        spec = write_spec(tmp_path, {"table": [[10**103, 1.0]]})
        assert_one_error_line(
            run_cli(command_line(tmp_path, command, spec, SPEC_COMMANDS[command]))
        )


class TestKernelBound:
    @pytest.mark.parametrize("command", ["thin", "report", "mc"])
    @pytest.mark.parametrize(
        "payload",
        [
            {"table": [[_MAX_KERNEL_N + 1, 1.0]]},
            {"table": [[10**12, 1.0]]},
            {"poisson": {"mu": 1e12}},
        ],
        ids=["index_past_bound", "index_1e12", "poisson_1e12"],
    )
    def test_past_bound_exits_2(self, tmp_path, command, payload):
        spec = write_spec(tmp_path, payload)
        assert_one_error_line(
            run_cli(command_line(tmp_path, command, spec, SPEC_COMMANDS[command]))
        )
        assert not (tmp_path / "thin.csv").exists()

    def test_poisson_past_bound_moments_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, {"poisson": {"mu": 1e12}})
        assert_one_error_line(run_cli(["moments", spec]))

    @pytest.mark.parametrize("command", ["thin", "report"])
    def test_n_report_past_bound(self, tmp_path, command):
        spec = write_spec(tmp_path, EX3_SPEC)
        args = [*SPEC_COMMANDS[command], "--n-report", str(_MAX_KERNEL_N + 1)]
        result = run_cli(command_line(tmp_path, command, spec, args))
        assert result.exit_code == 2
        assert "--n-report" in result.stderr and str(_MAX_KERNEL_N + 1) in result.stderr
        assert_one_error_line(result)
        assert not (tmp_path / "thin.csv").exists()


class TestThinCommand:
    def test_approximation_failure_visible(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        out = tmp_path / "thin.csv"
        result = run_cli(["thin", spec, "--target-lambda", "0.1", "--out", str(out)])
        assert result.exit_code == 0
        lam = json.loads(result.output)["lambda"]
        assert lam == pytest.approx(0.1, rel=1e-14)
        header, body = read_csv(out)
        assert header == ["n", "p_eta", "p_poisson", "delta"]
        assert len(body) == 11
        deltas = [row[3] for row in body]
        assert max(abs(d) for d in deltas) > 10.0 * lam**3

    def test_poisson_closure_deltas_vanish(self, tmp_path):
        spec = write_spec(tmp_path, {"poisson": {"mu": 100}})
        out = tmp_path / "thin.csv"
        result = run_cli(["thin", spec, "--target-lambda", "0.1", "--out", str(out)])
        assert result.exit_code == 0
        _, body = read_csv(out)
        assert all(abs(row[3]) <= 1e-12 for row in body)

    def test_eta_one_reproduces_input(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        out = tmp_path / "thin.csv"
        result = run_cli(["thin", spec, "--eta", "1", "--out", str(out)])
        assert result.exit_code == 0
        _, body = read_csv(out)
        by_n = {int(row[0]): row[1] for row in body}
        assert by_n[1] == 0.95
        assert by_n[0] == 0.0

    def test_round_trip_and_bitwise_match_with_report(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        out = tmp_path / "thin.csv"
        thin_res = run_cli(["thin", spec, "--target-lambda", "0.1", "--out", str(out)])
        report_res = run_cli(["report", spec, "--target-lambda", "0.1"])
        assert thin_res.exit_code == 0 and report_res.exit_code == 0
        _, body = read_csv(out)
        report_delta = json.loads(report_res.output)["delta"]
        assert [row[3] for row in body] == report_delta

    def test_requires_exactly_one_attenuation_flag(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        out = str(tmp_path / "x.csv")
        both = run_cli(["thin", spec, "--eta", "0.5", "--target-lambda", "0.1", "--out", out])
        neither = run_cli(["thin", spec, "--out", out])
        assert both.exit_code == 2
        assert neither.exit_code == 2


class TestReportCommand:
    def test_poisson_risk(self, tmp_path):
        spec = write_spec(tmp_path, {"poisson": {"mu": 50}})
        result = run_cli(["report", spec, "--target-lambda", "0.1"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["risk_approx"] == pytest.approx(0.05, abs=1e-9)
        assert payload["risk_exact"] == pytest.approx(0.0492, abs=1e-4)

    def test_wide_two_point_risk(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        result = run_cli(["report", spec, "--target-lambda", "0.1"])
        payload = json.loads(result.output)
        assert payload["risk_approx"] == pytest.approx(0.9621, abs=1e-4)
        assert 0.6 < payload["risk_exact"] < 0.7

    def test_deterministic_residuals(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[1, 1.0]]})
        result = run_cli(["report", spec, "--eta", "0.1"])
        payload = json.loads(result.output)
        assert all(abs(r) <= 1e-9 for r in payload["residuals"])


class TestMcCommand:
    def test_single_particle(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[1, 1.0]]})
        result = run_cli(["mc", spec, "--eta", "0.5", "--trials", "1000000"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["empirical_mean"] - 0.5) <= 0.0015
        assert payload["seed"] == 42

    def test_zero_eta(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[4, 1.0]]})
        result = run_cli(["mc", spec, "--eta", "0"])
        payload = json.loads(result.output)
        assert payload["tv_to_analytic"] == 0.0

    def test_poisson_sampling_error(self, tmp_path):
        spec = write_spec(tmp_path, {"poisson": {"mu": 5}})
        result = run_cli(["mc", spec, "--eta", "0.02", "--trials", "10000000"])
        assert result.exit_code == 0
        assert json.loads(result.output)["tv_to_analytic"] <= 0.003

    def test_tail_limit_is_stricter_than_report(self, tmp_path):
        spec = write_spec(tmp_path, {"poisson": {"mu": 5}, "tail_eps": 1e-7})
        assert run_cli(["report", spec, "--target-lambda", "0.1"]).exit_code == 0
        result = run_cli(["mc", spec, "--target-lambda", "0.1", "--trials", "1000"])
        assert_one_error_line(result)
        assert "exceeds 1e-09" in result.stderr
        assert "1e-09" in run_cli(["mc", "--help"]).output

    @pytest.mark.parametrize(
        "command, preset, seen",
        [("mc", None, "1"), ("mc", "3", "3"), ("report", None, "None")],
        ids=["mc_unset", "mc_user_set", "report_unset"],
    )
    def test_openblas_threads_pinned_only_by_mc_when_unset(
        self, tmp_path, monkeypatch, command, preset, seen
    ):
        # numpy starts OpenBLAS's thread pool on import, which the oracle
        # never uses; mc asks for one thread unless the user chose a count.
        if preset is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
        spec = write_spec(tmp_path, EX3_SPEC)
        out = _run_fresh(
            "import os\n"
            "from photonthin.cli import main\n"
            "try:\n"
            "    main()\n"
            "finally:\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'))",
            *command_line(tmp_path, command, spec, SPEC_COMMANDS[command]),
        )
        assert out.splitlines()[-1] == seen


class TestTable1Command:
    def test_ladder_values_and_envelope(self, tmp_path):
        out = tmp_path / "t1.csv"
        result = run_cli(["table1", "--out", str(out)])
        assert result.exit_code == 0
        header, body = read_csv(out)
        assert header == ["lambda2C", "delta0", "delta1", "delta2", "delta3", "delta4"]
        targets = [0.0045, 0.0030, 0.0018, 0.0011, 0.0005, -0.00016]
        assert [row[0] for row in body] == pytest.approx(targets, abs=1e-12)
        for pmf, row in zip(table1_inputs(), body):
            ms = moments(pmf)
            envelope = (ms.d + 1.0) * 0.1**3
            l2c, d0, d1, d2, d3, d4 = row
            assert abs(d0 - l2c) <= envelope
            assert abs(d1 + 2.0 * l2c) <= envelope
            assert abs(d2 - l2c) <= envelope
            assert abs(d3) <= envelope and abs(d4) <= envelope

    def test_negative_row_in_closed_form(self):
        pmf = table1_inputs()[-1]
        w = pmf.mass(32)
        assert 0.0 < w < 1.0
        assert abs(moments(pmf).c + 0.016) <= 1e-15
        # The root a bracketing solver found before the closed form.
        assert abs(w - 0.13372484905589) <= 1e-13

    def test_negative_row_flips_delta1_sign(self, tmp_path):
        out = tmp_path / "t1.csv"
        run_cli(["table1", "--out", str(out)])
        _, body = read_csv(out)
        last = body[-1]
        assert last[0] < 0.0 and last[1] < 0.0 and last[2] > 0.0


class TestFiguresCommand:
    def test_emits_four_files_with_expected_lambdas(self, tmp_path):
        out_dir = tmp_path / "figs"
        result = run_cli(["figures", "--out-dir", str(out_dir)])
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert abs(summary["fig2"]["lambda"] - 0.4885) <= 1e-9
        assert abs(summary["fig3"]["lambda"] - 0.0977) <= 1e-9
        for name in ("fig1", "fig2", "fig3", "fig4"):
            header, body = read_csv(out_dir / f"{name}.csv")
            assert header == ["n", "p_eta", "p_poisson"]
            assert body

    def test_fig1_far_from_poisson_fig3_close(self, tmp_path):
        out_dir = tmp_path / "figs"
        run_cli(["figures", "--out-dir", str(out_dir)])
        _, fig1 = read_csv(out_dir / "fig1.csv")
        tv1 = 0.5 * math.fsum(abs(row[1] - row[2]) for row in fig1)
        assert tv1 > 0.1
        _, fig3 = read_csv(out_dir / "fig3.csv")
        ms = moments(wide_input())
        lam = json.loads(
            run_cli(["figures", "--out-dir", str(out_dir)]).output
        )["fig3"]["lambda"]
        gap = max(abs(row[1] - row[2]) for row in fig3)
        assert gap <= lam**2 * (ms.c + 1.0) + (ms.d + 1.0) * lam**3

    def test_builtin_inputs_are_sane(self):
        wide = wide_input()
        assert abs(wide.mean - 488.5) <= 1e-9
        heavy = heavy_two_point_input()
        assert heavy.support == (1, 1001)


class TestErrorBoundary:
    @pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
    @pytest.mark.parametrize(
        "payload",
        [{"poisson": 5}, {"table": [1]}, {"two_point": []}, None],
        ids=["poisson_number", "table_of_numbers", "two_point_list", "missing_file"],
    )
    def test_malformed_spec(self, tmp_path, command, payload):
        spec = str(tmp_path / "absent.json") if payload is None else write_spec(tmp_path, payload)
        assert_one_error_line(
            run_cli(command_line(tmp_path, command, spec, SPEC_COMMANDS[command]))
        )
        assert not (tmp_path / "thin.csv").exists()

    @pytest.mark.parametrize(
        "payload, name, args",
        [
            ({"table": [[0, 1.0]]}, "moments", []),
            (EX3_SPEC, "thin", ["--target-lambda", "1000", "--out", "OUT"]),
            (EX3_SPEC, "thin", ["--out", "OUT"]),
            (EX3_SPEC, "report", ["--eta", "1.5"]),
            (EX3_SPEC, "mc", ["--eta", "-0.5"]),
        ],
        ids=["moments_zero_mean", "thin_target_above_mean", "thin_no_eta", "report_eta_above_1",
             "mc_negative_eta"],
    )
    def test_library_error(self, tmp_path, payload, name, args):
        spec = write_spec(tmp_path, payload)
        assert_one_error_line(run_cli(command_line(tmp_path, name, spec, args)))
        assert not (tmp_path / "thin.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["thin", "SPEC", "--eta", "0.1", "--out", "BLOCKER/thin.csv"],
            ["table1", "--out", "BLOCKER/table1.csv"],
            ["figures", "--out-dir", "BLOCKER/figs"],
        ],
        ids=["thin", "table1", "figures"],
    )
    def test_unwritable_output(self, tmp_path, args):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        spec = write_spec(tmp_path, EX3_SPEC)
        args = [a.replace("SPEC", spec).replace("BLOCKER", str(blocker)) for a in args]
        assert_one_error_line(run_cli(args))

    def test_broken_pipe_exits_1_without_error_line(self, tmp_path, monkeypatch):
        def closed_reader(pmf):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(photonthin.cli, "moments", closed_reader)
        result = run_cli(["moments", write_spec(tmp_path, EX3_SPEC)])
        assert result.exit_code == 1
        assert "error:" not in result.stderr

    def test_abbreviated_option_exits_2(self, tmp_path):
        # --target is not taken for --target-lambda.
        out = _run_fresh(
            "from photonthin.cli import main\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code)",
            "report", write_spec(tmp_path, EX3_SPEC), "--target", "0.1",
        )
        assert out == "2"

    @pytest.mark.parametrize("command", ["thin", "report"])
    def test_negative_n_report(self, tmp_path, command):
        spec = write_spec(tmp_path, EX3_SPEC)
        args = [*SPEC_COMMANDS[command], "--n-report", "-1"]
        result = run_cli(command_line(tmp_path, command, spec, args))
        assert result.exit_code == 2
        assert "--n-report" in result.stderr and "-1" in result.stderr
        assert_one_error_line(result)
        assert not (tmp_path / "thin.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [["--seed", "-1"], ["--seed", str(2**64)], ["--trials", "0"]],
        ids=["seed_negative", "seed_past_2_64", "trials_zero"],
    )
    def test_mc_option_out_of_range(self, tmp_path, args):
        spec = write_spec(tmp_path, EX3_SPEC)
        assert_one_error_line(run_cli(["mc", spec, "--eta", "0.1", *args]))

    def test_non_integer_option_is_a_usage_error(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        result = run_cli(["mc", spec, "--eta", "0.1", "--trials", "1.5"])
        assert result.exit_code == 2
        assert result.stderr.startswith("usage:")


class TestHelp:
    @pytest.mark.parametrize(
        "command, options",
        [
            ("moments", ["--tail-eps"]),
            ("thin", ["--tail-eps", "--eta", "--target-lambda", "--n-report", "--out"]),
            ("report", ["--tail-eps", "--eta", "--target-lambda", "--n-report"]),
            ("mc", ["--tail-eps", "--eta", "--target-lambda", "--seed", "--trials"]),
            ("table1", ["--out"]),
            ("figures", ["--out-dir"]),
        ],
    )
    def test_lists_exactly_the_command_options(self, command, options):
        result = run_cli([command, "--help"])
        assert result.exit_code == 0
        assert sorted(re.findall(r"^\s+(--[a-z-]+)", result.output, flags=re.M)) == sorted(
            [*options, "--help"]
        )
        usage = result.output.splitlines()[0]
        assert usage.endswith(" SPEC") == (command in SPEC_COMMANDS)


class TestCsvRoundTrip:
    def test_twelve_significant_digits(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        out = tmp_path / "thin.csv"
        run_cli(["thin", spec, "--target-lambda", "0.1", "--out", str(out)])
        with open(out) as fh:
            lines = fh.read().splitlines()
        for line in lines[1:]:
            for token in line.split(",")[1:]:
                value = float(token)
                assert repr(value) == token  # shortest round-trip form


def _fresh_process(code, *args):
    """``python -c code args`` run in a fresh interpreter with the source tree on the path."""
    src = str(Path(photonthin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)


def _run_fresh(code, *args):
    """stdout of :func:`_fresh_process`, which must exit 0."""
    run = _fresh_process(code, *args)
    run.check_returncode()
    return run.stdout.strip()


def _modules_after_cli_import(package):
    """Modules of package loaded by `import photonthin.cli` in a fresh interpreter."""
    return _run_fresh(
        "import sys, photonthin.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )


class TestImports:
    def test_cli_import_leaves_scipy_out(self):
        assert _modules_after_cli_import("scipy") == "[]"

    def test_cli_import_leaves_the_thread_pool_out(self):
        assert _modules_after_cli_import("concurrent") == "[]"
        # Nor does a simulation of several chunks asked for two workers:
        # the chunks run one after another in the calling thread.
        out = _run_fresh(
            "import sys\n"
            "import photonthin as pt\n"
            "p = pt.make_pmf([(1, 0.95), (1001, 0.05)])\n"
            "res = pt.simulate_thinned(p, 0.5, pt.McConfig(seed=1, trials=600_001), workers=2)\n"
            "print(res.trials)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
        )
        assert out.splitlines() == ["600001", "[]"]

    def test_cli_import_leaves_numpy_out(self):
        assert _modules_after_cli_import("numpy") == "[]"

    def test_approximation_import_leaves_numpy_out(self):
        # The exact kernels are pure Python; only the Monte Carlo oracle
        # loads numpy.
        out = _run_fresh(
            "import sys, photonthin.approximation; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        )
        assert out == "[]"

    def test_moments_runs_without_numpy(self, tmp_path):
        spec = write_spec(tmp_path, {"table": [[0, 0.25], [3, 0.5], [7, 0.25]]})
        out = _run_fresh(
            "import sys\n"
            "from photonthin.cli import main\n"
            "try:\n"
            "    main()\n"
            "finally:\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
            "moments",
            spec,
        )
        assert out.splitlines() == [
            '{"mean": 3.25, "var": 6.1875, "m3": 55.5, "c": 0.1390532544378698, '
            '"d": 1.6167501137915339}',
            "[]",
        ]

    @pytest.mark.parametrize(
        "args, kernels",
        [
            (["moments", "SPEC"], "[] False"),
            (["report", "SPEC", "--eta", "0.1"], "['approximation', 'thinning'] False"),
            (["thin", "SPEC", "--eta", "0.1", "--out", "OUT/thin.csv"],
             "['approximation', 'thinning'] False"),
            (["table1", "--out", "OUT/table1.csv"], "['approximation', 'thinning'] False"),
            (["figures", "--out-dir", "OUT"], "['approximation', 'thinning'] False"),
            (["mc", "SPEC", "--eta", "0.1", "--trials", "1000"],
             "['montecarlo', 'thinning'] True"),
        ],
        ids=["moments", "report", "thin", "table1", "figures", "mc"],
    )
    def test_each_command_loads_only_its_kernels(self, tmp_path, args, kernels):
        # The kernel modules a command leaves in sys.modules, whether
        # numpy loaded, and the click modules (none) after it runs in a
        # fresh interpreter.
        spec = write_spec(tmp_path, {"table": [[0, 0.25], [3, 0.5], [7, 0.25]]})
        args = [a.replace("SPEC", spec).replace("OUT", str(tmp_path)) for a in args]
        out = _run_fresh(
            "import sys\n"
            "from photonthin.cli import main\n"
            "try:\n"
            "    main()\n"
            "finally:\n"
            "    kernels = ('approximation', 'montecarlo', 'thinning')\n"
            "    print([k for k in kernels if f'photonthin.{k}' in sys.modules],"
            " 'numpy' in sys.modules)\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))",
            *args,
        )
        assert out.splitlines()[-2:] == [kernels, "[]"]

    def test_kernels_load_on_first_use(self):
        out = _run_fresh(
            "import sys\n"
            "import photonthin as pt\n"
            "print('numpy' in sys.modules)\n"
            "p = pt.make_pmf([(1, 0.95), (1001, 0.05)])\n"
            "print(pt.thin_direct(p, 0.5).mean)\n"
            "print(pt.build_report(p, 0.001).lam)\n"
            "print(pt.simulate_thinned(p, 0.5, pt.McConfig(seed=1, trials=10)).trials)\n"
            "print(all(getattr(pt, name) is not None for name in pt.__all__))"
        )
        p = photonthin.make_pmf([(1, 0.95), (1001, 0.05)])
        assert out.splitlines() == [
            "False",
            repr(photonthin.thin_direct(p, 0.5).mean),
            repr(photonthin.build_report(p, 0.001).lam),
            "10",
            "True",
        ]


# Runs the CLI as an install without the mc extra would: importing numpy fails.
_BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
_MAIN = "from photonthin.cli import main\nmain()"


class TestWithoutNumpy:
    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "SPEC"],
            ["report", "SPEC", "--target-lambda", "0.1"],
            ["thin", "SPEC", "--target-lambda", "0.1", "--out", "OUT/thin.csv"],
            ["table1", "--out", "OUT/table1.csv"],
            ["figures", "--out-dir", "OUT"],
        ],
        ids=["moments", "report", "thin", "table1", "figures"],
    )
    def test_exact_commands_match_the_run_with_numpy(self, tmp_path, args):
        spec = write_spec(tmp_path, EX3_SPEC)
        outputs = []
        for side, prelude in (("with", ""), ("without", _BLOCK_NUMPY)):
            out = tmp_path / side
            out.mkdir()
            line = [a.replace("SPEC", spec).replace("OUT", str(out)) for a in args]
            run = _fresh_process(prelude + _MAIN, *line)
            assert run.returncode == 0, run.stderr
            outputs.append((run.stdout, {f.name: f.read_bytes() for f in out.iterdir()}))
        assert outputs[0] == outputs[1]
        assert any(outputs[0])  # stdout, files or both

    def test_mc_exits_2_naming_the_extra(self, tmp_path):
        spec = write_spec(tmp_path, EX3_SPEC)
        run = _fresh_process(_BLOCK_NUMPY + _MAIN, "mc", spec, "--target-lambda", "0.1")
        assert run.returncode == 2
        assert run.stdout == ""
        lines = run.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), run.stderr
        assert "photonthin[mc]" in lines[0]

    def test_library_raises_numpy_own_error(self):
        # The exact kernels run; the oracle's names raise numpy's
        # ModuleNotFoundError on lookup, and so does a star import, since
        # __all__ lists them.
        out = _run_fresh(
            _BLOCK_NUMPY + "import photonthin\n"
            "print(photonthin.thin_direct(photonthin.make_pmf([(3, 1.0)]), 0.5).mean)\n"
            "for statement in ('photonthin.McConfig', 'from photonthin import *'):\n"
            "    try:\n"
            "        exec(statement, {'photonthin': photonthin})\n"
            "    except ModuleNotFoundError as exc:\n"
            "        print(exc.name)\n"
        )
        assert out.splitlines() == ["1.5", "numpy", "numpy"]


class TestPackageNames:
    def test_every_exported_name_resolves_and_is_listed(self):
        listed = dir(photonthin)
        for name in photonthin.__all__:
            assert getattr(photonthin, name) is not None
            assert name in listed

    def test_star_import_binds_every_exported_name(self):
        namespace = {}
        exec("from photonthin import *", namespace)
        assert set(photonthin.__all__) <= set(namespace)
        assert namespace["thin_direct"] is photonthin.thinning.thin_direct

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            photonthin.no_such_name
        assert not hasattr(photonthin, "no_such_name")
