import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entrodyn import cli, dynamics, errors
from entrodyn.cli import AUDIT_HEADER, SIMULATE_HEADER, main
from entrodyn.entropy_bounds import bound_report
from entrodyn.errors import NotDensityError
from entrodyn.models import MAX_DIM, get_model
from oracles import PEAK_MB, build_superoperator, traced_peak_mb, vec

PRESET_NAMES = (
    "dephasing",
    "amplitude_damping",
    "depolarizing",
    "driven_qubit",
    "truncated_oscillator",
)


# The package attribute of this name is the function, not the module.
steady_state_module = importlib.import_module("entrodyn.steady_state")

# Config texts with one number left open; BIG_INT is an integer literal
# that no float can hold.
BIG_INT = "1" + "0" * 400
MATRIX_ENTRY = (
    '{"model": {"dim": 2, "channels": [[[%s, 0], [0, 0]]]}, "initial_state": "maximally_mixed"}'
)
GAMMA_PARAM = (
    '{"model": {"name": "depolarizing", "params": {"gamma": %s}}, '
    '"initial_state": "maximally_mixed"}'
)
DT_VALUE = (
    '{"model": {"name": "depolarizing"}, "initial_state": "maximally_mixed", '
    '"integrator": {"dt": %s, "t_max": 1.0}}'
)


# Labels that could break a report spliced together from text: a control
# character, the report's own key and quoting, non-ASCII, a raw newline.
AWKWARD_LABELS = ("\u0000", 'x", "steady_state": "', "\u00e9t\u00e9 \u4e2d \U0001f600",
                  '\n  "steady_state": null')
INLINE_QUBIT = {"dim": 2, "hamiltonian": [[1, 0.3], [0.3, -1]], "channels": [[[0, 1], [0, 0]]]}


def pair_rows(matrix):
    """A complex matrix as the JSON rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in map(complex, row)] for row in matrix]


def oscillator(d):
    return {"model": {"name": "truncated_oscillator", "params": {"d": d}}}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(tmp_path, command, config, out_name="out.txt", extra=()):
    cfg_path = write_config(tmp_path, config)
    out_path = tmp_path / out_name
    code = main([command, "--config", cfg_path, "--out", str(out_path), *extra])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def assert_one_line_error(stderr):
    assert stderr.startswith("error: ")
    assert stderr.count("\n") == 1


def first_row(tmp_path, config, dt):
    """The header and t=0 row of an exit-0 run of ``config``'s model and state at ``dt``.

    That row holds only the initial state, so it is what a run that fails in a
    later stack has written before the failure.
    """
    stable = {**config, "integrator": {"dt": dt, "t_max": 2 * dt}}
    code, text = run(tmp_path, "simulate", stable, out_name="stable.csv")
    assert code == 0
    head = text.splitlines(keepends=True)[:2]
    assert head[0] == SIMULATE_HEADER + "\n" and head[1].startswith("0.0000000000000000e+00,")
    return "".join(head)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestSimulate:
    def test_dephasing_from_plus(self, tmp_path):
        code, text = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "dephasing", "params": {"gamma": 1.0}},
                "initial_state": "plus",
                "integrator": {"dt": 1e-3, "t_max": 3.0, "record_stride": 100},
            },
        )
        assert code == 0
        header, rows = parse_csv(text)
        assert ",".join(header) == SIMULATE_HEADER
        entropies = [float(r["S"]) for r in rows]
        assert np.all(np.diff(entropies) >= -1e-12)  # non-decreasing
        assert abs(entropies[-1] - math.log(2)) <= 1e-4

    def test_no_channel_model_has_zero_rate(self, tmp_path):
        code, text = run(
            tmp_path,
            "simulate",
            {
                "model": {"dim": 2, "hamiltonian": [[1, 0], [0, -1]], "label": "drift"},
                "initial_state": "plus",
                "integrator": {"dt": 1e-2, "t_max": 0.5, "record_stride": 10},
            },
        )
        assert code == 0
        _, rows = parse_csv(text)
        assert all(float(r["rate_exact"]) == 0.0 for r in rows)
        assert all(r["threshold_general"] == "" for r in rows)

    def test_pure_state_rate_serializes_as_inf(self, tmp_path):
        code, text = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "amplitude_damping"},
                "initial_state": [[1, 0], [0, 0]],
                "integrator": {"dt": 1e-3, "t_max": 0.1, "record_stride": 50},
            },
        )
        assert code == 0
        _, rows = parse_csv(text)
        assert rows[0]["rate_exact"] == "inf"

    @pytest.mark.parametrize(
        "value, text",
        [
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (-0.0, "-0.0000000000000000e+00"),
            (5e-324, "4.9406564584124654e-324"),
            (0.1, "1.0000000000000001e-01"),
            (np.float64(0.1), "1.0000000000000001e-01"),
            (None, ""),
        ],
    )
    def test_field_format(self, value, text):
        # A row writes each float as "%.16e"; None stands for absent thresholds.
        given = [] if value is None else [value, value]
        row = cli._SIMULATE_ROWS[len(given)] % (0.0, 0.0, 0.0, 0.0, *given, "false", 0.0, 0.0)
        assert row.split(",")[4:6] == [text, text]

    @pytest.mark.parametrize(
        "state, row",
        [
            (
                "maximally_mixed",
                "0.0000000000000000e+00,6.9314718055994529e-01,0.0000000000000000e+00,"
                "-4.4314718055994529e-01,2.5000000000000000e-01,,false,"
                "0.0000000000000000e+00,5.0000000000000000e-01",
            ),
            (
                [[1, 0], [0, 0]],
                "0.0000000000000000e+00,0.0000000000000000e+00,inf,1.0000000000000000e+00,"
                "1.0000000000000000e+00,,true,0.0000000000000000e+00,0.0000000000000000e+00",
            ),
        ],
    )
    def test_row_bytes(self, tmp_path, state, row):
        # amplitude damping at t = 0: every field is exact, so the bytes are pinned
        code, text = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "amplitude_damping"},
                "initial_state": state,
                "integrator": {"dt": 0.01, "t_max": 0.02, "record_stride": 2},
            },
        )
        assert code == 0
        assert text.splitlines()[:2] == [SIMULATE_HEADER, row]

    def test_positivity_lost_exits_three(self, tmp_path):
        code, _ = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "dephasing"},
                "initial_state": "plus",
                "integrator": {"dt": 1.5, "t_max": 3.0},
            },
        )
        assert code == 3

    def test_divergent_integration_exits_four(self, tmp_path, capsys):
        # dt far beyond the stability boundary overflows between two records; the
        # first stack, the t=0 record, is written before the second one fails.
        config = {
            "model": {"name": "depolarizing", "params": {"gamma": 1e6}},
            "initial_state": "plus",
            "integrator": {"dt": 0.01, "t_max": 1.0, "record_stride": 100},
        }
        code, text = run(tmp_path, "simulate", config)
        assert code == 4
        assert text == first_row(tmp_path, config, 1e-9)
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "non-finite" in err

    def test_overflowing_propagator_falls_back_to_direct_steps(self, tmp_path, capsys):
        # gamma = 1e300 overflows the dense d^2 x d^2 RK4 propagator, which 200
        # steps at d=16 would use. The ground state is exactly stationary, and
        # only the direct step keeps it finite.
        config = {
            "model": {"name": "truncated_oscillator", "params": {"d": 16, "gamma": 1e300}},
            "initial_state": "ground",
            "integrator": {"dt": 1e-3, "t_max": 0.2, "record_stride": 100},
        }
        code, text = run(tmp_path, "simulate", config)
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 3
        assert all(float(r["S"]) == 0.0 for r in rows)
        config["initial_state"] = "maximally_mixed"
        code, text = run(tmp_path, "simulate", config, out_name="moving.csv")
        assert code == 4
        assert text == first_row(tmp_path, config, 1e-303)
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "diverged to non-finite entries" in err

    def test_trace_drift_exits_four(self, tmp_path, capsys, monkeypatch):
        # No stable dt drifts the trace alone: an unstable one loses positivity or
        # diverges first. Records scaled by 1 + 2e-9 drift by 2e-9 > TRACE_DRIFT_TOL.
        config = {
            "model": {"name": "depolarizing"},
            "initial_state": "plus",
            "integrator": {"dt": 1e-3, "t_max": 0.01, "record_stride": 1},
        }
        written = first_row(tmp_path, config, 1e-3)  # the t=0 record is rho0, not advanced
        original = dynamics._rk4_propagator

        def drifting(*args):
            advance = original(*args)
            return lambda rho, chunks: advance(rho, chunks) * (1 + 2e-9)

        monkeypatch.setattr(dynamics, "_rk4_propagator", drifting)
        code, text = run(tmp_path, "simulate", config)
        assert code == 4
        assert text == written
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "trace drift 2.000e-09 exceeds 1.0e-09 at t=0.001; reduce dt" in err

    @pytest.mark.parametrize(
        "dt, code, message",
        [(0.69, 0, None), (0.72, 3, "t=360"), (1.0, 4, "by t=500")],
    )
    def test_unstable_dt_exit_codes(self, tmp_path, capsys, dt, code, message):
        # Across the RK4 stability limit of depolarizing, each chunk of 500 steps
        # is one cached power: the first record past the limit still decides the code.
        # It lies in the second stack, so the t=0 row is written first.
        config = {
            "model": {"name": "depolarizing", "params": {"gamma": 1.0}},
            "initial_state": "plus",
            "integrator": {"dt": dt, "t_max": 2000, "record_stride": 500},
        }
        got, text = run(tmp_path, "simulate", config)
        err = capsys.readouterr().err
        assert got == code
        if message is None:
            assert err == "" and text.startswith(SIMULATE_HEADER)
        else:
            assert text == first_row(tmp_path, config, 1e-3)
            assert_one_line_error(err)
            assert message in err

    def test_failing_run_has_written_each_stack_gated_before_it(self, tmp_path, capsys):
        # Near the maximally mixed state at dt past the RK4 limit, the growing
        # coherence takes 93 steps to lose positivity: stacks of 1 to 32 records
        # pass the gate and are written, and the stack of 64 from t=45.36 fails.
        config = {
            "model": {"name": "depolarizing"},
            "initial_state": [[0.5, 1e-6], [1e-6, 0.5]],
            "integrator": {"dt": 0.72, "t_max": 20000, "record_stride": 1},
        }
        code, text = run(tmp_path, "simulate", config)
        err = capsys.readouterr().err
        assert code == 3
        assert_one_line_error(err)
        assert "t=66.96" in err
        assert len(text.splitlines()) == 1 + 63
        config["integrator"]["t_max"] = 62 * 0.72
        code, passed = run(tmp_path, "simulate", config, out_name="passed.csv")
        assert code == 0
        assert text == passed

    def test_memory_is_flat_in_the_record_count(self):
        # Each stack's rows are written as they come and nothing is held across
        # stacks, so 2000 records of the d=32 oscillator peak within 1 MB of what 200
        # do (a run held whole grows by about 17 KB a record: 6.5 and 36.7 MB).
        peaks = []
        for t_max in (0.2, 2.0):
            config = {"model": {"name": "truncated_oscillator", "params": {"d": 32, "gamma": 0.2}},
                      "initial_state": "maximally_mixed",
                      "integrator": {"dt": 1e-3, "t_max": t_max, "record_stride": 1}}
            with open(os.devnull, "w") as out:
                peaks.append(traced_peak_mb(cli.run_simulate, config, out)[1])
        assert peaks[1] < peaks[0] + 1.0, peaks

    def test_non_finite_power_falls_back_to_steps(self, tmp_path, monkeypatch):
        # At dt = 1000 dephasing's coherences grow by ~7e11 a step, so P^1000
        # overflows. The ground state leaves them zero, and only stepping keeps
        # them zero: the overflowing power would make inf * 0 = NaN (exit 4).
        config = {
            "model": {"name": "dephasing"},
            "initial_state": "ground",
            "integrator": {"dt": 1000, "t_max": 1e6, "record_stride": 1000},
        }
        finite, real = [], np.linalg.matrix_power

        def watched(a, n):
            power = real(a, n)
            finite.append(bool(np.isfinite(power).all()))
            return power

        monkeypatch.setattr(dynamics.np.linalg, "matrix_power", watched)
        code, text = run(tmp_path, "simulate", config)
        assert code == 0
        assert finite == [False]  # one power, for the one chunk, and it was not finite
        monkeypatch.setattr(dynamics, "_rk4_propagator", lambda *args: None)
        code, direct = run(tmp_path, "simulate", config, out_name="direct.csv")
        assert code == 0
        assert text == direct

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_output_is_run_to_run_identical(self, tmp_path, name):
        config = {
            "model": {"name": name},
            "initial_state": "maximally_mixed",
            "integrator": {"dt": 1e-3, "t_max": 0.1, "record_stride": 10},
        }
        _, first = run(tmp_path, "simulate", config, out_name=f"{name}_a.csv")
        _, second = run(tmp_path, "simulate", config, out_name=f"{name}_b.csv")
        assert first == second
        assert first.startswith(SIMULATE_HEADER)


class TestSteady:
    def test_depolarizing_report(self, tmp_path):
        code, text = run(tmp_path, "steady", {"model": {"name": "depolarizing"}})
        assert code == 0
        report = json.loads(text)
        assert abs(report["entropy_floor"] - 0.25) <= 1e-9
        assert abs(report["entropy"] - math.log(2)) <= 1e-9
        assert len(report["channel_gains"]) == 3
        assert report["generator_residual"] <= 1e-9

    def test_amplitude_damping_report(self, tmp_path):
        code, text = run(tmp_path, "steady", {"model": {"name": "amplitude_damping"}})
        assert code == 0
        report = json.loads(text)
        assert abs(report["entropy_floor"]) <= 1e-12
        assert abs(report["entropy"]) <= 1e-9

    def test_dephasing_exits_five_with_null_dimension(self, tmp_path, capsys):
        code, text = run(tmp_path, "steady", {"model": {"name": "dephasing"}})
        assert code == 5
        report = json.loads(text)
        assert report["null_dimension"] == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_misconfigured_tolerance_exits_four(self, tmp_path):
        code, _ = run(tmp_path, "steady", {"model": {"name": "driven_qubit"}, "tol": 1e-22})
        assert code == 4

    def test_huge_rates_give_the_ground_state_silently(self, tmp_path, capsys):
        # Generator entries near 1e300: a plain Frobenius norm of it overflows.
        config = {"model": {"name": "truncated_oscillator", "params": {"d": 4, "gamma": 1e300}}}
        code, text = run(tmp_path, "steady", config)
        assert code == 0
        assert capsys.readouterr().err == ""
        state = np.array(json.loads(text)["steady_state"])
        ground = np.zeros((4, 4, 2))
        ground[3, 3, 0] = 1.0
        assert np.max(np.abs(state - ground)) <= 1e-12

    def test_linalg_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        def no_convergence(model, tol):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "_steady_solve", no_convergence)
        code, _ = run(tmp_path, "steady", {"model": {"name": "driven_qubit"}})
        assert code == 4
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    def test_memory_error_exits_four(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(model, tol):
            raise MemoryError("Unable to allocate 256. MiB for an array")

        monkeypatch.setattr(cli, "_steady_solve", out_of_memory)
        code, text = run(tmp_path, "steady", {"model": {"name": "driven_qubit"}})
        assert code == 4
        assert text == ""
        assert capsys.readouterr().err == "error: Unable to allocate 256. MiB for an array\n"

    @pytest.mark.parametrize("name", ["driven_qubit", "truncated_oscillator"])
    def test_generator_built_zero_times(self, tmp_path, name):
        # the traced peak stays under the d=64 models' bound, and the report's
        # residual, measured on G's blocks, is the dense generator's
        (code, text), peak = traced_peak_mb(run, tmp_path, "steady", {"model": {"name": name}})
        assert code == 0
        assert peak < PEAK_MB
        report = json.loads(text)
        rho = np.array([[complex(re, im) for re, im in row] for row in report["steady_state"]])
        gen = build_superoperator(cli.get_model(name, {}))
        expected = float(np.linalg.norm(gen @ vec(rho)))
        assert abs(report["generator_residual"] - expected) <= 1e-15

    @pytest.mark.parametrize("config", [{"model": {"name": "driven_qubit"}}, oscillator(5)])
    def test_direct_map_runs_once(self, tmp_path, monkeypatch, config):
        # the self-check's stacked probes are the run's only direct map; the
        # report's residual comes from the solve
        calls = []
        original = dynamics.liouvillian_rhs

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dynamics, "liouvillian_rhs", counted)
        monkeypatch.setattr(cli, "liouvillian_rhs", counted, raising=False)
        code, _ = run(tmp_path, "steady", config)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("config", [
        *({"model": {"name": name}} for name in PRESET_NAMES),
        *(oscillator(d) for d in (3, 16, 24, 32)),
        *({"model": {**INLINE_QUBIT, "label": label}} for label in AWKWARD_LABELS),
    ])
    def test_report_is_the_bytes_of_json_dump(self, tmp_path, config):
        code, text = run(tmp_path, "steady", config)
        assert code == (5 if config["model"].get("name") == "dephasing" else 0)
        payload = json.loads(text)
        if code == 0:
            # the written matrix is the library's steady state, entry for entry
            rho = steady_state_module.steady_state(cli._model_from_config(config))
            payload["steady_state"] = pair_rows(rho)
        assert text == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("label", ["edge", *AWKWARD_LABELS])
    @pytest.mark.parametrize("matrix", [
        [[-0.0, 1e-300, 5e-324], [1e-17j, 1.0, 0.0], [complex(-0.0, -0.0), 1 - 1e-17j, -5e-324]],
        [[1.0]],
    ])
    def test_report_writer_matches_json_dump(self, label, matrix):
        report = {"label": label, "dim": len(matrix), "steady_state": np.array(matrix),
                  "entropy": 0.0, "channel_gains": [0.1, -0.0]}
        written = io.StringIO()
        cli._write_steady_report(written, report)
        expected = io.StringIO()
        json.dump({**report, "steady_state": pair_rows(matrix)}, expected, indent=2)
        assert written.getvalue() == expected.getvalue() + "\n"


class TestBounds:
    def test_dephasing_at_maximally_mixed(self, tmp_path):
        code, text = run(
            tmp_path,
            "bounds",
            {"model": {"name": "dephasing"}, "initial_state": "maximally_mixed"},
        )
        assert code == 0
        report = json.loads(text)
        assert report["threshold_variance"] == pytest.approx(0.5)
        assert report["threshold_general"] == pytest.approx(0.25)
        assert report["monotone_guaranteed"] is False
        assert report["maximally_mixed_floor"] == 0.25

    def test_reference_floor_for_dimension_three(self, tmp_path):
        code, text = run(
            tmp_path,
            "bounds",
            {
                "model": {"name": "truncated_oscillator", "params": {"d": 3}},
                "initial_state": "maximally_mixed",
            },
        )
        assert code == 0
        report = json.loads(text)
        assert report["maximally_mixed_floor"] == pytest.approx(2.0 / 9.0)
        assert report["max_entropy"] == pytest.approx(math.log(3))

    def test_saturated_rate_serializes_as_inf(self, tmp_path):
        config = {"model": {"name": "amplitude_damping"}, "initial_state": "plus"}
        code, text = run(tmp_path, "bounds", config)
        assert code == 0
        assert '"rate_exact": "inf",' in text
        assert json.loads(text)["log_floor_hit"] is True

    def test_no_channels_exits_six(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "bounds",
            {
                "model": {"dim": 2, "hamiltonian": [[0, 0], [0, 0]]},
                "initial_state": "maximally_mixed",
            },
        )
        assert code == 6
        # steady has no usable channel to take a floor from either
        for model in ({"dim": 1}, {"dim": 1, "channels": [[[0]]]}):
            capsys.readouterr()
            code, _ = run(tmp_path, "steady", {"model": model})
            assert code == 6
            assert_one_line_error(capsys.readouterr().err)

    def test_state_inside_entropy_gate_matches_bound_report(self, tmp_path, capsys):
        # a smallest eigenvalue of -5e-7 fails the strict gate's 1e-8 but passes the
        # entropy gate's 1e-6, which bound_report applies too
        state = [[1.0000005, 0], [0, -5e-7]]
        config = {"model": {"name": "depolarizing"}, "initial_state": state}
        code, text = run(tmp_path, "bounds", config)
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads(text)
        assert report["rate_exact"] == "inf"
        assert report["log_floor_hit"] is True
        rep = bound_report(get_model("depolarizing"), np.array(state))
        for key in ("entropy", "rate_lower_bound", "threshold_general", "threshold_variance",
                    "monotone_guaranteed", "log_floor_hit"):
            assert report[key] == getattr(rep, key), key
        assert math.isinf(rep.rate_exact)

    def test_state_outside_entropy_gate_is_refused_by_both(self, tmp_path, capsys):
        state = [[1.000002, 0], [0, -2e-6]]
        config = {"model": {"name": "depolarizing"}, "initial_state": state}
        code, text = run(tmp_path, "bounds", config)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "negative eigenvalue" in err
        with pytest.raises(NotDensityError, match="negative eigenvalue"):
            bound_report(get_model("depolarizing"), np.array(state))

    def test_variance_demand_on_nonhermitian_channel_exits_six(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "bounds",
            {
                "model": {"name": "amplitude_damping"},
                "initial_state": "maximally_mixed",
                "require_variance_threshold": True,
            },
        )
        assert code == 6
        assert_one_line_error(capsys.readouterr().err)


class TestAudit:
    def test_canned_case_is_reported_as_violation(self, tmp_path):
        code, text = run(tmp_path, "audit", {"d": 2, "count": 10, "seed": 0})
        assert code == 0
        header, rows = parse_csv(text)
        assert ",".join(header) == AUDIT_HEADER
        assert rows[0]["case_id"] == "canned"
        assert float(rows[0]["trace_sq_lhs"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[0]["trace_sq_rhs"]) == pytest.approx(0.0, abs=1e-12)
        assert rows[0]["trace_sq_holds"] == "false"

    def test_log_inequality_never_violated(self, tmp_path):
        code, text = run(tmp_path, "audit", {"d": 3, "count": 50, "seed": 7})
        assert code == 0
        _, rows = parse_csv(text)
        assert all(float(r["logineq_min_eig"]) >= -1e-10 for r in rows)
        assert "log_ineq_violations=0" in text

    def test_zero_count_rejected(self, tmp_path):
        code, _ = run(tmp_path, "audit", {"d": 2, "count": 0})
        assert code == 2

    def test_summary_line_present(self, tmp_path):
        code, text = run(tmp_path, "audit", {"d": 2, "count": 3, "seed": 1})
        assert code == 0
        assert text.strip().splitlines()[-1].startswith("# summary: rows=3")


class TestModels:
    def test_lists_all_presets(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in out

    def test_json_output(self, tmp_path):
        out_path = tmp_path / "models.json"
        assert main(["models", "--json", "--out", str(out_path)]) == 0
        entries = json.loads(out_path.read_text())
        assert [e["name"] for e in entries] == list(PRESET_NAMES)
        assert any(e["channels"] == 3 for e in entries)  # the multi-channel preset

    def test_stable_ordering(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["models", "--json", "--out", str(a)])
        main(["models", "--json", "--out", str(b)])
        assert a.read_text() == b.read_text()


# One small run per command that the fast argv path accepts.
RUN_CONFIGS = {
    "simulate": {"model": {"name": "depolarizing"}, "initial_state": "plus",
                 "integrator": {"dt": 0.01, "t_max": 0.05}},
    "steady": {"model": {"name": "driven_qubit"}},
    "bounds": {"model": {"name": "depolarizing"}, "initial_state": "plus"},
    "audit": {"d": 2, "count": 3},
}
COMMANDS = tuple(RUN_CONFIGS)


def argv_cases(p, o):
    """Argvs around the documented ``CMD --config C [--out O]``, valid and not."""
    cases = [[], ["--help"], ["bogus", "--config", p], ["Steady", "--config", p],
             ["--config", p, "steady"], ["models"], ["models", "--json"],
             ["models", "--out", o], ["models", "--json", "--out", o],
             ["models", "--out", o, "--json"], ["models", "--config", p]]
    for cmd in (*COMMANDS, "models"):
        cases += [
            [cmd, "--config", p], [cmd, "--config", p, "--out", o],
            [cmd, "--out", o, "--config", p], [cmd], [cmd, "-h"], [cmd, "--config"],
            [cmd, "--out", o], [cmd, "--out", o, "--config"],
            [cmd, "--config", p, "--out"], [cmd, "--config", p, "-h"], [cmd, "--config", ""],
            [cmd, "--config", "-x"], [cmd, "--config", "-1"], [cmd, "--config", p, "--out", "-"],
            [cmd, "--out", "-o", "--config", p], [cmd, "--config", p, "--config", p],
            [cmd, "--out", o, "--out", o], [cmd, "--config", p, "--config", p, "--out", o],
            [cmd, f"--config={p}"], [cmd, f"--config={p}", "--out", o],
            [cmd, "--config", p, f"--out={o}"],
            [cmd, "--conf", p], [cmd, "--c", p, "--out", o], [cmd, "--config", p, "--o", o],
            [cmd, "--config", p, "--bogus", "x"], [cmd, "--config", p, "x"],
            [cmd, "--config", p, "--out", o, "x"], [cmd, "--json", "--config", p],
        ]
    return cases


class TestArgv:
    """argparse handles every argv but the documented form, with its messages and exit codes."""

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["steady"], ["steady", "--config"],
         ["steady", "--config", "CONFIG", "--bogus", "x"]],
        ids=["empty", "unknown_command", "no_config", "config_without_value", "unknown_option"],
    )
    def test_usage_error_exits_two(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, RUN_CONFIGS["steady"])
        with pytest.raises(SystemExit) as exc:
            main([path if a == "CONFIG" else a for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: entrodyn")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["steady", "-h"]], ids=["help", "steady_h"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: entrodyn")
        assert captured.err == ""

    @pytest.mark.parametrize("form", ["abbreviated", "equals"])
    def test_argparse_forms_run(self, tmp_path, capsys, form):
        path = write_config(tmp_path, RUN_CONFIGS["steady"])
        option = ["--conf", path] if form == "abbreviated" else [f"--config={path}"]
        assert main(["steady", *option]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == "driven_qubit"

    def test_fast_path_is_argparses_parse(self, tmp_path, capsys):
        p, o = str(tmp_path / "c.json"), str(tmp_path / "o.txt")
        for argv in argv_cases(p, o):
            fast = cli._parse_argv(argv)
            try:
                expected = cli._build_parser().parse_args(argv)
            except SystemExit:
                expected = None
            if fast is not None:
                assert fast == expected, argv
        for cmd in COMMANDS:
            for argv in ([cmd, "--config", p], [cmd, "--config", p, "--out", o],
                         [cmd, "--out", o, "--config", p]):
                assert cli._parse_argv(argv) is not None, argv

    @pytest.mark.parametrize("command", COMMANDS)
    def test_documented_form_builds_no_parser(self, tmp_path, monkeypatch, command):
        def refuse():
            raise AssertionError("argparse parser built for the documented argv")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        path = write_config(tmp_path, RUN_CONFIGS[command])
        out = tmp_path / "out.txt"
        assert main([command, "--config", path, "--out", str(out)]) == 0
        assert out.read_text()
        monkeypatch.setattr(sys, "argv", ["entrodyn", command, "--out", str(out), "--config", path])
        assert main() == 0


class TestConfigErrors:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        ("write", "message"),
        [
            (lambda path: path.write_bytes(b"\xff\xfe{}"), "config is not valid UTF-8"),
            (lambda path: path.write_text("[]"), "config root must be a JSON object"),
            (lambda path: path.mkdir(), "cannot read config"),
        ],
        ids=["not_utf8", "root_array", "directory"],
    )
    def test_config_not_utf8_exits_two(self, tmp_path, capsys, write, message):
        bad = tmp_path / "bad.json"
        write(bad)
        assert main(["steady", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert message in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000 + "1" + "}" * 100_000],
        ids=["arrays", "objects"],
    )
    def test_deeply_nested_config_exits_two(self, tmp_path, capsys, text):
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        assert main(["steady", "--config", str(deep)]) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "config nests too deeply" in err

    def test_preset_and_inline_together(self, tmp_path):
        code, _ = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "dephasing", "dim": 2},
                "initial_state": "plus",
            },
        )
        assert code == 2

    def test_unknown_preset(self, tmp_path):
        code, _ = run(tmp_path, "bounds", {"model": {"name": "qubitz"}, "initial_state": "plus"})
        assert code == 2

    def test_bad_initial_state(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "simulate",
            {"model": {"name": "dephasing"}, "initial_state": [[1, 0], [0, 1]]},
        )
        assert code == 2  # trace 2
        # the Hermiticity defect overflows a float; numpy must not warn
        for command in ("bounds", "simulate"):
            capsys.readouterr()
            config = {"model": {"name": "dephasing"}, "initial_state": [[0.5, 1e200], [0, 0.5]]}
            assert run(tmp_path, command, config)[0] == 2
            assert_one_line_error(capsys.readouterr().err)

    def test_wrong_matrix_dimension(self, tmp_path):
        code, _ = run(
            tmp_path,
            "simulate",
            {
                "model": {"dim": 3, "channels": [[[0, 0], [1, 0]]]},
                "initial_state": "maximally_mixed",
            },
        )
        assert code == 2

    def test_inline_nonhermitian_hamiltonian(self, tmp_path):
        code, _ = run(
            tmp_path,
            "simulate",
            {
                "model": {"dim": 2, "hamiltonian": [[0, 1], [0, 0]]},
                "initial_state": "plus",
            },
        )
        assert code == 2

    def test_output_goes_only_to_out_or_stdout(self, tmp_path, capsys):
        # a config key naming a path is not an output path: --out is the only one
        target = tmp_path / "from_config.csv"
        cfg_path = write_config(
            tmp_path,
            {
                "model": {"name": "dephasing"},
                "initial_state": "plus",
                "integrator": {"dt": 1e-2, "t_max": 0.1},
                "outputs": {"path": str(target)},
            },
        )
        out_path = tmp_path / "out.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_path)]) == 0
        assert main(["simulate", "--config", cfg_path]) == 0
        assert capsys.readouterr().out == out_path.read_text()
        assert out_path.read_text().startswith(SIMULATE_HEADER)
        assert not target.exists()

    @pytest.mark.parametrize(
        ("command", "out_arg"),
        [("simulate", "missing_dir/out.csv"), ("models", "missing_dir/out.txt")],
        ids=["out_in_missing_dir", "models_out_in_missing_dir"],
    )
    def test_unusable_output_path_exits_two(self, tmp_path, capsys, command, out_arg):
        config = {"model": {"name": "dephasing"}, "initial_state": "plus"}
        argv = [command, "--out", str(tmp_path / out_arg)]
        if command != "models":
            argv += ["--config", write_config(tmp_path, config)]
        assert main(argv) == 2
        assert_one_line_error(capsys.readouterr().err)

    def test_complex_entries_accepted_as_pairs(self, tmp_path):
        code, text = run(
            tmp_path,
            "bounds",
            {
                "model": {
                    "dim": 2,
                    "channels": [[[[0, 0], [0, -1]], [[0, 1], [0, 0]]]],  # sigma_y
                    "label": "y-measurement",
                },
                "initial_state": "maximally_mixed",
            },
        )
        assert code == 0
        assert json.loads(text)["threshold_variance"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        ("state", "message"),
        [
            ([[True, 0], [0, 0.5]], "got True"),
            ([[[0.5, 0, 0], 0], [0, 0.5]], "got [0.5, 0, 0]"),
            ([[[0.5, False], 0], [0, 0.5]], "got [0.5, False]"),
            ([[0.5, 0], [0.5]], "initial_state must be square, got ragged/non-square rows"),
            ([[1]], "initial_state has dimension 1, expected 2"),
            ([0.5, 0.5], "initial_state must be a row-major nested array"),
        ],
        ids=["bare_bool", "triple", "pair_with_bool", "ragged", "wrong_dim", "not_nested"],
    )
    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    def test_malformed_matrix_exits_two(self, tmp_path, capsys, command, state, message):
        config = {"model": {"name": "dephasing"}, "initial_state": state}
        code, text = run(tmp_path, command, config)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert message in err

    def test_bare_reals_mix_with_pairs(self, tmp_path):
        config = {"model": {"name": "driven_qubit"},
                  "integrator": {"dt": 1e-3, "t_max": 0.3, "record_stride": 50}}
        mixed = run(tmp_path, "simulate",
                    {**config, "initial_state": [[0.5, [0, 0.25]], [[0, -0.25], 0.5]]})
        pairs = run(tmp_path, "simulate",
                    {**config, "initial_state": [[[0.5, 0], [0, 0.25]], [[0, -0.25], [0.5, 0]]]})
        assert mixed == pairs
        assert mixed[0] == 0
        assert mixed[1].count("\n") == 8

    @pytest.mark.parametrize(
        "override",
        [
            {"dt": True},
            {"hermitize_each_step": "no"},
            {"record_stride": "x"},
            {"positivity_tol": "a"},
            {"dt": "0.01"},
            {"hermitize_each_step": True},
            {"trace_renormalize_each_step": False},
            {"positivity_tol": 1e-8},
            {"dt": 1e-310},  # t_max / dt overflows to inf
            {"t_max": -1},
        ],
    )
    def test_mistyped_integrator_value_exits_two(self, tmp_path, capsys, override):
        code, _ = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "dephasing"},
                "initial_state": "plus",
                "integrator": {"dt": 0.1, "t_max": 3.0, **override},
            },
        )
        assert code == 2
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["steady", "simulate", "bounds"])
    @pytest.mark.parametrize(
        ("literal", "template"),
        [
            *(pytest.param(x, MATRIX_ENTRY, id=x) for x in ("NaN", "Infinity", "-Infinity")),
            pytest.param("1e400", MATRIX_ENTRY, id="1e400"),
            pytest.param(BIG_INT, MATRIX_ENTRY, id="big_int"),
            pytest.param(BIG_INT, GAMMA_PARAM, id="big_int_gamma"),
            pytest.param(BIG_INT, DT_VALUE, id="big_int_dt"),
        ],
    )
    def test_non_finite_number_exits_two(self, tmp_path, capsys, command, literal, template):
        path = tmp_path / "config.json"
        path.write_text(template % literal)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out.txt")])
        assert code == 2
        assert_one_line_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["steady", "simulate", "bounds"])
    @pytest.mark.parametrize(
        "model",
        [
            {"dim": 2, "channels": [[[1e160, 0], [0, 1]]]},
            {"name": "depolarizing", "params": {"gamma": 1e308}},
        ],
        ids=["inline_channel", "depolarizing"],
    )
    def test_non_finite_operator_norm_exits_two(self, tmp_path, capsys, command, model):
        code, text = run(
            tmp_path, command, {"model": model, "initial_state": "maximally_mixed"}
        )
        assert code == 2
        assert text == ""
        assert "non-finite Frobenius norm" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["steady", "simulate", "bounds"])
    @pytest.mark.parametrize("count", [1, 2], ids=["one_channel", "two_channels"])
    def test_model_scale_without_headroom_exits_two(self, tmp_path, capsys, command, count):
        # |L|_F^2 = 1.69e308 is finite, but the channel's squared Hermiticity
        # defect overflows, and so does the weight summed over two channels.
        model = {"dim": 2, "channels": [[[0, 1.3e154], [0, 0]]] * count}
        code, text = run(
            tmp_path, command, {"model": model, "initial_state": "maximally_mixed"}
        )
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "model scale" in err

    @pytest.mark.parametrize(
        "model, bounds_code",
        [
            ({"name": "amplitude_damping", "params": {"gamma": 1e-310}}, 0),
            ({"name": "dephasing", "params": {"gamma": 1e-320}}, 0),
            ({"dim": 2, "channels": [[[0, 1e-155], [0, 0]]]}, 0),
            ({"dim": 2, "hamiltonian": [[1e-310, 0], [0, -1e-310]]}, 6),
            # the commutator's entries cancel to 1.7e-316
            ({"dim": 2, "hamiltonian": [[1e-300, 0], [0, 1e-300 * (1 + 2**-52)]]}, 6),
        ],
        ids=["amplitude_damping", "dephasing", "inline_channel", "hamiltonian", "cancelling"],
    )
    def test_generator_below_float_range(self, tmp_path, capsys, monkeypatch, model, bounds_code):
        # The largest generator entry has a reciprocal that overflows, so the
        # superoperator's self-check cannot probe it: steady refuses it, and
        # simulate steps directly on the propagator's path too.
        config = {
            "model": model,
            "initial_state": "plus",
            "integrator": {"dt": 0.1, "t_max": 1.0},
        }
        code, text = run(tmp_path, "steady", config)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "generator scale" in err
        assert run(tmp_path, "bounds", config)[0] == bounds_code
        dense = run(tmp_path, "simulate", config, out_name="dense.csv")
        monkeypatch.setattr(dynamics, "MAX_BLOCK", 0)
        assert run(tmp_path, "simulate", config, out_name="direct.csv") == dense
        assert dense[0] == 0

    @pytest.mark.parametrize(
        ("command", "config", "message"),
        [
            ("simulate", {"initial_state": "x"}, "unknown named state 'x'"),
            ("bounds", {"initial_state": "x"}, "unknown named state 'x'"),
            ("bounds", {"model": {"dim": 1}}, "dimension >= 2"),
            *(
                ("bounds", {"require_variance_threshold": value}, "require_variance_threshold")
                for value in ("false", 1, None)
            ),
            ("simulate", {"initial_state": None}, "config needs 'initial_state'"),
            ("simulate", {"integrator": []}, "'integrator' must be an object"),
        ],
        ids=["simulate_state", "bounds_state", "bounds_dim_1", "rvt_false", "rvt_1", "rvt_null",
             "no_state", "integrator_array"],
    )
    def test_rejected_input_exits_two(self, tmp_path, capsys, command, config, message):
        base = {"model": {"name": "amplitude_damping"}, "initial_state": "maximally_mixed"}
        code, text = run(tmp_path, command, {**base, **config})
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert message in err

    @pytest.mark.parametrize("d", [10**20, MAX_DIM + 1], ids=["1e20", "max_dim_plus_one"])
    @pytest.mark.parametrize(
        ("command", "config"),
        [
            ("audit", lambda d: {"d": d, "count": 1}),
            ("simulate", lambda d: {"model": {"dim": d}, "initial_state": "plus"}),
            ("steady", lambda d: {"model": {"dim": d}}),
            ("bounds", lambda d: {**oscillator(d), "initial_state": "plus"}),
            ("steady", lambda d: oscillator(d)),
        ],
        ids=["audit_d", "simulate_dim", "steady_dim", "bounds_preset_d", "steady_preset_d"],
    )
    def test_dimension_above_cap_exits_two(self, tmp_path, capsys, command, config, d):
        code, text = run(tmp_path, command, config(d))
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert str(MAX_DIM) in err

    @pytest.mark.parametrize(
        "state",
        [[[0.50000005, 0], [0, 0.5]], [[0.5, [0, 3e-9]], [0, 0.5]]],
        ids=["trace_error_5e-8", "hermiticity_defect_4e-9"],
    )
    def test_state_outside_integrator_gate_exits_two(self, tmp_path, capsys, state):
        config = {"model": {"name": "dephasing"}, "initial_state": state}
        assert run(tmp_path, "bounds", config)[0] == 0
        capsys.readouterr()
        code, text = run(
            tmp_path, "simulate", {**config, "integrator": {"dt": 0.1, "t_max": 1.0}}
        )
        assert code == 2
        assert text == ""
        assert_one_line_error(capsys.readouterr().err)


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on first use, 10-15 ms of every process that calls it.
    configs = {
        "steady": oscillator(4),
        "simulate": {**oscillator(4), "initial_state": "maximally_mixed",
                     "integrator": {"dt": 0.01, "t_max": 0.1}},
        "bounds": {"model": {"name": "depolarizing"}, "initial_state": "plus"},
    }
    calls = [[command, "--config", write_config(tmp_path, config, f"{command}.json"),
              "--out", str(tmp_path / f"{command}.out")] for command, config in configs.items()]
    code = ("import sys\n"
            "from entrodyn.cli import main\n"
            f"print([main(argv) for argv in {calls!r}], 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0] False"


# `entrodyn CMD ... | head -1`: each output, about 1.8 MB of audit rows or 3.8 MB of
# simulate rows, overruns the pipe's buffer, so writes go on after the reader has
# closed its end
@pytest.mark.parametrize("command, config, header", [
    ("audit", {"d": 2, "count": 20000}, AUDIT_HEADER),
    ("simulate", {"model": {"name": "depolarizing"}, "initial_state": "plus",
                  "integrator": {"dt": 1e-3, "t_max": 20.0, "record_stride": 1}}, SIMULATE_HEADER),
], ids=["audit", "simulate"])
def test_reader_closing_stdout_early_is_no_failure(tmp_path, command, config, header):
    config = write_config(tmp_path, config)
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen([sys.executable, "-m", "entrodyn", command, "--config", config],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().decode().rstrip("\n") == header
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert stderr == b""



NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
# case: (command, config or None)
WRITE_CASES = {
    "simulate": ("simulate", {"model": {"name": "depolarizing"}, "initial_state": "plus",
                              "integrator": {"dt": 0.1, "t_max": 1.0}}),
    "steady": ("steady", {"model": {"name": "depolarizing"}}),
    "bounds": ("bounds", {"model": {"name": "depolarizing"}, "initial_state": "plus"}),
    "audit": ("audit", {"d": 2, "count": 5}),
    "models": ("models", None),
    # exit 3 once the t=0 row is written
    "positivity_lost": ("simulate", {"model": {"name": "dephasing"}, "initial_state": "plus",
                                     "integrator": {"dt": 1.5, "t_max": 3.0}}),
    # about 170 kB, past stdout's buffer: a write in run_audit fails, not the last flush
    "long_audit": ("audit", {"d": 2, "count": 2000}),
    # argparse prints the help and exits; the flush in main, not the interpreter's, fails
    "help": ("--help", None),
}
REDIRECTS = {"--out": 'exec "$@" --out /dev/full', ">": 'exec "$@" > /dev/full',
             ">&-": 'exec "$@" >&-'}


# /dev/full refuses every write, and a process started with its stdout closed has none.
# stdout is block-buffered, as by default, so most of these fail at the last flush.
@pytest.mark.parametrize("case, redirect, message", [
    *(pytest.param(case, "--out", "cannot write output: ", id=f"{case}-out", marks=NEEDS_DEV_FULL)
      for case in ("simulate", "steady", "bounds", "audit", "models")),
    *(pytest.param(case, ">", "cannot write output: ", id=f"{case}-stdout", marks=NEEDS_DEV_FULL)
      for case in ("positivity_lost", "long_audit", "help")),
    *(pytest.param(case, ">&-", "cannot open output: stdout is closed", id=f"{case}-closed")
      for case in ("audit", "models")),
])
def test_output_that_cannot_be_written_exits_two(tmp_path, case, redirect, message):
    command, config = WRITE_CASES[case]
    argv = [sys.executable, "-m", "entrodyn", command]
    if config is not None:
        argv += ["--config", write_config(tmp_path, config)]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(["sh", "-c", REDIRECTS[redirect], "sh", *argv], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert_one_line_error(result.stderr)
    assert result.stderr.startswith("error: " + message)


# fd 2 closed (Python then has no sys.stderr) or open read-only (a write to it fails)
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read_only"])
@pytest.mark.parametrize("command, config, code", [
    ("steady", None, 2),
    (*WRITE_CASES["positivity_lost"], 3),
    ("steady", {"model": {"name": "dephasing"}}, 5),
    ("bounds", {"model": {"dim": 2, "channels": [[[0, 0], [0, 0]]]}, "initial_state": "plus"}, 6),
], ids=["missing_config", "positivity_lost", "degenerate", "zero_channel"])
def test_stderr_that_cannot_be_written_loses_the_line_not_the_code(tmp_path, redirect, command,
                                                                   config, code):
    path = str(tmp_path / "missing.json") if config is None else write_config(tmp_path, config)
    argv = [sys.executable, "-m", "entrodyn", command, "--config", path]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == code
    assert result.stderr == ""
    assert not any(line.startswith("error: ") for line in result.stdout.splitlines())


# class name: exit code, for every class in entrodyn.errors and the two numpy/builtin failures
EXIT_BY_CLASS = {
    "ConfigError": 2, "NotHermitianError": 2, "BadDimensionError": 2, "UnknownModelError": 2,
    "BadParamsError": 2, "PositivityLostError": 3, "EntrodynError": 4, "NumericsError": 4,
    "NoSteadyStateError": 4, "NotDensityError": 4, "DimMismatchError": 4, "LinAlgError": 4,
    "MemoryError": 4, "DegenerateSteadyStateError": 5, "NoChannelsError": 6,
    "ZeroChannelError": 6,
}
ERROR_ARGS = {"PositivityLostError": (1.5, -0.2, 1e-8), "DegenerateSteadyStateError": (2,)}


@pytest.mark.parametrize(
    "kind",
    [*(c for c in vars(errors).values() if isinstance(c, type)), np.linalg.LinAlgError,
     MemoryError],
    ids=lambda kind: kind.__name__,
)
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch, kind):
    def fail(config, out):
        raise kind(*ERROR_ARGS.get(kind.__name__, ("failed",)))

    monkeypatch.setattr(cli, "run_steady", fail)
    assert main(["steady", "--config", write_config(tmp_path, {})]) == EXIT_BY_CLASS[kind.__name__]
    assert_one_line_error(capsys.readouterr().err)
