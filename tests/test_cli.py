import importlib
import json
import math

import numpy as np
import pytest

from entrodyn import cli
from entrodyn.cli import AUDIT_HEADER, SIMULATE_HEADER, main
from entrodyn.models import MAX_DIM

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
        # dt far beyond the stability boundary overflows between two records.
        code, text = run(
            tmp_path,
            "simulate",
            {
                "model": {"name": "depolarizing", "params": {"gamma": 1e6}},
                "initial_state": "plus",
                "integrator": {"dt": 0.01, "t_max": 1.0, "record_stride": 100},
            },
        )
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert "non-finite" in err

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

    def test_dephasing_exits_five_with_null_dimension(self, tmp_path):
        code, text = run(tmp_path, "steady", {"model": {"name": "dephasing"}})
        assert code == 5
        report = json.loads(text)
        assert report["null_dimension"] == 2

    def test_misconfigured_tolerance_exits_four(self, tmp_path):
        code, _ = run(tmp_path, "steady", {"model": {"name": "driven_qubit"}, "tol": 1e-22})
        assert code == 4

    def test_linalg_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        def no_convergence(model, tol):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "steady_state", no_convergence)
        code, _ = run(tmp_path, "steady", {"model": {"name": "driven_qubit"}})
        assert code == 4
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    @pytest.mark.parametrize("name", ["driven_qubit", "truncated_oscillator"])
    def test_generator_built_once_and_residual_from_direct_map(
        self, tmp_path, monkeypatch, name
    ):
        calls = []
        build = steady_state_module.build_superoperator

        def counting_build(model, **kwargs):
            calls.append(model)
            return build(model, **kwargs)

        monkeypatch.setattr(steady_state_module, "build_superoperator", counting_build)
        # Also count a build made from the CLI's own namespace, if it imports one.
        monkeypatch.setattr(cli, "build_superoperator", counting_build, raising=False)
        code, text = run(tmp_path, "steady", {"model": {"name": name}})
        assert code == 0
        assert len(calls) == 1
        report = json.loads(text)
        rho = np.array([[complex(re, im) for re, im in row] for row in report["steady_state"]])
        gen = build(calls[0])
        expected = float(np.linalg.norm(gen @ steady_state_module.vec(rho)))
        assert abs(report["generator_residual"] - expected) <= 1e-15


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

    def test_no_channels_exits_six(self, tmp_path):
        code, _ = run(
            tmp_path,
            "bounds",
            {
                "model": {"dim": 2, "hamiltonian": [[0, 0], [0, 0]]},
                "initial_state": "maximally_mixed",
            },
        )
        assert code == 6

    def test_variance_demand_on_nonhermitian_channel_exits_six(self, tmp_path):
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


class TestConfigErrors:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad)]) == 2

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

    def test_bad_initial_state(self, tmp_path):
        code, _ = run(
            tmp_path,
            "simulate",
            {"model": {"name": "dephasing"}, "initial_state": [[1, 0], [0, 1]]},
        )
        assert code == 2  # trace 2

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

    def test_output_path_from_config(self, tmp_path):
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
        assert main(["simulate", "--config", cfg_path]) == 0
        assert target.read_text().startswith(SIMULATE_HEADER)

    @pytest.mark.parametrize(
        ("command", "out_arg", "outputs"),
        [
            ("simulate", "missing_dir/out.csv", None),
            ("models", "missing_dir/out.txt", None),
            ("simulate", None, {"path": []}),
            ("bounds", None, {"path": {"a": 1}}),
        ],
        ids=["out_in_missing_dir", "models_out_in_missing_dir", "path_list", "path_object"],
    )
    def test_unusable_output_path_exits_two(self, tmp_path, capsys, command, out_arg, outputs):
        config = {"model": {"name": "dephasing"}, "initial_state": "plus", "outputs": outputs}
        argv = [command]
        if command != "models":
            argv += ["--config", write_config(tmp_path, config)]
        if out_arg is not None:
            argv += ["--out", str(tmp_path / out_arg)]
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
