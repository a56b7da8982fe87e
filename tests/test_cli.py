import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fireball
from fireball import IntegratorConfig
from fireball.cli import (_SETTINGS, CSV_COLUMNS, _merge_settings, main,
                          parse_config_file)
from fireball.errors import ConfigError
from fireball.models import ModelKind
from fireball.verification import run_verification


def read_csv(path):
    """(comments, header, rows-as-string-lists) of one of our CSV files."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def column(rows, header, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows if r[i] != ""])


class TestSimulate:
    def test_2d_energy_column_is_constant(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["simulate", "--model", "2d", "--X", "1", "--Y", "1",
                     "--t-end", "10", "--out", str(out)])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert header == list(CSV_COLUMNS)
        assert any(c.startswith("# schema=1") for c in comments)
        H = column(rows, header, "H")
        assert np.max(np.abs(H - H[0])) / H[0] <= 1e-8

    def test_default_settings_header(self, capsys):
        # the integrator settings unset by flags are IntegratorConfig's
        # defaults, written in its field order
        assert main(["simulate", "--model", "2d", "--X", "1", "--Y", "1",
                     "--t-end", "0.02", "--out", "-"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == (
            "# model=2d X=1.0 Y=1.0 t_end=0.02 rel_tol=1e-10 abs_tol=1e-12 "
            "max_step=inf sample_interval=0.01")

    def test_standard_output_may_be_a_text_stream(self, tmp_path):
        argv = ["simulate", "--model", "2d", "--X", "1", "--Y", "1.3", "--t-end", "0.5"]
        assert main([*argv, "--out", str(tmp_path / "run.csv")]) == 0
        with contextlib.redirect_stdout(io.StringIO()) as stream:
            assert main([*argv, "--out", "-"]) == 0
        assert stream.getvalue() == (tmp_path / "run.csv").read_text()

    def test_1d_final_value(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--model", "1d", "--X", "1",
                     "--t-end", "1", "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        X = column(rows, header, "X")
        assert abs(X[-1] - math.sqrt(2.0)) <= 1e-8
        # absent columns stay empty for lower-dimensional models
        assert all(r[header.index("Y")] == "" for r in rows)
        assert all(r[header.index("I")] == "" for r in rows)

    def test_missing_model_is_usage_error(self, capsys, tmp_path):
        code = main(["simulate", "--X", "1", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "model" in err and "usage" in err

    def test_integration_failure_exits_3(self, capsys, monkeypatch):
        from fireball.errors import IntegrationError
        import fireball.cli as cli

        def boom(initial, kind, config):
            raise IntegrationError("step size underflow at t=0.125", last_t=0.125)

        monkeypatch.setattr(cli, "integrate", boom)
        code = main(["simulate", "--model", "1d", "--X", "1", "--t-end", "1",
                     "--out", "-"])
        assert code == 3
        assert "t=0.125" in capsys.readouterr().err

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        import fireball.cli as cli

        def boom(initial, kind, config):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(cli, "integrate", boom)
        code = main(["simulate", "--model", "1d", "--X", "1", "--t-end", "1",
                     "--out", "-"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "OverflowError" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_bad_flag_exits_2_with_usage(self, capsys):
        assert main(["simulate", "--no-such-flag"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "1d", "--X", "1", "--t-end", "nan"],
        ["simulate", "--model", "1d", "--X", "1", "--sample-interval", "nan"],
        ["simulate", "--model", "1d", "--X", "1", "--max-step", "nan"],
        ["verify", "--model", "1d", "--t-end", "nan"],
    ], ids=["t_end", "sample_interval", "max_step", "verify_t_end"])
    def test_nonfinite_setting_is_config_error(self, argv, tmp_path):
        assert main(argv + ["--out", str(tmp_path / "x.out")]) == 2

    def test_nonpositive_variance_is_config_error(self, tmp_path):
        code = main(["simulate", "--model", "1d", "--X", "-1", "--t-end", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("state", [
        ["--model", "2d", "--X", "1", "--Y", "1.3", "--Xdot", "1e200", "--Ydot", "0"],
        ["--model", "1d", "--X", "1", "--Xdot", "1e155"],
    ], ids=["2d", "1d"])
    def test_overflowing_energy_is_config_error(self, state, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", *state, "--t-end", "0.02", "--out", str(out)]) == 2
        assert "energy is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_grid_is_config_error(self, tmp_path, capsys):
        # 1e300 samples: refused at once, before any allocation
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", "2d", "--X", "1", "--Y", "1.3",
                     "--Xdot", "0.1", "--Ydot", "0.2", "--sample-interval", "1e-300",
                     "--t-end", "1", "--out", str(out)]) == 2
        assert "1e+300 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_grid_times_are_config_error(self, tmp_path, capsys):
        # from t0 = 1e16 a spacing of 1 gives 9 samples but 5 distinct
        # times: refused before anything is computed or written
        out = tmp_path / "x.csv"
        assert main(["analytic", "--model", "2d", "--H", "3", "--I", "5", "--t0", "1e16",
                     "--t-end", "8", "--sample-interval", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: sample times must be strictly increasing\n")
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["simulate", "--model", "elliptic", "--X", "1", "--Y", "1.2",
                     "--t-end", "1", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["columns"] == list(CSV_COLUMNS)
        first = doc["rows"][0]
        assert first[doc["columns"].index("Z")] is None
        itilde = doc["rows"][0][doc["columns"].index("Itilde")]
        i_val = doc["rows"][0][doc["columns"].index("I")]
        assert itilde == pytest.approx(2 * i_val, rel=1e-15)

    @pytest.mark.parametrize("model,state", [
        ("1d", ["--X", "1"]), ("2d", ["--X", "1", "--Y", "1.3"]),
        ("3d", ["--X", "1", "--Y", "1.3", "--Z", "0.9"]),
        ("elliptic", ["--X", "1", "--Y", "1.3"])], ids=["1d", "2d", "3d", "elliptic"])
    def test_csv_and_json_tables_agree(self, model, state, tmp_path):
        # an absent column is an empty CSV field exactly where JSON has null
        args = ["simulate", "--model", model, *state, "--Xdot", "-0.2", "--t-end", "0.5"]
        assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0
        assert main(args + ["--format", "json", "--out", str(tmp_path / "t.json")]) == 0
        _, header, rows = read_csv(tmp_path / "t.csv")
        doc = json.loads((tmp_path / "t.json").read_text())
        assert header == doc["columns"] and len(rows) == len(doc["rows"]) == 51
        for fields, values in zip(rows, doc["rows"]):
            assert fields == ["" if v is None else f"{v:.17g}" for v in values]

    def test_output_is_deterministic(self, tmp_path):
        args = ["simulate", "--model", "2d", "--X", "1", "--Y", "1.3",
                "--t-end", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_17_digit_round_trip(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--model", "1d", "--X", "1", "--t-end", "1",
                     "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        from fireball import IntegratorConfig, ModelKind, State, integrate
        traj = integrate(State(t=0, q=[1.0], qdot=[0.0]), ModelKind.ONE_D,
                         IntegratorConfig(t_end=1.0, sample_interval=0.01))
        assert column(rows, header, "X").tolist() == traj.qs[:, 0].tolist()


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = 1d\nX = 1.0\nt_end = 1.0  # horizon\n"
                       "# full-line comment\nsample_interval = 0.5\n")
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(cfg), "--t-end", "2",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert float(rows[-1][0]) == 2.0  # flag overrode the file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modle = 1d\n")
        with pytest.raises(Exception):
            parse_config_file(str(cfg))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_jobs_is_a_flag_not_a_config_key(self, tmp_path):
        # a sweep runs its configs with --jobs; a jobs line in one config
        # would be silently ignored, so it is an unknown key
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = 1d\nX = 1.0\nt_end = 0.1\njobs = 2\n"
                       f"out = {tmp_path / 'out.csv'}\n")
        assert main(["simulate", str(cfg)]) == 2
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("line", ["format = xml", "model = 2D"])
    def test_value_outside_choices_rejected(self, line, tmp_path):
        # as --format xml and --model 2D are, and before any integration
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = 2d\nX = 1.0\nY = 1.0\nt_end = 0.1\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}:5: bad value")):
            parse_config_file(str(cfg))
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_sweep_refuses_config(self, tmp_path, capsys):
        # each sweep file is its run's whole config file, so base.cfg
        # would go unread
        base = tmp_path / "base.cfg"
        base.write_text("model = 1d\nX = 1.0\n")
        run = tmp_path / "run.cfg"
        run.write_text(f"t_end = 0.1\nout = {tmp_path / 'run.csv'}\n")
        assert main(["simulate", "--config", str(base), str(run)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "--config" in errors[0]
        assert not (tmp_path / "run.csv").exists()

    def test_missing_file(self):
        assert main(["simulate", "--config", "/nonexistent/run.cfg"]) == 2

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"model = 1d\nX = 1.0\xff\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, tmp_path, jobs):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = 1d\nX = 1.0\nt_end = 0.1\nout = {tmp_path / 'out.csv'}\n")
        assert main(["simulate", str(cfg), "--jobs", jobs]) == 2
        assert main(["simulate", "--model", "1d", "--X", "1", "--jobs", jobs]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_sweep_with_jobs(self, tmp_path):
        paths = []
        for i, x in enumerate(("1.0", "1.5")):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(f"model = 1d\nX = {x}\nt_end = 1.0\n"
                           f"out = {tmp_path / f'out{i}.csv'}\n")
            paths.append(str(cfg))
        assert main(["simulate", *paths, "--jobs", "2"]) == 0
        for i in range(2):
            assert (tmp_path / f"out{i}.csv").exists()

    @pytest.mark.parametrize("jobs, n_configs, cpus, workers", [
        (8, 3, 2, 2), (8, 2, 16, 2), (3, 5, 16, 3), (4, 1, 16, None), (4, 3, 1, None)])
    def test_jobs_capped_by_configs_and_cpus(self, tmp_path, monkeypatch,
                                             jobs, n_configs, cpus, workers):
        import concurrent.futures

        started = []

        class RecordingPool:  # runs the map serially, starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        paths = []
        for i in range(n_configs):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(f"model = 1d\nX = 1.0\nt_end = 0.1\n"
                           f"out = {tmp_path / f'out{i}.csv'}\n")
            paths.append(str(cfg))
        assert main(["simulate", *paths, "--jobs", str(jobs)]) == 0
        assert started == ([] if workers is None else [workers])
        assert all((tmp_path / f"out{i}.csv").exists() for i in range(n_configs))

    def test_sweep_requires_distinct_outputs(self, tmp_path, monkeypatch, capsys):
        # one file under two spellings: the second run would overwrite the
        # first (with --jobs, both would write it at once); standard output
        # twice is refused too
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        for first, second in [(tmp_path / "same.csv", tmp_path / "same.csv"),
                              ("same.csv", "./same.csv"),
                              ("same.csv", tmp_path / "link" / "same.csv"),
                              ("-", "-")]:
            cfgs = []
            for i, out in enumerate((first, second)):
                cfg = tmp_path / f"run{i}.cfg"
                cfg.write_text(f"model = 1d\nX = 1.0\nt_end = 1.0\nout = {out}\n")
                cfgs.append(str(cfg))
            assert main(["simulate", *cfgs]) == 2, (first, second)
            assert not list(tmp_path.glob("*.csv"))
            assert capsys.readouterr().out == ""


class TestVerify:
    def test_default_2d_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--model", "2d", "--t-end", "20",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_default_report_is_the_library_run(self, kind, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", kind.value, "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        results = run_verification(kind, IntegratorConfig(t_end=10.0, sample_interval=0.5))
        assert [(c["name"], c["value"]) for c in checks] == \
            [(r.name, r.value) for r in results]

    def test_loose_integrator_fails_strict_drift_bound(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--model", "2d", "--t-end", "20",
                     "--rel-tol", "1e-2", "--drift-tol", "1e-10",
                     "--no-symmetry", "--no-hydro", "--no-analytic",
                     "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert any(name.startswith("invariant_drift") for name in failed)

    def test_elliptic_reports_polar_coefficient_checks(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--model", "elliptic", "--t-end", "20",
                     "--no-hydro", "--out", str(out)])
        assert code == 0
        names = {c["name"] for c in json.loads(out.read_text())["checks"]}
        assert "itilde_twice_ermakov" in names
        assert "polar_cartesian_consistency" in names
        assert "elliptic_polar_naive_coeff_mismatch" in names

    def test_toggles_prune_checks(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "1d", "--t-end", "10",
                     "--no-symmetry", "--no-hydro", "--no-analytic",
                     "--out", str(out)]) == 0
        names = {c["name"] for c in json.loads(out.read_text())["checks"]}
        assert all(n.startswith("invariant_drift") for n in names)

    def test_format_is_not_a_verify_setting(self, tmp_path):
        out = ["--model", "1d", "--t-end", "1", "--out", str(tmp_path / "r.json")]
        assert main(["verify", "--format", "csv", *out]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")  # one file may serve every command
        assert main(["verify", "--config", str(cfg), *out]) == 0
        json.loads((tmp_path / "r.json").read_text())

    @pytest.mark.parametrize("flag", ["--sample-interval", "--max-step"])
    def test_nan_drift_run_setting_is_config_error(self, flag, tmp_path):
        assert main(["verify", "--model", "1d", "--t-end", "1", flag, "nan",
                     "--out", str(tmp_path / "report.json")]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "2d", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_drift_tol_must_be_positive_and_finite(self, value, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "1d", "--t-end", "1", "--drift-tol", value,
                     "--no-symmetry", "--no-hydro", "--no-analytic",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_overflowing_energy_is_config_error(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "2d", "--X", "1", "--Y", "1.3",
                     "--Xdot", "1e200", "--Ydot", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unallocatable_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--model", "2d", "--X", "1", "--Y", "1.3",
                     "--Xdot", "0.1", "--Ydot", "0.2", "--t-end", "1e300",
                     "--no-symmetry", "--no-hydro", "--no-analytic",
                     "--out", str(out)]) == 2
        assert "2e+300 samples" in capsys.readouterr().err
        assert not out.exists()

    def test_drift_run_takes_sample_interval_and_max_step(self, tmp_path):
        out = tmp_path / "report.json"

        def drift_values(*flags):
            assert main(["verify", "--model", "2d", "--t-end", "5", *flags,
                         "--no-symmetry", "--no-hydro", "--no-analytic",
                         "--out", str(out)]) == 0
            return {c["name"]: c["value"] for c in json.loads(out.read_text())["checks"]}

        default = drift_values()
        # verify's own 0.5 spacing by default, not simulate's 0.01
        assert drift_values("--sample-interval", "0.5") == default
        assert drift_values("--sample-interval", "0.1") != default
        assert drift_values("--max-step", "0.05") != default

    def test_config_file_leaves_the_drift_grid_to_flags(self, tmp_path):
        # the README's run.cfg, written for simulate: its sample_interval
        # does not replace verify's own 0.5 grid, which yields to a flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = 2d\nX = 1.0\nY = 1.3\nt_end = 10.0\n"
                       "sample_interval = 0.01\nout = run.csv\n")
        out = tmp_path / "report.json"

        def drift_h(*flags):
            assert main(["verify", *flags, "--no-symmetry", "--no-hydro",
                         "--no-analytic", "--out", str(out)]) == 0
            checks = json.loads(out.read_text())["checks"]
            return next(c["value"] for c in checks if c["name"] == "invariant_drift_H")

        by_flags = ["--model", "2d", "--X", "1.0", "--Y", "1.3", "--t-end", "10"]
        assert drift_h("--config", str(cfg)) == drift_h(*by_flags)
        fine = ["--sample-interval", "0.01"]
        assert drift_h("--config", str(cfg), *fine) == drift_h(*by_flags, *fine)
        assert drift_h(*by_flags, *fine) != drift_h(*by_flags)


class TestAnalytic:
    def test_reference_grid(self, tmp_path):
        out = tmp_path / "a.csv"
        code = main(["analytic", "--model", "2d", "--H", "1", "--I", "2",
                     "--t-end", "1", "--sample-interval", "1",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        r = column(rows, header, "r")
        assert r[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert r[1] == pytest.approx(2.0, rel=1e-14)
        phi = column(rows, header, "phi")
        assert np.max(np.abs(phi - math.pi / 4.0)) <= 1e-12  # at the minimum

    def test_state_mode_with_comparison(self, tmp_path):
        out = tmp_path / "a.csv"
        code = main(["analytic", "--model", "2d", "--X", "1", "--Y", "1",
                     "--Xdot", "-0.5", "--Ydot", "0.5", "--t-end", "10",
                     "--sample-interval", "0.01", "--compare",
                     "--out", str(out)])
        assert code == 0
        comments, _, _ = read_csv(out)
        delta = [c for c in comments if "max_delta_r" in c]
        assert delta and float(delta[0].split("=")[1]) <= 1e-6

    @pytest.mark.parametrize("model,Y", [("2d", "1e-8"), ("elliptic", "1e-9")])
    def test_small_variance_angle_matches_simulate(self, model, Y, tmp_path):
        # ttilde spans only pi/sqrt(2C), about 1e-4 here, so the quadrature
        # needs steps near 1e-13: the step floor must scale with that span.
        state = ["--model", model, "--X", "1", "--Y", Y, "--Xdot", "0.1",
                 "--Ydot", "0.2", "--t-end", "25"]
        assert main(["analytic", *state, "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["simulate", *state, "--out", str(tmp_path / "s.csv")]) == 0
        _, header, rows = read_csv(tmp_path / "a.csv")
        _, sim_header, sim_rows = read_csv(tmp_path / "s.csv")
        Mx, My = ModelKind(model).weights
        stretched = np.arctan2(np.sqrt(My) * column(sim_rows, sim_header, "Y"),
                               np.sqrt(Mx) * column(sim_rows, sim_header, "X"))
        assert np.max(np.abs(column(rows, header, "phi") - stretched)) <= 1e-9

    @pytest.mark.parametrize("model,X,simulated", [
        ("2d", "1e-9", False), ("2d", "1e-8", True), ("elliptic", "1e-8", False)])
    def test_near_axis_angle(self, model, X, simulated, tmp_path):
        # phi near pi/2, where a double resolves phi to 2e-16 but cos(phi)
        # only to about 1e-7 relative: the quadrature starts from the
        # state's unit vector, whose small component keeps its digits.
        # simulate stops at its step floor at t = 0 on the other two states.
        state = ["--model", model, "--X", X, "--Y", "1", "--Xdot", "0.1",
                 "--Ydot", "0.2", "--t-end", "25"]
        assert main(["analytic", *state, "--out", str(tmp_path / "a.csv")]) == 0
        _, header, rows = read_csv(tmp_path / "a.csv")
        phi = column(rows, header, "phi")
        Mx, My = ModelKind(model).weights
        assert abs(phi[0] - math.atan2(math.sqrt(My), math.sqrt(Mx) * float(X))) <= 4.5e-16
        assert ((phi > 0.0) & (phi < math.pi / 2.0)).all()
        if simulated:
            assert main(["simulate", *state, "--out", str(tmp_path / "s.csv")]) == 0
            _, sim_header, sim_rows = read_csv(tmp_path / "s.csv")
            stretched = np.arctan2(np.sqrt(My) * column(sim_rows, sim_header, "Y"),
                                   np.sqrt(Mx) * column(sim_rows, sim_header, "X"))
            assert np.max(np.abs(phi - stretched)) <= 1e-9

    def test_needs_state_or_parameters(self, tmp_path):
        assert main(["analytic", "--model", "2d",
                     "--out", str(tmp_path / "a.csv")]) == 2

    def test_rejects_1d(self, tmp_path):
        assert main(["analytic", "--model", "1d", "--H", "1", "--I", "2",
                     "--out", str(tmp_path / "a.csv")]) == 2

    def test_overflowing_energy_is_config_error(self, tmp_path):
        out = tmp_path / "a.csv"
        assert main(["analytic", "--model", "2d", "--X", "1", "--Y", "1.3",
                     "--Xdot", "1e200", "--Ydot", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_t_end_before_start_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["analytic", "--model", "2d", "--H", "1", "--I", "5",
                     "--t-end", "-1", "--out", str(out)]) == 2
        assert "before t0" in capsys.readouterr().err
        assert not out.exists()
        assert main(["analytic", "--model", "2d", "--H", "1", "--I", "5",
                     "--t-end", "0", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 1

    def test_unallocatable_grid_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["analytic", "--model", "2d", "--H", "1", "--I", "5",
                     "--t-end", "1e300", "--out", str(out)]) == 2
        assert "1e+302 samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--H", "1e308", "--I", "2", "--t-end", "1"],
        ["--X", "1", "--Y", "1", "--t-end", "1e300", "--sample-interval", "2.5e299"]],
        ids=["2H", "2H_dt2"])
    def test_overflowing_radial_law_is_config_error(self, args, tmp_path, capsys):
        # 2 H, or 2 H (t - t0)^2 once |t - t0| passes about 1e154 / sqrt(H),
        # is inf: refused, where r was written as nan or inf
        out = tmp_path / "a.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--model", "2d", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "radial law" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("H", ["1e12", "1e300"])
    def test_large_energy_repeats_ttilde(self, H, tmp_path):
        # at large H t successive ttilde round to the same double, which
        # the quadrature takes as the same sample
        out = tmp_path / "a.csv"
        assert main(["analytic", "--model", "2d", "--H", H, "--I", "3", "--t-end", "25",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        ttilde, phi = column(rows, header, "ttilde"), column(rows, header, "phi")
        assert (np.diff(ttilde) == 0.0).any()
        assert phi.size == len(rows) and ((phi > 0.0) & (phi < math.pi / 2.0)).all()

class TestRefusals:
    # Each argv is refused with exit 2 and one error line, and no numpy
    # warning gets out: warnings are errors here, which main would report
    # as an unexpected failure.
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--model", "1d", "--X", "1e300", "--no-symmetry", "--no-hydro"],
         "radial law"),
        (["verify", "--model", "elliptic", "--X", "1e300", "--Y", "1.3",
          "--no-symmetry", "--no-hydro"], "radial law"),
        (["analytic", "--model", "elliptic", "--X", "1e300", "--Y", "1.3"],
         "radial law"),
        (["verify", "--model", "2d", "--X", "1e300", "--Y", "1.3",
          "--no-symmetry", "--no-hydro"], "radial law"),
        (["verify", "--model", "3d", "--X", "1e300", "--Y", "1.3", "--Z", "1",
          "--no-symmetry", "--no-hydro", "--no-analytic"],
         "radial invariant is not finite"),
        (["simulate", "--model", "2d", "--X", "1", "--Y", "1",
          "--sample-interval", "5e-324"], "inf samples"),
        (["verify", "--model", "2d", "--sample-interval", "5e-324",
          "--no-symmetry", "--no-hydro", "--no-analytic"], "inf samples"),
        (["analytic", "--model", "2d", "--H", "1", "--I", "5",
          "--sample-interval", "5e-324"], "inf samples"),
        (["analytic", "--model", "2d", "--X", "1", "--Xdot", "0.1", "--Y", "1e-17",
          "--Ydot", "0.2", "--t-end", "1"], "positivity floor 1e-12"),
        (["simulate", "--model", "2d", "--X", "1", "--Y", "1", "--max-step", "1e-17",
          "--t-end", "1"], "step floor"),
        (["verify", "--model", "2d", "--max-step", "1e-17", "--t-end", "1",
          "--no-symmetry", "--no-hydro", "--no-analytic"], "step floor"),
        (["analytic", "--model", "2d", "--H", "1", "--I", "5e-324"], "sqrt(2/C) H"),
        (["analytic", "--model", "elliptic", "--H", "1", "--I", "5e-324"], "sqrt(2/C) H"),
        (["analytic", "--model", "2d", "--H", "1", "--I", "5", "--phi0", "5e-324"],
         "classically forbidden"),
        # the angular data are checked when they are built, before the grid
        (["analytic", "--model", "2d", "--H", "3", "--I", "1.9", "--t-end", "-5"],
         "below the potential minimum"),
    ], ids=["verify_1d_huge_X", "verify_elliptic_huge_X", "analytic_elliptic_huge_X",
            "verify_2d_huge_X", "verify_3d_huge_X", "simulate_infinite_grid",
            "verify_infinite_grid", "analytic_infinite_grid", "analytic_variance_below_floor",
            "simulate_max_step_below_floor", "verify_max_step_below_floor",
            "analytic_2d_tiny_invariant", "analytic_elliptic_tiny_invariant",
            "analytic_phi0_at_underflow", "analytic_invariant_before_grid"])
    def test_exits_2_with_one_error_line(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "unexpected" not in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "1d", "--X", "1e308", "--Xdot", "1e150"],
        ["verify", "--model", "2d", "--X", "1e308", "--Y", "1", "--Xdot", "1e150"],
    ], ids=["simulate_1d", "verify_2d"])
    def test_overflowing_run_exits_3(self, argv, tmp_path, capsys):
        # X reaches inf in an accepted step: a numeric failure, not a usage error
        out = tmp_path / "x.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--t-end", "1e160", "--sample-interval", "1e159",
                                "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: integration failed: the state overflowed in the step "
                              "from t=") and len(err.splitlines()) == 1
        assert not out.exists()


class TestFlagSweep:
    # Every flag of every command, read from the settings table, with values
    # at and past the ends of the float range and some that are no number.
    VALUES = ("0", "-1", "1e-300", "1e300", "nan", "inf", "1e-17", "5e-324",
              "0.5", "abc", "")
    STATES = {"1d": ["--X", "1", "--Xdot", "0.1"],
              "2d": ["--X", "1", "--Y", "1.3", "--Xdot", "0.1", "--Ydot", "-0.2"],
              "3d": ["--X", "1", "--Y", "1.3", "--Z", "0.8", "--Zdot", "0.05"],
              "elliptic": ["--X", "1", "--Y", "1.3", "--Xdot", "0.1", "--Ydot", "-0.2"]}

    def test_every_flag_exits_with_a_documented_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # --out values become file names here
        short = ["--t-end", "2", "--sample-interval", "0.1", "--out", "x.out"]
        # Each value runs on one group of bases, the groups in turn: simulate
        # on every model at once; verify, 3-10 times dearer, on one model; and
        # analytic on one planar model, from a state and from --H/--I.
        groups = {
            "simulate": [[["--model", m, *state, *short] for m, state in self.STATES.items()]],
            "verify": [[["--model", m, *state, "--t-end", "2", "--no-symmetry",
                         "--no-hydro", "--out", "x.out"]] for m, state in self.STATES.items()],
            "analytic": [[["--model", m, *self.STATES[m], *short],
                          ["--model", m, "--H", "1", "--I", I, *short]]
                         for m, I in (("2d", "5"), ("elliptic", "6"))],
        }
        failures, runs = [], 0
        for command, bases in groups.items():
            codes = {0, 1, 2, 3} if command == "verify" else {0, 2, 3}
            for k, setting in enumerate(_SETTINGS):
                if command not in setting.commands:
                    continue
                flag = "--" + setting.name.replace("_", "-")
                tails = [[flag, value] for value in self.VALUES]
                if setting.type is bool:
                    tails += [[flag], ["--no-" + setting.name]]
                for i, tail in enumerate(tails):
                    for base in bases[(i + k) % len(bases)]:
                        argv = [command, *base, *tail]
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            code = main(argv)
                        err = capsys.readouterr().err
                        runs += 1
                        if (code not in codes
                                or sum("error:" in line for line in err.splitlines()) > 1
                                or any(w in err for w in ("unexpected", "Traceback",
                                                          "Warning"))):
                            failures.append((argv, code, err))
        assert runs > 1200 and not failures, failures[:5]


class TestSettingsRead:
    # A setting a command takes but never reads is a flag it accepts and
    # ignores.  The runs reach every branch that reads a setting.
    STATE = ["--model", "2d", "--X", "1", "--Y", "1.3", "--Xdot", "0.1", "--Ydot", "-0.2"]

    def test_each_command_reads_every_setting_it_takes(self, tmp_path, monkeypatch):
        read = {command: set() for command in ("simulate", "verify", "analytic")}

        class Recording(dict):
            """Records the keys read; __iter__ makes {**settings} copies count."""

            def __getitem__(self, key):
                self.seen.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.seen.add(key)
                return super().get(key, default)

            def __iter__(self):
                self.seen.update(self.keys())
                return super().__iter__()

        def recording_merge(args, command):
            settings = Recording(_merge_settings(args, command))
            settings.seen = read[command]
            return settings

        monkeypatch.setattr("fireball.cli._merge_settings", recording_merge)
        out = ["--out", str(tmp_path / "x.out")]
        for argv in (["simulate", *self.STATE, "--t-end", "1"],
                     ["verify", *self.STATE, "--t-end", "2", "--no-symmetry", "--no-hydro"],
                     ["analytic", *self.STATE, "--t-end", "1", "--compare"],
                     ["analytic", "--model", "2d", "--H", "1", "--I", "5", "--t-end", "1"]):
            assert main(argv + out) == 0, argv
        for command, keys in read.items():
            assert keys == {s.name for s in _SETTINGS if command in s.commands}, command


class TestEntryPoint:
    ARGV = ["simulate", "--model", "1d", "--X", "1", "--t-end", "0.5", "--out", "-"]

    @staticmethod
    def run_cli(argv, stdout=subprocess.PIPE, **env):
        return subprocess.run(
            [sys.executable, "-m", "fireball.cli", *argv], stdout=stdout,
            stderr=subprocess.PIPE, text=True, timeout=60,
            # the package under test, wherever pytest found it, and this
            # process's PATH and native kernels' cache, so that a run
            # without a compiler builds nothing here either
            env={**env, "PYTHONPATH": os.path.dirname(os.path.dirname(fireball.__file__)),
                 **{k: os.environ[k] for k in ("PATH", "HOME", "XDG_CACHE_HOME")
                    if k in os.environ}})

    def test_module_invocation(self):
        proc = self.run_cli(self.ARGV, FIREBALL_LOG="debug")
        assert proc.returncode == 0
        assert proc.stdout.startswith("# schema=1")

    @pytest.mark.parametrize("format", ["csv", "json"])
    @pytest.mark.parametrize("target", ["closed pipe", "full device"])
    def test_failed_write_to_standard_output_is_a_usage_error(self, target, format):
        # as for an output file: exit 2, one error line and the usage line,
        # and nothing more when the interpreter exits
        argv = [*self.ARGV, "--format", format]
        if target == "full device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                proc = self.run_cli(argv, stdout=full)
            code = errno.ENOSPC
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = self.run_cli(argv, stdout=write)
            finally:
                os.close(write)
            code = errno.EPIPE
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: cannot write standard output: [Errno {code}] {os.strerror(code)}",
            "usage: run 'fireball simulate --help' for accepted settings"]
