import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fireball.cli import CSV_COLUMNS, main, parse_config_file


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

    def test_missing_file(self):
        assert main(["simulate", "--config", "/nonexistent/run.cfg"]) == 2

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

    def test_sweep_requires_distinct_outputs(self, tmp_path):
        cfgs = []
        for i in range(2):
            cfg = tmp_path / f"run{i}.cfg"
            cfg.write_text(f"model = 1d\nX = 1.0\nt_end = 1.0\n"
                           f"out = {tmp_path / 'same.csv'}\n")
            cfgs.append(str(cfg))
        assert main(["simulate", *cfgs]) == 2


class TestVerify:
    def test_default_2d_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--model", "2d", "--t-end", "20",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

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

    def test_needs_state_or_parameters(self, tmp_path):
        assert main(["analytic", "--model", "2d",
                     "--out", str(tmp_path / "a.csv")]) == 2

    def test_rejects_1d(self, tmp_path):
        assert main(["analytic", "--model", "1d", "--H", "1", "--I", "2",
                     "--out", str(tmp_path / "a.csv")]) == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fireball.cli", "simulate", "--model", "1d",
             "--X", "1", "--t-end", "0.5", "--out", "-"],
            capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin", "FIREBALL_LOG": "debug",
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "")})
        assert proc.returncode == 0
        assert proc.stdout.startswith("# schema=1")
