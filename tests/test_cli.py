import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramsey_sched
from ramsey_sched import simulate
from ramsey_sched.bayes import FieldGrid, ZeroEvidence, uniform_distribution
from ramsey_sched.cli import (
    ConfigError,
    main,
    read_config_file,
    resolve_config,
    write_alpha_csv,
    write_comb_csv,
    write_distribution_csv,
)
from ramsey_sched.fourier import alpha_series_quadrature, kpe_posterior_comb


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_comments_and_blanks(self, tmp_path):
        path = _write(
            tmp_path,
            "c.cfg",
            "# full-line comment\n\nmaster_seed = 7  # trailing\nprior_std = 2.0\n",
        )
        raw = read_config_file(path)
        assert raw == {"master_seed": "7", "prior_std": "2.0"}

    def test_unknown_key(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "warp_speed = 9\n")
        with pytest.raises(ConfigError, match="warp_speed"):
            resolve_config("compare", path)

    def test_bad_value_names_key(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "n_points = many\n")
        with pytest.raises(ConfigError, match="n_points"):
            resolve_config("compare", path)

    def test_inf_coherence(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "coherence_time = inf\n")
        cfg = resolve_config("compare", path)
        assert cfg["coherence_time"] == math.inf

    def test_true_field_sample_or_number(self, tmp_path):
        cfg = resolve_config("compare", _write(tmp_path, "a.cfg", "true_field = sample\n"))
        assert cfg["true_field"] is None
        cfg = resolve_config("compare", _write(tmp_path, "b.cfg", "true_field = 1.25\n"))
        assert cfg["true_field"] == 1.25

    def test_defaults_without_file(self):
        cfg = resolve_config("mi-surface", None)
        assert cfg["prior_std"] == pytest.approx(3.0 / math.sqrt(2.0))
        assert cfg["theta"] == 0.0
        assert math.inf in cfg["coherence_times"]

    def test_malformed_line(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "just words\n")
        with pytest.raises(ConfigError):
            read_config_file(path)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, "c.cfg", "bogus = 1\n")
        code = main(["compare", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, tmp_path):
        code = main(["compare", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2


    def test_zero_evidence_mid_run_is_3(self, tmp_path, capsys, monkeypatch):
        # 3 myopic trials advance in lockstep, so update k belongs to
        # trial k % 3 at step k // 3 + 1; fail trial 2 at step 3
        real, calls = simulate.bayes_update, []

        def flaky(d, p, x):
            calls.append(None)
            if len(calls) - 1 == 2 * 3 + 2:
                raise ZeroEvidence(f"outcome {x} has predictive probability 0.0 under the prior")
            return real(d, p, x)

        monkeypatch.setattr(simulate, "bayes_update", flaky)
        path = _write(
            tmp_path, "c.cfg",
            "policy = myopic_entropy\nn_realizations = 3\nn_measurements = 4\n"
            "n_points = 1024\ntau_grid_size = 8\ntheta_grid_size = 8\n",
        )
        out = tmp_path / "out"
        code = main(["compare", "--config", path, "--seed", "4242", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: trial 2, step 3, master_seed 4242: outcome")
        assert not list(out.glob("*.csv"))


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        src = str(Path(ramsey_sched.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "ramsey_sched.cli", "--version"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == ramsey_sched.__version__


class TestMiSurface:
    def test_run_and_rerun_byte_identical(self, tmp_path):
        cfg = _write(
            tmp_path,
            "mi.cfg",
            "tau_grid_size = 24\nn_points = 4096\ncoherence_times = 2,10,inf\n",
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["mi-surface", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mi-surface", "--config", cfg, "--out", str(out2)]) == 0
        a = (out1 / "mi_surface.csv").read_bytes()
        b = (out2 / "mi_surface.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "T,tau,theta,mutual_information_nats"
        rows = [line.split(",") for line in a.decode().splitlines()[1:]]
        assert len(rows) == 3 * 24
        mi = np.array([float(r[3]) for r in rows])
        assert np.all(mi >= -1e-10) and np.all(mi <= math.log(2) + 1e-10)

    def test_manifest_lists_artifacts(self, tmp_path):
        out = tmp_path / "o"
        cfg = _write(tmp_path, "mi.cfg", "tau_grid_size = 8\nn_points = 2048\nprior_std = 1.5\n")
        assert main(["mi-surface", "--config", cfg, "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "artifact = mi_surface.csv" in manifest
        assert "config.tau_grid_size = 8" in manifest
        assert (out / "mi_surface.csv").exists()


class TestCompare:
    CFG = (
        "n_measurements = 4\n"
        "n_realizations = 2\n"
        "n_points = 2048\n"
        "tau_grid_size = 8\n"
        "theta_grid_size = 8\n"
    )

    def test_four_csvs_by_default(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", self.CFG)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        for kind in ("random", "kpe", "variance_min", "myopic_entropy"):
            text = (out / f"compare_{kind}.csv").read_text()
            lines = text.splitlines()
            assert lines[0] == "step,mean_entropy,std_entropy,mean_posterior_std,std_posterior_std"
            assert len(lines) == 1 + 4
        manifest = (out / "manifest.txt").read_text()
        assert manifest.count("artifact = ") == 4

    def test_byte_identical_rerun(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", self.CFG + "policies = random,kpe\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0
        for kind in ("random", "kpe"):
            assert (out1 / f"compare_{kind}.csv").read_bytes() == (
                out2 / f"compare_{kind}.csv"
            ).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", self.CFG + "policies = random\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "compare_random.csv").read_bytes() != (
            out2 / "compare_random.csv"
        ).read_bytes()

    def test_single_policy_key(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", self.CFG + "policy = kpe\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "compare_kpe.csv").exists()
        assert not (out / "compare_random.csv").exists()


class TestValidateAlpha:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["validate-alpha", "--out", str(out), "--j-max", "12"]) == 0
        lines = (out / "alpha_validation.csv").read_text().splitlines()
        assert lines[0] == "j,closed_value,quadrature_value,abs_diff"
        assert len(lines) == 1 + 12
        for line in lines[1:]:
            j, closed, quad, diff = line.split(",")
            assert float(closed) < 0.0
            assert float(diff) < 1e-8


class TestKpeCheck:
    def test_default_agrees(self, tmp_path):
        out = tmp_path / "out"
        assert main(["kpe-check", "--out", str(out)]) == 0
        lines = (out / "kpe_check.csv").read_text().splitlines()
        assert lines[0] == (
            "step,kpe_tau,kpe_theta,myopic_tau,myopic_theta,tau_cell_delta,theta_cell_delta"
        )
        assert len(lines) == 1 + 5
        for line in lines[1:]:
            parts = line.split(",")
            assert int(parts[5]) == 0 and int(parts[6]) == 0

    def test_small_coherence_reports_divergence(self, tmp_path, capsys):
        cfg = _write(tmp_path, "k.cfg", "coherence_time = 4.0\nn_points = 2048\n")
        out = tmp_path / "out"
        code = main(["kpe-check", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert (out / "kpe_check.csv").exists()  # the report is still written
        assert "diverge" in capsys.readouterr().err


class TestArtifactWriters:
    def test_distribution_csv(self, tmp_path):
        g = FieldGrid(-1.0, 1.0, 5)
        d = uniform_distribution(g)
        path = tmp_path / "d.csv"
        write_distribution_csv(path, d)
        lines = path.read_text().splitlines()
        assert lines[0] == "b,density"
        assert len(lines) == 6
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5)

    def test_alpha_csv(self, tmp_path):
        a = alpha_series_quadrature(3)
        path = tmp_path / "a.csv"
        write_alpha_csv(path, a)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,value,method"
        assert lines[1].endswith("quadrature")
        assert len(lines) == 5

    def test_comb_csv(self, tmp_path):
        c = kpe_posterior_comb(1, 1.0)
        path = tmp_path / "c.csv"
        write_comb_csv(path, c)
        lines = path.read_text().splitlines()
        assert lines[0] == "xi,re,im"
        assert len(lines) == 4
