import argparse
import dataclasses
import itertools
import math
import os
import stat
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ramsey_sched
from ramsey_sched import bayes, cli, fourier, simulate
from ramsey_sched.bayes import RamseyParams, ZeroEvidence, gaussian_distribution, mutual_information
from ramsey_sched.cli import ConfigError, main, read_config_file, resolve_config
from ramsey_sched.policies import PolicyConfig
from ramsey_sched.simulate import SimConfig


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
        # there is no 'policy' key: one policy is 'policies = <name>'
        for key in ("warp_speed", "policy"):
            path = _write(tmp_path, "c.cfg", f"{key} = kpe\n")
            with pytest.raises(ConfigError, match=f"unknown config key: '{key}'"):
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

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = _write(tmp_path, "c.cfg", "master_seed = 1\nprior_std = 2.0\n\nmaster_seed = 2\n")
        with pytest.raises(ConfigError, match="'master_seed' set on line 1 and again on line 4"):
            read_config_file(path)

    @pytest.mark.parametrize(
        "command, key",
        [("compare", "policies"), ("mi-surface", "coherence_times"), ("kpe-check", "outcomes")],
    )
    def test_empty_list_rejected(self, tmp_path, command, key):
        path = _write(tmp_path, "c.cfg", f"{key} = , \n")
        with pytest.raises(ConfigError, match=key):
            resolve_config(command, path)


PRIOR_STD = 2.1213203435596424  # 3 / sqrt(2)

# The resolved configuration of each command run without a config file.
DEFAULTS = {
    "mi-surface": {
        "b_min": -20.0, "b_max": 20.0, "n_points": 8192,
        "prior_mean": 0.0, "prior_std": PRIOR_STD, "theta": 0.0,
        "coherence_times": [2.0, 5.0, 10.0, math.inf],
        "tau_min": 0.05, "tau_max": 5.0, "tau_grid_size": 128,
    },
    "compare": {
        "b_min": -20.0, "b_max": 20.0, "n_points": 4096,
        "prior_mean": 0.0, "prior_std": PRIOR_STD, "coherence_time": 10.0,
        "n_measurements": 30, "n_realizations": 8, "master_seed": 1729,
        "policies": ["random", "kpe", "variance_min", "myopic_entropy"],
        "tau_min": 0.009765625, "tau_max": 5.0, "tau_grid_size": 64, "theta_grid_size": 64,
        "kpe_tau0": 4.0, "kpe_theta0": 0.0, "true_field": None,
    },
    "validate-alpha": {"j_max": 32},
    "kpe-check": {
        "b_min": -25.132741228718345, "b_max": 25.132741228718345, "n_points": 4096,
        "coherence_time": math.inf,
        "tau_min": 0.0078125, "tau_max": 4.0, "tau_grid_size": 64, "theta_grid_size": 64,
        "kpe_tau0": 4.0, "kpe_theta0": 0.0, "outcomes": [0, 0, 0, 0, 0],
    },
}

POLICY_KEYS = ("tau_min", "tau_max", "tau_grid_size", "theta_grid_size", "kpe_tau0", "kpe_theta0")


class TestConfigSchema:
    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_defaults_pinned(self, command):
        cfg = resolve_config(command, None)
        assert cfg == DEFAULTS[command]
        assert all(type(cfg[k]) is type(v) for k, v in DEFAULTS[command].items())

    def test_compare_policy_keys_take_policy_config_defaults(self):
        cfg = resolve_config("compare", None)
        default = PolicyConfig()
        assert {k: cfg[k] for k in POLICY_KEYS} == {k: getattr(default, k) for k in POLICY_KEYS}
        # every field but the kind is a compare key
        fields = {f.name for f in dataclasses.fields(PolicyConfig)}
        assert fields - set(cfg) == {"kind"}
        # compare's keys are the standard experiment's fields, by name,
        # each defaulting to SimConfig()'s value, plus the policy list
        standard = SimConfig()

        def values(obj, skip=()):
            return {
                f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj) if f.init and f.name not in skip
            }

        grid = values(standard.grid)
        sim = values(standard, ("policy", "grid"))
        policy = values(standard.policy, ("kind",))
        assert len(grid) + len(sim) + len(policy) + 1 == len(cfg)
        assert set(cfg) == {*grid, *sim, *policy, "policies"}
        assert {k: v for k, v in cfg.items() if k != "policies"} == {**grid, **sim, **policy}

    def test_repeated_policy_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, "c.cfg", "policies = random,kpe,kpe\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: key 'policies': policy 'kpe' listed more than once\n"
        )
        assert not out.exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cases = [
            ("compare", "bogus = 1", "bogus"),
            # the grid must cover the prior's 6 std for mi-surface as for compare
            ("mi-surface", "b_min = 5", "grid [5.0, 20.0] must cover prior_mean +- 6 std"),
        ]
        for k, (command, line, named) in enumerate(cases):
            path = _write(tmp_path, f"c{k}.cfg", line + "\n")
            out = tmp_path / f"out{k}"
            code = main([command, "--config", path, "--out", str(out)])
            assert code == 2
            assert named in capsys.readouterr().err
            assert not list(out.glob("*"))

    def test_missing_config_file_is_2(self, tmp_path):
        code = main(["compare", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2


    def test_zero_evidence_mid_run_is_3(self, tmp_path, capsys, monkeypatch):
        # 3 myopic trials share the update of a shared outcome history,
        # made by the first trial that reaches it; fail trial 2 at step 3
        real_update, real_trials, calls, runs = simulate.bayes_update, simulate.run_trials, [], []
        bad = None

        def flaky(d, p, x):
            calls.append(None)
            if len(calls) - 1 == bad:
                raise ZeroEvidence(f"outcome {x} has predictive probability 0.0 under the prior")
            return real_update(d, p, x)

        def recording(cfg, indices):
            runs.append(real_trials(cfg, indices))
            return runs[-1]

        monkeypatch.setattr(simulate, "bayes_update", flaky)
        monkeypatch.setattr(simulate, "run_trials", recording)
        path = _write(
            tmp_path, "c.cfg",
            "policies = myopic_entropy\nn_realizations = 3\nn_measurements = 4\n"
            "n_points = 1024\ntau_grid_size = 8\ntheta_grid_size = 8\nmaster_seed = 4242\n",
        )
        assert main(["compare", "--config", path, "--out", str(tmp_path / "clean")]) == 0
        # one update per distinct (history, outcome), step by step, each
        # made by the first trial holding it; trial 2 splits off at step 1
        outcomes = [tuple(r.outcome for r in t.records) for t in runs[0]]
        order = [
            (next(r for r, o in enumerate(outcomes) if o[:step] == prefix), step)
            for step in range(1, 5)
            for prefix in dict.fromkeys(o[:step] for o in outcomes)
        ]
        assert len(calls) == len(order) and order[7] == (2, 3)
        calls.clear()
        bad = 7
        out = tmp_path / "out"
        code = main(["compare", "--config", path, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: trial 2, step 3, master_seed 4242: outcome")
        assert not list(out.glob("*.csv"))

    def test_true_field_off_grid_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, "c.cfg", "true_field = 35\nn_measurements = 1\nn_realizations = 1\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", path, "--out", str(out)]) == 2
        assert "true_field 35.0 lies outside the grid [-20.0, 20.0]" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command, line, named", [
        ("mi-surface", "theta = inf", "finite theta, got inf"),
        ("mi-surface", "theta = nan", "finite theta, got nan"),
        ("compare", "kpe_theta0 = inf", "finite kpe_theta0, got inf"),
        ("compare", "kpe_theta0 = nan", "finite kpe_theta0, got nan"),
        ("compare", "kpe_tau0 = inf", "finite kpe_tau0 > 0, got inf"),
        ("kpe-check", "kpe_theta0 = -inf", "finite kpe_theta0, got -inf"),
        ("mi-surface", "prior_std = inf", "finite prior_std > 0, got inf"),
        ("compare", "b_max = inf", "finite b_min < b_max, got [-20.0, inf]"),
        ("mi-surface", "b_min = nan", "finite b_min < b_max, got [nan, 20.0]"),
        ("compare", "prior_mean = nan", "finite prior_mean, got nan"),
        ("mi-surface", "prior_mean = nan", "finite prior_mean, got nan"),
    ])
    def test_non_finite_control_is_2(self, tmp_path, capsys, command, line, named):
        # rejected where the value is made, before any scoring or output;
        # mi-surface checks its theta with its other keys and names it
        path = _write(tmp_path, "c.cfg", line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        key = "key 'theta': " if command == "mi-surface" and line.startswith("theta ") else ""
        assert capsys.readouterr().err == f"config error: {key}require {named}\n"
        assert not list(out.iterdir())

    def test_negative_master_seed_is_2(self, tmp_path, capsys):
        path = _write(tmp_path, "c.cfg", "master_seed = -1\n")
        out = tmp_path / "out"
        assert main(["compare", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: require master_seed >= 0, got -1\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("size", [0, -3])
    def test_mi_surface_needs_a_tau(self, tmp_path, capsys, size):
        path = _write(tmp_path, "c.cfg", f"tau_grid_size = {size}\n")
        out = tmp_path / "out"
        assert main(["mi-surface", "--config", path, "--out", str(out)]) == 2
        assert f"key 'tau_grid_size': require >= 1, got {size}" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command", ["compare", "kpe-check"])
    @pytest.mark.parametrize("line, named", [
        ("tau_grid_size = 0", "require tau_grid_size >= 1, got 0"),
        ("theta_grid_size = -1", "require theta_grid_size >= 1, got -1"),
    ])
    def test_policy_grid_size_names_its_key(self, tmp_path, capsys, command, line, named):
        path = _write(tmp_path, "c.cfg", line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mean, lo, hi", [
        ("1000", 1000 - 18 / math.sqrt(2), 1000 + 18 / math.sqrt(2)),
        ("1e308", 1e308, 1e308),
    ], ids=["1000", "1e308"])
    def test_mi_surface_off_grid_prior_is_2(self, tmp_path, capsys, mean, lo, hi):
        # checked before the prior is formed: an off-grid Gaussian has no
        # mass on the grid, and at 1e308 its z-scores overflow
        path = _write(tmp_path, "c.cfg", f"prior_mean = {mean}\n")
        out = tmp_path / "out"
        assert main(["mi-surface", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: grid [-20.0, 20.0] must cover prior_mean +- 6 std ([{lo}, {hi}])\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lines, named", [
        ("tau_max = inf\n", "key 'tau_max': require finite tau_max >= tau_min = 0.05, got inf"),
        ("tau_max = nan\n", "key 'tau_max': require finite tau_max >= tau_min = 0.05, got nan"),
        ("tau_min = 6\n", "key 'tau_max': require finite tau_max >= tau_min = 6.0, got 5.0"),
        ("tau_min = -0.5\n", "key 'tau_min': require finite tau_min >= 0, got -0.5"),
        ("tau_min = inf\ntau_max = inf\n", "key 'tau_min': require finite tau_min >= 0, got inf"),
        ("tau_min = nan\n", "key 'tau_min': require finite tau_min >= 0, got nan"),
        ("coherence_times = 0\n", "key 'coherence_times': require every value > 0 (inf allowed), got 0.0"),
        ("coherence_times = 2,-1\n", "key 'coherence_times': require every value > 0 (inf allowed), got -1.0"),
        ("coherence_times = inf,nan\n", "key 'coherence_times': require every value > 0 (inf allowed), got nan"),
        ("theta = -inf\n", "key 'theta': require finite theta, got -inf"),
    ])
    def test_mi_surface_bad_exposure_or_coherence_is_2(self, tmp_path, capsys, lines, named):
        # rejected up front, naming the key, with no numpy warning and no output
        path = _write(tmp_path, "c.cfg", lines)
        out = tmp_path / "out"
        assert main(["mi-surface", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not list(out.iterdir())


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, lines, key", [
        ("mi-surface", "n_points = 512\ntau_grid_size = 4\ntau_max = 1e308\n", "tau_max"),
        ("kpe-check", "tau_max = 1e308\n", "tau_max"),
        ("kpe-check", "kpe_tau0 = 1e308\n", "kpe_tau0"),
        ("compare", "policies = random\nn_points = 512\nn_realizations = 2\ntau_max = 1e308\n", "tau_max"),
        ("compare", "policies = kpe\nn_points = 512\nn_realizations = 2\nkpe_tau0 = 1e308\n", "kpe_tau0"),
    ], ids=["mi-surface-tau_max", "kpe-check-tau_max", "kpe-check-kpe_tau0", "compare-tau_max", "compare-kpe_tau0"])
    def test_overflowing_phase_is_2(self, tmp_path, capsys, command, lines, key):
        # 2 tau b overflows to inf; rejected before any exposure is formed,
        # naming its key, with no numpy warning and no output
        path = _write(tmp_path, "c.cfg", lines)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: key {key!r}: require a finite phase")
        assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["mi-surface", "compare", "kpe-check"])
    def test_overflowing_grid_is_2(self, tmp_path, capsys, command):
        # b^2 overflows: rejected by the grid, naming both bounds, with no
        # numpy warning, before any CSV is written
        path = _write(tmp_path, "c.cfg", "b_min = -1e200\nb_max = 1e200\nn_points = 64\n")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "b_min" in err and "b_max" in err
        assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["compare", "mi-surface"])
    @pytest.mark.parametrize("prior_std", ["1e-300", "0.001"])
    def test_prior_narrower_than_grid_is_2(self, tmp_path, capsys, command, prior_std):
        # rejected before the Gaussian is formed: at 1e-300 its z-scores
        # overflow, and at 0.001 it would sit on a few grid points
        path = _write(tmp_path, "c.cfg", f"prior_std = {prior_std}\n")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: require prior_std >= 4 grid spacings (")
        assert err.endswith(f"got {float(prior_std)}\n")
        assert not list(out.glob("*.csv"))


def _python_with_package(*args, **env):
    """Run a fresh interpreter that imports this ramsey_sched, with ``env`` added to its environment."""
    src = str(Path(ramsey_sched.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


# `python -c PINNED_TO_ONE_CPU <command> ...` runs the CLI on one of this
# process's CPUs.
PINNED_TO_ONE_CPU = (
    "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
    " assert len(os.sched_getaffinity(0)) == 1;"
    " from ramsey_sched.cli import main; sys.exit(main(sys.argv[1:]))"
)


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        proc = _python_with_package("-m", "ramsey_sched.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == ramsey_sched.__version__

    def test_cli_imports_without_scipy(self):
        # the runtime needs numpy alone; scipy is a test dependency
        proc = _python_with_package("-c", "import sys, ramsey_sched.cli; print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# The closed-loop API, imported from the top level outside the package.
TOP_LEVEL = {
    "FieldGrid", "gaussian_distribution", "bayes_update", "entropy", "variance", "mean",
    "PolicyConfig", "PolicyState", "next_params", "sample_outcome", "alpha_series_closed",
}


class TestOneWayIn:
    """Each command's input is its config file; each name has one import path."""

    def test_every_command_takes_only_config_and_out(self):
        (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["mi-surface", "compare", "validate-alpha", "kpe-check"]
        for parser in sub.choices.values():
            options = {s for a in parser._actions for s in a.option_strings}
            assert options == {"-h", "--help", "--config", "--out"}

    @pytest.mark.parametrize("argv", [["compare", "--seed", "1"], ["validate-alpha", "--j-max", "4"]])
    def test_a_flag_for_a_config_key_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_top_level_is_the_closed_loop_api(self):
        public = {n: v for n, v in vars(ramsey_sched).items() if not n.startswith("_")}
        modules = {n for n, v in public.items() if isinstance(v, types.ModuleType)}
        assert all(public[n].__name__ == f"ramsey_sched.{n}" for n in modules)
        assert set(public) - modules == TOP_LEVEL
        assert "__version__" in vars(ramsey_sched)


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

    @pytest.mark.parametrize("overrides", [
        {},
        {"tau_min": "0"},
        {"theta": "-1.0"},
        {"theta": "7.5"},
        {"coherence_times": "inf"},
        {"coherence_times": "2,2"},
        {"tau_grid_size": "1"},
    ])
    def test_rows_equal_the_scalar_oracle(self, tmp_path, overrides):
        # every row, T-major, is exactly the scalar mutual_information of its cell
        keys = {"n_points": "1024", "tau_grid_size": "6", **overrides}
        path = _write(tmp_path, "mi.cfg", "".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = tmp_path / "o"
        assert main(["mi-surface", "--config", path, "--out", str(out)]) == 0
        cfg = resolve_config("mi-surface", path)
        prior = gaussian_distribution(cli._grid(cfg), cfg["prior_mean"], cfg["prior_std"])
        taus = np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_grid_size"])
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "mi_surface.csv").read_text().splitlines()[1:]]
        assert [(T, tau) for T, tau, _, _ in rows] == [
            (T, float(tau)) for T in cfg["coherence_times"] for tau in taus
        ]
        for T, tau, theta, mi in rows:
            p = RamseyParams(tau, cfg["theta"], T)
            assert theta == p.theta
            assert mi == mutual_information(prior, p)

    def test_fringe_formed_once_per_tau(self, tmp_path, monkeypatch):
        calls = []
        fringe = bayes._fringe

        def spy(b, p):
            calls.append(p.tau)
            return fringe(b, p)

        monkeypatch.setattr(bayes, "_fringe", spy)
        cfg = _write(tmp_path, "mi.cfg", "n_points = 512\ntau_grid_size = 5\ncoherence_times = 2,5,10,inf\n")
        assert main(["mi-surface", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 5
        assert len(set(calls)) == 5

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
        # the default kpe-check runs the myopic chooser at T = inf
        runs = [
            (["compare", "--config", cfg], ["compare_random.csv", "compare_kpe.csv"]),
            (["kpe-check"], ["kpe_check.csv"]),
        ]
        for i, (args, csvs) in enumerate(runs):
            out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
            assert main(args + ["--out", str(out1)]) == 0
            assert main(args + ["--out", str(out2)]) == 0
            for name in csvs:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("lines, pinned", [
        ("policies = random,kpe\nn_realizations = 2\nn_measurements = 5\n", True),
        ("policies = myopic_entropy,variance_min\nn_realizations = 4\nn_measurements = 8\n"
         "tau_grid_size = 16\ntheta_grid_size = 16\n", False),
    ], ids=["blind", "greedy"])
    def test_byte_identical_under_one_and_two_blas_threads(self, tmp_path, lines, pinned):
        # OpenBLAS splits a dot of more than 10000 points across its
        # threads; at N = 2^14 every grid dot runs as 8192-point chunks.
        # Blind trials run on one worker per usable CPU, so a third child,
        # pinned to one CPU, runs them on one worker
        cfg = _write(tmp_path, "c.cfg", lines + "n_points = 16384\n")
        args = ["compare", "--config", cfg, "--out"]
        runs = [("1", ["-m", "ramsey_sched.cli"]), ("2", ["-m", "ramsey_sched.cli"])]
        if pinned:
            runs.append(("2", ["-c", PINNED_TO_ONE_CPU]))
        csvs = []
        for i, (threads, entry) in enumerate(runs):
            out = tmp_path / str(i)
            proc = _python_with_package(*entry, *args, str(out), OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            csvs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert len(csvs[0]) == 2
        assert all(c == csvs[0] for c in csvs[1:])

    def test_zero_measurements_write_header_only_csvs(self, tmp_path):
        cfg = _write(tmp_path, "c.cfg", self.CFG.replace("n_measurements = 4", "n_measurements = 0"))
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        for kind in ("random", "kpe", "variance_min", "myopic_entropy"):
            assert (out / f"compare_{kind}.csv").read_text() == (
                "step,mean_entropy,std_entropy,mean_posterior_std,std_posterior_std\n"
            )

    def test_seed_flag_changes_output(self, tmp_path):
        cfg1 = _write(tmp_path, "c1.cfg", self.CFG + "policies = random\nmaster_seed = 1\n")
        cfg2 = _write(tmp_path, "c2.cfg", self.CFG + "policies = random\nmaster_seed = 2\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg1, "--out", str(out1)]) == 0
        assert main(["compare", "--config", cfg2, "--out", str(out2)]) == 0
        assert (out1 / "compare_random.csv").read_bytes() != (
            out2 / "compare_random.csv"
        ).read_bytes()


def _validate_alpha(tmp_path, j_max):
    """validate-alpha's argv up to --out, its j_max set by a new config file."""
    return ["validate-alpha", "--config", _write(tmp_path, f"j{j_max}.cfg", f"j_max = {j_max}\n")]


def _csvs(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def _manifest_without_duration(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    assert sum(line.startswith("duration_seconds = ") for line in lines) == 1
    return [line for line in lines if not line.startswith("duration_seconds = ")]


class TestArtifactWrites:
    """Every artifact is written as a new file over whatever held its name."""

    def _compare(self, tmp_path, extra=""):
        text = TestCompare.CFG + "policies = random,kpe\n" + extra
        return ["compare", "--config", _write(tmp_path, "c.cfg", text)]

    def test_rerun_into_one_out_dir(self, tmp_path):
        for args in (self._compare(tmp_path), _validate_alpha(tmp_path, 4)):
            out = tmp_path / args[0]
            assert main(args + ["--out", str(out)]) == 0
            first, manifest = _csvs(out), _manifest_without_duration(out)
            assert main(args + ["--out", str(out)]) == 0
            assert _csvs(out) == first
            assert _manifest_without_duration(out) == manifest

    def test_old_artifact_is_replaced_not_rewritten(self, tmp_path):
        # a hard link keeps the old file: the rerun leaves it as it was
        out, keep = tmp_path / "out", tmp_path / "keep.csv"
        assert main(self._compare(tmp_path, "master_seed = 1\n") + ["--out", str(out)]) == 0
        old = (out / "compare_random.csv").read_bytes()
        os.link(out / "compare_random.csv", keep)
        assert main(self._compare(tmp_path, "master_seed = 2\n") + ["--out", str(out)]) == 0
        assert keep.read_bytes() == old
        assert (out / "compare_random.csv").read_bytes() != old
        assert not os.path.samefile(keep, out / "compare_random.csv")

    def test_symlink_is_replaced_and_its_target_kept(self, tmp_path):
        args = self._compare(tmp_path)
        assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
        out, target = tmp_path / "out", tmp_path / "target.txt"
        out.mkdir()
        target.write_text("keep\n")
        for name in ("compare_kpe.csv", "manifest.txt"):
            (out / name).symlink_to(target)
        assert main(args + ["--out", str(out)]) == 0
        assert target.read_text() == "keep\n"
        for name in ("compare_kpe.csv", "manifest.txt"):
            assert (out / name).is_file() and not (out / name).is_symlink()
        assert _csvs(out) == _csvs(tmp_path / "fresh")
        assert _manifest_without_duration(out) == _manifest_without_duration(tmp_path / "fresh")

    def test_read_only_artifact_is_replaced_with_the_umask_mode(self, tmp_path):
        args = self._compare(tmp_path)
        assert main(args + ["--out", str(tmp_path / "fresh")]) == 0
        out = tmp_path / "out"
        out.mkdir()
        for name in ("compare_kpe.csv", "manifest.txt"):
            (out / name).write_text("old\n")
            (out / name).chmod(0o444)
        umask = os.umask(0)
        os.umask(umask)
        assert main(args + ["--out", str(out)]) == 0
        for name in ("compare_kpe.csv", "manifest.txt"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~umask
        assert _csvs(out) == _csvs(tmp_path / "fresh")

    @pytest.mark.parametrize("name", ["compare_kpe.csv", "manifest.txt"])
    def test_directory_in_an_artifacts_place_is_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(self._compare(tmp_path) + ["--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert (out / name).is_dir()


class TestManifestReplay:
    """A manifest's config.* lines are its run's whole input: fed back as
    --config, they give the same CSVs and the same manifest."""

    GRID = "n_points = 1024\ntau_grid_size = 8\ntheta_grid_size = 9\n"
    RUNS = {
        "compare": (
            "compare",
            GRID + "n_measurements = 3\nn_realizations = 2\npolicies = myopic_entropy,random\n"
            "coherence_time = inf\ntrue_field = 0.25\n",
        ),
        "compare-sample": ("compare", GRID + "n_measurements = 3\nn_realizations = 2\n"),
        "mi-surface": ("mi-surface", "n_points = 1024\ntau_grid_size = 5\ncoherence_times = 0.3,2,inf\ntheta = 7.5\n"),
        "validate-alpha": ("validate-alpha", "j_max = 7\n"),
        "kpe-check": ("kpe-check", "theta_grid_size = 33\noutcomes = 0,1,0\ncoherence_time = inf\n"),
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_config_lines_replay(self, tmp_path, run):
        command, text = self.RUNS[run]
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, "--config", _write(tmp_path, "c.cfg", text), "--out", str(first)]) == 0
        manifest = _manifest_without_duration(first)
        replay = "".join(line.removeprefix("config.") + "\n" for line in manifest if line.startswith("config."))
        assert main([command, "--config", _write(tmp_path, "replay.cfg", replay), "--out", str(again)]) == 0
        assert _csvs(again) == _csvs(first)
        assert _manifest_without_duration(again) == manifest
        if run == "compare-sample":
            assert "config.true_field = sample" in manifest


class TestSharedParser:
    def test_no_flag_carries_into_the_next_run(self, tmp_path, capsys, monkeypatch):
        cfg = TestCompare.CFG + "policies = random\n"
        runs = [
            ["compare", "--config", _write(tmp_path, "seed7.cfg", cfg + "master_seed = 7\n")],
            ["compare", "--config", _write(tmp_path, "c.cfg", cfg)],
            _validate_alpha(tmp_path, 5) + ["--bogus"],  # argparse rejects it
            _validate_alpha(tmp_path, 3),
            ["validate-alpha"],
        ]

        def run(k, out):
            try:
                code = main(runs[k] + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            return code, _csvs(out)

        # one process-wide parser, then a new parser and directory per run
        shared = [run(k, tmp_path / f"shared{k}") for k in range(len(runs))]
        for k, result in enumerate(shared):
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            assert result == run(k, tmp_path / f"fresh{k}")
        capsys.readouterr()
        assert [code for code, _ in shared] == [0, 0, 2, 0, 0]
        assert shared[0][1] != shared[1][1]  # seed 7 is not master_seed's default
        alpha_rows = [len(csvs["alpha_validation.csv"].splitlines()) - 1 for _, csvs in shared[3:]]
        assert alpha_rows == [3, 32]


ALPHA_GATE_FAILED = (
    "validate-alpha: sign, monotonicity, 1e-8 quadrature agreement"
    " or 1e-9 relative exact agreement failed\n"
)


class TestValidateAlpha:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 12) + ["--out", str(out)]) == 0
        lines = (out / "alpha_validation.csv").read_text().splitlines()
        assert lines[0] == "j,closed_value,quadrature_value,abs_diff"
        assert len(lines) == 1 + 12
        for line in lines[1:]:
            j, closed, quad, diff = line.split(",")
            assert float(closed) < 0.0
            assert float(diff) < 1e-8

    def test_passes_past_j_68(self, tmp_path):
        # from j = 69 on a stop rule on small terms would fire just past
        # the sign change; the series must still sum its positive tail
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 70) + ["--out", str(out)]) == 0
        rows = (out / "alpha_validation.csv").read_text().splitlines()[-2:]
        assert [float(r.split(",")[3]) < 1e-9 for r in rows] == [True, True]

    def test_byte_identical_under_one_and_two_blas_threads(self, tmp_path):
        # at j_max = 386 one GEMV over the whole basis would be split
        # across OpenBLAS threads; each coefficient is its own grid dot
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = _python_with_package(
                "-m", "ramsey_sched.cli", *_validate_alpha(tmp_path, 386), "--out", str(out),
                OPENBLAS_NUM_THREADS=threads,
            )
            assert proc.returncode == 0, proc.stderr
            csvs.append((out / "alpha_validation.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "j_max, limit",
        [(0, ">= 1"), (387, "<= 386"), (599_991, "<= 386"), (599_995, "<= 386")],
    )
    def test_j_max_out_of_range_is_config_error(
        self, tmp_path, capsys, monkeypatch, j_max, limit
    ):
        def must_not_run(*args):
            raise AssertionError("the series ran for an out-of-range j_max")

        monkeypatch.setattr(cli, "alpha_series_closed", must_not_run)
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, j_max) + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: key 'j_max': require {limit}, got {j_max}\n"
        assert not list(out.iterdir())

    def test_j_max_at_limit_reaches_the_series(self, tmp_path, monkeypatch):
        # a recording stub that returns the exact coefficients
        calls = []

        def exact(j_max):
            calls.append(j_max)
            return fourier.contrast_entropy_series(1.0, j_max)[0]

        monkeypatch.setattr(cli, "alpha_series_closed", exact)
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 386) + ["--out", str(out)]) == 0
        assert calls == [386]
        assert len((out / "alpha_validation.csv").read_text().splitlines()) == 1 + 386

    def test_failed_check_still_writes_report(self, tmp_path, capsys, monkeypatch):
        real = cli.alpha_series_quadrature

        def shifted(j_max):
            coeffs = real(j_max).copy()
            coeffs[3] += 1e-6
            return coeffs

        monkeypatch.setattr(cli, "alpha_series_quadrature", shifted)
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 4) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == ALPHA_GATE_FAILED
        lines = (out / "alpha_validation.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert float(lines[3].split(",")[3]) > 1e-8
        assert "artifact = alpha_validation.csv" in (out / "manifest.txt").read_text()

    def test_sign_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        # the sign claim is tested here alone, so a positive closed
        # coefficient is a reported check failure, not a config error
        real = fourier._closed_coefficient

        def positive_at_3(j):
            return 1e-3 if j == 3 else real(j)

        monkeypatch.setattr(fourier, "_closed_coefficient", positive_at_3)
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 4) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == ALPHA_GATE_FAILED
        lines = (out / "alpha_validation.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert float(lines[3].split(",")[1]) == 1e-3
        assert "artifact = alpha_validation.csv" in (out / "manifest.txt").read_text()

    def test_nan_coefficient_fails(self, tmp_path, capsys, monkeypatch):
        # NaN fails every comparison, so each condition is checked as the
        # thing that must hold
        real = fourier._closed_coefficient

        def nan_at_3(j):
            return math.nan if j == 3 else real(j)

        monkeypatch.setattr(fourier, "_closed_coefficient", nan_at_3)
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 4) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == ALPHA_GATE_FAILED
        lines = (out / "alpha_validation.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[3].startswith("3,nan,")
        assert "artifact = alpha_validation.csv" in (out / "manifest.txt").read_text()

    def test_old_series_bias_fails_the_exact_gate(self, tmp_path, capsys, monkeypatch):
        # a series that drops a 3.05e-10 tail stays within 1e-8 of the
        # quadrature and keeps the signs and the order, but is 4e-5 off
        # in relative terms at j = 32
        real = fourier._closed_coefficient

        def biased(j):
            return real(j) - 3.05e-10

        monkeypatch.setattr(fourier, "_closed_coefficient", biased)
        out = tmp_path / "out"
        assert main(_validate_alpha(tmp_path, 32) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == ALPHA_GATE_FAILED
        lines = (out / "alpha_validation.csv").read_text().splitlines()
        assert len(lines) == 1 + 32
        assert all(float(line.split(",")[3]) < 1e-8 for line in lines[1:])


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

    def test_every_six_outcome_string_passes_at_the_defaults(self):
        # steps 2-7 are the ones the default 16 pi window resolves
        cfg = resolve_config("kpe-check", None)
        for outcomes in itertools.product((0, 1), repeat=6):
            artifacts, failure = cli.cmd_kpe_check({**cfg, "outcomes": list(outcomes)})
            assert failure is None, outcomes
            assert [r[0] for r in artifacts["kpe_check.csv"][1]] == [2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("lines", [
        "theta_grid_size = 65\noutcomes = 1,1,1\n",
        "theta_grid_size = 9\noutcomes = 1,0,0\n",
    ], ids=["65", "9"])
    def test_odd_theta_grid_folds_theta_plus_pi(self, tmp_path, lines):
        # on these odd grids the myopic theta is the cell nearest the
        # halving theta + pi, the same measurement with its outcomes
        # relabelled: at most one cell apart, not half the circle
        cfg = _write(tmp_path, "k.cfg", lines)
        out = tmp_path / "out"
        assert main(["kpe-check", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "kpe_check.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 and all(int(r[6]) <= 1 for r in rows)
        # and some step is so folded: its thetas lie over a radian apart
        gaps = [abs(float(r[2]) - float(r[4])) % (2 * math.pi) for r in rows]
        assert any(min(g, 2 * math.pi - g) > 1.0 for g in gaps)

    def test_seven_outcomes_are_a_config_error(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("the trajectory ran past the outcome limit")

        monkeypatch.setattr(cli, "compare_kpe_to_myopic", must_not_run)
        cfg = _write(tmp_path, "k.cfg", "outcomes = 0,0,0,0,0,0,0\n")
        out = tmp_path / "out"
        assert main(["kpe-check", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: key 'outcomes': require at most 6 outcomes, got 7"
        )
        assert not list(out.iterdir())

    def test_first_halving_tau_above_tau_max_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # tau 8 would be judged from the search grid's top cell, tau_max = 4
        def must_not_run(*args):
            raise AssertionError("the trajectory ran with a tau above the search grid")

        monkeypatch.setattr(cli, "compare_kpe_to_myopic", must_not_run)
        cfg = _write(tmp_path, "k.cfg", "kpe_tau0 = 16\n")
        out = tmp_path / "out"
        assert main(["kpe-check", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: key 'kpe_tau0': require kpe_tau0 / 2 <= tau_max = 4.0, got 16.0\n"
        )
        assert not list(out.iterdir())

    def test_outcome_limit_follows_the_window_and_tau_min(self):
        cfg = resolve_config("kpe-check", None)
        assert cli._kpe_outcome_limit(cfg) == 6
        # a 32 pi window resolves one more halving; tau_min = 1/8 cuts at tau = 1/8
        assert cli._kpe_outcome_limit({**cfg, "b_max": 24.0 * math.pi}) == 7
        assert cli._kpe_outcome_limit({**cfg, "tau_min": 0.125}) == 5
        # a window that holds no whole number of tau = 2 fringes
        assert cli._kpe_outcome_limit({**cfg, "b_max": 8.0 * math.pi + 0.1}) == 0

    def test_small_coherence_reports_divergence(self, tmp_path, capsys):
        cfg = _write(tmp_path, "k.cfg", "coherence_time = 4.0\nn_points = 2048\n")
        out = tmp_path / "out"
        code = main(["kpe-check", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert (out / "kpe_check.csv").exists()  # the report is still written
        assert "artifact = kpe_check.csv" in (out / "manifest.txt").read_text()
        assert "diverge" in capsys.readouterr().err
