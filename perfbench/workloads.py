"""The benchmark's workloads: inputs made from the seed, one operation, its check.

Each workload cycles through a pool of distinct inputs derived from the
seed: operation k uses input k % pool.  The first run of an input is
checked against a reference (outputs recorded when the benchmark was
added, for the shipped seeds; computed by `reference` otherwise) and
every repeat must equal that first run exactly, so every timed output is
checked while the cost of checking stays bounded however fast the
package gets.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import ramsey_sched as rs
import reference as ref
from ramsey_sched import cli, policies, simulate

REFDATA = Path(__file__).with_name("refdata")
PRIOR_STD = 3.0 / math.sqrt(2.0)
T_LIVE = 10.0


def plain_calls() -> SimpleNamespace:
    """The public functions the benchmark itself calls, untraced."""
    return SimpleNamespace(
        new_trial=lambda: None,
        main=cli.main,
        next_params=rs.next_params,
        bayes_update=rs.bayes_update,
        sample_outcome=rs.sample_outcome,
        entropy=rs.entropy,
        variance=rs.variance,
        mean=rs.mean,
    )


def instrument(tracer):
    """Spans for every layer: (module patches, traced call-site functions, counters).

    Wrappers go on the module attribute the caller looks up: policies'
    dispatch finds the scorers in `policies`, `run_trial` finds the update
    and statistics in `simulate`, the commands find their work in `cli`.
    """
    counters = {"cell_points": 0}

    def count_cells(state, cfg, *_):
        counters["cell_points"] += cfg.tau_grid_size * cfg.theta_grid_size * state.posterior.grid.n_points

    w = tracer.wrap
    patches = [
        (policies, "next_params_myopic_entropy", w("policies.myopic", policies.next_params_myopic_entropy, count_cells)),
        (policies, "next_params_variance_min", w("policies.variance", policies.next_params_variance_min, count_cells)),
        (policies, "next_params_kpe", w("policies.kpe", policies.next_params_kpe)),
        (policies, "next_params_random", w("policies.random", policies.next_params_random)),
        (simulate, "bayes_update", w("bayes.update", simulate.bayes_update)),
        (simulate, "entropy", w("bayes.entropy", simulate.entropy)),
        (simulate, "variance", w("bayes.variance", simulate.variance)),
        (simulate, "mean", w("bayes.mean", simulate.mean)),
        (simulate, "sample_outcome", w("simulate.sample_outcome", simulate.sample_outcome)),
        (simulate, "run_trial", w("simulate.trial", simulate.run_trial, per_trial=True)),
        (cli, "run_ensemble", w("simulate.ensemble", cli.run_ensemble)),
        (cli, "mutual_information", w("bayes.mi_scalar", cli.mutual_information)),
        (cli, "alpha_series_closed", w("fourier.alpha_closed", cli.alpha_series_closed)),
        (cli, "alpha_series_quadrature", w("fourier.alpha_quadrature", cli.alpha_series_quadrature)),
        (cli, "write_csv", w("cli.write_csv", cli.write_csv)),
    ]
    calls = SimpleNamespace(
        new_trial=tracer.new_trial,
        main=w("cli.command", cli.main, per_trial=True),
        next_params=rs.next_params,
        bayes_update=w("bayes.update", rs.bayes_update),
        sample_outcome=w("simulate.sample_outcome", rs.sample_outcome),
        entropy=w("bayes.entropy", rs.entropy),
        variance=w("bayes.variance", rs.variance),
        mean=w("bayes.mean", rs.mean),
    )
    return patches, calls, counters


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-10)


def _rows_close(got, expect) -> bool:
    return len(got) == len(expect) and all(
        len(g) == len(e) and all(_close(x, y) for x, y in zip(g, e)) for g, e in zip(got, expect)
    )


def _read_csv(text: str, header: list[str]) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"unexpected CSV header {rows[:1]}")
    return [[float(v) for v in row] for row in rows[1:]]


def _recorded(name: str, seed: int) -> list | None:
    path = REFDATA / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


class Workload:
    name = ""
    why = ""
    pool = 1
    steps_per_op = 1

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def cold(self) -> None:
        """The first call, which fills lazy caches (set-up, untimed phase)."""

    def calibrate(self) -> float:
        """Seconds taken by this workload's calibration kernel, run once.

        The kernel is fixed numpy code from `reference` with the same kind
        of work as the workload's hot path, so load from other tenants of
        the host slows it by about the same factor as the operations.
        """
        start = time.perf_counter()
        self.calibration()
        return time.perf_counter() - start

    def calibration(self) -> None:
        raise NotImplementedError

    def op(self, k: int, calls) -> tuple[float, object, int]:
        """Run operation k: (latency in s, output, bytes written)."""
        raise NotImplementedError

    def check(self, outputs: list) -> list[bool]:
        """One verdict per output; None (a raised operation) fails."""
        raise NotImplementedError

    def computed(self) -> dict:
        """Computed kernel sizes for this workload's grid."""
        raise NotImplementedError

    def _first_or_repeat(self, outputs, check_first) -> list[bool]:
        seen: dict = {}
        verdicts = []
        for out in outputs:
            if out is None:
                verdicts.append(False)
                continue
            key = out[0]
            if key not in seen:
                seen[key] = out
                verdicts.append(bool(check_first(out)))
            else:
                verdicts.append(out == seen[key])
        return verdicts


class LiveMyopic(Workload):
    """One closed-loop myopic trial at a time: outcome in, next controls out."""

    name = "live_myopic"
    why = "single live myopic trial (R=1) at N=2^12, 64x64 cells: the between-shot latency that MI scoring dominates"
    pool = 3

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        n, cells = (2**8, 8) if smoke else (2**12, 64)
        self.steps = 3 if smoke else 10
        self.grid = rs.FieldGrid(-20.0, 20.0, n)
        self.prior = rs.gaussian_distribution(self.grid, 0.0, PRIOR_STD)
        self.cfg = rs.PolicyConfig(
            kind="myopic_entropy", tau_grid_size=cells, theta_grid_size=cells, coherence_time=T_LIVE
        )

    def cold(self):
        rs.next_params(rs.PolicyState(self.prior), self.cfg)

    def calibration(self):
        _mi_calibration(self.grid.n_points, self.cfg.tau_grid_size // 4, self.cfg.theta_grid_size)

    def _trial_rng(self, t: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, t])

    def op(self, k, calls):
        t, j = divmod(k, self.steps)
        t %= self.pool
        outcome = None
        if j == 0:
            calls.new_trial()
            self.trial_rng = self._trial_rng(t)
            self.b_true = float(self.trial_rng.normal(0.0, PRIOR_STD))
            self.posterior = self.prior
            self.history = []
            start = time.perf_counter()
        else:
            outcome = calls.sample_outcome(self.trial_rng, self.b_true, self.params)
            start = time.perf_counter()
            self.posterior = calls.bayes_update(self.posterior, self.params, outcome)
            self.history.append((self.params, outcome))
        state = rs.PolicyState(self.posterior, tuple(self.history), len(self.history))
        self.params = calls.next_params(state, self.cfg)
        latency = time.perf_counter() - start
        post = self.posterior
        shown = (calls.entropy(post), math.sqrt(calls.variance(post)), calls.mean(post))
        out = ((t, j), outcome, self.params.tau, self.params.theta, post.density.tobytes(), shown)
        return latency, out, 0

    def check(self, outputs):
        g, cfg = self.grid, self.cfg
        b, w = ref.grid_points(g.b_min, g.b_max, g.n_points)
        taus = ref.tau_grid(cfg.tau_min, cfg.tau_max, cfg.tau_grid_size)
        thetas = ref.theta_grid(cfg.theta_grid_size)
        trials: dict = {}
        prev = {}

        def check_first(out):
            (t, j), outcome, tau, theta, dens_bytes, shown = out
            dens = np.frombuffer(dens_bytes)
            if j == 0:
                rng = self._trial_rng(t)
                trials[t] = (rng, float(rng.normal(0.0, PRIOR_STD)))
                expect = ref.gaussian(b, w, 0.0, PRIOR_STD)
                good = outcome is None
            else:
                rng, b_true = trials[t]
                _, _, ptau, ptheta, pdens, _ = prev[t]
                x = 0 if rng.random() < float(ref.l0_point(ptau, ptheta, T_LIVE, b_true)) else 1
                expect = ref.update(np.frombuffer(pdens), b, w, ptau, ptheta, T_LIVE, x)
                good = outcome == x
            prev[t] = out
            good &= bool(np.allclose(dens, expect, rtol=1e-9, atol=1e-12 * expect.max()))
            good &= all(_close(a, e) for a, e in zip(shown, ref.stats(dens, b, w)))
            cell = (ref.cell_index(taus, tau), ref.cell_index(thetas, theta, ref.TWO_PI))
            if None in cell:
                return False
            return good and ref.is_tie_rule_choice(ref.mi_cells(w * dens, b, taus, thetas, T_LIVE), cell)

        return self._first_or_repeat(outputs, check_first)

    def computed(self):
        n = self.grid.n_points
        return {
            "n_points": n,
            "block_bytes": self.cfg.theta_grid_size * n * 8,
            "cell_points_per_call": self.cfg.tau_grid_size * self.cfg.theta_grid_size * n,
        }


class CliWorkload(Workload):
    """Runs `ramsey-sched` commands through `cli.main` with generated config files."""

    commands: tuple[str, ...] = ()

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.configs = [self.make_config(i) for i in range(self.pool)]
        self.argvs = []
        for i, cfgs in enumerate(self.configs):
            argv = []
            for cmd in self.commands:
                path = _write_config(out_dir / f"{cmd}-{i}.cfg", cfgs[cmd])
                argv.append([cmd, "--config", str(path), "--out", str(out_dir / cmd)])
            self.argvs.append(argv)
        recorded = _recorded(self.name, seed)
        same_inputs = recorded and [r["config"] for r in recorded] == json.loads(json.dumps(self.configs))
        self.recorded = recorded if same_inputs else None

    def make_config(self, i: int) -> dict:
        raise NotImplementedError

    def cold(self):
        for cmd, cfg in self.cold_configs().items():
            path = _write_config(self.out_dir / f"{cmd}-cold.cfg", cfg)
            if cli.main([cmd, "--config", str(path), "--out", str(self.out_dir / "cold")]) != 0:
                raise RuntimeError(f"cold {cmd} call failed")

    def cold_configs(self) -> dict:
        raise NotImplementedError

    def op(self, k, calls):
        i = k % self.pool
        start = time.perf_counter()
        codes = tuple(calls.main(argv) for argv in self.argvs[i])
        latency = time.perf_counter() - start
        texts, nbytes = [], 0
        for cmd in self.commands:
            for path in sorted((self.out_dir / cmd).iterdir()):
                nbytes += path.stat().st_size
                if path.suffix == ".csv":
                    texts.append((path.name, path.read_text()))
        return latency, (i, codes, tuple(texts)), nbytes

    def check(self, outputs):
        def check_first(out):
            i, codes, texts = out
            if any(codes):
                return False
            expect = self.recorded[i]["expect"] if self.recorded else self.expected(self.configs[i])
            try:
                return self.matches(self.parse(dict(texts)), expect, self.configs[i])
            except (KeyError, ValueError):
                return False

        return self._first_or_repeat(outputs, check_first)

    def expected(self, cfgs: dict):
        """Reference values of the outputs `parse` extracts."""
        raise NotImplementedError

    def parse(self, texts: dict):
        """The checked values of one operation's CSV artifacts."""
        raise NotImplementedError

    def recordable(self, got):
        """The part of `parse`'s result that the recorded references keep."""
        return got

    def matches(self, got, expect, cfgs: dict) -> bool:
        raise NotImplementedError


def _write_config(path: Path, cfg: dict) -> Path:
    """A flat `key = value` config file, as `ramsey-sched --config` reads it."""
    path.write_text("".join(f"{k} = {_cfg_value(v)}\n" for k, v in cfg.items()))
    return path


def _cfg_value(v) -> str:
    if isinstance(v, list):
        return ",".join(_cfg_value(x) for x in v)
    if isinstance(v, float):
        return "inf" if v == math.inf else repr(v)
    return str(v)


_COMPARE_HEADER = ["step", "mean_entropy", "std_entropy", "mean_posterior_std", "std_posterior_std"]


class Ensemble(CliWorkload):
    commands = ("compare",)
    kinds: tuple[str, ...] = ()

    def sizes(self) -> dict:
        raise NotImplementedError

    def compare_config(self, master_seed: int, **sizes) -> dict:
        return {
            "prior_mean": 0.0,
            "prior_std": PRIOR_STD,
            "coherence_time": 10.0,
            "master_seed": master_seed,
            "policies": list(self.kinds),
            "tau_min": 5.0 / 512.0,
            "tau_max": 5.0,
            "kpe_tau0": 4.0,
            "kpe_theta0": 0.0,
            "b_min": -20.0,
            "b_max": 20.0,
            "true_field": "sample",
            **sizes,
        }

    def make_config(self, i):
        return {"compare": self.compare_config(int(self.rng.integers(2**31)), **self.sizes())}

    def calibration(self):
        s = self.sizes()
        if "myopic_entropy" in self.kinds:
            _mi_calibration(s["n_points"], s["tau_grid_size"], s["theta_grid_size"])
        else:
            _update_calibration(s["n_points"], 4 * s["n_measurements"])

    def cold_configs(self):
        sizes = dict(self.sizes(), n_realizations=1, n_measurements=1)
        return {"compare": self.compare_config(0, **sizes)}

    @property
    def steps_per_op(self):
        s = self.sizes()
        return len(self.kinds) * s["n_realizations"] * s["n_measurements"]

    def expected(self, cfgs):
        cfg = cfgs["compare"]
        return {kind: [list(r) for r in ref.simulate_compare(cfg, kind)] for kind in self.kinds}

    def parse(self, texts):
        if set(texts) != {f"compare_{kind}.csv" for kind in self.kinds}:
            raise ValueError(f"unexpected artifacts {sorted(texts)}")
        got = {}
        for kind in self.kinds:
            rows = _read_csv(texts[f"compare_{kind}.csv"], _COMPARE_HEADER)
            if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
                raise ValueError("step column is not 1..n")
            got[kind] = [r[1:] for r in rows]
        return got

    def matches(self, got, expect, cfgs):
        return all(_rows_close(got[kind], expect[kind]) for kind in self.kinds)

    def computed(self):
        s = self.sizes()
        return {
            "n_points": s["n_points"],
            "block_bytes": s["theta_grid_size"] * s["n_points"] * 8,
            "cell_points_per_call": s["tau_grid_size"] * s["theta_grid_size"] * s["n_points"],
            "steps_per_op": self.steps_per_op,
        }


class EnsembleAdaptive(Ensemble):
    name = "ensemble_adaptive"
    why = "compare variance_min and myopic_entropy, 4 trials x 2 steps each at N=2^11: the only R>1 adaptive and variance-scoring path"
    kinds = ("variance_min", "myopic_entropy")
    pool = 4

    def sizes(self):
        if self.smoke:
            return {"n_points": 2**8, "n_realizations": 2, "n_measurements": 2, "tau_grid_size": 8, "theta_grid_size": 8}
        return {"n_points": 2**11, "n_realizations": 4, "n_measurements": 2, "tau_grid_size": 64, "theta_grid_size": 64}


class EnsembleBlind(Ensemble):
    name = "ensemble_blind"
    why = "compare kpe and random over 32 trials x 60 steps at N=2^14: no policy scoring, so update and statistics dominate"
    kinds = ("kpe", "random")
    pool = 3

    def sizes(self):
        if self.smoke:
            return {"n_points": 2**9, "n_realizations": 4, "n_measurements": 10, "tau_grid_size": 64, "theta_grid_size": 64}
        return {"n_points": 2**14, "n_realizations": 32, "n_measurements": 60, "tau_grid_size": 64, "theta_grid_size": 64}


_MI_HEADER = ["T", "tau", "theta", "mutual_information_nats"]
_ALPHA_HEADER = ["j", "closed_value", "quadrature_value", "abs_diff"]


class PaperChecks(CliWorkload):
    name = "paper_checks"
    why = "mi-surface (512 scalar MI calls at N=2^13) plus validate-alpha (the fourier series): the paper reproduction path"
    commands = ("mi-surface", "validate-alpha")
    pool = 4

    def _mi_config(self, prior_mean: float, theta: float) -> dict:
        n, n_tau = (2**9, 8) if self.smoke else (2**13, 128)
        return {
            "b_min": -20.0,
            "b_max": 20.0,
            "n_points": n,
            "prior_mean": prior_mean,
            "prior_std": PRIOR_STD,
            "theta": theta,
            "coherence_times": [2.0, 5.0, 10.0, math.inf],
            "tau_min": 0.05,
            "tau_max": 5.0,
            "tau_grid_size": n_tau,
        }

    def j_max(self) -> int:
        return 4 if self.smoke else 32

    def make_config(self, i):
        mean = float(self.rng.uniform(-2.0, 2.0))
        theta = float(self.rng.uniform(0.0, ref.TWO_PI))
        return {"mi-surface": self._mi_config(mean, theta), "validate-alpha": {"j_max": self.j_max()}}

    def cold_configs(self):
        return {"mi-surface": dict(self._mi_config(0.0, 0.0), tau_grid_size=1), "validate-alpha": {"j_max": 1}}

    def calibration(self):
        for j in (1, 2, 3):
            ref.binomial_series(j, 60_000 if self.smoke else 600_000)

    def _mi_cells(self, cfg):
        return [
            (T, float(tau))
            for T in cfg["coherence_times"]
            for tau in np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_grid_size"])
        ]

    def expected(self, cfgs):
        cfg = cfgs["mi-surface"]
        b, w = ref.grid_points(cfg["b_min"], cfg["b_max"], cfg["n_points"])
        dens = ref.gaussian(b, w, cfg["prior_mean"], cfg["prior_std"])
        return [ref.mi_scalar(b, w, dens, tau, cfg["theta"] % ref.TWO_PI, T) for T, tau in self._mi_cells(cfg)]

    def parse(self, texts):
        if set(texts) != {"mi_surface.csv", "alpha_validation.csv"}:
            raise ValueError(f"unexpected artifacts {sorted(texts)}")
        return {
            "mi_surface": _read_csv(texts["mi_surface.csv"], _MI_HEADER),
            "alpha": _read_csv(texts["alpha_validation.csv"], _ALPHA_HEADER),
        }

    def recordable(self, got):
        return [row[3] for row in got["mi_surface"]]

    def matches(self, got, expect, cfgs):
        cfg = cfgs["mi-surface"]
        cells = self._mi_cells(cfg)
        rows = got["mi_surface"]
        if not len(rows) == len(cells) == len(expect):
            return False
        theta = cfg["theta"] % ref.TWO_PI
        for (T, tau, th, mi), (eT, etau), emi in zip(rows, cells, expect):
            if T != eT or not _close(tau, etau) or not _close(th, theta) or not abs(mi - emi) <= 1e-10:
                return False
        # validate-alpha takes no seed: its values are checked against the
        # reference quadrature on every seed.
        coeffs = ref.alpha_quadrature(self.j_max())
        if [r[0] for r in got["alpha"]] != list(range(1, self.j_max() + 1)):
            return False
        for j, closed, quad, diff in got["alpha"]:
            a = coeffs[int(j)]
            if not (abs(closed - a) <= 1e-8 and abs(quad - a) <= 1e-10 and diff <= 1e-8 and closed < 0.0):
                return False
        return True

    def computed(self):
        cfg = self.configs[0]["mi-surface"]
        term_cap = inspect.signature(rs.alpha_series_closed).parameters["term_cap"].default
        j = self.j_max()
        return {
            "n_points": cfg["n_points"],
            "block_bytes": cfg["n_points"] * 8,
            "mi_cells_per_op": len(self._mi_cells(cfg)),
            "series_terms_per_op": j * (term_cap + 1) - j * (j + 1) // 2,
        }


def _mi_calibration(n_points: int, n_tau: int, n_theta: int) -> None:
    """Reference MI scoring of a Gaussian prior on an n_tau x n_theta grid."""
    b, w = ref.grid_points(-20.0, 20.0, n_points)
    taus = ref.tau_grid(5.0 / 512.0, 5.0, max(n_tau, 1))
    ref.mi_cells(w * ref.gaussian(b, w, 0.0, PRIOR_STD), b, taus, ref.theta_grid(n_theta), T_LIVE)


def _update_calibration(n_points: int, steps: int) -> None:
    """Reference updates and statistics of one random-schedule trial."""
    b, w = ref.grid_points(-20.0, 20.0, n_points)
    density = ref.gaussian(b, w, 0.0, PRIOR_STD)
    rng = np.random.default_rng(0)
    for _ in range(steps):
        tau, theta = rng.uniform(0.01, 5.0), rng.uniform(0.0, ref.TWO_PI)
        x = 0 if rng.random() < float(ref.l0_point(tau, theta, T_LIVE, 0.7)) else 1
        density = ref.update(density, b, w, tau, theta, T_LIVE, x)
        ref.stats(density, b, w)


WORKLOADS = {w.name: w for w in (LiveMyopic, EnsembleAdaptive, EnsembleBlind, PaperChecks)}
