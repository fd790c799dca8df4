"""Command line interface: config parsing, subcommands, CSV emission.

Configuration files are flat ``key = value`` text ('#' starts a comment).
Every command runs with an empty (or absent) config: the defaults
reproduce the standard experiment regimes.  Artifacts are CSV files with
a fixed column order and 17-significant-digit floats, so reruns are
byte-identical; each run also writes a manifest echoing the resolved
configuration and listing every artifact.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure during a run (an outcome with zero evidence; the
message names the trial, step and master seed).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    ZeroEvidence,
    gaussian_distribution,
    mutual_information,
)
from .fourier import (
    AlphaSeries,
    DeltaComb,
    TruncationNotConverged,
    alpha_series_closed,
    alpha_series_quadrature,
)
from .policies import PolicyConfig, compare_kpe_to_myopic
from .simulate import SimConfig, run_ensemble

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

ALL_POLICIES = ["random", "kpe", "variance_min", "myopic_entropy"]


class ConfigError(ValueError):
    """Bad or unknown configuration; the message names the key."""


def _parse_time(key, raw):
    if raw.strip().lower() == "inf":
        return math.inf
    return _parse_float(key, raw)


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_field(key, raw):
    if raw.strip().lower() == "sample":
        return None
    return _parse_float(key, raw)


def _parse_str(key, raw):
    return raw.strip()


def _parse_time_list(key, raw):
    return [_parse_time(key, part) for part in raw.split(",") if part.strip()]


def _parse_outcomes(key, raw):
    vals = [_parse_int(key, part) for part in raw.split(",") if part.strip()]
    if any(v not in (0, 1) for v in vals):
        raise ConfigError(f"key {key!r}: outcomes must be 0 or 1")
    return vals


def _parse_policies(key, raw):
    names = [part.strip() for part in raw.split(",") if part.strip()]
    for name in names:
        if name not in ALL_POLICIES:
            raise ConfigError(f"key {key!r}: unknown policy {name!r}")
    return names


_PRIOR_STD_DEFAULT = 3.0 / math.sqrt(2.0)

# key -> (parser, default); commands declare which keys they accept.
_KEY_SPECS = {
    "prior_mean": (_parse_float, 0.0),
    "prior_std": (_parse_float, _PRIOR_STD_DEFAULT),
    "coherence_time": (_parse_time, 10.0),
    "n_measurements": (_parse_int, 30),
    "n_realizations": (_parse_int, 8),
    "master_seed": (_parse_int, 1729),
    "policy": (_parse_str, None),
    "policies": (_parse_policies, list(ALL_POLICIES)),
    "tau_min": (_parse_float, 5.0 / 512.0),
    "tau_max": (_parse_float, 5.0),
    "tau_grid_size": (_parse_int, 64),
    "theta_grid_size": (_parse_int, 64),
    "kpe_tau0": (_parse_float, 4.0),
    "kpe_theta0": (_parse_float, 0.0),
    "b_min": (_parse_float, -20.0),
    "b_max": (_parse_float, 20.0),
    "n_points": (_parse_int, 2**12),
    "true_field": (_parse_field, None),
    "theta": (_parse_float, 0.0),
    "coherence_times": (_parse_time_list, [2.0, 5.0, 10.0, math.inf]),
    "outcomes": (_parse_outcomes, [0, 0, 0, 0, 0]),
    "j_max": (_parse_int, 32),
}

_COMMON_KEYS = (
    "b_min",
    "b_max",
    "n_points",
)

_COMMAND_KEYS = {
    "mi-surface": _COMMON_KEYS
    + ("prior_mean", "prior_std", "theta", "coherence_times", "tau_min", "tau_max", "tau_grid_size"),
    "compare": _COMMON_KEYS
    + (
        "prior_mean",
        "prior_std",
        "coherence_time",
        "n_measurements",
        "n_realizations",
        "master_seed",
        "policy",
        "policies",
        "tau_min",
        "tau_max",
        "tau_grid_size",
        "theta_grid_size",
        "kpe_tau0",
        "kpe_theta0",
        "true_field",
    ),
    "validate-alpha": ("j_max",),
    "kpe-check": _COMMON_KEYS
    + (
        "coherence_time",
        "tau_min",
        "tau_max",
        "tau_grid_size",
        "theta_grid_size",
        "kpe_tau0",
        "kpe_theta0",
        "outcomes",
    ),
}

# kpe-check wants an anchored grid and a window that is a whole number of
# posterior comb periods; these defaults override the shared ones.
_COMMAND_DEFAULT_OVERRIDES = {
    "kpe-check": {
        "coherence_time": math.inf,
        "tau_max": 4.0,
        "tau_min": 4.0 / 512.0,
        "b_min": -8.0 * math.pi,
        "b_max": 8.0 * math.pi,
        "n_points": 2**12,
    },
    "mi-surface": {
        "tau_min": 0.05,
        "tau_grid_size": 128,
        "n_points": 2**13,
    },
}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value file into raw strings."""
    raw: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(command: str, config_path: str | None) -> dict:
    """Merge file values over command defaults, validating every key."""
    allowed = _COMMAND_KEYS[command]
    resolved = {}
    overrides = _COMMAND_DEFAULT_OVERRIDES.get(command, {})
    for key in allowed:
        parser, default = _KEY_SPECS[key]
        resolved[key] = overrides.get(key, default)
    if config_path is not None:
        for key, raw_value in read_config_file(config_path).items():
            if key not in allowed:
                raise ConfigError(f"unknown config key: {key!r}")
            parser, _ = _KEY_SPECS[key]
            resolved[key] = parser(key, raw_value)
    return resolved


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_distribution_csv(path: Path, d: FieldDistribution) -> None:
    write_csv(path, ["b", "density"], list(zip(d.grid.points, d.density)))


def write_alpha_csv(path: Path, a: AlphaSeries) -> None:
    rows = [(j, float(v), a.method) for j, v in enumerate(a.coefficients)]
    write_csv(path, ["j", "value", "method"], rows)


def write_comb_csv(path: Path, c: DeltaComb) -> None:
    rows = [(float(f), float(amp.real), float(amp.imag)) for f, amp in zip(c.frequencies, c.amplitudes)]
    write_csv(path, ["xi", "re", "im"], rows)


@dataclass
class RunManifest:
    """Reproducibility record: command, resolved config, artifacts."""

    command: str
    config: dict
    artifacts: list[str]
    duration_seconds: float

    def write(self, path: Path) -> None:
        lines = [
            f"command = {self.command}",
            f"version = {__version__}",
            f"duration_seconds = {_fmt(self.duration_seconds)}",
        ]
        for key in sorted(self.config):
            value = self.config[key]
            if isinstance(value, list):
                value = ",".join(_fmt(v) for v in value)
            elif value is None:
                value = "sample" if key == "true_field" else "none"
            else:
                value = _fmt(value)
            lines.append(f"config.{key} = {value}")
        for artifact in self.artifacts:
            lines.append(f"artifact = {artifact}")
        path.write_text("\n".join(lines) + "\n")


def _finish(out_dir: Path, command: str, cfg: dict, artifacts: list[Path], t0: float) -> None:
    manifest = RunManifest(
        command=command,
        config=cfg,
        artifacts=[a.name for a in artifacts],
        duration_seconds=time.perf_counter() - t0,
    )
    manifest.write(out_dir / "manifest.txt")


def cmd_mi_surface(cfg: dict, out_dir: Path) -> int:
    """Single-measurement information over a (T, tau) grid."""
    t0 = time.perf_counter()
    grid = FieldGrid(cfg["b_min"], cfg["b_max"], cfg["n_points"])
    prior = gaussian_distribution(grid, cfg["prior_mean"], cfg["prior_std"])
    taus = np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_grid_size"])
    rows = []
    for T in cfg["coherence_times"]:
        for tau in taus:
            p = RamseyParams(float(tau), cfg["theta"], coherence_time=T)
            rows.append((float(T), float(tau), p.theta, mutual_information(prior, p)))
    artifact = out_dir / "mi_surface.csv"
    write_csv(artifact, ["T", "tau", "theta", "mutual_information_nats"], rows)
    _finish(out_dir, "mi-surface", cfg, [artifact], t0)
    return EXIT_OK


def _policy_config(cfg: dict, kind: str) -> PolicyConfig:
    return PolicyConfig(
        kind=kind,
        tau_min=cfg["tau_min"],
        tau_max=cfg["tau_max"],
        tau_grid_size=cfg["tau_grid_size"],
        theta_grid_size=cfg["theta_grid_size"],
        kpe_tau0=cfg["kpe_tau0"],
        kpe_theta0=cfg["kpe_theta0"],
        coherence_time=cfg["coherence_time"],
    )


def cmd_compare(cfg: dict, out_dir: Path) -> int:
    """Run every requested policy with identical seeds; one CSV each."""
    t0 = time.perf_counter()
    kinds = cfg["policies"]
    if cfg.get("policy"):
        if cfg["policy"] not in ALL_POLICIES:
            raise ConfigError(f"key 'policy': unknown policy {cfg['policy']!r}")
        kinds = [cfg["policy"]]
    grid = FieldGrid(cfg["b_min"], cfg["b_max"], cfg["n_points"])
    summaries = {}
    for kind in kinds:
        sim = SimConfig(
            prior_mean=cfg["prior_mean"],
            prior_std=cfg["prior_std"],
            coherence_time=cfg["coherence_time"],
            n_measurements=cfg["n_measurements"],
            n_realizations=cfg["n_realizations"],
            master_seed=cfg["master_seed"],
            policy=_policy_config(cfg, kind),
            grid=grid,
            true_field=cfg["true_field"],
        )
        summaries[kind] = run_ensemble(sim)
    # All results computed before any file is written: no partial output.
    artifacts = []
    header = ["step", "mean_entropy", "std_entropy", "mean_posterior_std", "std_posterior_std"]
    for kind in kinds:
        s = summaries[kind]
        rows = [
            (step + 1, s.mean_entropy[step], s.std_entropy[step],
             s.mean_posterior_std[step], s.std_posterior_std[step])
            for step in range(len(s.mean_entropy))
        ]
        artifact = out_dir / f"compare_{kind}.csv"
        write_csv(artifact, header, rows)
        artifacts.append(artifact)
    _finish(out_dir, "compare", cfg, artifacts, t0)
    return EXIT_OK


def cmd_validate_alpha(cfg: dict, out_dir: Path) -> int:
    """Closed-series coefficients against the quadrature oracle."""
    t0 = time.perf_counter()
    j_max = cfg["j_max"]
    if j_max < 1:
        raise ConfigError(f"key 'j_max': require >= 1, got {j_max}")
    try:
        closed = alpha_series_closed(j_max)
    except TruncationNotConverged as exc:
        print(f"validate-alpha: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    quad = alpha_series_quadrature(j_max)
    rows = []
    ok = True
    prev = None
    for j in range(1, j_max + 1):
        cv = float(closed.coefficients[j])
        qv = float(quad.coefficients[j])
        diff = abs(cv - qv)
        rows.append((j, cv, qv, diff))
        if diff > 1e-8 or cv >= 0.0 or (prev is not None and cv <= prev):
            ok = False
        prev = cv
    artifact = out_dir / "alpha_validation.csv"
    write_csv(artifact, ["j", "closed_value", "quadrature_value", "abs_diff"], rows)
    _finish(out_dir, "validate-alpha", cfg, [artifact], t0)
    if not ok:
        print("validate-alpha: sign, monotonicity or 1e-8 agreement failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_kpe_check(cfg: dict, out_dir: Path) -> int:
    """Halving-schedule vs myopic argmax along a scripted trajectory."""
    t0 = time.perf_counter()
    grid = FieldGrid(cfg["b_min"], cfg["b_max"], cfg["n_points"])
    policy = _policy_config(cfg, "myopic_entropy")
    rows = compare_kpe_to_myopic(cfg["outcomes"], policy, grid)
    csv_rows = [
        (r.step, r.kpe_tau, r.kpe_theta, r.myopic_tau, r.myopic_theta,
         r.tau_cell_delta, r.theta_cell_delta)
        for r in rows
    ]
    artifact = out_dir / "kpe_check.csv"
    write_csv(
        artifact,
        ["step", "kpe_tau", "kpe_theta", "myopic_tau", "myopic_theta",
         "tau_cell_delta", "theta_cell_delta"],
        csv_rows,
    )
    _finish(out_dir, "kpe-check", cfg, [artifact], t0)
    diverged = [
        r for r in rows if 2 <= r.step <= 6 and max(r.tau_cell_delta, r.theta_cell_delta) > 1
    ]
    if diverged:
        steps = [r.step for r in diverged]
        print(f"kpe-check: predictions diverge by more than one cell at steps {steps}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


_COMMANDS = {
    "mi-surface": cmd_mi_surface,
    "compare": cmd_compare,
    "validate-alpha": cmd_validate_alpha,
    "kpe-check": cmd_kpe_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-sched",
        description="Adaptive Ramsey magnetometry experiments and validation suites",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default="out", help="output directory (created if missing)")
        if name == "compare":
            p.add_argument("--seed", type=int, default=None, help="override master_seed")
        if name == "validate-alpha":
            p.add_argument("--j-max", type=int, default=None, help="highest coefficient index")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args.config)
        if args.command == "compare" and args.seed is not None:
            cfg["master_seed"] = args.seed
        if args.command == "validate-alpha" and args.j_max is not None:
            cfg["j_max"] = args.j_max
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ZeroEvidence as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
