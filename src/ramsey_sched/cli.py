"""Command line interface: config parsing, subcommands, CSV emission.

Every command takes exactly ``--config``, a flat ``key = value`` file
('#' starts a comment), and ``--out``, the output directory; no flag
overrides a key, so the manifest's ``config.*`` lines are a run's whole
input.  Every command runs with an empty (or absent) config.
``compare``'s keys and defaults are the fields of ``SimConfig()``, the
standard experiment: its grid's fields, its own fields but ``policy``
and ``grid``, and its policy's fields but ``kind``, plus ``policies``.
``mi-surface`` and ``kpe-check`` take the grid, prior and policy keys
they use and override some of their defaults.  Artifacts are CSV files
with a fixed column order and 17-significant-digit floats, so reruns on
one machine are byte-identical under any BLAS thread count (every grid
dot goes through ``bayes.dot``), though not across CPU kernels, which
may round a dot differently; each run also writes a manifest echoing
the resolved configuration and listing every artifact.

Each ``cmd_*`` is a function of its resolved config alone.  It returns
``(artifacts, failure)``: ``artifacts`` maps each CSV name to
``(header, rows)`` in write order, and ``failure`` is None or the stderr
line of a failed check.  ``compare`` and ``kpe-check`` write one row type
each, ``simulate.SummaryRow`` and ``policies.KpeCheckRow``: the header is
its field names and a row its fields.  ``main`` writes every file, so no
file is written until every result is computed.  Every command returns
at least one CSV, and a failed check still writes its CSVs and manifest
before exiting 1.  Each file is written new, over whatever held its name
(``_write_new``).

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure during a run (an outcome with zero evidence; the
message names the trial, step and master seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import (
    FieldGrid,
    RamseyParams,
    ZeroEvidence,
    gaussian_distribution,
    mutual_information,  # noqa: F401  (perfbench's instrument() wraps cli.mutual_information)
    mutual_information_surface,
)
from .fourier import (
    ALPHA_J_LIMIT,
    alpha_series_closed,
    alpha_series_quadrature,
    contrast_entropy_series,
)
from .policies import POLICY_KINDS, KpeCheckRow, PolicyConfig, compare_kpe_to_myopic
from .simulate import SimConfig, SummaryRow, _check_phases, check_prior_coverage, run_ensemble

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Bad or unknown configuration; the message names the key."""


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


# true_field's value when each trial samples its own, None in SimConfig
_SAMPLE = "sample"


def _parse_field(key, raw):
    if raw.strip().lower() == _SAMPLE:
        return None
    return _parse_float(key, raw)


def _split_list(key, raw):
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: expected a comma-separated list, got nothing")
    return parts


def _parse_float_list(key, raw):
    return [_parse_float(key, part) for part in _split_list(key, raw)]


def _parse_outcomes(key, raw):
    vals = [_parse_int(key, part) for part in _split_list(key, raw)]
    if any(v not in (0, 1) for v in vals):
        raise ConfigError(f"key {key!r}: outcomes must be 0 or 1")
    return vals


def _parse_policies(key, raw):
    names = []
    for name in _split_list(key, raw):
        if name not in POLICY_KINDS:
            raise ConfigError(f"key {key!r}: unknown policy {name!r}")
        if name in names:
            raise ConfigError(f"key {key!r}: policy {name!r} listed more than once")
        names.append(name)
    return names


# a key parses as its default's type; true_field is the one None default
_PARSERS = {float: _parse_float, int: _parse_int, type(None): _parse_field}


def _field_keys(obj, skip=()) -> dict:
    """{field: (parser, obj's value)} for obj's init fields not in skip."""
    return {
        f.name: (_PARSERS[type(getattr(obj, f.name))], getattr(obj, f.name))
        for f in dataclasses.fields(obj)
        if f.init and f.name not in skip
    }


# The standard experiment's fields are config keys under their own names,
# with its values as defaults; the policy kind is set per command.
_STANDARD = SimConfig()
_GRID_KEYS = _field_keys(_STANDARD.grid)
_SIM_KEYS = _field_keys(_STANDARD, skip=("policy", "grid"))
_POLICY_KEYS = _field_keys(_STANDARD.policy, skip=("kind",))
_PRIOR_KEYS = {key: _SIM_KEYS[key] for key in ("prior_mean", "prior_std")}

# command -> {key: (parser, default)}, every key the command accepts.
_COMMAND_KEYS = {
    "mi-surface": {
        **_GRID_KEYS,
        "n_points": (_parse_int, 2**13),
        **_PRIOR_KEYS,
        "theta": (_parse_float, 0.0),
        "coherence_times": (_parse_float_list, [2.0, 5.0, 10.0, math.inf]),
        # a linspace of exposure times, not the policies' search grid
        "tau_min": (_parse_float, 0.05),
        "tau_max": (_parse_float, 5.0),
        "tau_grid_size": (_parse_int, 128),
    },
    "compare": {
        **_GRID_KEYS,
        **_SIM_KEYS,
        **_POLICY_KEYS,
        "policies": (_parse_policies, list(POLICY_KINDS)),
    },
    "validate-alpha": {
        "j_max": (_parse_int, 32),
    },
    # An anchored grid and a window that is a whole number of posterior
    # comb periods.
    "kpe-check": {
        **_GRID_KEYS,
        "b_min": (_parse_float, -8.0 * math.pi),
        "b_max": (_parse_float, 8.0 * math.pi),
        **_POLICY_KEYS,
        "coherence_time": (_parse_float, math.inf),
        "tau_min": (_parse_float, 4.0 / 512.0),
        "tau_max": (_parse_float, 4.0),
        "outcomes": (_parse_outcomes, [0, 0, 0, 0, 0]),
    },
}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value file into raw strings; a key may appear once."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}: key {key!r} set on line {first_line[key]} and again on line {lineno}")
        first_line[key] = lineno
        raw[key] = value.strip()
    return raw


def resolve_config(command: str, config_path: str | None) -> dict:
    """Merge file values over command defaults, validating every key."""
    keys = _COMMAND_KEYS[command]
    resolved = {key: default for key, (_, default) in keys.items()}
    if config_path is not None:
        for key, raw_value in read_config_file(config_path).items():
            if key not in keys:
                raise ConfigError(f"unknown config key: {key!r}")
            parser, _ = keys[key]
            resolved[key] = parser(key, raw_value)
    return resolved


def _fmt(value) -> str:
    """A CSV cell or config value as text its parser reads back: a float
    to 17 significant digits, a list as its items joined by ',', and
    true_field's None as ``sample``."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, list):
        return ",".join(map(_fmt, value))
    if value is None:
        return _SAMPLE
    return str(value)


def _write_new(path: Path, lines: list[str]) -> None:
    """Write lines to path as a new file, removing whatever file was there.

    On ext4 a file truncated in place, or renamed over an old one, is
    written back at once (``auto_da_alloc``), several times the cost of a
    new file (CHANGES.md).  A symlink or a read-only file in path's place is
    removed, not followed or refused; a directory there is an OSError, as
    is a file that reappears between the unlink and the exclusive create.
    """
    path.unlink(missing_ok=True)
    with path.open("x") as f:
        f.write("\n".join(lines) + "\n")


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    _write_new(path, [",".join(header)] + [",".join(map(_fmt, row)) for row in rows])


def _write_run(out_dir: Path, command: str, cfg: dict, artifacts: dict, t0: float) -> None:
    """Write every artifact CSV, then manifest.txt: command, resolved config, artifacts."""
    for name, (header, rows) in artifacts.items():
        write_csv(out_dir / name, header, rows)
    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"duration_seconds = {_fmt(time.perf_counter() - t0)}",
    ]
    lines.extend(f"config.{key} = {_fmt(cfg[key])}" for key in sorted(cfg))
    lines.extend(f"artifact = {name}" for name in artifacts)
    _write_new(out_dir / "manifest.txt", lines)


def _grid(cfg: dict) -> FieldGrid:
    return FieldGrid(**{key: cfg[key] for key in _GRID_KEYS})


def _check_mi_surface_keys(cfg: dict) -> None:
    """The phase, the exposure linspace and the coherence times, each error naming its key."""
    if cfg["tau_grid_size"] < 1:
        raise ConfigError(f"key 'tau_grid_size': require >= 1, got {cfg['tau_grid_size']}")
    if not math.isfinite(cfg["theta"]):
        raise ConfigError(f"key 'theta': require finite theta, got {cfg['theta']}")
    tau_min, tau_max = cfg["tau_min"], cfg["tau_max"]
    if not 0.0 <= tau_min < math.inf:
        raise ConfigError(f"key 'tau_min': require finite tau_min >= 0, got {tau_min}")
    if not tau_min <= tau_max < math.inf:
        raise ConfigError(f"key 'tau_max': require finite tau_max >= tau_min = {tau_min}, got {tau_max}")
    for T in cfg["coherence_times"]:
        if not T > 0.0:
            raise ConfigError(f"key 'coherence_times': require every value > 0 (inf allowed), got {T}")


def cmd_mi_surface(cfg: dict) -> tuple[dict, str | None]:
    """Single-measurement information over a (T, tau) grid.

    One call of ``mutual_information_surface`` scores the whole (T, tau)
    grid: q is formed once, each tau's fringe cos(2 tau b + theta) once,
    and every coherence time only rescales it.  The rows stay T-major,
    tau ascending within each T.
    """
    _check_mi_surface_keys(cfg)
    grid = _grid(cfg)
    _check_phases(grid, tau_max=cfg["tau_max"])
    check_prior_coverage(grid, cfg["prior_mean"], cfg["prior_std"])
    prior = gaussian_distribution(grid, cfg["prior_mean"], cfg["prior_std"])
    taus = [float(tau) for tau in np.linspace(cfg["tau_min"], cfg["tau_max"], cfg["tau_grid_size"])]
    Ts = cfg["coherence_times"]
    surface = mutual_information_surface(prior, taus, cfg["theta"], Ts)
    theta = RamseyParams(0.0, cfg["theta"]).theta  # wrapped into [0, 2 pi)
    rows = [
        (float(T), tau, theta, float(mi))
        for T, row in zip(Ts, surface)
        for tau, mi in zip(taus, row)
    ]
    return {"mi_surface.csv": (["T", "tau", "theta", "mutual_information_nats"], rows)}, None


def _policy_config(cfg: dict, kind: str) -> PolicyConfig:
    return PolicyConfig(kind=kind, **{key: cfg[key] for key in _POLICY_KEYS})


def cmd_compare(cfg: dict) -> tuple[dict, str | None]:
    """Run every requested policy with identical seeds; one CSV each."""
    grid = _grid(cfg)
    sim = {key: cfg[key] for key in _SIM_KEYS}
    header = [f.name for f in dataclasses.fields(SummaryRow)]
    artifacts = {}
    for kind in cfg["policies"]:
        rows = run_ensemble(SimConfig(policy=_policy_config(cfg, kind), grid=grid, **sim))
        artifacts[f"compare_{kind}.csv"] = (header, [dataclasses.astuple(r) for r in rows])
    return artifacts, None


def cmd_validate_alpha(cfg: dict) -> tuple[dict, str | None]:
    """Closed-series coefficients against the quadrature oracle and the exact
    alpha_j = -1/(j(4j^2 - 1)); each check states what must hold, so NaN fails."""
    j_max = cfg["j_max"]
    if j_max < 1:
        raise ConfigError(f"key 'j_max': require >= 1, got {j_max}")
    if j_max > ALPHA_J_LIMIT:
        raise ConfigError(f"key 'j_max': require <= {ALPHA_J_LIMIT}, got {j_max}")
    closed = alpha_series_closed(j_max)
    quad = alpha_series_quadrature(j_max)
    exact, _ = contrast_entropy_series(1.0, j_max)
    rows = []
    ok = True
    prev = -math.inf
    for j in range(1, j_max + 1):
        cv = float(closed[j])
        qv = float(quad[j])
        diff = abs(cv - qv)
        rows.append((j, cv, qv, diff))
        ok = ok and diff <= 1e-8 and abs(cv - exact[j]) <= 1e-9 * -exact[j] and prev < cv < 0.0
        prev = cv
    header = ["j", "closed_value", "quadrature_value", "abs_diff"]
    failure = None if ok else (
        "validate-alpha: sign, monotonicity, 1e-8 quadrature agreement"
        " or 1e-9 relative exact agreement failed"
    )
    return {"alpha_validation.csv": (header, rows)}, failure


def _kpe_outcome_limit(cfg: dict) -> int:
    """Outcomes whose rows ``kpe-check`` can judge.

    Row step s (after outcome s - 1) counts while its halving tau =
    kpe_tau0 / 2^(s-1) is at least tau_min and the window holds a whole
    number >= 1 of its fringe periods pi / tau; past that the grid no
    longer resolves the reduction claim.  A step that fails fails for
    every later one, since tau only halves.  The bound from above,
    kpe_tau0 / 2 <= tau_max, is ``cmd_kpe_check``'s config error, since
    the search grid would clamp a larger tau onto its top cell.
    """
    window = cfg["b_max"] - cfg["b_min"]
    limit = 0
    tau = 0.5 * cfg["kpe_tau0"]
    while tau >= cfg["tau_min"]:
        periods = window * tau / math.pi
        if round(periods) < 1 or abs(periods - round(periods)) > 1e-9:
            break
        limit += 1
        tau *= 0.5
    return limit


def cmd_kpe_check(cfg: dict) -> tuple[dict, str | None]:
    """Halving-schedule vs myopic argmax along a scripted trajectory."""
    policy, grid = _policy_config(cfg, "myopic_entropy"), _grid(cfg)
    _check_phases(grid, tau_max=policy.tau_max, kpe_tau0=policy.kpe_tau0)
    if 0.5 * policy.kpe_tau0 > policy.tau_max:
        raise ConfigError(
            f"key 'kpe_tau0': require kpe_tau0 / 2 <= tau_max = {policy.tau_max}, got {policy.kpe_tau0}"
        )
    limit = _kpe_outcome_limit(cfg)
    if len(cfg["outcomes"]) > limit:
        raise ConfigError(
            f"key 'outcomes': require at most {limit} outcomes, got {len(cfg['outcomes'])}"
            f" (past step {limit + 1} the halving tau is below tau_min or its fringe"
            " period does not divide the window)"
        )
    rows = compare_kpe_to_myopic(cfg["outcomes"], policy, grid)
    header = [f.name for f in dataclasses.fields(KpeCheckRow)]
    diverged = [r.step for r in rows if max(r.tau_cell_delta, r.theta_cell_delta) > 1]
    failure = None
    if diverged:
        failure = f"kpe-check: predictions diverge by more than one cell at steps {diverged}"
    return {"kpe_check.csv": (header, [dataclasses.astuple(r) for r in rows])}, failure


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
    return parser


# Built once per process (a build is a tenth of a small compare; README,
# Performance); each parse_args call fills a new Namespace of two options.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve_config(args.command, args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        artifacts, failure = _COMMANDS[args.command](cfg)
        _write_run(out_dir, args.command, cfg, artifacts, t0)
    except ZeroEvidence as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if failure is None:
        return EXIT_OK
    print(failure, file=sys.stderr)
    return EXIT_VALIDATION


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
