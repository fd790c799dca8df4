"""Benchmark for the ramsey_sched package and its `ramsey-sched` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload live_myopic --seed 1 --seconds 15 --trace 0

The package is imported from ./src.  With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 a plain phase is followed by
a traced replay of the same operations, and the line holds the per-layer
metrics.  The line before it is an environment stamp.  --smoke shrinks
every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("live_myopic", "ensemble_adaptive", "ensemble_blind", "paper_checks")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "op_rel_p50": "ratio", "peak_rss_mb": "MB"}

# Per-layer metrics from the traced run; "<span>.<field>" names read the span summary.
PER_LAYER_UNITS = {
    "policies.myopic.calls": "count",
    "policies.myopic.busy_s": "s",
    "policies.myopic.p50_s": "s",
    "policies.variance.calls": "count",
    "policies.variance.busy_s": "s",
    "policies.variance.p50_s": "s",
    "policies.kpe.busy_s": "s",
    "policies.random.busy_s": "s",
    "policies.busy_frac": "ratio",
    "policies.cell_points": "count",
    "policies.cell_points_per_s": "1/s",
    "policies.block_bytes": "bytes",
    "policies.block_l2_ratio": "ratio",
    "bayes.update.calls": "count",
    "bayes.update.busy_s": "s",
    "bayes.update.p50_s": "s",
    "bayes.entropy.busy_s": "s",
    "bayes.variance.busy_s": "s",
    "bayes.mean.busy_s": "s",
    "bayes.mi_scalar.calls": "count",
    "bayes.mi_scalar.busy_s": "s",
    "simulate.trial.calls": "count",
    "simulate.trial.busy_s": "s",
    "simulate.trial.self_s": "s",
    "simulate.sample_outcome.busy_s": "s",
    "fourier.alpha_closed.busy_s": "s",
    "fourier.alpha_quadrature.busy_s": "s",
    "fourier.series_terms": "count",
    "cli.command.busy_s": "s",
    "cli.self_s": "s",
    "cli.write_csv.busy_s": "s",
    "cli.bytes_written": "bytes",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help="set up once and print the set-up time")
    return p.parse_args(argv)


def setup(args, out_dir: Path):
    """Import the package, build the workload's inputs and make the cold call."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ramsey_sched

    if not Path(ramsey_sched.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"ramsey_sched imported from {ramsey_sched.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, out_dir)
    wl.cold()
    return wl, time.perf_counter() - start


def setup_samples(args, first: float) -> list[float]:
    """Set-up times: this process's, then fresh interpreters doing the same."""
    times = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def phase(wl, calls, seconds: float | None = None, n_ops: int | None = None):
    """Run operations for `seconds` (at least one), or exactly `n_ops`.

    The workload's calibration kernel runs before the first operation and
    after every one.  Returns the latencies, each latency over the mean of
    the calibrations on either side of it, the outputs, the bytes written
    and the phase's wall time.
    """
    latencies, outputs, nbytes = [], [], 0
    start = time.perf_counter()
    cal = [wl.calibrate()]

    def more(k):
        if n_ops is not None:
            return k < n_ops
        return k == 0 or time.perf_counter() - start < seconds

    k = 0
    while more(k):
        try:
            latency, out, written = wl.op(k, calls)
        except Exception as exc:  # an operation that raises is a counted failure
            print(f"operation {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out, latency, written = None, None, 0
        cal.append(wl.calibrate())
        latencies.append(latency)
        outputs.append(out)
        nbytes += written
        k += 1
    relative = [
        None if lat is None else 2.0 * lat / (before + after)
        for lat, before, after in zip(latencies, cal, cal[1:])
    ]
    return latencies, relative, outputs, nbytes, time.perf_counter() - start, cal


def _median(latencies: list) -> float:
    done = [x for x in latencies if x is not None]
    return statistics.median(done) if done else float("nan")


def end_to_end(wl, args, first_setup: float):
    import workloads

    latencies, relative, outputs, _, wall, cal = phase(wl, workloads.plain_calls(), seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = time.perf_counter()
    verdicts = wl.check(outputs)
    check_s = time.perf_counter() - start
    setups = setup_samples(args, first_setup)
    done = [lat for lat in latencies if lat is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_rel_p50": _median(relative),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "ops": len(outputs),
        "phase_s": wall,
        "op_p50_s": _median(latencies),
        "calibration_p50_s": statistics.median(cal),
        "ops_per_s": len(done) / wall,
        "steps_per_s": wl.steps_per_op * len(done) / wall,
        "failed_frac": verdicts.count(False) / len(outputs),
        "check_s": check_s,
        "setup_samples_s": setups,
    }
    return metrics, len(outputs), verdicts.count(False), extra


def per_layer(wl, args, out_dir: Path):
    import workloads
    from spans import Tracer, patched

    _, plain_rel, plain_out, _, plain_wall, plain_cal = phase(wl, workloads.plain_calls(), seconds=args.seconds)
    tracer = Tracer()
    patches, calls, counters = workloads.instrument(tracer)
    with patched(patches):
        _, traced_rel, traced_out, nbytes, traced_wall, traced_cal = phase(wl, calls, n_ops=len(plain_out))
    # The replay's wall time without its calibration kernels.
    run_s = traced_wall - sum(traced_cal)
    verdicts = wl.check(plain_out)
    failed = verdicts.count(False) + sum(t is None or t != p for t, p in zip(traced_out, plain_out))
    tracer.write(out_dir.parent / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    s = tracer.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0)

    computed = wl.computed()
    l2 = cpu_caches().get("L2")
    policy_busy = sum(get(f"policies.{p}", "busy_s") for p in ("myopic", "variance", "kpe", "random"))
    scoring_busy = get("policies.myopic", "busy_s") + get("policies.variance", "busy_s")
    values = {
        "policies.busy_frac": policy_busy / run_s,
        "policies.cell_points": counters["cell_points"],
        "policies.cell_points_per_s": counters["cell_points"] / scoring_busy if scoring_busy else 0.0,
        "policies.block_bytes": computed["block_bytes"],
        "policies.block_l2_ratio": computed["block_bytes"] / l2 if l2 else 0.0,
        "fourier.series_terms": computed.get("series_terms_per_op", 0) * get("fourier.alpha_closed", "calls"),
        "cli.self_s": get("cli.command", "self_s"),
        "cli.bytes_written": nbytes,
        "trace.run_s": run_s,
        # Calibrated latencies, so a change in the host's load between the
        # two phases does not read as tracing cost.
        "trace.overhead_frac": _median(traced_rel) / _median(plain_rel) - 1.0,
        "trace.spans": len(tracer.spans),
    }
    for metric in PER_LAYER_UNITS:
        if metric not in values:
            name, field = metric.rsplit(".", 1)
            values[metric] = get(name, field)
    extra = {
        "ops": len(plain_out),
        "plain_s": plain_wall - sum(plain_cal),
        "traced_s": run_s,
        "failed_frac": failed / (2 * len(plain_out)),
        "computed": computed,
    }
    return values, 2 * len(plain_out), failed, extra


def cpu_caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        caches[f"L{level}" + ("d" if kind == "Data" else "")] = int(size.rstrip("K")) * 1024
    return caches


def blas_info() -> dict:
    import ctypes
    import numpy

    info = {"threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    for lib in Path(numpy.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas*.so"):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def stamp(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ramsey_sched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "cpu": model,
        "caches_bytes": cpu_caches(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ramsey_sched" / "__init__.py").is_file():
        print(f"benchmark error: package source not found under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl, first_setup = setup(args, out_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        if args.trace:
            metrics, attempted, failed, extra = per_layer(wl, args, out_dir)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed, extra = end_to_end(wl, args, first_setup)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"stamp": stamp(args), "run": extra}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
