"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_list_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "live_myopic", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _smoke(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, True, tmp_path)


def _outputs(wl, n):
    calls = workloads.plain_calls()
    return [wl.op(k, calls)[1] for k in range(n)]


def test_live_check_rejects_a_neighbouring_cell(tmp_path):
    wl = _smoke("live_myopic", tmp_path)
    outs = _outputs(wl, 2 * wl.steps)
    assert wl.check(outs) == [True] * len(outs)
    key, outcome, tau, theta, dens, shown = outs[1]
    thetas = ref.theta_grid(wl.cfg.theta_grid_size)
    bad = (key, outcome, tau, float(thetas[(ref.cell_index(thetas, theta) + 1) % len(thetas)]), dens, shown)
    assert wl.check(outs[:1] + [bad] + outs[2:])[1] is False


def test_live_repeat_must_equal_first_run(tmp_path):
    wl = _smoke("live_myopic", tmp_path)
    outs = _outputs(wl, wl.steps * (wl.pool + 1))
    assert all(wl.check(outs))
    first = outs[wl.steps * wl.pool]
    outs[wl.steps * wl.pool] = first[:5] + ((first[5][0] + 1e-3,) + first[5][1:],)
    assert wl.check(outs)[wl.steps * wl.pool] is False


@pytest.mark.parametrize("name", ["ensemble_adaptive", "ensemble_blind", "paper_checks"])
def test_cli_check_rejects_a_changed_value(name, tmp_path):
    wl = _smoke(name, tmp_path)
    (out,) = _outputs(wl, 1)
    assert wl.check([out]) == [True]
    i, codes, texts = out
    fname, text = texts[0]
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6) + 1e-6)
    lines[2] = ",".join(fields)
    bad = (i, codes, ((fname, "\n".join(lines) + "\n"),) + texts[1:])
    assert wl.check([bad]) == [False]
    assert wl.check([(i, (2,) + codes[1:], texts)]) == [False]


@pytest.mark.parametrize("name", ["ensemble_adaptive", "ensemble_blind", "paper_checks"])
def test_reference_agrees_with_recorded_outputs(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, False, tmp_path)
    assert wl.recorded is not None, "seed 1 is shipped with recorded outputs"
    for cfgs, entry in zip(wl.configs, wl.recorded):
        expect, computed = entry["expect"], wl.expected(cfgs)
        if name == "paper_checks":
            assert max(abs(a - b) for a, b in zip(expect, computed)) < 1e-10
        else:
            assert all(workloads._rows_close(computed[k], expect[k]) for k in wl.kinds)


def test_span_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    s = tracer.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["busy_s"] - s["inner"]["busy_s"])
    assert s["inner"]["self_s"] == pytest.approx(s["inner"]["busy_s"])
    assert tracer.spans[0][3] == -1 and all(span[3] == 0 for span in tracer.spans[1:])


def test_span_trial_ids_nest():
    tracer = Tracer()
    inner = tracer.wrap("trial", lambda: None, per_trial=True)
    outer = tracer.wrap("command", lambda: (inner(), inner(), tracer.wrap("after", lambda: None)()), per_trial=True)
    outer()
    trials = {i: span[4] for i, span in enumerate(tracer.spans)}
    names = [span[0] for span in tracer.spans]
    assert names == ["command", "trial", "trial", "after"]
    assert trials == {0: 0, 1: 1, 2: 2, 3: 0}
