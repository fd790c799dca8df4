"""Record the reference outputs of the CLI workloads for the shipped seeds.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record.py

It writes perfbench/refdata/<workload>.json: per seed, the config and the
checked values of every input in the workload's pool.  Values are rounded
to 12 significant digits, well inside the check's 1e-8 tolerance.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SHIPPED_SEEDS = (1, 2)
RECORDED = ("ensemble_adaptive", "ensemble_blind", "paper_checks")


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    out_dir = HERE.parent / ".bench_out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    (HERE / "refdata").mkdir(exist_ok=True)
    try:
        for name in RECORDED:
            data = {}
            for seed in SHIPPED_SEEDS:
                run_dir = out_dir / f"{name}-{seed}"
                run_dir.mkdir()
                wl = workloads.WORKLOADS[name](seed, False, run_dir)
                entries = []
                for i in range(wl.pool):
                    _, (_, codes, texts), _ = wl.op(i, workloads.plain_calls())
                    if any(codes):
                        raise SystemExit(f"{name} seed {seed} input {i}: exit codes {codes}")
                    expect = wl.recordable(wl.parse(dict(texts)))
                    entries.append({"config": wl.configs[i], "expect": _rounded(expect)})
                data[str(seed)] = entries
                print(f"recorded {name} seed {seed}: {len(entries)} inputs", file=sys.stderr)
            path = HERE / "refdata" / f"{name}.json"
            path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
