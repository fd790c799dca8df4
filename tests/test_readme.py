"""README names only code that exists."""

import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a code span that starts with a module name: `module.name`, `module.name.attr`, `module.name(...)`
NAMED = re.compile(r"`(bayes|cli|fourier|policies|simulate)\.(\w+(?:\.\w+)*)")


def test_every_backticked_module_name_resolves():
    # the benchmark's dotted per-layer metric names are not attributes
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = {
        (module, path)
        for module, path in NAMED.findall((ROOT / "README.md").read_text())
        if path != "py" and f"{module}.{path}" not in metrics
    }
    assert names
    missing = []
    for module, path in sorted(names):
        obj = importlib.import_module(f"ramsey_sched.{module}")
        try:
            for attr in path.split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert not missing, f"README names code that does not exist: {missing}"
