"""In-memory span recording around the package's public functions.

A span is (name, start, end, parent, trial): parent is the index of the
span open when this one started (-1 at the top) and trial is the id of
the trial or command the work belongs to.  Wrappers are installed on the
module attribute a caller looks up, so `simulate.bayes_update` traces the
updates `run_trial` makes without any change to the package.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.trial = -1
        self.trials = 0

    def new_trial(self) -> None:
        self.trial = self.trials
        self.trials += 1

    def wrap(self, name: str, fn, on_call=None, per_trial: bool = False):
        """`fn` recording one span per call; per_trial gives each call its own trial id."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            outer_trial = self.trial
            if per_trial:
                self.new_trial()
            trial = self.trial
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, trial)
                self.trial = outer_trial

        return traced

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as f:
            f.write("name,start,end,parent,trial\n")
            for name, start, end, parent, trial in self.spans:
                f.write(f"{name},{start!r},{end!r},{parent},{trial}\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time, median duration and self time."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = defaultdict(list)
        self_time = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[i]
        return {
            name: {
                "calls": len(d),
                "busy_s": sum(d),
                "p50_s": statistics.median(d),
                "self_s": self_time[name],
            }
            for name, d in durations.items()
        }


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace module attributes: targets is [(module, attr, new)]."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, new in targets:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)
