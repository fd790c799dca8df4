"""Sequential measurement simulation and ensemble aggregation.

A trial draws (or fixes) a true field value, then repeats: ask the
policy for the next controls, sample a binary outcome from the true
field's likelihood, update the posterior, and record its entropy and
spread.  ``summarize`` aggregates an ensemble into one ``SummaryRow`` per
step, the row that ``compare`` writes.

``run_trials`` is the one trial loop, and this module alone decides
which trials advance together.  The trials of a call walk one outcome
tree, whose nodes are ``policies.PolicyState``s: a node's children are
keyed on (node, params, outcome), so trials that took the same controls
and saw the same outcomes share a node, whose posterior and statistics
are formed once.  The two greedy kinds advance in lockstep: a greedy
choice depends on the posterior alone, so at each step one batch
chooser call scores every distinct posterior, once, and the choice goes
to every trial at that node.  ``policies.myopic_choices`` scores the
posteriors against one shared entropy block per tau (for the taus that
the Fourier screen does not rule out for some posterior), and
``policies.variance_choices`` with one stacked product with the harmonic
table.  The blind kinds share no scoring work: each trial runs alone,
through ``run_trial``, each step asking ``policies.next_params`` of the
trial's node (in lockstep a level would hold a posterior per trial,
since random trials never share a child), and the trials of a call run
on a thread pool of one worker per usable CPU.  numpy releases the GIL
in the grid kernels that dominate a blind step, so the workers overlap.
Each trial draws from its own stream, derived from (master_seed,
trial_index), in a fixed order (true field, the policy's draws, the
outcome), so a trajectory is bit-identical whether its trial runs alone
or beside others, on whichever thread, and an ensemble is a function of
its configuration alone, insensitive to execution order and to the CPU
count.  Every grid dot goes through ``bayes.dot``, whose BLAS calls each
run on one thread, so the bits do not depend on the BLAS thread count
either.  They can still differ between machines whose BLAS picks another
CPU kernel (AVX-512 against AVX2, say), which may round a dot
differently.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bayes import (
    FieldGrid,
    RamseyParams,
    ZeroEvidence,
    bayes_update,
    entropy,
    gaussian_distribution,
    likelihood,
    mean,
    variance,
)
from .policies import PolicyConfig, PolicyState, myopic_choices, next_params, variance_choices


def check_prior_coverage(grid: FieldGrid, prior_mean: float, prior_std: float) -> None:
    """Raise ValueError unless the prior is finite, spans at least 4 grid
    spacings per std, and the grid covers prior_mean +- 6 prior_std."""
    if not math.isfinite(prior_mean):
        raise ValueError(f"require finite prior_mean, got {prior_mean}")
    if not 0.0 < prior_std < math.inf:
        raise ValueError(f"require finite prior_std > 0, got {prior_std}")
    if prior_std < 4.0 * grid.spacing:
        raise ValueError(f"require prior_std >= 4 grid spacings ({4.0 * grid.spacing}), got {prior_std}")
    lo = prior_mean - 6.0 * prior_std
    hi = prior_mean + 6.0 * prior_std
    if lo < grid.b_min or hi > grid.b_max:
        raise ValueError(
            f"grid [{grid.b_min}, {grid.b_max}] must cover prior_mean +- 6 std ([{lo}, {hi}])"
        )


def _check_phases(grid: FieldGrid, **taus: float) -> None:
    """Raise ValueError naming the key unless every exposure up to each
    tau keeps its phase 2 tau b finite over the grid: an overflowed phase
    makes every likelihood NaN."""
    reach = max(abs(grid.b_min), abs(grid.b_max))
    for key, tau in taus.items():
        if not math.isfinite(2.0 * tau * reach):
            raise ValueError(
                f"key {key!r}: require a finite phase 2 * {key} * max(|b_min|, |b_max|),"
                f" got 2 * {tau} * {reach}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run depends on.

    The defaults are the standard experiment, the policy comparison that
    ``ramsey-sched compare`` runs with no config: N = 4096 grid points,
    T = 10, 30 measurements, 8 trials, seed 1729.  true_field of None
    means each trial samples its own true value from the Gaussian prior;
    a float pins it (useful for debugging and oracle tests) and must lie
    on the grid.  Outcomes are drawn with the policy's coherence_time.
    """

    prior_mean: float = 0.0
    prior_std: float = 3.0 / math.sqrt(2.0)
    n_measurements: int = 30
    n_realizations: int = 8
    master_seed: int = 1729
    policy: PolicyConfig = PolicyConfig(coherence_time=10.0)
    grid: FieldGrid = FieldGrid(-20.0, 20.0, 2**12)
    true_field: float | None = None

    def __post_init__(self) -> None:
        if self.n_measurements < 0:
            raise ValueError(f"require n_measurements >= 0, got {self.n_measurements}")
        if self.n_realizations < 1:
            raise ValueError(f"require n_realizations >= 1, got {self.n_realizations}")
        if self.master_seed < 0:
            raise ValueError(f"require master_seed >= 0, got {self.master_seed}")
        check_prior_coverage(self.grid, self.prior_mean, self.prior_std)
        _check_phases(self.grid, tau_max=self.policy.tau_max, kpe_tau0=self.policy.kpe_tau0)
        if self.true_field is not None and not self.grid.b_min <= self.true_field <= self.grid.b_max:
            raise ValueError(
                f"true_field {self.true_field} lies outside the grid "
                f"[{self.grid.b_min}, {self.grid.b_max}]"
            )


@dataclass(frozen=True)
class StepRecord:
    step: int
    tau: float
    theta: float
    outcome: int
    posterior_entropy: float
    posterior_std: float
    posterior_mean: float


@dataclass(frozen=True)
class Trajectory:
    """Per-step records of one simulated measurement sequence, trial
    trial_index of its SimConfig (which holds the master_seed)."""

    trial_index: int
    b_true: float
    records: tuple[StepRecord, ...]


@dataclass(frozen=True)
class SummaryRow:
    """One step's across-trial means and stds (population std, ddof=0)."""

    step: int
    mean_entropy: float
    std_entropy: float
    mean_posterior_std: float
    std_posterior_std: float


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream from a stateless seed mix."""
    return np.random.default_rng([int(master_seed), int(trial_index)])


def sample_outcome(rng: np.random.Generator, b_true: float, p: RamseyParams) -> int:
    """Draw one outcome from the true field's likelihood (one uniform draw)."""
    return 0 if rng.random() < likelihood(0, b_true, p) else 1


def run_trials(cfg: SimConfig, trial_indices: Iterable[int]) -> list[Trajectory]:
    """Simulate the given trials; bit-identical for equal inputs.

    Greedy trials advance in lockstep, so each step's ``myopic_choices``
    or ``variance_choices`` call scores every distinct posterior at once,
    and trials that share a history share its update; the blind kinds
    run each trial alone through ``run_trial``, which holds one posterior
    at a time, on a thread pool (``_run_pooled``).  ``_run_lockstep`` is
    correct for any kind and grouping, so a trial's trajectory does not
    depend on which other trials run beside it, nor on which thread.

    Raises:
        ZeroEvidence: an outcome had (numerically) zero probability; the
            message names the trial, the step and the master seed.  When
            greedy trials share the failing history, the trial named is
            the first of them in ``trial_indices``; when blind trials
            fail, it is the first failing trial in ``trial_indices``, as
            if they ran one after another.
    """
    indices = [int(i) for i in trial_indices]
    if cfg.policy.kind in ("myopic_entropy", "variance_min"):
        return _run_lockstep(cfg, indices)
    return _run_pooled(cfg, indices)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has
    one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_pooled(cfg: SimConfig, indices: list[int]) -> list[Trajectory]:
    """``run_trial`` of each index on min(len(indices), usable CPUs)
    threads, results in index order.

    Each task runs in a copy of the caller's context, so a caller's
    ``np.errstate`` holds in the trials.  The first failure in index
    order cancels the trials that have not started and is re-raised once
    the running ones finish; no worker outlives the call.
    """
    if not indices:
        return []
    # imported here: concurrent.futures imports logging, which a run of
    # the greedy kinds alone never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(len(indices), _usable_cpus())) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run_trial, cfg, i) for i in indices]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_lockstep(cfg: SimConfig, indices: list[int]) -> list[Trajectory]:
    if not indices:
        return []
    rngs = [trial_rng(cfg.master_seed, i) for i in indices]
    if cfg.true_field is not None:
        b_trues = [float(cfg.true_field)] * len(indices)
    else:
        b_trues = [float(rng.normal(cfg.prior_mean, cfg.prior_std)) for rng in rngs]
    # Trials that share a history share its node: level[n] is node n, at[r]
    # is trial r's node, and nodes are numbered in order of the first trial
    # that reaches them.  Children are keyed on (node, params, outcome), so
    # two trials share a child only if they took the same controls and saw
    # the same outcome, whatever their kind.
    level = [PolicyState(gaussian_distribution(cfg.grid, cfg.prior_mean, cfg.prior_std))]
    at = [0] * len(indices)
    records: list[list[StepRecord]] = [[] for _ in indices]
    for step in range(1, cfg.n_measurements + 1):
        if cfg.policy.kind in ("myopic_entropy", "variance_min"):
            choose = myopic_choices if cfg.policy.kind == "myopic_entropy" else variance_choices
            picks = choose([node.posterior for node in level], cfg.policy)
            chosen = [picks[n] for n in at]
        else:
            chosen = [next_params(level[n], cfg.policy, rng) for n, rng in zip(at, rngs)]
        children: dict[tuple[int, RamseyParams, int], int] = {}
        next_level: list[PolicyState] = []
        made: list[StepRecord] = []
        for r, params in enumerate(chosen):
            outcome = sample_outcome(rngs[r], b_trues[r], params)
            child = children.get((at[r], params, outcome))
            if child is None:
                node = level[at[r]]
                try:
                    posterior = bayes_update(node.posterior, params, outcome)
                except ZeroEvidence as exc:
                    raise ZeroEvidence(
                        f"trial {indices[r]}, step {step}, master_seed {cfg.master_seed}: {exc}"
                    ) from exc
                child = children[at[r], params, outcome] = len(next_level)
                next_level.append(PolicyState(posterior, node.history + ((params, outcome),), step))
                made.append(
                    StepRecord(
                        step=step,
                        tau=params.tau,
                        theta=params.theta,
                        outcome=outcome,
                        posterior_entropy=entropy(posterior),
                        posterior_std=math.sqrt(variance(posterior)),
                        posterior_mean=mean(posterior),
                    )
                )
            at[r] = child
            records[r].append(made[child])
        level = next_level
    return [Trajectory(i, b_true, tuple(recs)) for i, b_true, recs in zip(indices, b_trues, records)]


def run_trial(cfg: SimConfig, trial_index: int) -> Trajectory:
    """Simulate one measurement sequence; bit-identical for equal inputs."""
    return _run_lockstep(cfg, [int(trial_index)])[0]


def summarize(trajectories: list[Trajectory]) -> list[SummaryRow]:
    """Aggregate per-step statistics across trials, one row per step."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    ent = np.array([[r.posterior_entropy for r in t.records] for t in trajectories])
    std = np.array([[r.posterior_std for r in t.records] for t in trajectories])
    columns = (ent.mean(axis=0), ent.std(axis=0), std.mean(axis=0), std.std(axis=0))
    return [SummaryRow(step, *map(float, stats)) for step, stats in enumerate(zip(*columns), start=1)]


def run_ensemble(cfg: SimConfig) -> list[SummaryRow]:
    """Run n_realizations independent trials and aggregate them."""
    return summarize(run_trials(cfg, range(cfg.n_realizations)))
