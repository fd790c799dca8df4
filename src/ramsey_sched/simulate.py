"""Sequential measurement simulation and ensemble aggregation.

A trial draws (or fixes) a true field value, then repeats: ask the
policy for the next controls, sample a binary outcome from the true
field's likelihood, update the posterior, and record its entropy and
spread.

``run_trials`` is the one trial loop, and this module alone decides
which trials advance together.  The two greedy kinds advance in
lockstep and share history prefixes: trials with the same outcomes so
far hold one posterior, since a greedy choice depends on the posterior
alone.  At each step one batch chooser call scores every distinct
posterior, once, and the choice goes to every trial that holds it; each
trial then samples its own outcome, and each distinct (history, outcome)
is updated once, its posterior and statistics shared by every trial
that reaches it.  ``policies.myopic_choices`` scores the posteriors
against one shared entropy block per tau (for the taus that the Fourier
screen does not rule out for some posterior), and
``policies.variance_choices`` with one stacked product with the harmonic
table.  The other kinds share no scoring work and run one trial at a
time, each step asking ``policies.next_params``.
Each trial draws from its own stream, derived from (master_seed,
trial_index), in a fixed order (true field, the policy's draws, the
outcome), so a trajectory is bit-identical whether its trial runs alone
or beside others, and an ensemble is a function of its configuration
alone, insensitive to execution order.  Every grid dot goes through
``bayes.dot``, whose BLAS calls each run on one thread, so the bits do
not depend on the BLAS thread count either.  They can still differ
between machines whose BLAS picks another CPU kernel (AVX-512 against
AVX2, say), which may round a dot differently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bayes import (
    FieldDistribution,
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
    """Raise ValueError unless the grid covers prior_mean +- 6 prior_std."""
    lo = prior_mean - 6.0 * prior_std
    hi = prior_mean + 6.0 * prior_std
    if lo < grid.b_min or hi > grid.b_max:
        raise ValueError(
            f"grid [{grid.b_min}, {grid.b_max}] must cover prior_mean +- 6 std ([{lo}, {hi}])"
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
        if not self.prior_std > 0.0:
            raise ValueError(f"require prior_std > 0, got {self.prior_std}")
        if self.n_measurements < 0:
            raise ValueError(f"require n_measurements >= 0, got {self.n_measurements}")
        if self.n_realizations < 1:
            raise ValueError(f"require n_realizations >= 1, got {self.n_realizations}")
        if self.master_seed < 0:
            raise ValueError(f"require master_seed >= 0, got {self.master_seed}")
        check_prior_coverage(self.grid, self.prior_mean, self.prior_std)
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
    """Per-step records of one simulated measurement sequence."""

    master_seed: int
    trial_index: int
    b_true: float
    records: tuple[StepRecord, ...]


@dataclass(frozen=True)
class EnsembleSummary:
    """Across-trial per-step means and stds (population std, ddof=0)."""

    mean_entropy: np.ndarray
    std_entropy: np.ndarray
    mean_posterior_std: np.ndarray
    std_posterior_std: np.ndarray


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
    and trials that share an outcome history share its update; the other
    kinds run one trial at a time through ``run_trial`` and hold a single
    posterior.  Either way a trial's trajectory does not depend on which
    other trials run beside it.

    Raises:
        ZeroEvidence: an outcome had (numerically) zero probability; the
            message names the trial, the step and the master seed.  When
            greedy trials share the failing history, the trial named is
            the first of them in ``trial_indices``.
    """
    indices = [int(i) for i in trial_indices]
    if cfg.policy.kind in ("myopic_entropy", "variance_min"):
        return _run_lockstep(cfg, indices)
    return [run_trial(cfg, i) for i in indices]


def _run_lockstep(cfg: SimConfig, indices: list[int]) -> list[Trajectory]:
    if not indices:
        return []
    rngs = [trial_rng(cfg.master_seed, i) for i in indices]
    if cfg.true_field is not None:
        b_trues = [float(cfg.true_field)] * len(indices)
    else:
        b_trues = [float(rng.normal(cfg.prior_mean, cfg.prior_std)) for rng in rngs]
    # Trials that share an outcome history share its node: level[n] is the
    # posterior of node n, at[r] is trial r's node, and nodes are numbered
    # in order of the first trial that reaches them.  A greedy choice is a
    # function of the posterior alone, so a node's children are keyed on
    # (node, outcome); the blind kinds only ever run one trial here.
    level = [gaussian_distribution(cfg.grid, cfg.prior_mean, cfg.prior_std)]
    at = [0] * len(indices)
    histories: list[list[tuple[RamseyParams, int]]] = [[] for _ in indices]
    records: list[list[StepRecord]] = [[] for _ in indices]
    for step in range(1, cfg.n_measurements + 1):
        if cfg.policy.kind == "myopic_entropy":
            picks = myopic_choices(level, cfg.policy)
            chosen = [picks[n] for n in at]
        elif cfg.policy.kind == "variance_min":
            picks = variance_choices(level, cfg.policy)
            chosen = [picks[n] for n in at]
        else:
            chosen = [
                next_params(PolicyState(level[n], tuple(hist), len(hist)), cfg.policy, rng)
                for n, hist, rng in zip(at, histories, rngs)
            ]
        children: dict[tuple[int, int], int] = {}
        next_level: list[FieldDistribution] = []
        made: list[StepRecord] = []
        for r, params in enumerate(chosen):
            outcome = sample_outcome(rngs[r], b_trues[r], params)
            child = children.get((at[r], outcome))
            if child is None:
                try:
                    posterior = bayes_update(level[at[r]], params, outcome)
                except ZeroEvidence as exc:
                    raise ZeroEvidence(
                        f"trial {indices[r]}, step {step}, master_seed {cfg.master_seed}: {exc}"
                    ) from exc
                child = children[at[r], outcome] = len(next_level)
                next_level.append(posterior)
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
            histories[r].append((params, outcome))
        level = next_level
    return [
        Trajectory(cfg.master_seed, i, b_true, tuple(recs))
        for i, b_true, recs in zip(indices, b_trues, records)
    ]


def run_trial(cfg: SimConfig, trial_index: int) -> Trajectory:
    """Simulate one measurement sequence; bit-identical for equal inputs."""
    return _run_lockstep(cfg, [int(trial_index)])[0]


def summarize(trajectories: list[Trajectory]) -> EnsembleSummary:
    """Aggregate per-step statistics across trials."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    ent = np.array([[r.posterior_entropy for r in t.records] for t in trajectories])
    std = np.array([[r.posterior_std for r in t.records] for t in trajectories])
    return EnsembleSummary(
        mean_entropy=ent.mean(axis=0),
        std_entropy=ent.std(axis=0),
        mean_posterior_std=std.mean(axis=0),
        std_posterior_std=std.std(axis=0),
    )


def run_ensemble(cfg: SimConfig) -> EnsembleSummary:
    """Run n_realizations independent trials and aggregate them."""
    return summarize(run_trials(cfg, range(cfg.n_realizations)))
