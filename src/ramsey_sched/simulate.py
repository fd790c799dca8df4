"""Sequential measurement simulation and ensemble aggregation.

A trial draws (or fixes) a true field value, then repeats: ask the
policy for the next controls, sample a binary outcome from the true
field's likelihood, update the posterior, and record its entropy and
spread.

``run_trials`` is the one trial loop.  Myopic trials advance in
lockstep: at each step every trial's posterior is scored against one
shared entropy block per tau, then each trial samples its outcome and
updates on its own.  The other kinds share no scoring work and run one
trial at a time.  Each trial draws from its own stream, derived from
(master_seed, trial_index), in a fixed order (true field, the policy's
draws, the outcome), so a trajectory is bit-identical whether its trial
runs alone or beside others, and an ensemble is a pure function of its
configuration, insensitive to execution order.
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
from .policies import LOCKSTEP_KINDS, PolicyConfig, PolicyState, next_params_lockstep


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run depends on.

    true_field of None means each trial samples its own true value from
    the Gaussian prior; a float pins it (useful for debugging and
    oracle tests).
    """

    prior_mean: float
    prior_std: float
    coherence_time: float
    n_measurements: int
    n_realizations: int
    master_seed: int
    policy: PolicyConfig
    grid: FieldGrid
    true_field: float | None = None

    def __post_init__(self) -> None:
        if not self.prior_std > 0.0:
            raise ValueError(f"require prior_std > 0, got {self.prior_std}")
        if not self.coherence_time > 0.0:
            raise ValueError(f"require coherence_time > 0, got {self.coherence_time}")
        if self.n_measurements < 0:
            raise ValueError(f"require n_measurements >= 0, got {self.n_measurements}")
        if self.n_realizations < 1:
            raise ValueError(f"require n_realizations >= 1, got {self.n_realizations}")
        lo = self.prior_mean - 6.0 * self.prior_std
        hi = self.prior_mean + 6.0 * self.prior_std
        if lo < self.grid.b_min or hi > self.grid.b_max:
            raise ValueError(
                f"grid [{self.grid.b_min}, {self.grid.b_max}] must cover prior_mean +- 6 std "
                f"([{lo}, {hi}])"
            )
        if self.policy.coherence_time != self.coherence_time:
            raise ValueError(
                "policy.coherence_time must match the simulation coherence_time "
                f"({self.policy.coherence_time} != {self.coherence_time})"
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

    n_trials: int
    mean_entropy: np.ndarray
    std_entropy: np.ndarray
    mean_posterior_std: np.ndarray
    std_posterior_std: np.ndarray


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream from a stateless seed mix."""
    return np.random.default_rng([int(master_seed), int(trial_index)])


def initial_prior(cfg: SimConfig) -> FieldDistribution:
    return gaussian_distribution(cfg.grid, cfg.prior_mean, cfg.prior_std)


def sample_outcome(rng: np.random.Generator, b_true: float, p: RamseyParams) -> int:
    """Draw one outcome from the true field's likelihood (one uniform draw)."""
    return 0 if rng.random() < likelihood(0, b_true, p) else 1


def run_trials(cfg: SimConfig, trial_indices: Iterable[int]) -> list[Trajectory]:
    """Simulate the given trials; bit-identical for equal inputs.

    Trials of a kind in ``LOCKSTEP_KINDS`` (myopic) advance in lockstep,
    so each step scores every posterior against one entropy block per
    tau; the other kinds run one trial at a time and hold a single
    posterior.  Either way a trial's trajectory does not depend on which
    other trials run beside it.

    Raises:
        ZeroEvidence: an outcome had (numerically) zero probability; the
            message names the trial, the step and the master seed.
    """
    indices = [int(i) for i in trial_indices]
    if cfg.policy.kind in LOCKSTEP_KINDS:
        return _run_lockstep(cfg, indices)
    return [t for i in indices for t in _run_lockstep(cfg, [i])]


def _run_lockstep(cfg: SimConfig, indices: list[int]) -> list[Trajectory]:
    if not indices:
        return []
    rngs = [trial_rng(cfg.master_seed, i) for i in indices]
    if cfg.true_field is not None:
        b_trues = [float(cfg.true_field)] * len(indices)
    else:
        b_trues = [float(rng.normal(cfg.prior_mean, cfg.prior_std)) for rng in rngs]
    posteriors = [initial_prior(cfg)] * len(indices)
    histories: list[list[tuple[RamseyParams, int]]] = [[] for _ in indices]
    records: list[list[StepRecord]] = [[] for _ in indices]
    for step in range(1, cfg.n_measurements + 1):
        states = [PolicyState(post, tuple(hist), len(hist)) for post, hist in zip(posteriors, histories)]
        chosen = next_params_lockstep(states, cfg.policy, rngs)
        for r, params in enumerate(chosen):
            outcome = sample_outcome(rngs[r], b_trues[r], params)
            try:
                posterior = bayes_update(posteriors[r], params, outcome)
            except ZeroEvidence as exc:
                raise ZeroEvidence(
                    f"trial {indices[r]}, step {step}, master_seed {cfg.master_seed}: {exc}"
                ) from exc
            posteriors[r] = posterior
            records[r].append(
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
            histories[r].append((params, outcome))
    return [
        Trajectory(cfg.master_seed, i, b_true, tuple(recs))
        for i, b_true, recs in zip(indices, b_trues, records)
    ]


def run_trial(cfg: SimConfig, trial_index: int) -> Trajectory:
    """Simulate one measurement sequence; bit-identical for equal inputs."""
    return run_trials(cfg, [trial_index])[0]


def summarize(trajectories: list[Trajectory]) -> EnsembleSummary:
    """Aggregate per-step statistics across trials."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    ent = np.array([[r.posterior_entropy for r in t.records] for t in trajectories])
    std = np.array([[r.posterior_std for r in t.records] for t in trajectories])
    return EnsembleSummary(
        n_trials=len(trajectories),
        mean_entropy=ent.mean(axis=0),
        std_entropy=ent.std(axis=0),
        mean_posterior_std=std.mean(axis=0),
        std_posterior_std=std.std(axis=0),
    )


def run_ensemble(cfg: SimConfig) -> EnsembleSummary:
    """Run n_realizations independent trials and aggregate them."""
    return summarize(run_trials(cfg, range(cfg.n_realizations)))
