"""Measurement scheduling policies.

Four ways to map the current posterior (or measurement history) to the
next exposure time and readout phase: uniform random draws, the halving
schedule (exposure halves, phase averages in the last outcome), greedy
mutual-information maximization, and greedy expected-variance
minimization.  The greedy policies search an exhaustive tau x theta
product grid, geometric in tau so that halving sequences land on grid
anchors, uniform in theta.

Ties (values within ``TIE_TOL`` of the optimum) resolve to the smallest
tau, then the smallest theta.  Both objectives are invariant under
theta -> theta + pi (relabelling the two outcomes), so optima come in
pairs; the tie rule canonically picks the representative below pi.

The two matrix kernels give the values of the scalar
``bayes.mutual_information`` and ``bayes.expected_posterior_functional``
cell by cell, up to float roundoff:

- On an even theta grid only the thetas below pi are scored and their
  columns are copied to theta + pi; an odd grid has no such partners and
  is scored in full.
- With q the trapezoid-weighted posterior, C = exp(-tau/T) and the cached
  c, s = cos, sin(2 tau b), every outcome moment sum_b w(b) l0(b) is
  w.1/2 + (C/2)(cos(theta) w.c - sin(theta) w.s).  The predictive
  probability takes w = q; the variance objective takes w = q, q b, q b^2
  and needs no theta x N block at all.
- The MI kernel still needs the pointwise outcome entropy h(l0) over a
  theta x N block, built in three buffers allocated once per call.  The
  block does not depend on the posterior, so the kernel takes a sequence
  of posteriors on one grid and builds one block per tau for all of
  them; each posterior then takes its own p0, h(p0) and block-vector
  product, exactly as it would alone (``next_params_lockstep``, used by
  the lockstep trial loop).
- The cosine term can round to 1 + 2^-52 in magnitude, so l0 is clamped
  into [0, 1] before l1 = 1 - l0 is taken, and p0 into [0, q0] (a
  posterior on one grid point has p0 = l0 there).  l ln l is then
  l * ln(max(l, tiny)) with ``np.log``: that is l ln l for every l the
  block holds (no nonzero one is below 2^-54), exactly 0 where an
  outcome is certain (l = 0, possible only at T = inf), and about four
  times faster than ``xlogy``.  (numpy's vectorised log and the C
  library log that ``xlogy`` calls can differ in the last bit.)
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import xlogy

from .bayes import (
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    TWO_PI,
    bayes_update,
    uniform_distribution,
)

POLICY_KINDS = ("random", "kpe", "myopic_entropy", "variance_min")

# Kinds whose scoring has posterior-independent work that several
# posteriors can share (the myopic MI entropy block).
LOCKSTEP_KINDS = ("myopic_entropy",)

# Cells whose objective is within this of the best count as tied.
TIE_TOL = 1e-9

_EV_MASS_FLOOR = 1e-300

# ln is taken of max(l, _TINY), so that l ln l reads 0 at l = 0.
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PolicyConfig:
    """Hyperparameters shared by all policies.

    tau_min/tau_max bound both the random draws and the search grid;
    kpe_tau0/kpe_theta0 seed the halving schedule.  coherence_time is the
    dephasing time the policies assume when scoring or emitting
    measurement parameters.
    """

    kind: str = "myopic_entropy"
    tau_min: float = 5.0 / 512.0
    tau_max: float = 5.0
    tau_grid_size: int = 64
    theta_grid_size: int = 64
    kpe_tau0: float = 4.0
    kpe_theta0: float = 0.0
    coherence_time: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if not 0.0 < self.tau_min < self.tau_max < math.inf:
            raise ValueError(f"require 0 < tau_min < tau_max < inf, got [{self.tau_min}, {self.tau_max}]")
        if self.tau_grid_size < 1 or self.theta_grid_size < 1:
            raise ValueError("grid sizes must be positive")
        if not self.kpe_tau0 > 0.0:
            raise ValueError(f"require kpe_tau0 > 0, got {self.kpe_tau0}")
        if not self.coherence_time > 0.0:
            raise ValueError(f"require coherence_time > 0, got {self.coherence_time}")
        object.__setattr__(self, "kpe_theta0", float(self.kpe_theta0) % TWO_PI)


@dataclass(frozen=True)
class PolicyState:
    """Posterior plus the (params, outcome) history that produced it."""

    posterior: FieldDistribution
    history: tuple[tuple[RamseyParams, int], ...] = ()
    step_index: int = 0

    def __post_init__(self) -> None:
        if len(self.history) != self.step_index:
            raise ValueError(
                f"history length {len(self.history)} != step_index {self.step_index}"
            )


def tau_search_grid(cfg: PolicyConfig) -> np.ndarray:
    if cfg.tau_grid_size == 1:
        return np.array([cfg.tau_min])
    return np.geomspace(cfg.tau_min, cfg.tau_max, cfg.tau_grid_size)


def theta_search_grid(cfg: PolicyConfig) -> np.ndarray:
    return np.arange(cfg.theta_grid_size) * (TWO_PI / cfg.theta_grid_size)


@lru_cache(maxsize=256)
def _tau_trig(grid_key: tuple[float, float, int], tau: float) -> tuple[np.ndarray, np.ndarray]:
    # cos/sin of 2 tau b on the grid; cached because the search grid taus
    # repeat every policy call while the posterior changes.
    b_min, b_max, n_points = grid_key
    b = np.linspace(b_min, b_max, n_points)
    c = np.cos(2.0 * tau * b)
    s = np.sin(2.0 * tau * b)
    c.flags.writeable = False
    s.flags.writeable = False
    return c, s


def _grid_key(grid: FieldGrid) -> tuple[float, float, int]:
    return (grid.b_min, grid.b_max, grid.n_points)


def _scored_theta_count(cfg: PolicyConfig) -> int:
    """Leading theta columns the kernels evaluate; the rest mirror them.

    On an even grid the cells from index K/2 on sit exactly pi above the
    first K/2, so only the thetas below pi are scored.  An odd grid holds
    no theta + pi partners and is scored in full.
    """
    k = cfg.theta_grid_size
    return k // 2 if k % 2 == 0 else k


def _full_theta(scored: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
    """Widen scores over the scored thetas (last axis) to the whole theta grid."""
    if scored.shape[-1] == cfg.theta_grid_size:
        return scored
    return np.concatenate((scored, scored), axis=-1)


def _mi_matrix(ds: Sequence[FieldDistribution], cfg: PolicyConfig) -> np.ndarray:
    """Mutual information for every (posterior, tau, theta) cell, natural units.

    The posteriors must share one grid.  Each tau's entropy block is built
    once and scored against every posterior; posterior r's scores are
    bit-identical to those of ``_mi_matrix([ds[r]], cfg)``.
    """
    grid = ds[0].grid
    if any(d.grid != grid for d in ds):
        raise ValueError("posteriors scored together must share one grid")
    taus = tau_search_grid(cfg)
    n_theta = _scored_theta_count(cfg)
    thetas = theta_search_grid(cfg)[:n_theta]
    qs = [grid.trapz_weights * d.density for d in ds]
    q0s = [float(q.sum()) for q in qs]
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    key = _grid_key(grid)
    l0 = np.empty((n_theta, grid.n_points))
    l1 = np.empty_like(l0)
    xlx = np.empty_like(l0)
    out = np.empty((len(ds), len(taus), n_theta))
    for i, tau in enumerate(taus):
        c, s = _tau_trig(key, float(tau))
        half_c = 0.5 * math.exp(-tau / cfg.coherence_time)
        np.multiply(cos_t[:, None], c, out=l0)
        np.multiply(sin_t[:, None], s, out=l1)
        np.subtract(l0, l1, out=l0)
        l0 *= half_c
        l0 += 0.5
        np.clip(l0, 0.0, 1.0, out=l0)
        np.subtract(1.0, l0, out=l1)
        # xlx = l0 ln l0 + l1 ln l1; l0 is spent once its term is in xlx
        np.maximum(l0, _TINY, out=xlx)
        np.log(xlx, out=xlx)
        xlx *= l0
        np.maximum(l1, _TINY, out=l0)
        np.log(l0, out=l0)
        l0 *= l1
        xlx += l0
        for r, (q, q0) in enumerate(zip(qs, q0s)):
            p0 = 0.5 * q0 + half_c * (cos_t * float(q @ c) - sin_t * float(q @ s))
            np.clip(p0, 0.0, q0, out=p0)
            p1 = q0 - p0
            h_x = -(xlogy(p0, p0) + xlogy(p1, p1))
            out[r, i] = h_x + xlx @ q
    return _full_theta(out, cfg)


def _expected_variance_matrix(d: FieldDistribution, cfg: PolicyConfig) -> np.ndarray:
    """Outcome-averaged posterior variance for every (tau, theta) cell."""
    taus = tau_search_grid(cfg)
    thetas = theta_search_grid(cfg)[: _scored_theta_count(cfg)]
    b = d.grid.points
    q = d.grid.trapz_weights * d.density
    qb = q * b
    w = np.stack((q, qb, qb * b))
    tot = w.sum(axis=1)[:, None, None]
    key = _grid_key(d.grid)
    trig = [_tau_trig(key, float(tau)) for tau in taus]
    wc = np.stack([w @ c for c, _ in trig], axis=1)[:, :, None]
    ws = np.stack([w @ s for _, s in trig], axis=1)[:, :, None]
    half_c = np.array([0.5 * math.exp(-tau / cfg.coherence_time) for tau in taus])[:, None]
    # moments[k, i, j] = sum_b w_k(b) l0(b; tau_i, theta_j)
    moments = 0.5 * tot + half_c * (wc * np.cos(thetas) - ws * np.sin(thetas))
    out = np.zeros((len(taus), len(thetas)))
    for m0, m1, m2 in (moments, tot - moments):
        ok = m0 > _EV_MASS_FLOOR
        mm = np.where(ok, m0, 1.0)
        var = np.maximum(m2 / mm - (m1 / mm) ** 2, 0.0)
        out += np.where(ok, m0 * var, 0.0)
    return _full_theta(out, cfg)


def _best_cell(scores: np.ndarray, cfg: PolicyConfig) -> tuple[float, float]:
    """Smallest-tau-then-smallest-theta cell among near-maximal scores."""
    best = float(scores.max())
    ti, hi = np.argwhere(scores >= best - TIE_TOL)[0]
    return float(tau_search_grid(cfg)[ti]), float(theta_search_grid(cfg)[hi])


def next_params_random(state: PolicyState, cfg: PolicyConfig, rng: np.random.Generator) -> RamseyParams:
    """tau uniform on [tau_min, tau_max), theta uniform on [0, 2*pi).

    Ignores the state entirely and consumes exactly two uniform draws, in
    that order.
    """
    tau = float(rng.uniform(cfg.tau_min, cfg.tau_max))
    theta = float(rng.uniform(0.0, TWO_PI))
    return RamseyParams(tau, theta, coherence_time=cfg.coherence_time)


def next_params_kpe(state: PolicyState, cfg: PolicyConfig) -> RamseyParams:
    """Halving schedule: first call returns the hyperparameters, then
    tau halves and theta moves to (theta + pi * outcome) / 2 each step."""
    if not state.history:
        return RamseyParams(cfg.kpe_tau0, cfg.kpe_theta0, coherence_time=cfg.coherence_time)
    prev_params, prev_outcome = state.history[-1]
    tau = 0.5 * prev_params.tau
    theta = 0.5 * (prev_params.theta + math.pi * prev_outcome)
    return RamseyParams(tau, theta, coherence_time=cfg.coherence_time)


def _best_params(scores: np.ndarray, cfg: PolicyConfig) -> RamseyParams:
    tau, theta = _best_cell(scores, cfg)
    return RamseyParams(tau, theta, coherence_time=cfg.coherence_time)


def next_params_myopic_entropy(state: PolicyState, cfg: PolicyConfig) -> RamseyParams:
    """Exhaustive grid argmax of single-measurement mutual information."""
    return _best_params(_mi_matrix([state.posterior], cfg)[0], cfg)


def next_params_variance_min(state: PolicyState, cfg: PolicyConfig) -> RamseyParams:
    """Exhaustive grid argmin of the expected posterior variance."""
    return _best_params(-_expected_variance_matrix(state.posterior, cfg), cfg)


def next_params(state: PolicyState, cfg: PolicyConfig, rng: np.random.Generator | None = None) -> RamseyParams:
    """Dispatch on cfg.kind; only the random policy consumes the rng."""
    if cfg.kind == "random":
        if rng is None:
            raise ValueError("random policy requires an rng")
        return next_params_random(state, cfg, rng)
    if cfg.kind == "kpe":
        return next_params_kpe(state, cfg)
    if cfg.kind == "myopic_entropy":
        return next_params_myopic_entropy(state, cfg)
    if cfg.kind == "variance_min":
        return next_params_variance_min(state, cfg)
    raise ValueError(f"unknown policy kind {cfg.kind!r}")


def next_params_lockstep(
    states: Sequence[PolicyState],
    cfg: PolicyConfig,
    rngs: Sequence[np.random.Generator | None],
) -> list[RamseyParams]:
    """``next_params`` for each (state, rng) pair, in order.

    The myopic policy scores every posterior in one ``_mi_matrix`` call,
    which builds each tau's entropy block once for all of them; the
    choices equal those of ``next_params`` bit for bit.  Kinds outside
    ``LOCKSTEP_KINDS`` have nothing to share and go one state at a time.
    """
    if cfg.kind in LOCKSTEP_KINDS:
        return [_best_params(m, cfg) for m in _mi_matrix([s.posterior for s in states], cfg)]
    return [next_params(state, cfg, rng) for state, rng in zip(states, rngs)]


def tau_cell_index(cfg: PolicyConfig, tau: float) -> int:
    """Nearest index of tau on the geometric search grid."""
    if cfg.tau_grid_size == 1:
        return 0
    ratio = math.log(cfg.tau_max / cfg.tau_min)
    pos = (cfg.tau_grid_size - 1) * math.log(tau / cfg.tau_min) / ratio
    return min(max(int(round(pos)), 0), cfg.tau_grid_size - 1)


def theta_cell_index(cfg: PolicyConfig, theta: float) -> int:
    """Nearest index of theta on the circular search grid."""
    pos = int(round((theta % TWO_PI) / (TWO_PI / cfg.theta_grid_size)))
    return pos % cfg.theta_grid_size


def theta_cells_apart(cfg: PolicyConfig, theta_a: float, theta_b: float) -> int:
    k = cfg.theta_grid_size
    d = abs(theta_cell_index(cfg, theta_a) - theta_cell_index(cfg, theta_b))
    return min(d, k - d)


@dataclass(frozen=True)
class KpeCheckRow:
    """One step of the halving-vs-myopic prediction comparison."""

    step: int
    kpe_tau: float
    kpe_theta: float
    myopic_tau: float
    myopic_theta: float
    tau_cell_delta: int
    theta_cell_delta: int


def compare_kpe_to_myopic(
    outcomes, cfg: PolicyConfig, grid: FieldGrid
) -> list[KpeCheckRow]:
    """Drive a scripted halving-schedule trajectory and compare predictions.

    The trajectory starts from a uniform prior over ``grid`` and follows
    the halving schedule through the scripted outcomes; after each update
    both the schedule's next parameters and the myopic argmax are
    computed on the same posterior.  Returns one row per step from step 2
    (the first adaptive prediction) onward.
    """
    outcomes = [int(x) for x in outcomes]
    if any(x not in (0, 1) for x in outcomes):
        raise ValueError("outcomes must be 0/1")
    posterior = uniform_distribution(grid)
    history: list[tuple[RamseyParams, int]] = []
    params = RamseyParams(cfg.kpe_tau0, cfg.kpe_theta0, coherence_time=cfg.coherence_time)
    rows: list[KpeCheckRow] = []
    for i, x in enumerate(outcomes, start=1):
        posterior = bayes_update(posterior, params, x)
        history.append((params, x))
        state = PolicyState(posterior, tuple(history), len(history))
        kpe = next_params_kpe(state, cfg)
        myo = next_params_myopic_entropy(state, cfg)
        rows.append(
            KpeCheckRow(
                step=i + 1,
                kpe_tau=kpe.tau,
                kpe_theta=kpe.theta,
                myopic_tau=myo.tau,
                myopic_theta=myo.theta,
                tau_cell_delta=abs(tau_cell_index(cfg, kpe.tau) - tau_cell_index(cfg, myo.tau)),
                theta_cell_delta=theta_cells_apart(cfg, kpe.theta, myo.theta),
            )
        )
        params = kpe
    return rows
