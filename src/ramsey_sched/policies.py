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
  product, exactly as it would alone (``myopic_choices``, which the
  trial loop calls with every myopic trial's posterior).
- The cosine term can round to 1 + 2^-52 in magnitude, so l0 is clamped
  into [0, 1] before l1 = 1 - l0 is taken, and p0 into [0, q0] (a
  posterior on one grid point has p0 = l0 there).  l ln l is then
  l * ln(max(l, tiny)) with ``np.log``: that is l ln l for every l the
  block holds (no nonzero one is below 2^-54), exactly 0 where an
  outcome is certain (l = 0, possible only at T = inf), and about four
  times faster than ``xlogy``.  (numpy's vectorised log and the C
  library log that ``xlogy`` calls can differ in the last bit.)

The myopic chooser builds only the tau rows that can hold the best cell
(``myopic_choices``), and finds them with a Fourier screen.  With
phi = 2 tau b + theta and contrast C = exp(-tau/T), l0 = (1 + C cos phi)/2,
and the one-signed series h((1 + x)/2) = ln 2 - sum_n x^{2n}/(2n(2n - 1))
at x = C cos phi gives

    h(l0) = a_0(C) + sum_{j>=1} a_j(C) cos 2 j phi,

with the a_j in closed form (``fourier.contrast_entropy_series``).  Each
power of cos phi expands into cosines with positive weights, so a_j(C)
< 0 for every j >= 1 at every C <= 1: the paper's sign claim for the
full-contrast alpha_j carries over to finite T.  With the moments
M_j = sum_b q(b) exp(4 i j tau b), formed from the cached c + is by
turning it through 4 tau b at a time,

    H(X|B) = a_0 q0 + sum_{j>=1} a_j Re[exp(2 i j theta) M_j].

A screen keeps K terms (``_SCREEN_TERMS``, or 1 in a first pass), and
H(X) keeps its closed form.  Since q >= 0 and |cos| <= 1, the terms cut
off add up to at most q0 times the tail sum_{j>K} |a_j(C)|, and the
tail is known exactly: at phi = 0 the series sums to h((1 + C)/2), and
the terms past K all have one sign, so tail = a_0 - h((1 + C)/2) -
sum_{j<=K} |a_j|.  Each of the K + 1 coefficients and the tail is within
e = ``CONTRAST_SERIES_ERR`` of its exact value, so each cell's estimate
is within q0 (tail + (K + 2) e) of its exact score, plus float rounding
in the estimate and in the kernel, which ``_BOUND_MARGIN`` covers.

The same moments give each cell's MI two closed-form upper bounds:

- H(X) - 4 ln2 sum_b q l0 l1, since h(l) >= 4 ln2 l(1 - l) (Topsoe,
  "Bounds for entropy and divergence for distributions over a
  two-element set", 2001);
- ln(1 + Var_q(l0) / (p0 p1)), since KL <= ln(1 + chi^2) (Sason and
  Verdu, "f-Divergence Inequalities", 2016) and ln is concave (Jensen);
  it is +inf where p0 p1 = 0.

The trapezoid weights are positive, so both hold on the grid, not only
in the continuum, and both need only M_1 and q against c and s: the
moments of a k = 1 screen.  So one pass (``_screen``) gives every row
its bound and a k = 1 estimate.  A row's upper value is the smaller of
its bound and its upper estimate, and the cutoff is the best lower
estimate less ``TIE_TOL`` less ``_BOUND_MARGIN``.  The chooser runs the
k = 1 pass over all rows, screens at K terms each posterior's row of
highest upper value, then every row whose upper value still reaches the
cutoff, and builds a row only if its upper value reaches the final
cutoff.  The
margin is needed because the bounds are tight where every likelihood is
0, 1/2 or 1 (a posterior on one grid point, or a contrast near 0): there
the bound and the exact score agree to rounding, and the bound can come
out 1e-16 below.  Only whole rows are skipped: a kept row is built by
the same block product as in the full matrix, so its scores, and the
chosen cell, are bit-identical (block products over 1 or 2 theta rows
can differ in the last bits from the full block's).
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
from .fourier import CONTRAST_SERIES_ERR, contrast_entropy_series

POLICY_KINDS = ("random", "kpe", "variance_min", "myopic_entropy")

# Cells whose objective is within this of the best count as tied.
TIE_TOL = 1e-9

_EV_MASS_FLOOR = 1e-300

# ln is taken of max(l, _TINY), so that l ln l reads 0 at l = 0.
_TINY = np.finfo(float).tiny

# A tau row is skipped only if its MI bound is below the best score by
# more than TIE_TOL plus this allowance for rounding in the bound.
_BOUND_MARGIN = 1e-12

_FOUR_LN2 = 4.0 * math.log(2.0)

# Fourier terms of the outcome entropy the myopic screen keeps.
_SCREEN_TERMS = 4


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
        if not 0.0 < self.kpe_tau0 < math.inf:
            raise ValueError(f"require finite kpe_tau0 > 0, got {self.kpe_tau0}")
        if not math.isfinite(self.kpe_theta0):
            raise ValueError(f"require finite kpe_theta0, got {self.kpe_theta0}")
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


@lru_cache(maxsize=64)
def tau_search_grid(cfg: PolicyConfig) -> np.ndarray:
    # cached read-only: every decision of a run asks for the same grid
    taus = np.geomspace(cfg.tau_min, cfg.tau_max, cfg.tau_grid_size)
    taus.flags.writeable = False
    return taus


def theta_search_grid(cfg: PolicyConfig) -> np.ndarray:
    return np.arange(cfg.theta_grid_size) * (TWO_PI / cfg.theta_grid_size)


@lru_cache(maxsize=256)
def _tau_trig(grid: FieldGrid, tau: float) -> tuple[np.ndarray, np.ndarray]:
    # cos/sin of 2 tau b on the grid; cached because the search grid taus
    # repeat every policy call while the posterior changes.
    c = np.cos(2.0 * tau * grid.points)
    s = np.sin(2.0 * tau * grid.points)
    c.flags.writeable = False
    s.flags.writeable = False
    return c, s


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


def _shared_grid(ds: Sequence[FieldDistribution]) -> FieldGrid:
    grid = ds[0].grid
    if any(d.grid != grid for d in ds):
        raise ValueError("posteriors scored together must share one grid")
    return grid


def _mi_matrix(
    ds: Sequence[FieldDistribution], cfg: PolicyConfig, need: np.ndarray | None = None
) -> np.ndarray:
    """Mutual information for every (posterior, tau, theta) cell, natural units.

    The posteriors must share one grid.  Each tau's entropy block is built
    once and scored against every posterior; posterior r's scores are
    bit-identical to those of ``_mi_matrix([ds[r]], cfg)``.  ``need``, an
    optional (posterior, tau) boolean mask, limits the work to the rows it
    marks: a tau's block is built only if some posterior needs that row,
    and rows left out read -inf.  The rows kept are bit-identical to the
    full matrix's.
    """
    grid = _shared_grid(ds)
    taus = tau_search_grid(cfg)
    if need is None:
        need = np.ones((len(ds), len(taus)), dtype=bool)
    n_theta = _scored_theta_count(cfg)
    thetas = theta_search_grid(cfg)[:n_theta]
    qs = [grid.trapz_weights * d.density for d in ds]
    q0s = [float(q.sum()) for q in qs]
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    l0 = np.empty((n_theta, grid.n_points))
    l1 = np.empty_like(l0)
    xlx = np.empty_like(l0)
    out = np.full((len(ds), len(taus), n_theta), -np.inf)
    for i, tau in enumerate(taus):
        if not need[:, i].any():
            continue
        c, s = _tau_trig(grid, float(tau))
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
        for r in np.flatnonzero(need[:, i]):
            q, q0 = qs[r], q0s[r]
            p0 = 0.5 * q0 + half_c * (cos_t * float(q @ c) - sin_t * float(q @ s))
            np.clip(p0, 0.0, q0, out=p0)
            p1 = q0 - p0
            h_x = -(xlogy(p0, p0) + xlogy(p1, p1))
            out[r, i] = h_x + xlx @ q
    return _full_theta(out, cfg)


def _fill_harmonics(grid: FieldGrid, tau: float, trig: np.ndarray) -> None:
    """Fill the rows of ``trig`` with c, s and then cos, sin of 4 j tau b
    for j = 1, 2, ..., each pair the previous one turned by 4 tau b."""
    c, s = _tau_trig(grid, tau)
    trig[0] = c
    trig[1] = s
    np.multiply(c, c, out=trig[2])
    trig[2] -= s * s
    np.multiply(c, s, out=trig[3])
    trig[3] *= 2.0
    for k in range(4, len(trig), 2):
        np.multiply(trig[k - 2], trig[2], out=trig[k])
        trig[k] -= trig[k - 1] * trig[3]
        np.multiply(trig[k - 2], trig[3], out=trig[k + 1])
        trig[k + 1] += trig[k - 1] * trig[2]


def _screen(
    ds: Sequence[FieldDistribution], cfg: PolicyConfig, taus: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form bound and k-term Fourier estimates (k >= 1) of the MI
    in the rows of the given taus, from one pass over their 2k + 2
    harmonic moments (see the module docstring).

    Returns ``bound``, (posterior, tau), the largest of the row's cell
    bounds; ``est``, (posterior, tau, scored theta); and ``width``,
    (posterior, tau): each exact score lies within ``width`` plus rounding
    (below ``_BOUND_MARGIN``) of its estimate.
    """
    grid = _shared_grid(ds)
    thetas = theta_search_grid(cfg)[: _scored_theta_count(cfg)]
    qs = np.stack([grid.trapz_weights * d.density for d in ds])
    contrast = np.exp(-taus / cfg.coherence_time)
    trig = np.empty((2 * k + 2, grid.n_points))
    moments = np.empty((2 * k + 2, len(ds), len(taus)))
    a = np.empty((k + 1, len(taus)))
    tail = np.empty(len(taus))
    for i, tau in enumerate(taus.tolist()):
        _fill_harmonics(grid, tau, trig)
        moments[:, :, i] = trig @ qs.T
        a[:, i], tail[i] = contrast_entropy_series(float(contrast[i]), k)
    # every array below is (posterior, tau, theta); re puts j = 1..k first
    q_c, q_s = moments[:2, :, :, None]
    q0 = qs.sum(axis=1)[:, None, None]
    half_c = 0.5 * contrast[:, None]
    # re_j = Re[exp(2 i j theta) M_j], M_j = sum_b q exp(4 i j tau b)
    angles = 2.0 * np.arange(1, k + 1)[:, None, None, None] * thetas
    re = np.cos(angles) * moments[2::2, ..., None] - np.sin(angles) * moments[3::2, ..., None]
    # u = cos(2 tau b + theta), so p0 = q0/2 + half_c sum_b q u
    q_u = np.cos(thetas) * q_c - np.sin(thetas) * q_s
    p0 = np.clip(0.5 * q0 + half_c * q_u, 0.0, q0)
    p1 = q0 - p0
    h_x = -(xlogy(p0, p0) + xlogy(p1, p1))
    est = h_x - a[0, :, None] * q0 - (a[1:, None, :, None] * re).sum(axis=0)
    width = q0[:, :, 0] * (tail + (k + 2) * CONTRAST_SERIES_ERR)
    # l0 l1 = 1/4 - half_c^2 u^2, where u^2 = (1 + cos(4 tau b + 2 theta)) / 2
    q_uu = 0.5 * (q0 + re[0])
    hc2 = half_c * half_c
    topsoe = h_x - _FOUR_LN2 * (0.25 * q0 - hc2 * q_uu)
    # chi^2 of l against p, averaged over the normalised posterior; the
    # q0 factor and -q0 ln q0 carry the bound to a density whose
    # trapezoid mass is not exactly 1, as the kernel's H(X) does
    var = hc2 * np.maximum(q0 * q_uu - q_u * q_u, 0.0)
    pp = p0 * p1
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(pp > 0.0, q0 * np.log1p(var / pp) - xlogy(q0, q0), np.inf)
    return np.minimum(topsoe, chi2).max(axis=-1), est, width


def _expected_variance_matrix(d: FieldDistribution, cfg: PolicyConfig) -> np.ndarray:
    """Outcome-averaged posterior variance for every (tau, theta) cell."""
    taus = tau_search_grid(cfg)
    thetas = theta_search_grid(cfg)[: _scored_theta_count(cfg)]
    b = d.grid.points
    q = d.grid.trapz_weights * d.density
    qb = q * b
    w = np.stack((q, qb, qb * b))
    tot = w.sum(axis=1)[:, None, None]
    trig = [_tau_trig(d.grid, float(tau)) for tau in taus]
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
    tau halves and theta moves to (theta + pi * outcome) / 2 each step.

    tau halves with no floor at tau_min: after about log2(kpe_tau0 /
    tau_min) steps it falls below tau_min and later shots carry almost
    no information.
    """
    if not state.history:
        return RamseyParams(cfg.kpe_tau0, cfg.kpe_theta0, coherence_time=cfg.coherence_time)
    prev_params, prev_outcome = state.history[-1]
    tau = 0.5 * prev_params.tau
    theta = 0.5 * (prev_params.theta + math.pi * prev_outcome)
    return RamseyParams(tau, theta, coherence_time=cfg.coherence_time)


def _best_params(scores: np.ndarray, cfg: PolicyConfig) -> RamseyParams:
    tau, theta = _best_cell(scores, cfg)
    return RamseyParams(tau, theta, coherence_time=cfg.coherence_time)


def myopic_choices(ds: Sequence[FieldDistribution], cfg: PolicyConfig) -> list[RamseyParams]:
    """Tie-rule cell of each posterior's MI matrix, building only the tau
    rows that the Fourier screen cannot rule out.

    A k = 1 pass over every row gives each posterior's row its
    closed-form bound and a first estimate; its upper value is the
    smaller of the bound and the upper estimate, and the posterior's
    cutoff is its best lower estimate less ``TIE_TOL`` less
    ``_BOUND_MARGIN``.  The screen then takes, at ``_SCREEN_TERMS`` terms,
    each posterior's row of highest upper value, then every row whose
    upper value still reaches some posterior's cutoff; each screened row
    tightens both values for every posterior.  A posterior's row is built
    only if its upper value reaches the cutoff.  Every row that holds a
    cell within ``TIE_TOL`` of the optimum is then built, exactly as
    ``_mi_matrix`` builds it, so the chosen cells are those of the full
    matrix.
    """
    taus = tau_search_grid(cfg)
    bound, est, width = _screen(ds, cfg, taus, 1)
    best = est.max(axis=2)
    lower = best - width - _BOUND_MARGIN
    upper = np.minimum(bound, best + width)
    screened = np.zeros(len(taus), dtype=bool)
    rows = np.unique(upper.argmax(axis=1))
    while rows.size:
        _, est, width = _screen(ds, cfg, taus[rows], _SCREEN_TERMS)
        best = est.max(axis=2)
        lower[:, rows] = np.maximum(lower[:, rows], best - width - _BOUND_MARGIN)
        upper[:, rows] = np.minimum(upper[:, rows], best + width)
        screened[rows] = True
        cutoff = (lower.max(axis=1) - TIE_TOL - _BOUND_MARGIN)[:, None]
        # the cutoff only rises, so a third round would find no row
        rows = np.flatnonzero(((upper >= cutoff) & ~screened).any(axis=0))
    scores = _mi_matrix(ds, cfg, upper >= cutoff)
    return [_best_params(m, cfg) for m in scores]


def next_params_myopic_entropy(state: PolicyState, cfg: PolicyConfig) -> RamseyParams:
    """Grid argmax of single-measurement mutual information.

    The cell is that of an exhaustive scan; only the tau rows that the
    Fourier screen cannot rule out are built (``myopic_choices``).
    """
    return myopic_choices([state.posterior], cfg)[0]


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


def tau_cell_index(cfg: PolicyConfig, tau: float) -> int:
    """Nearest index of tau on the geometric search grid."""
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
    params = next_params_kpe(PolicyState(posterior), cfg)
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
