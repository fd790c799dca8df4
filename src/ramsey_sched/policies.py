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

- On an even theta grid only the thetas below pi are scored, and the
  score arrays hold those columns alone: a cell at or above pi ties its
  partner pi below, which the tie rule reaches first.  An odd grid has
  no such partners and is scored in full.
- With q the trapezoid-weighted posterior, C = exp(-tau/T) and
  c, s = cos, sin(2 tau b), every outcome moment sum_b w(b) l0(b) is
  w.1/2 + (C/2)(cos(theta) w.c - sin(theta) w.s).  The predictive
  probability takes w = q; the variance objective takes w = q, q b, q b^2
  and needs no theta x N block at all: its w.c and w.s for every tau are
  one matrix product with the harmonic table, stacked over the
  posteriors of a step (``variance_choices``) so that each takes the
  BLAS call it would take alone.
- The harmonic table (``_harmonic_table``) holds c, s, cos 4 tau b and
  sin 4 tau b for every tau of the search grid, shape (4, tau, N), the
  last two as the double-angle products c^2 - s^2 and 2 c s.  It does
  not depend on the posterior or on T, so it is built once per grid and
  tau search grid, one grid row at a time, and shared by every scorer.
  So is the contrast C of every tau (``_contrasts``).
- The MI kernel still needs the pointwise outcome entropy h(l0) over a
  theta x N block, built in three buffers allocated once per call.  The
  block does not depend on the posterior, so the kernel takes a sequence
  of posteriors on one grid and builds one block per tau for all of
  them; each posterior then takes its own p0, h(p0) and block-vector
  product, exactly as it would alone (``myopic_choices``, which the
  trial loop calls with every myopic trial's posterior).
- The cosine term can round to 1 + 2^-52 in magnitude, so l0 is clamped
  into [0, 1] before l1 = 1 - l0 is taken, and p0 into [0, q0] (a
  posterior on one grid point has p0 = l0 there).
- Every l ln l is ``bayes.xlogx``; the block forms it in place.

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
M_j = sum_b q(b) exp(4 i j tau b), where M_1 and q against c + is of
every tau come from one product of the posteriors' q with the whole
harmonic table, formed once per decision (``_moments``), and the higher
j are complex powers of the table's cos + i sin 4 tau b, built only for
the rows screened at K terms,

    H(X|B) = a_0 q0 + sum_{j>=1} a_j Re[exp(2 i j theta) M_j].

A screen keeps K terms (``_SCREEN_TERMS``, or 1 in a first pass), and
H(X) keeps its closed form; the a_0..a_K and tails at the contrast of
every tau are cached per configuration (``_series_table``).  Since
q >= 0 and |cos| <= 1, the terms cut off add up to at most q0 times the
tail sum_{j>K} |a_j(C)|, and the tail is known exactly: at phi = 0 the
series sums to h((1 + C)/2), and the terms past K all have one sign, so
tail = a_0 - h((1 + C)/2) - sum_{j<=K} |a_j|.  Each of the K + 1
coefficients and the tail is within e = ``CONTRAST_SERIES_ERR`` of its
exact value, so each cell's estimate is within q0 (tail + (K + 2) e) of
its exact score, plus float rounding in the estimate and in the kernel,
which ``_ROUNDING_MARGIN`` covers.

A cell's upper value is its estimate plus its error bar, and the cutoff
is the best lower estimate less ``TIE_TOL`` less ``_ROUNDING_MARGIN``.
The chooser screens every row at k = 1, then at K terms every row where
some cell's upper value reaches the cutoff, and builds a cell only if
its upper value reaches the cutoff of the two passes together.  The
margin covers float rounding in the estimates and in the kernel's
scores, which the error bar leaves out; the bar's series part is tight
where every likelihood is 0, 1/2 or 1 (a posterior on one grid point, or
a contrast near 0).  A kept row is built by the same kernel as the full
matrix, over only the theta columns it keeps; a block product over fewer
theta rows can differ from the full block's in the last bits, so the
built scores match the full matrix's to float roundoff, and the chosen
cell is the full matrix's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bayes import (
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    TWO_PI,
    ZERO_EVIDENCE_FLOOR,
    bayes_update,
    dot,
    uniform_distribution,
    xlogx,
)
from .fourier import CONTRAST_SERIES_ERR, contrast_entropy_series

POLICY_KINDS = ("random", "kpe", "variance_min", "myopic_entropy")

# Cells whose objective is within this of the best count as tied.
TIE_TOL = 1e-9

# A cell is skipped only if its upper estimate is below the best lower
# estimate by more than TIE_TOL plus this allowance, on each side, for
# rounding in the estimates and in the kernel.
_ROUNDING_MARGIN = 1e-12

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


@lru_cache(maxsize=64)
def _contrasts(cfg: PolicyConfig) -> np.ndarray:
    """Read-only contrast exp(-tau/T) of every tau of the search grid, the
    one value every scorer takes for it."""
    taus = tau_search_grid(cfg).tolist()
    contrast = np.array([math.exp(-tau / cfg.coherence_time) for tau in taus])
    contrast.flags.writeable = False
    return contrast


def theta_search_grid(cfg: PolicyConfig) -> np.ndarray:
    return np.arange(cfg.theta_grid_size) * (TWO_PI / cfg.theta_grid_size)


@lru_cache(maxsize=4)
def _build_harmonic_table(grid: FieldGrid, tau_min: float, tau_max: float, tau_grid_size: int) -> np.ndarray:
    taus = np.geomspace(tau_min, tau_max, tau_grid_size)  # tau_search_grid's taus
    table = np.empty((4, tau_grid_size, grid.n_points))
    c, s, c2, s2 = table
    # one grid row at a time, through out=, so that no temporary is larger
    # than a row: freed large temporaries move glibc's mmap threshold
    for i, tau in enumerate(taus.tolist()):
        np.multiply(2.0 * tau, grid.points, out=c2[i])
        np.cos(c2[i], out=c[i])
        np.sin(c2[i], out=s[i])
        np.multiply(c[i], c[i], out=c2[i])
        c2[i] -= s[i] * s[i]
        np.multiply(c[i], s[i], out=s2[i])
        s2[i] *= 2.0
    table.flags.writeable = False
    return table


def _harmonic_table(grid: FieldGrid, cfg: PolicyConfig) -> np.ndarray:
    """Read-only (4, tau, grid point) table of cos 2 tau b, sin 2 tau b,
    cos 4 tau b and sin 4 tau b over the tau search grid.

    The last two are the double-angle products of the first two.  The
    table does not depend on the posterior, so it is cached per grid and
    tau search grid; the key leaves out ``kind`` and ``coherence_time``,
    so both greedy policies share one table.
    """
    return _build_harmonic_table(grid, cfg.tau_min, cfg.tau_max, cfg.tau_grid_size)


def _scored_theta_count(cfg: PolicyConfig) -> int:
    """Leading theta columns the kernels evaluate and choose from.

    On an even grid the cells from index K/2 on sit exactly pi above the
    first K/2 and score the same, so only the thetas below pi are scored.
    An odd grid holds no theta + pi partners and is scored in full.
    """
    k = cfg.theta_grid_size
    return k // 2 if k % 2 == 0 else k


def _shared_grid(ds: Sequence[FieldDistribution]) -> FieldGrid:
    grid = ds[0].grid
    if any(d.grid != grid for d in ds):
        raise ValueError("posteriors scored together must share one grid")
    return grid


def _outcome_moment(total, half_c, w_c, w_s, cos_t, sin_t):
    """sum_b w l0 = total/2 + (C/2)(cos theta w.c - sin theta w.s), the closed form every scorer takes."""
    return 0.5 * total + half_c * (cos_t * w_c - sin_t * w_s)


def _mi_matrix(
    ds: Sequence[FieldDistribution], cfg: PolicyConfig, need: np.ndarray | None = None
) -> np.ndarray:
    """Mutual information for every (posterior, tau, scored theta) cell,
    natural units.

    The posteriors must share one grid.  Each tau's entropy block is built
    once and scored against every posterior; posterior r's scores are
    bit-identical to those of ``_mi_matrix([ds[r]], cfg)``.  ``need``, an
    optional (posterior, tau, scored theta) boolean mask, limits the work
    to the cells it marks: a tau's block is built only over the theta
    columns that some posterior needs in that row, and cells left out read
    -inf.  A block product over fewer theta rows can differ from the full
    block's in the last bits, so the cells kept match the full matrix's to
    float roundoff, not bit for bit.
    """
    grid = _shared_grid(ds)
    taus = tau_search_grid(cfg)
    n_theta = _scored_theta_count(cfg)
    if need is None:
        need = np.ones((len(ds), len(taus), n_theta), dtype=bool)
    thetas = theta_search_grid(cfg)[:n_theta]
    table = _harmonic_table(grid, cfg)
    contrasts = _contrasts(cfg)
    qs = [grid.trapz_weights * d.density for d in ds]
    q0s = [float(q.sum()) for q in qs]
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    # the blocks are leading rows of these three buffers, allocated once
    bufs = [np.empty((n_theta, grid.n_points)) for _ in range(3)]
    out = np.full((len(ds), len(taus), n_theta), -np.inf)
    for i in np.flatnonzero(need.any(axis=(0, 2))):
        cols = np.flatnonzero(need[:, i].any(axis=0))
        l0, l1, xlx = (b[: len(cols)] for b in bufs)
        cos_c, sin_c = cos_t[cols], sin_t[cols]
        c, s = table[0, i], table[1, i]
        half_c = 0.5 * contrasts[i]
        np.multiply(cos_c[:, None], c, out=l0)
        np.multiply(sin_c[:, None], s, out=l1)
        np.subtract(l0, l1, out=l0)
        l0 *= half_c
        l0 += 0.5
        np.clip(l0, 0.0, 1.0, out=l0)
        np.subtract(1.0, l0, out=l1)
        # xlx = xlogx(l0) + xlogx(l1) in place; l0 is spent once its term is in xlx
        xlogx(l0, out=xlx)
        xlx += xlogx(l1, out=l0)
        for r in np.flatnonzero(need[:, i].any(axis=1)):
            q, q0 = qs[r], q0s[r]
            p0 = np.clip(_outcome_moment(q0, half_c, dot(q, c), dot(q, s), cos_c, sin_c), 0.0, q0)
            p1 = q0 - p0
            h_x = -(xlogx(p0) + xlogx(p1))
            out[r, i, cols] = np.where(need[r, i, cols], h_x + xlx @ q, -np.inf)
    return out


@lru_cache(maxsize=8)
def _series_table(cfg: PolicyConfig, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only coefficients a_0..a_k, (k + 1, tau), and tails, (tau,), of
    ``contrast_entropy_series`` at the contrast of every tau of the search
    grid, cached per configuration and k like the harmonic table."""
    coeffs, tails = zip(*(contrast_entropy_series(c, k) for c in _contrasts(cfg).tolist()))
    table = (np.stack(coeffs, axis=1), np.array(tails))
    for x in table:
        x.flags.writeable = False
    return table


def _moments(
    ds: Sequence[FieldDistribution], cfg: PolicyConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The harmonic table, q = trapezoid weight x density of each posterior,
    (posterior, N), and q against every table row, (4, tau, posterior):
    one product over the whole table, shared by both screen passes."""
    grid = _shared_grid(ds)
    table = _harmonic_table(grid, cfg)
    qs = np.stack([grid.trapz_weights * d.density for d in ds])
    return table, qs, np.matmul(table, qs.T)


def _screen(
    moments: tuple[np.ndarray, np.ndarray, np.ndarray], cfg: PolicyConfig, rows: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k-term Fourier estimates (k >= 1) of the MI in the given tau rows
    (indices into the tau search grid), from their 2k + 2 harmonic
    moments (see the module docstring).

    ``moments`` is ``_moments(ds, cfg)``: the first four moments of every
    row are read from its product, not formed again.  Only the harmonics
    exp(4 i j tau b) for j >= 2 are built, per row, as successive complex
    powers of the table's cos + i sin 4 tau b in one (k, N) buffer, and
    each posterior's moments are one product with that buffer.

    Returns ``est``, (posterior, row, scored theta), and ``width``,
    (posterior, row): each exact score lies within ``width`` plus rounding
    (below ``_ROUNDING_MARGIN``) of its estimate.
    """
    table, qs, head = moments
    thetas = theta_search_grid(cfg)[: _scored_theta_count(cfg)]
    contrast = _contrasts(cfg)[rows]
    a, tail = (x[..., rows] for x in _series_table(cfg, k))
    mom = np.empty((2 * k + 2, len(qs), len(rows)))
    mom[:4] = head[:, rows].transpose(0, 2, 1)
    if k > 1:
        # z^j = exp(4 i j tau b) for j = 1..k, one row at a time; the
        # (re, im) pairs of sum_b q z^j for j >= 2 are a product with the
        # powers viewed as (k - 1, N, 2) floats
        powers = np.empty((k, qs.shape[1]), dtype=complex)
        z = powers[0]
        pairs = powers[1:].view(float).reshape(k - 1, -1, 2)
        for n, i in enumerate(rows.tolist()):
            z.real, z.imag = table[2, i], table[3, i]
            for j in range(1, k):
                np.multiply(powers[j - 1], z, out=powers[j])
            mom[4:, :, n] = np.matmul(qs, pairs).transpose(0, 2, 1).reshape(-1, len(qs))
    # every array below is (posterior, tau, theta); re puts j = 1..k first
    q_c, q_s = mom[:2, :, :, None]
    q0 = qs.sum(axis=1)[:, None, None]
    half_c = 0.5 * contrast[:, None]
    # re_j = Re[exp(2 i j theta) M_j], M_j = sum_b q exp(4 i j tau b)
    angles = 2.0 * np.arange(1, k + 1)[:, None, None, None] * thetas
    re = np.cos(angles) * mom[2::2, ..., None] - np.sin(angles) * mom[3::2, ..., None]
    p0 = np.clip(_outcome_moment(q0, half_c, q_c, q_s, np.cos(thetas), np.sin(thetas)), 0.0, q0)
    p1 = q0 - p0
    h_x = -(xlogx(p0) + xlogx(p1))
    est = h_x - a[0, :, None] * q0 - (a[1:, None, :, None] * re).sum(axis=0)
    width = q0[:, :, 0] * (tail + (k + 2) * CONTRAST_SERIES_ERR)
    return est, width


def _expected_variance_matrix(ds: Sequence[FieldDistribution], cfg: PolicyConfig) -> np.ndarray:
    """Outcome-averaged posterior variance for every (posterior, tau,
    scored theta) cell.

    The posteriors must share one grid.  Their w = q, q b, q b^2 against c
    and s of every tau come from one stacked product with the harmonic
    table, one BLAS call per posterior with the operands it would have
    alone, so posterior r's scores are bit-identical to those of
    ``_expected_variance_matrix([ds[r]], cfg)`` (one flat product over
    all posteriors' w is not).
    """
    grid = _shared_grid(ds)
    taus = tau_search_grid(cfg)
    thetas = theta_search_grid(cfg)[: _scored_theta_count(cfg)]
    # w[r] = q, q b, q b^2 of posterior r, written in place
    w = np.empty((len(ds), 3, grid.n_points))
    for r, d in enumerate(ds):
        np.multiply(grid.trapz_weights, d.density, out=w[r, 0])
    np.multiply(w[:, 0], grid.points, out=w[:, 1])
    np.multiply(w[:, 1], grid.points, out=w[:, 2])
    # every array below is (w_k, posterior, tau, theta)
    tot = w.sum(axis=2).T[:, :, None, None]
    # wcs[r] holds w_k . c_i in its first tau rows and w_k . s_i in the rest
    cs = _harmonic_table(grid, cfg)[:2].reshape(-1, grid.n_points)
    wcs = np.matmul(cs, w.transpose(0, 2, 1))
    wc, ws = wcs.reshape(len(ds), 2, len(taus), 3).transpose(1, 3, 0, 2)[..., None]
    half_c = 0.5 * _contrasts(cfg)[:, None]
    # moments[k, r, i, j] = sum_b w_k(b) l0(b; tau_i, theta_j) for posterior r
    moments = _outcome_moment(tot, half_c, wc, ws, np.cos(thetas), np.sin(thetas))
    out = np.zeros((len(ds), len(taus), len(thetas)))
    for m0, m1, m2 in (moments, tot - moments):
        ok = m0 > ZERO_EVIDENCE_FLOOR
        mm = np.where(ok, m0, 1.0)
        var = np.maximum(m2 / mm - (m1 / mm) ** 2, 0.0)
        out += np.where(ok, m0 * var, 0.0)
    return out


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


def myopic_choices(ds: Sequence[FieldDistribution], cfg: PolicyConfig) -> list[RamseyParams]:
    """Tie-rule cell of each posterior's MI matrix, building only the cells
    that the Fourier screen cannot rule out.

    The posteriors' first four moments against every tau are formed once
    (``_moments``) and read by both screen passes.  A k = 1 pass over
    every row gives each cell an estimate and an error bar: its upper
    value is the estimate plus the error bar, and the posterior's cutoff
    is its best lower value (a row's best estimate less the error bar)
    less ``TIE_TOL`` less ``_ROUNDING_MARGIN``.  Every row where some
    cell's upper value reaches some posterior's cutoff is then screened
    at ``_SCREEN_TERMS`` terms, which tightens the upper values of its
    cells and its lower value, for every posterior.  A posterior's cell
    is built only if its upper value reaches the new cutoff.  Every cell
    within ``TIE_TOL`` of the optimum is then built by ``_mi_matrix``,
    so the chosen cells are those of the full matrix.
    """
    moments = _moments(ds, cfg)
    est, width = _screen(moments, cfg, np.arange(cfg.tau_grid_size), 1)
    lower = est.max(axis=2) - width - _ROUNDING_MARGIN
    upper = est + width[:, :, None]
    cutoff = lower.max(axis=1) - TIE_TOL - _ROUNDING_MARGIN
    rows = np.flatnonzero((upper >= cutoff[:, None, None]).any(axis=(0, 2)))
    est, width = _screen(moments, cfg, rows, _SCREEN_TERMS)
    lower[:, rows] = np.maximum(lower[:, rows], est.max(axis=2) - width - _ROUNDING_MARGIN)
    upper[:, rows] = np.minimum(upper[:, rows], est + width[:, :, None])
    cutoff = lower.max(axis=1) - TIE_TOL - _ROUNDING_MARGIN
    scores = _mi_matrix(ds, cfg, upper >= cutoff[:, None, None])
    return [RamseyParams(*_best_cell(m, cfg), coherence_time=cfg.coherence_time) for m in scores]


def next_params_myopic_entropy(state: PolicyState, cfg: PolicyConfig) -> RamseyParams:
    """Grid argmax of single-measurement mutual information.

    The cell is that of an exhaustive scan; only the cells that the
    Fourier screen cannot rule out are built (``myopic_choices``).
    """
    return myopic_choices([state.posterior], cfg)[0]


def variance_choices(ds: Sequence[FieldDistribution], cfg: PolicyConfig) -> list[RamseyParams]:
    """Tie-rule cell of each posterior's expected-variance matrix, argmin
    over every cell; all posteriors are scored by one kernel call, each
    exactly as alone."""
    scores = _expected_variance_matrix(ds, cfg)
    return [RamseyParams(*_best_cell(-m, cfg), coherence_time=cfg.coherence_time) for m in scores]


def next_params_variance_min(state: PolicyState, cfg: PolicyConfig) -> RamseyParams:
    """Exhaustive grid argmin of the expected posterior variance."""
    return variance_choices([state.posterior], cfg)[0]


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
    return next_params_variance_min(state, cfg)


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
    """Cells between two thetas on the circular grid, folded modulo pi.

    theta and theta + pi are the same measurement with its outcomes
    relabelled, so on an even grid they are 0 cells apart; an odd grid
    holds no theta + pi cells and keeps the distance around the circle.
    """
    k = _scored_theta_count(cfg)
    d = abs(theta_cell_index(cfg, theta_a) - theta_cell_index(cfg, theta_b)) % k
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
