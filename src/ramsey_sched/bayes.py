"""Grid-based Bayesian inference for Ramsey-style magnetometry.

Field distributions live on a fixed uniform grid, and every integral in
this module uses the same trapezoidal rule.  Using one quadrature rule
everywhere is what makes the information identities (mutual information
equals prior entropy minus expected posterior entropy, predictive
probabilities summing to one, update order independence) hold to float
precision instead of only in the continuum limit.

All quantities are in natural units: the coupling constant is 1 and
exposure/coherence times are the corresponding rescaled quantities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Predictive probabilities at or below this are treated as an impossible
# outcome rather than fed into a division.
ZERO_EVIDENCE_FLOOR = 1e-300

# Trapezoidal integral of a density must stay this close to 1.
NORMALIZATION_TOL = 1e-9

# ln is taken of max(x, _TINY), so that x ln x reads 0 at x = 0.
_TINY = np.finfo(float).tiny

# OpenBLAS runs a ddot of at most 10000 points on one thread and splits a
# longer one across its threads, whose partial sums then depend on the
# thread count; dots of at most this many points stay on one thread.
_DOT_CHUNK = 8192


class ZeroEvidence(ValueError):
    """An outcome with (numerically) zero probability under the prior."""


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two 1-D grid arrays: every grid dot's one path.

    Up to 8192 points this is exactly ``float(a @ b)``.  A longer dot is
    the sum, from left to right, of its 8192-point chunk dots, so each
    BLAS call runs on one thread and the result is the same under any
    BLAS thread count.
    """
    n = len(a)
    if n <= _DOT_CHUNK:
        return float(a @ b)
    total = 0.0
    for i in range(0, n, _DOT_CHUNK):
        total += float(a[i : i + _DOT_CHUNK] @ b[i : i + _DOT_CHUNK])
    return total


@dataclass(frozen=True)
class FieldGrid:
    """Uniformly spaced sample points for densities over the field.

    ``points``, ``points_squared`` and ``trapz_weights`` are derived once
    at construction and shared read-only; two grids compare equal iff
    their defining triple (b_min, b_max, n_points) matches.
    """

    b_min: float
    b_max: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    points_squared: np.ndarray = field(init=False, repr=False, compare=False)
    trapz_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not -math.inf < self.b_min < self.b_max < math.inf:
            raise ValueError(f"require finite b_min < b_max, got [{self.b_min}, {self.b_max}]")
        # Python floats overflow quietly; a finite b^2 makes b_max - b_min finite too
        lo, hi = float(self.b_min), float(self.b_max)
        if not math.isfinite(max(lo * lo, hi * hi)):
            raise ValueError(f"require finite b_min^2 and b_max^2, got [{self.b_min}, {self.b_max}]")
        if self.n_points < 2:
            raise ValueError(f"require n_points >= 2, got {self.n_points}")
        pts = np.linspace(self.b_min, self.b_max, self.n_points)
        w = np.full(self.n_points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        pts_sq = pts * pts
        for name, arr in (("points", pts), ("points_squared", pts_sq), ("trapz_weights", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def spacing(self) -> float:
        return (self.b_max - self.b_min) / (self.n_points - 1)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoidal integral of point values over the grid."""
        return dot(self.trapz_weights, values)


@dataclass(frozen=True)
class FieldDistribution:
    """A normalized probability density sampled on a :class:`FieldGrid`.

    The density is validated (non-negative, trapezoidal integral within
    ``NORMALIZATION_TOL`` of one) and stored read-only; instances are
    immutable and safe to share across threads.
    """

    grid: FieldGrid
    density: np.ndarray

    def __post_init__(self) -> None:
        dens = np.ascontiguousarray(self.density, dtype=float)
        if dens.shape != (self.grid.n_points,):
            raise ValueError(
                f"density shape {dens.shape} does not match grid ({self.grid.n_points},)"
            )
        if np.any(dens < 0.0):
            raise ValueError("density values must be non-negative")
        total = self.grid.integrate(dens)
        if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {total!r}, expected 1")
        dens.flags.writeable = False
        object.__setattr__(self, "density", dens)

    @classmethod
    def _normalized(cls, grid: FieldGrid, density: np.ndarray) -> FieldDistribution:
        """Wrap a density that the caller has just divided by its own
        positive, finite integral, skipping the checks that division
        already settles; the array becomes read-only and is not copied."""
        d = object.__new__(cls)
        density.flags.writeable = False
        object.__setattr__(d, "grid", grid)
        object.__setattr__(d, "density", density)
        return d


def distribution_from_density(grid: FieldGrid, values: np.ndarray) -> FieldDistribution:
    """Normalize arbitrary non-negative point values into a distribution."""
    vals = np.asarray(values, dtype=float)
    total = grid.integrate(vals)
    if total <= 0.0 or not math.isfinite(total):
        raise ValueError(f"cannot normalize density with integral {total!r}")
    return FieldDistribution(grid, vals / total)


def gaussian_distribution(grid: FieldGrid, mean: float, std: float) -> FieldDistribution:
    if not 0.0 < std < math.inf:
        raise ValueError(f"require finite std > 0, got {std}")
    if not math.isfinite(mean):
        raise ValueError(f"require finite mean, got {mean}")
    z = (grid.points - mean) / std
    return distribution_from_density(grid, np.exp(-0.5 * z * z))


def uniform_distribution(grid: FieldGrid) -> FieldDistribution:
    """Uniform density over the whole grid; a narrower window is a
    :func:`distribution_from_density` of its indicator."""
    return distribution_from_density(grid, np.ones(grid.n_points))


@dataclass(frozen=True)
class RamseyParams:
    """Controls and constants of one Ramsey measurement.

    tau: exposure time (finite, >= 0).
    theta: readout phase (finite), wrapped into [0, 2*pi) at construction.
    coherence_time: dephasing time T; ``math.inf`` is the exact
        no-decoherence case (contrast factor exactly 1).
    """

    tau: float
    theta: float
    coherence_time: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"require finite tau >= 0, got {self.tau}")
        if not math.isfinite(self.theta):
            raise ValueError(f"require finite theta, got {self.theta}")
        if not self.coherence_time > 0.0:
            raise ValueError(f"require coherence_time > 0, got {self.coherence_time}")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @property
    def contrast(self) -> float:
        """Decay factor exp(-tau/T); exactly 1.0 for infinite T."""
        return math.exp(-self.tau / self.coherence_time)


def _fringe(b: np.ndarray, p: RamseyParams) -> np.ndarray:
    """cos(2 tau b + theta), the fringe every likelihood rescales, formed
    in place in one new array of b's shape."""
    out = np.multiply(2.0 * p.tau, b, out=np.empty(np.shape(b)))
    out += p.theta
    return np.cos(out, out=out)


def likelihood(x: int, b, p: RamseyParams):
    """Probability of outcome ``x`` given field value(s) ``b``.

    Outcome 0 has probability 1/2 + exp(-tau/T) cos(2 b tau + theta)/2;
    outcome 1 is computed as its exact complement, so the two outcomes sum
    to 1.0 exactly for every ``b``.  Both are finished in place in the
    fringe's one array; a scalar ``b`` gives a float.
    """
    if x not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {x!r}")
    out = _fringe(np.asarray(b, dtype=float), p)
    out *= 0.5 * p.contrast
    out += 0.5
    if x == 1:
        np.subtract(1.0, out, out=out)
    return float(out) if out.ndim == 0 else out


def predictive_prob(d: FieldDistribution, p: RamseyParams, x: int) -> float:
    """Prior probability of outcome ``x``: the likelihood averaged over d."""
    return d.grid.integrate(likelihood(x, d.grid.points, p) * d.density)


def bayes_update(d: FieldDistribution, p: RamseyParams, x: int) -> FieldDistribution:
    """Posterior after observing outcome ``x`` with controls ``p``.

    The product with the prior and the division by the evidence are
    formed in place in the one array :func:`likelihood` returns, so the
    posterior is bit-identical to its oracle, ``FieldDistribution(d.grid,
    likelihood(x, d.grid.points, p) * d.density / evidence)``.  The
    likelihood and the prior are non-negative and the division
    normalises, so only the evidence is checked.

    Raises:
        ZeroEvidence: the outcome has probability <= 1e-300 under ``d``.
        ValueError: ``x`` is not 0 or 1, or the evidence is not finite
            (as when 2 tau b overflows).
    """
    post = likelihood(x, d.grid.points, p)
    post *= d.density
    evidence = d.grid.integrate(post)
    if not math.isfinite(evidence):
        raise ValueError(f"outcome {x} has non-finite predictive probability {evidence!r}")
    if evidence <= ZERO_EVIDENCE_FLOOR:
        raise ZeroEvidence(
            f"outcome {x} has predictive probability {evidence!r} under the prior"
        )
    post /= evidence
    return FieldDistribution._normalized(d.grid, post)


def xlogx(x, out=None):
    """x ln x, vectorized, with 0 ln 0 = 0: every entropy's one log path (into ``out``, not x, if given)."""
    if out is None:
        return x * np.log(np.maximum(x, _TINY))
    np.log(np.maximum(x, _TINY, out=out), out=out)
    return np.multiply(x, out, out=out)


def entropy(d: FieldDistribution) -> float:
    """Differential entropy -∫ p ln p db in nats, with 0 ln 0 = 0."""
    return -d.grid.integrate(xlogx(d.density))


def mean(d: FieldDistribution) -> float:
    return d.grid.integrate(d.grid.points * d.density)


def variance(d: FieldDistribution) -> float:
    """Second central moment, clamped at zero against float cancellation."""
    q = d.grid.trapz_weights * d.density
    m1 = dot(q, d.grid.points)
    m2 = dot(q, d.grid.points_squared)
    return max(m2 - m1 * m1, 0.0)


def binary_entropy(q):
    """Entropy in nats of a Bernoulli(q) outcome, vectorized, 0 ln 0 = 0."""
    return -(xlogx(q) + xlogx(1.0 - q))


def mutual_information(d: FieldDistribution, p: RamseyParams) -> float:
    """Information in nats one measurement carries about the field.

    Computed as H(X) - H(X|B): the entropy of the two predictive outcome
    probabilities minus the prior-weighted average of the pointwise
    outcome entropy.  Both terms use the grid's trapezoidal rule, so the
    result stays in [0, ln 2] up to float roundoff.
    """
    l0 = likelihood(0, d.grid.points, p)
    q = d.grid.trapz_weights * d.density
    p0 = dot(q, l0)
    p1 = dot(q, 1.0 - l0)
    h_x = -(xlogx(p0) + xlogx(p1))
    h_x_given_b = dot(q, binary_entropy(l0))
    return h_x - h_x_given_b


def mutual_information_surface(
    d: FieldDistribution, taus, theta: float, coherence_times
) -> np.ndarray:
    """:func:`mutual_information` at one theta over a (T, tau) grid.

    Element [i, k] is bit-identical to
    ``mutual_information(d, RamseyParams(taus[k], theta, coherence_times[i]))``,
    and every cell is validated as that ``RamseyParams`` would be.  q is
    formed once per surface.  The fringe cos(2 tau b + theta) does not
    depend on T, so it is formed once per tau, and one (T, N) block of
    l0 = 0.5 contrast_T fringe + 0.5 is built in scratch buffers that every
    tau reuses.  Each T's three sums stay 1-D dots, as in the scalar
    oracle: a matrix product over the block may round differently.
    """
    n_t = len(coherence_times)
    q = d.grid.trapz_weights * d.density
    # the (T, N) blocks of both outcome likelihoods, and the logs of both
    lik = np.empty((2, n_t, d.grid.n_points))
    log = np.empty_like(lik)
    l0, l1 = lik
    out = np.empty((n_t, len(taus)))
    for k, tau in enumerate(taus):
        fringe = _fringe(d.grid.points, RamseyParams(tau, theta))
        half_contrast = [0.5 * RamseyParams(tau, theta, T).contrast for T in coherence_times]
        np.multiply.outer(half_contrast, fringe, out=l0)
        l0 += 0.5
        np.subtract(1.0, l0, out=l1)
        h_x = [-(xlogx(dot(q, a)) + xlogx(dot(q, b))) for a, b in zip(l0, l1)]
        # xlogx(l0) + xlogx(l1), the negated pointwise outcome entropy
        h = xlogx(lik, out=log)
        h[0] += h[1]
        for i, row in enumerate(h[0]):
            out[i, k] = h_x[i] + dot(q, row)
    return out


def expected_posterior_functional(
    d: FieldDistribution, p: RamseyParams, functional: Callable[[FieldDistribution], float]
) -> float:
    """Outcome-averaged value of a posterior functional.

    ``functional`` maps a posterior to a float, as :func:`entropy` and
    :func:`variance` do: the scalar oracles of the two greedy scores.  An
    outcome whose predictive probability is at or below
    ``ZERO_EVIDENCE_FLOOR`` contributes nothing; the two probabilities of
    a normalised prior sum to 1, so at most one outcome is dropped.  A NaN
    probability goes on to the update, which raises ValueError.
    """
    total = 0.0
    for x in (0, 1):
        px = predictive_prob(d, p, x)
        if px <= ZERO_EVIDENCE_FLOOR:
            continue
        total += px * functional(bayes_update(d, p, x))
    return total
