"""Independent reference computations used to check the package's outputs.

Nothing here calls the package's scoring, update or statistics code; the
formulas are written out again from their definitions so that a rewrite
of the package's kernels is checked against something it did not change.
Only the random-number discipline (one stream per trial, the order of
draws) is mirrored, because the outputs depend on it by construction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

TWO_PI = 2.0 * math.pi
TIE_TOL = 1e-9
# Slack around the tie threshold that absorbs the last-digit differences
# between two correct implementations of the same score.
TIE_SLACK = 1e-12


def grid_points(b_min: float, b_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid points and trapezoid weights."""
    b = np.linspace(b_min, b_max, n)
    w = np.full(n, (b_max - b_min) / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return b, w


def tau_grid(tau_min: float, tau_max: float, n: int) -> np.ndarray:
    return np.array([tau_min]) if n == 1 else np.geomspace(tau_min, tau_max, n)


def theta_grid(n: int) -> np.ndarray:
    return np.arange(n) * (TWO_PI / n)


def _h(p: np.ndarray) -> np.ndarray:
    """Binary entropy in nats, with 0 ln 0 = 0."""
    return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))


def _h_interior(p: np.ndarray) -> np.ndarray:
    """Binary entropy for p strictly inside (0, 1)."""
    return -(p * np.log(p) + (1.0 - p) * np.log1p(-p))


def mi_cells(q: np.ndarray, b: np.ndarray, taus, thetas, T: float) -> np.ndarray:
    """Mutual information of every (tau, theta) cell for weights q = w * density.

    H(X) uses the predictive probability in closed form; H(X|B) sums the
    pointwise outcome entropy.  With an even theta grid the theta + pi half
    is filled from the first half (relabelling the outcomes leaves the
    information unchanged).
    """
    thetas = np.asarray(thetas)
    k = len(thetas)
    half = k // 2 if k % 2 == 0 else k
    th = thetas[:half]
    cos_t, sin_t = np.cos(th), np.sin(th)
    q0 = q.sum()
    out = np.empty((len(taus), k))
    for i, tau in enumerate(taus):
        C = math.exp(-tau / T)
        phase = 2.0 * tau * b
        c, s = np.cos(phase), np.sin(phase)
        p0 = 0.5 * q0 + 0.5 * C * (cos_t * (q @ c) - sin_t * (q @ s))
        l0 = 0.5 + 0.5 * C * (np.outer(cos_t, c) - np.outer(sin_t, s))
        h_xb = (_h_interior(l0) if C < 1.0 else _h(l0)) @ q
        out[i, :half] = _h(p0) - h_xb
    if half < k:
        out[:, half:] = out[:, :half]
    return out


def expected_variance_cells(q: np.ndarray, b: np.ndarray, taus, thetas, T: float) -> np.ndarray:
    """Outcome-averaged posterior variance of every cell, from closed-form moments.

    Each outcome's unnormalised moments sum_b q b^k l_x(b) reduce to dot
    products of q b^k with cos(2 tau b) and sin(2 tau b).
    """
    thetas = np.asarray(thetas)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    weights = (q, q * b, q * b * b)
    totals = [float(wk.sum()) for wk in weights]
    out = np.empty((len(taus), len(thetas)))
    for i, tau in enumerate(taus):
        C = math.exp(-tau / T)
        phase = 2.0 * tau * b
        c, s = np.cos(phase), np.sin(phase)
        m = [0.5 * tot + 0.5 * C * (cos_t * (wk @ c) - sin_t * (wk @ s)) for wk, tot in zip(weights, totals)]
        ev = np.zeros(len(thetas))
        for m0, m1, m2 in (m, [tot - mk for tot, mk in zip(totals, m)]):
            ok = m0 > 1e-300
            mm = np.where(ok, m0, 1.0)
            ev += np.where(ok, m0 * np.maximum(m2 / mm - (m1 / mm) ** 2, 0.0), 0.0)
        out[i] = ev
    return out


def first_tied(scores: np.ndarray) -> tuple[int, int]:
    """Tie rule: smallest tau index, then smallest theta index, within TIE_TOL of the best."""
    ti, hi = np.argwhere(scores >= scores.max() - TIE_TOL)[0]
    return int(ti), int(hi)


def is_tie_rule_choice(scores: np.ndarray, cell: tuple[int, int]) -> bool:
    """Whether ``cell`` is the tie-rule argmax of ``scores``, up to TIE_SLACK.

    The chosen cell must clear the tie threshold and every cell before it
    in (tau, theta) order must miss it.
    """
    threshold = scores.max() - TIE_TOL
    flat = np.ravel_multi_index(cell, scores.shape)
    ordered = scores.ravel()
    return bool(ordered[flat] >= threshold - TIE_SLACK and np.all(ordered[:flat] < threshold + TIE_SLACK))


def cell_index(grid: np.ndarray, value: float, period: float | None = None) -> int | None:
    """Index of the grid entry equal to ``value`` (to 1e-12 relative), else None."""
    if period is not None:
        value = value % period
    i = int(np.argmin(np.abs(grid - value)))
    return i if abs(grid[i] - value) <= 1e-12 * max(1.0, abs(value)) else None


def l0_point(tau: float, theta: float, T: float, b) -> np.ndarray:
    """Outcome-0 probability at field value(s) b."""
    return 0.5 + 0.5 * math.exp(-tau / T) * np.cos(2.0 * tau * np.asarray(b, dtype=float) + theta)


def update(density: np.ndarray, b: np.ndarray, w: np.ndarray, tau: float, theta: float, T: float, x: int) -> np.ndarray:
    l0 = l0_point(tau, theta, T, b)
    post = (l0 if x == 0 else 1.0 - l0) * density
    return post / (w @ post)


def gaussian(b: np.ndarray, w: np.ndarray, mean: float, std: float) -> np.ndarray:
    z = (b - mean) / std
    d = np.exp(-0.5 * z * z)
    return d / (w @ d)


def stats(density: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(entropy, std, mean) of a density on the grid."""
    q = w * density
    m1 = float(q @ b)
    var = max(float(q @ (b * b)) - m1 * m1, 0.0)
    return float(-(w @ xlogy(density, density))), math.sqrt(var), m1


def mi_scalar(b: np.ndarray, w: np.ndarray, density: np.ndarray, tau: float, theta: float, T: float) -> float:
    return float(mi_cells(w * density, b, [tau], [theta], T)[0, 0])


def alpha_quadrature(j_max: int, n_panels: int = 2**16) -> np.ndarray:
    """Cosine coefficients of h((1 + cos x) / 2) over one period, by midpoint rule."""
    x = (np.arange(n_panels) + 0.5) * (TWO_PI / n_panels)
    h = _h(0.5 * (1.0 + np.cos(x)))
    j = np.arange(j_max + 1)[:, None]
    coeffs = 2.0 * (np.cos(2.0 * j * x) @ h) / n_panels
    coeffs[0] *= 0.5
    return coeffs


def binomial_series(j: int, term_cap: int) -> float:
    """Sum of C(2m, m+j) 4^-m (m - 2(j+1)^2) / (2m(2m-1)(m+j+1)) for m = j..term_cap.

    Used as a calibration kernel: the same array work as the closed alpha
    series for one coefficient, without its stop rule.
    """
    m = np.arange(j, term_cap + 1, dtype=float)
    ratios = (2.0 * m[:-1] + 1.0) * (m[:-1] + 1.0) / (2.0 * (m[:-1] + 1.0 + j) * (m[:-1] + 1.0 - j))
    weights = np.empty_like(m)
    weights[0] = 0.25**j
    weights[1:] = np.cumprod(ratios) * weights[0]
    terms = weights * (m - 2.0 * (j + 1) ** 2) / (2.0 * m * (2.0 * m - 1.0) * (m + j + 1.0))
    return float(np.sum(terms))


def simulate_compare(cfg: dict, kind: str) -> list[tuple[float, float, float, float]]:
    """Per-step (mean_entropy, std_entropy, mean_std, std_std) of one `compare` policy.

    ``cfg`` holds the same keys as a `compare` config file.  Trial i draws
    from numpy's default_rng([master_seed, i]): the true field first (when
    it is sampled), then per step the random policy's two uniforms and one
    uniform for the outcome.
    """
    b, w = grid_points(cfg["b_min"], cfg["b_max"], cfg["n_points"])
    T = cfg["coherence_time"]
    taus = tau_grid(cfg["tau_min"], cfg["tau_max"], cfg["tau_grid_size"])
    thetas = theta_grid(cfg["theta_grid_size"])
    prior = gaussian(b, w, cfg["prior_mean"], cfg["prior_std"])
    ent = np.empty((cfg["n_realizations"], cfg["n_measurements"]))
    std = np.empty_like(ent)
    for i in range(cfg["n_realizations"]):
        rng = np.random.default_rng([int(cfg["master_seed"]), i])
        b_true = float(rng.normal(cfg["prior_mean"], cfg["prior_std"]))
        density = prior
        tau = theta = None
        x = 0
        for step in range(cfg["n_measurements"]):
            if kind == "random":
                tau = float(rng.uniform(cfg["tau_min"], cfg["tau_max"]))
                theta = float(rng.uniform(0.0, TWO_PI))
            elif kind == "kpe":
                if step == 0:
                    tau, theta = cfg["kpe_tau0"], cfg["kpe_theta0"] % TWO_PI
                else:
                    tau, theta = 0.5 * tau, (0.5 * (theta + math.pi * x)) % TWO_PI
            else:
                if kind == "myopic_entropy":
                    scores = mi_cells(w * density, b, taus, thetas, T)
                else:
                    scores = -expected_variance_cells(w * density, b, taus, thetas, T)
                ti, hi = first_tied(scores)
                tau, theta = float(taus[ti]), float(thetas[hi])
            x = 0 if rng.random() < float(l0_point(tau, theta, T, b_true)) else 1
            density = update(density, b, w, tau, theta, T, x)
            ent[i, step], std[i, step], _ = stats(density, b, w)
    return list(zip(ent.mean(0), ent.std(0), std.mean(0), std.std(0)))
