"""Sparse Fourier-domain analysis of periodic posteriors.

A posterior built from products of raised-cosine likelihoods has a
transform supported on finitely many frequencies.  Holding it as a list
of (frequency, amplitude) peaks makes the outcome bias and the
conditional entropy of a candidate measurement cheap to evaluate, and
gives a route to those numbers that is independent of the grid pipeline
in :mod:`ramsey_sched.bayes` -- the two paths cross-check each other.

Transform convention, fixed once and used in every phase formula here:

    F[p](xi) = integral p(b) exp(-i xi b) db

so a density term cos(w b + phi) contributes amplitude exp(+i phi)/2 at
xi = +w and the conjugate at xi = -w.  The measurement comb, the bias
and the conditional entropy hold at any contrast C = exp(-tau/T): the
outcome-entropy profile at contrast C has the closed-form cosine
coefficients a_j(C) of :func:`contrast_entropy_series`, which the
myopic policy's Fourier screen also uses.  Only
:func:`kpe_posterior_comb`, the halving schedule's triangular comb,
assumes full contrast (T = infinity).

The outcome-entropy coefficients alpha_0..alpha_j_max are a plain
read-only float array, indexed by j.  The paper's claim about them
(alpha_j < 0 and strictly increasing for j >= 1) is not built into the
array: ``ramsey-sched validate-alpha`` is where it is tested and
reported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bayes import FieldDistribution, RamseyParams, TWO_PI, binary_entropy, dot

# Peaks closer than this in frequency are merged into one.
MERGE_TOL = 1e-9

# Peaks with amplitude magnitude below this are dropped.
PRUNE_TOL = 1e-12

# Default term cap of alpha_series_closed, which requires term_cap >=
# max(2(j_max + 1)^2, _SERIES_EXACT), where coefficient j_max's exact
# terms end.  The cap only validates: no term past there is summed.
ALPHA_TERM_CAP = 600_000
# Highest j alpha_series_closed and validate-alpha accept.  The exact
# terms of every j <= 386 end inside the default cap, and the running
# product of the term ratios, about 4^j before its 4^-j scale, overflows
# at j = 518.
ALPHA_J_LIMIT = 386

# Coefficient j sums its terms exactly to at least this m, and its tail
# past there by an integral of _TAIL_INTERVALS Simpson intervals.
_SERIES_EXACT = 40_000
_TAIL_INTERVALS = 256

# Every value contrast_entropy_series returns is within this of the
# exact one (the closed forms take a few correctly rounded operations on
# numbers below 1; the worst error seen against 50-digit arithmetic is
# 3e-16).
CONTRAST_SERIES_ERR = 1e-14


@dataclass(frozen=True)
class DeltaComb:
    """Weighted point masses in the frequency domain.

    Construction canonicalizes the peak list.  Every frequency and
    amplitude must be finite.  Sorted by frequency, a peak joins the group
    of the peak below it when it lies within ``MERGE_TOL`` of that peak;
    each group becomes one peak carrying the group's summed amplitude, at
    the midpoint of its lowest and highest frequency.  Peaks of magnitude
    below ``PRUNE_TOL`` are then dropped.  Transforms of real densities are
    Hermitian (amplitude at -xi conjugate to +xi) and normalized ones carry
    amplitude 1 at xi = 0; ``is_hermitian`` and ``amplitude_at(0.0)``
    expose those invariants for checking.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if freqs.shape != amps.shape:
            raise ValueError("frequencies and amplitudes must have matching shapes")
        if not (np.isfinite(freqs).all() and np.isfinite(amps).all()):
            raise ValueError("frequencies and amplitudes must be finite")
        order = np.argsort(freqs, kind="stable")
        freqs, amps = freqs[order], amps[order]
        # gap[k]: a group boundary between sorted peaks k - 1 and k
        gap = np.diff(freqs, prepend=-np.inf, append=np.inf) > MERGE_TOL
        starts, ends = np.flatnonzero(gap[:-1]), np.flatnonzero(gap[1:])
        lo = freqs[starts]
        freqs = lo + 0.5 * (freqs[ends] - lo)
        amps = np.add.reduceat(amps, starts)
        keep = np.abs(amps) >= PRUNE_TOL
        freqs, amps = freqs[keep], amps[keep]
        freqs.flags.writeable = False
        amps.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "amplitudes", amps)

    def __len__(self) -> int:
        return len(self.frequencies)

    def amplitude_at(self, xi):
        """Amplitude of the peak nearest xi (a tie goes to the lower peak)
        if it lies within ``MERGE_TOL``, else 0.

        A float xi gives a complex, an array of them a complex array.
        """
        xi = np.asarray(xi, dtype=float)
        f = self.frequencies
        out = np.zeros(xi.shape, dtype=complex)
        if len(f):
            i = np.searchsorted(f, xi)
            lo, hi = np.maximum(i - 1, 0), np.minimum(i, len(f) - 1)
            d_lo, d_hi = np.abs(xi - f[lo]), np.abs(f[hi] - xi)
            nearest = np.where(d_lo <= d_hi, lo, hi)
            out = np.where(np.minimum(d_lo, d_hi) <= MERGE_TOL, self.amplitudes[nearest], 0.0)
        return complex(out) if out.ndim == 0 else out

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        mirrored = self.amplitude_at(-self.frequencies)
        return bool(np.all(np.abs(mirrored - np.conj(self.amplitudes)) <= tol))


def comb_from_distribution(d: FieldDistribution, frequencies) -> DeltaComb:
    """Evaluate the transform of ``d`` at the requested frequencies.

    Zero and the negated frequencies are always included, so the result
    satisfies the Hermitian and normalization invariants by construction
    (up to quadrature roundoff).
    """
    req = np.atleast_1d(np.asarray(frequencies, dtype=float))
    xi = np.unique(np.concatenate([req, -req, [0.0]]))
    q = d.grid.trapz_weights * d.density
    amps = np.exp(-1j * np.outer(xi, d.grid.points)) @ q
    return DeltaComb(xi, amps)


def measurement_comb(p: RamseyParams, x: int) -> DeltaComb:
    """Three-peak transform of the pointwise likelihood of outcome ``x``.

    Amplitude 1/2 at xi = 0 and a conjugate pair of magnitude
    exp(-tau/T)/4 at xi = +-2 tau carrying phase theta + pi x.  At
    tau = 0 the three peaks collapse into the single constant value of
    the likelihood.
    """
    if x not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {x!r}")
    side = 0.25 * p.contrast * np.exp(1j * (p.theta + math.pi * x))
    xi = 2.0 * p.tau
    return DeltaComb(
        np.array([-xi, 0.0, xi]),
        np.array([np.conj(side), 0.5 + 0.0j, side]),
    )


def bias_from_comb(c: DeltaComb, p: RamseyParams) -> float:
    """|Pr(outcome) - 1/2| for a measurement against prior comb ``c``.

    Only the comb amplitudes at +-2 tau enter; with no peak there the
    measurement is off-resonance and exactly unbiased.  The value is the
    same for both outcomes, and at most 1/2 even when quadrature roundoff
    leaves a comb's zero-frequency amplitude just above 1.
    """
    xi = 2.0 * p.tau
    a_plus, a_minus = c.amplitude_at([xi, -xi])
    phase = np.exp(1j * p.theta)
    return min(0.5, 0.25 * p.contrast * abs(phase * a_minus + np.conj(phase) * a_plus))


def alpha_series_quadrature(j_max: int, n_panels: int = 2**14) -> np.ndarray:
    """Cosine coefficients alpha_0..alpha_j_max of the outcome-entropy profile.

    For a full-contrast measurement the outcome entropy as a function of
    phase, h((1 + cos x) / 2), is periodic with period pi; element j of
    the returned read-only array is its j-th cosine coefficient, found by
    composite midpoint quadrature over one period.  This is the
    independent oracle for :func:`alpha_series_closed`.  The integrand is
    periodic, so the composite rule converges like the decay of the
    profile's own coefficients; the default 2**14 panels give better
    than 1e-12.
    """
    if j_max < 0:
        raise ValueError(f"require j_max >= 0, got {j_max}")
    if n_panels < 2**12:
        raise ValueError(f"require at least 2**12 panels, got {n_panels}")
    x = (np.arange(n_panels) + 0.5) * (TWO_PI / n_panels)
    h = binary_entropy(0.5 * (1.0 + np.cos(x)))
    coeffs = np.empty(j_max + 1)
    coeffs[0] = float(np.mean(h))
    # the basis cos(2 j x), built in place in one buffer; doubling is
    # exact, so (2 j) x rounds as 2 (j x) does
    basis = np.multiply.outer(2.0 * np.arange(1, j_max + 1), x)
    np.cos(basis, out=basis)
    # one bayes.dot per row, so the bits do not depend on the BLAS thread count
    coeffs[1:] = [2.0 * dot(row, h) / n_panels for row in basis]
    coeffs.flags.writeable = False
    return coeffs


def _lgamma(x: np.ndarray) -> np.ndarray:
    """math.lgamma of each element; numpy has no lgamma."""
    return np.array([math.lgamma(v) for v in x])


@functools.lru_cache(maxsize=1)
def _series_arrays(m_exact: int) -> tuple[np.ndarray, ...]:
    """The j-independent arrays of every coefficient whose exact terms end
    at m_exact, read-only: m, (m - 1/2) m and m^2 for m = 0..m_exact, and
    the tail's Simpson nodes u, x and lgamma(2x + 1).  Every j <= 140
    shares m_exact = ``_SERIES_EXACT`` and each larger j has its own, so
    one entry is all that a run over j reuses."""
    m = np.arange(m_exact + 1, dtype=float)
    half = m - 0.5
    half *= m
    u = np.arange(1, _TAIL_INTERVALS + 1) / _TAIL_INTERVALS
    x = (m_exact + 0.5) / (u * u)
    arrays = (m, half, m * m, u, x, _lgamma(2.0 * x + 1.0))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _closed_coefficient(j: int) -> float:
    """Binomial-sum form of coefficient j >= 1.

    The summand is t(m) = C(2m, m+j) 4^{-m} (m - s) / (2m(2m-1)(m+j+1))
    for m = j, j+1, ..., with s = 2(j+1)^2.  It changes sign once, at
    m = s, and past that it is positive and smooth and decays like
    m**-2.5.  So the terms m = j..M, M = max(s, ``_SERIES_EXACT``), are
    summed exactly by the running product of their ratios, and the rest
    as the integral

        sum_{m>M} t(m) ~ integral_{M+1/2}^inf t(x) dx

    of t(x) written through lgamma.  The midpoint rule's first
    correction, t'(M+1/2)/24, is at most about 1e-18 (1e-11 of alpha_j),
    so it is left out.  The integral is composite Simpson in
    u = sqrt((M+1/2)/x) over (0, 1], where the integrand behaves like
    u^2 and is 0 at u = 0.  The arrays that do not depend on j come
    from ``_series_arrays(M)``.
    """
    s = 2 * (j + 1) ** 2
    m_exact = max(s, _SERIES_EXACT)
    m_all, half_all, square_all, u, x, lgamma_2x = _series_arrays(m_exact)
    m, half = m_all[j:], half_all[j:]
    # weight(m) / weight(m - 1) = ((2m - 1) m / 2) / (m^2 - j^2); m = j
    # has no ratio, and its weight is 4^-j alone
    terms = square_all[j:] - j * j
    terms[0] = half[0]
    np.divide(half, terms, out=terms)
    np.multiply.accumulate(terms, out=terms)
    terms *= 0.25**j
    # term = weight (m - s) / (2m (2m - 1) (m + j + 1))
    den = m - s
    terms *= den
    np.add(m, j + 1, out=den)
    den *= half
    den *= 4.0
    terms /= den

    a = m_exact + 0.5
    log_t = (
        lgamma_2x - _lgamma(x + j + 1.0) - _lgamma(x - j + 1.0) - x * math.log(4.0)
        + np.log((x - s) / (2.0 * x * (2.0 * x - 1.0) * (x + j + 1.0)))
    )
    # Simpson weights 4, 2, ..., 4, 1 of u_1..u_n (u_0 = 0 adds nothing)
    simpson = np.tile([4.0, 2.0], _TAIL_INTERVALS // 2)
    simpson[-1] = 1.0
    tail = (np.exp(log_t) * 2.0 * a / u**3) @ simpson / (3.0 * _TAIL_INTERVALS)
    return float(np.sum(terms) + tail)


def alpha_series_closed(j_max: int, term_cap: int = ALPHA_TERM_CAP) -> np.ndarray:
    """Coefficients alpha_0..alpha_j_max from the closed binomial-sum series.

    Returns a read-only array laid out as :func:`alpha_series_quadrature`'s.
    The series is stated for j >= 1; the j = 0 coefficient is the profile
    mean 2 ln 2 - 1, from its closed form (:func:`contrast_entropy_series`
    at C = 1), not from the quadrature oracle.  Terms decay like
    m**-2.5: each coefficient sums them exactly up to
    m = max(2(j+1)^2, 40000) and its positive tail past there as an
    integral, so every j <= ``ALPHA_J_LIMIT`` is within 1e-9 of the exact
    alpha_j in relative terms (the worst seen is 4e-11, at j = 373).

    Both arguments are checked before any coefficient is computed:
    0 <= j_max <= ``ALPHA_J_LIMIT``, and term_cap must hold coefficient
    j_max's exact terms, term_cap >= max(2(j_max+1)^2, 40000).
    """
    if not 0 <= j_max <= ALPHA_J_LIMIT:
        raise ValueError(f"require 0 <= j_max <= {ALPHA_J_LIMIT}, got {j_max}")
    m_exact = max(2 * (j_max + 1) ** 2, _SERIES_EXACT)
    if term_cap < m_exact:
        raise ValueError(f"require term_cap >= {m_exact} for j_max = {j_max}, got {term_cap}")
    coeffs = np.empty(j_max + 1)
    coeffs[0] = contrast_entropy_series(1.0, 0)[0][0]
    for j in range(1, j_max + 1):
        coeffs[j] = _closed_coefficient(j)
    coeffs.flags.writeable = False
    return coeffs


def contrast_entropy_series(contrast: float, k: int) -> tuple[np.ndarray, float]:
    """Coefficients a_0..a_k of the outcome-entropy profile at contrast C,
    and the sum of the |a_j| it leaves out.

    A measurement of contrast C has outcome probability (1 + C cos phi)/2
    at phase phi, and its entropy h((1 + C cos phi)/2) = a_0(C) +
    sum_{j>=1} a_j(C) cos(2 j phi).  At C = 1 the a_j are the alpha_j of
    :func:`alpha_series_quadrature`.  From the one-signed series

        h((1 + x)/2) = ln 2 - sum_{n>=1} x^{2n} / (2n (2n - 1)),  x = C cos phi,

    every power of cos phi expands into cosines with positive weights, so
    each a_j(C) with j >= 1 is a sum of negative terms, a_j(C) < 0, and
    C^{2n} <= C^{2j} for n >= j gives |a_j(C)| <= C^{2j} |alpha_j|: the
    paper's sign claim holds at every C <= 1.  Summing the series through
    the Fourier series of ln(1 +- C cos phi) gives closed forms, with
    s = sqrt(1 - C^2) and r = C / (1 + s):

        a_0(C) = 2 ln 2 - 1 + s - ln(1 + s),
        a_j(C) = -r^{2j} (1 + 2 j s) / (j (4 j^2 - 1)),  j >= 1.

    At phi = 0 the profile is h((1 + C)/2), so the part the first k + 1
    terms leave out is known exactly:

        tail = sum_{j>k} |a_j(C)| = a_0(C) - h((1 + C)/2) - sum_{j<=k} |a_j(C)|,

    and the truncated profile is within tail of the full one at every
    phase.  Returns the read-only array a_0..a_k and tail; each value is
    within ``CONTRAST_SERIES_ERR`` of the exact one.
    """
    if not 0.0 <= contrast <= 1.0:
        raise ValueError(f"require contrast in [0, 1], got {contrast}")
    if k < 0:
        raise ValueError(f"require k >= 0, got {k}")
    # (1 - C)(1 + C) keeps s accurate as C -> 1, where 1 - C^2 cancels
    s = math.sqrt((1.0 - contrast) * (1.0 + contrast))
    r = contrast / (1.0 + s)
    j = np.arange(1, k + 1)
    coeffs = np.empty(k + 1)
    coeffs[0] = (2.0 * math.log(2.0) - 1.0) + (s - math.log1p(s))
    coeffs[1:] = -(r ** (2 * j)) * (1.0 + 2.0 * j * s) / (j * (4.0 * j * j - 1.0))
    coeffs.flags.writeable = False
    # h((1 + C)/2) from p1 = (1 - C)/2, exact as C -> 1
    p1 = 0.5 * (1.0 - contrast)
    h_edge = -(1.0 - p1) * math.log1p(-p1) - (p1 * math.log(p1) if p1 > 0.0 else 0.0)
    tail = float(coeffs[0] - h_edge + coeffs[1:].sum())
    return coeffs, tail


def conditional_entropy_from_comb(c: DeltaComb, p: RamseyParams) -> float:
    """H(X|B) in nats for a measurement of any contrast against comb ``c``.

    The result is the profile mean a_0(C) plus one term
    a_k(C) Re[exp(-2 i k theta) amp] per comb peak on the harmonic ladder
    xi = 4 tau k, k >= 1, with the coefficients of
    :func:`contrast_entropy_series` at the measurement's contrast; a
    diffuse comb gives a_0(C) exactly.  Agrees with the grid evaluation
    when ``c`` was built from the same wide periodic distribution.
    """
    if p.tau == 0.0:
        # the ladder base is 0: every field gives the same outcome profile
        return float(binary_entropy(0.5 * (1.0 + math.cos(p.theta))))
    base = 4.0 * p.tau
    k = np.rint(c.frequencies / base)
    on = (k >= 1) & (np.abs(c.frequencies - k * base) <= MERGE_TOL)
    k = k[on].astype(int)
    a, _ = contrast_entropy_series(p.contrast, int(k.max(initial=0)))
    return float(a[0] + a[k] @ (np.exp(-2j * k * p.theta) * c.amplitudes[on]).real)


def kpe_posterior_comb(n: int, tau1: float) -> DeltaComb:
    """Posterior comb after n halving-schedule measurements on a diffuse prior.

    Real triangular weights 1 - |j|/2**n at frequencies 2**(-n+2) tau1 j
    for j in [-(2**n - 1), 2**n - 1], expressed in the rezeroed field
    variable that absorbs the accumulated measurement phases.  The weights
    assume full contrast (T = infinity); at finite T each measurement's
    contrast shrinks them, and :func:`comb_from_distribution` of the grid
    posterior gives the comb instead.
    """
    if n < 1:
        raise ValueError(f"require n >= 1, got {n}")
    if n > 24:
        raise ValueError(f"comb with 2**{n + 1} peaks is not representable sensibly")
    if not tau1 > 0.0:
        raise ValueError(f"require tau1 > 0, got {tau1}")
    j = np.arange(-(2**n - 1), 2**n)
    xi = (2.0 ** (-n + 2)) * tau1 * j
    weights = 1.0 - np.abs(j) / 2.0**n
    return DeltaComb(xi, weights.astype(complex))
