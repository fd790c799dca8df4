import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import xlogy

from ramsey_sched.bayes import (
    NORMALIZATION_TOL,
    ZERO_EVIDENCE_FLOOR,
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    ZeroEvidence,
    _fringe,
    bayes_update,
    binary_entropy,
    distribution_from_density,
    dot,
    entropy,
    expected_posterior_functional,
    gaussian_distribution,
    likelihood,
    mean,
    mutual_information,
    mutual_information_surface,
    predictive_prob,
    uniform_distribution,
    variance,
    xlogx,
)
from ramsey_sched.fourier import alpha_series_quadrature

LN2 = math.log(2.0)

GRID = FieldGrid(-20.0, 20.0, 2**14)

# Exact-period window for the wide-uniform checks: 16 pi holds a whole
# number of fringes for every tau that is a multiple of 1/8.
PERIODIC_GRID = FieldGrid(-8.0 * math.pi, 8.0 * math.pi, 2**14)


def _spike(grid: FieldGrid, b0: float) -> FieldDistribution:
    """All probability mass on the grid point nearest b0: a one-hot density, normalized."""
    return distribution_from_density(grid, np.arange(grid.n_points) == np.argmin(np.abs(grid.points - b0)))


def _random_mixture(grid: FieldGrid, seed: int) -> FieldDistribution:
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(1, 4))
    dens = np.zeros(grid.n_points)
    for _ in range(n_modes):
        mu = rng.uniform(grid.b_min * 0.5, grid.b_max * 0.5)
        sig = rng.uniform(0.2, 3.0)
        dens += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((grid.points - mu) / sig) ** 2)
    return distribution_from_density(grid, dens)


def _random_params(seed: int) -> RamseyParams:
    rng = np.random.default_rng(seed + 10_000)
    coherence = math.inf if rng.random() < 0.3 else float(rng.uniform(0.5, 30.0))
    return RamseyParams(
        tau=float(rng.uniform(0.01, 6.0)),
        theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        coherence_time=coherence,
    )


class TestFieldGrid:
    def test_spacing(self):
        g = FieldGrid(0.0, 1.0, 5)
        assert g.spacing == pytest.approx(0.25)
        assert g.integrate(np.ones(5)) == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            FieldGrid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            FieldGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("b_min, b_max", [
        (-20.0, math.inf), (-math.inf, 20.0), (math.nan, 20.0), (-20.0, math.nan),
    ])
    def test_non_finite_bounds_rejected(self, b_min, b_max):
        # an infinite bound makes every point and weight inf or nan
        with pytest.raises(ValueError, match=rf"require finite b_min < b_max, got \[{b_min}, {b_max}\]"):
            FieldGrid(b_min, b_max, 16)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b_min, b_max", [(-1e200, 1e200), (-1.7e308, 1.7e308), (0.0, 1e155)])
    def test_overflowing_square_or_spacing_rejected(self, b_min, b_max):
        # b^2 (the cached points_squared) or b_max - b_min overflows; the
        # check itself raises no warning
        msg = re.escape(f"require finite b_min^2 and b_max^2, got [{b_min}, {b_max}]")
        with pytest.raises(ValueError, match=msg):
            FieldGrid(b_min, b_max, 4)

    def test_points_squared_is_read_only(self):
        assert np.array_equal(GRID.points_squared, GRID.points * GRID.points)
        with pytest.raises(ValueError):
            GRID.points_squared[0] = 0.0


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestDot:
    @pytest.mark.parametrize("n", [1, 2, 4096, 8191, 8192])
    def test_one_blas_dot_up_to_8192_points(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        assert _bits(dot(a, b)) == _bits(float(a @ b))

    @pytest.mark.parametrize("n", [16384, 16385, 3 * 8192 + 7])
    def test_chunk_dots_summed_left_to_right(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        total = 0.0
        for i in range(0, n, 8192):
            total += float(a[i : i + 8192] @ b[i : i + 8192])
        assert _bits(dot(a, b)) == _bits(total)

    def test_integrate_and_variance_keep_their_bits_at_4096_points(self):
        grid = FieldGrid(-20.0, 20.0, 4096)
        d = _random_mixture(grid, 5)
        assert _bits(grid.integrate(d.density)) == _bits(float(grid.trapz_weights @ d.density))
        q = grid.trapz_weights * d.density
        m1 = float(q @ grid.points)
        m2 = float(q @ (grid.points * grid.points))
        assert _bits(variance(d)) == _bits(max(m2 - m1 * m1, 0.0))


class TestFieldDistribution:
    def test_rejects_negative_density(self):
        dens = np.full(GRID.n_points, 1.0 / (GRID.b_max - GRID.b_min))
        dens[3] = -1e-6
        with pytest.raises(ValueError):
            FieldDistribution(GRID, dens)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FieldDistribution(GRID, np.full(GRID.n_points, 1.0))

    def test_immutable(self):
        d = uniform_distribution(GRID)
        with pytest.raises(ValueError):
            d.density[0] = 2.0

    @pytest.mark.parametrize("std", [0.0, -1.0, math.inf, math.nan])
    def test_gaussian_needs_finite_positive_std(self, std):
        # an infinite std gives z = 0 at every point: a uniform prior in disguise
        with pytest.raises(ValueError, match=f"require finite std > 0, got {std}"):
            gaussian_distribution(GRID, 0.0, std)

    @pytest.mark.parametrize("mean", [math.inf, -math.inf, math.nan])
    def test_gaussian_needs_finite_mean(self, mean):
        with pytest.raises(ValueError, match=f"require finite mean, got {mean}"):
            gaussian_distribution(GRID, mean, 2.0)


class TestLikelihood:
    def test_tau_zero_theta_zero_is_certain(self):
        p = RamseyParams(0.0, 0.0)
        assert likelihood(0, 17.3, p) == 1.0

    def test_pi_phase_at_zero_field(self):
        p = RamseyParams(1.0, math.pi)
        assert likelihood(1, 0.0, p) == 1.0

    def test_quadrature_phase_gives_half(self):
        # 2 b tau + theta = pi/2
        p = RamseyParams(1.0, 0.0, coherence_time=3.0)
        b = math.pi / 4.0
        assert likelihood(0, b, p) == pytest.approx(0.5, abs=1e-15)

    @given(
        st.floats(-50, 50),
        st.floats(0, 10),
        st.floats(0, 7),
        st.floats(0.1, 100) | st.just(math.inf),
    )
    def test_completeness_exact(self, b, tau, theta, T):
        p = RamseyParams(tau, theta, T)
        assert likelihood(0, b, p) + likelihood(1, b, p) == 1.0

    def test_vectorized(self):
        p = RamseyParams(0.7, 1.1, 4.0)
        b = np.linspace(-3, 3, 11)
        vals = likelihood(0, b, p)
        assert vals.shape == (11,)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_invalid_outcome(self):
        with pytest.raises(ValueError):
            likelihood(2, 0.0, RamseyParams(1.0, 0.0))


class TestRamseyParams:
    def test_theta_wrapped(self):
        assert RamseyParams(1.0, -0.5).theta == pytest.approx(2 * math.pi - 0.5)
        assert RamseyParams(1.0, 2 * math.pi + 0.25).theta == pytest.approx(0.25)

    def test_infinite_coherence_contrast_exactly_one(self):
        assert RamseyParams(3.0, 0.0, math.inf).contrast == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RamseyParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            RamseyParams(1.0, 0.0, coherence_time=0.0)

    @pytest.mark.parametrize("tau, theta, named", [
        (math.inf, 0.0, "tau"), (math.nan, 0.0, "tau"),
        (1.0, math.inf, "theta"), (1.0, -math.inf, "theta"), (1.0, math.nan, "theta"),
    ])
    def test_non_finite_controls_rejected(self, tau, theta, named):
        # an infinite theta would wrap to nan, an infinite tau has no phase
        with pytest.raises(ValueError, match=f"finite {named}"):
            RamseyParams(tau, theta)


class TestPredictiveProb:
    def test_spike_sifts_likelihood(self):
        d = _spike(GRID, 2.0)
        p = RamseyParams(1.3, 0.7, 6.0)
        b_star = GRID.points[int(np.argmin(np.abs(GRID.points - 2.0)))]
        assert predictive_prob(d, p, 0) == pytest.approx(likelihood(0, b_star, p), abs=1e-12)

    def test_gaussian_characteristic_function(self):
        # frozen oracle: adaptive quadrature of likelihood x normal pdf,
        # independent of the library grid; matches the analytic value
        # 1/2 + exp(-tau/T) exp(-2 (tau sigma)^2) cos(2 B0 tau + theta)/2.
        B0, sig, tau, theta, T = 0.7, 1.3, 0.9, 0.4, 5.0
        oracle = quad(
            lambda b: (0.5 + 0.5 * math.exp(-tau / T) * math.cos(2 * b * tau + theta))
            * math.exp(-0.5 * ((b - B0) / sig) ** 2)
            / (sig * math.sqrt(2 * math.pi)),
            B0 - 60 * sig,
            B0 + 60 * sig,
            limit=800,
        )[0]
        assert oracle == pytest.approx(0.497592356496483, abs=1e-12)
        d = gaussian_distribution(GRID, B0, sig)
        assert predictive_prob(d, RamseyParams(tau, theta, T), 0) == pytest.approx(oracle, abs=1e-9)

    def test_fully_decohered_is_half(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = RamseyParams(100.0 * 0.5, 0.9, coherence_time=0.5)
        assert predictive_prob(d, p, 0) == pytest.approx(0.5, abs=1e-12)

    def test_outcomes_sum_to_one(self):
        d = _random_mixture(GRID, 3)
        p = _random_params(3)
        total = predictive_prob(d, p, 0) + predictive_prob(d, p, 1)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBayesUpdate:
    def test_uniform_prior_single_update_shape(self):
        d = uniform_distribution(GRID)
        p = RamseyParams(1.2, 0.5, 4.0)
        post = bayes_update(d, p, 0)
        expected = (1.0 + p.contrast * np.cos(2 * 1.2 * GRID.points + 0.5)) * d.density
        expected /= GRID.integrate(expected)
        np.testing.assert_allclose(post.density, expected, atol=1e-12)

    def test_tau_zero_posterior_equals_prior(self):
        d = gaussian_distribution(GRID, 1.0, 2.0)
        p = RamseyParams(0.0, 0.8)
        post = bayes_update(d, p, 0)
        np.testing.assert_allclose(post.density, d.density, atol=1e-12)
        assert post.grid is d.grid

    def test_two_updates_opposite_outcomes(self):
        # one 0 and one 1 at the same controls leaves 1 - c^2 cos^2
        d = uniform_distribution(GRID)
        p = RamseyParams(0.9, 0.3, 5.0)
        post = bayes_update(bayes_update(d, p, 0), p, 1)
        shape = 1.0 - (p.contrast * np.cos(2 * 0.9 * GRID.points + 0.3)) ** 2
        expected = shape * d.density
        expected /= GRID.integrate(expected)
        np.testing.assert_allclose(post.density, expected, atol=1e-12)

    def test_zero_evidence_raises(self):
        grid = FieldGrid(-20.0, 20.0, 2**14 + 1)  # odd count puts 0 on the grid
        d = _spike(grid, 0.0)
        # outcome 0 impossible exactly at b = 0 for tau=1, theta=pi, T=inf
        p = RamseyParams(1.0, math.pi)
        with pytest.raises(ZeroEvidence):
            bayes_update(d, p, 0)

    def test_positive_evidence_at_the_floor_raises(self):
        # the spike of test_zero_evidence_raises plus a 1e-300 tail at the
        # grid edge, where outcome 0 is possible: finite evidence, > 0, <= floor
        grid = FieldGrid(-20.0, 20.0, 2**14 + 1)
        dens = _spike(grid, 0.0).density.copy()
        dens[0] = 1e-300
        d = FieldDistribution(grid, dens)
        p = RamseyParams(1.0, math.pi)
        assert 0.0 < predictive_prob(d, p, 0) <= ZERO_EVIDENCE_FLOOR
        with pytest.raises(ZeroEvidence, match=r"^outcome 0 has predictive probability .* under the prior$"):
            bayes_update(d, p, 0)

    @pytest.mark.parametrize("x", [0, 1])
    def test_non_finite_evidence_is_a_plain_value_error(self, x):
        # 2 tau b overflows to +-inf, so the fringe is nan at every point
        d = gaussian_distribution(GRID, 0.0, 2.0)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=rf"^outcome {x} has non-finite predictive probability nan$"
        ) as info:
            bayes_update(d, RamseyParams(1e308, 0.3), x)
        assert not isinstance(info.value, ZeroEvidence)

    @pytest.mark.parametrize("x", [-1, 2])
    def test_outcome_must_be_binary(self, x):
        with pytest.raises(ValueError, match=f"outcome must be 0 or 1, got {x}"):
            bayes_update(uniform_distribution(GRID), RamseyParams(1.0, 0.0), x)

    @pytest.mark.parametrize("n", [4096, 16385])
    @pytest.mark.parametrize("coherence", [2.0, math.inf])
    @pytest.mark.parametrize("tau", [0.0, 0.01, 4.0])
    @pytest.mark.parametrize("x", [0, 1])
    def test_one_buffer_update_matches_the_likelihood_oracle(self, x, tau, coherence, n):
        grid = FieldGrid(-20.0, 20.0, n)
        d = _random_mixture(grid, n)
        p = RamseyParams(tau, 0.7, coherence)
        unnormalized = likelihood(x, grid.points, p) * d.density
        expected = FieldDistribution(grid, unnormalized / grid.integrate(unnormalized))
        post = bayes_update(d, p, x)
        assert post.grid is grid
        assert np.array_equal(_bits(post.density), _bits(expected.density))
        assert not post.density.flags.writeable
        assert abs(grid.integrate(post.density) - 1.0) <= NORMALIZATION_TOL

    def test_renormalized(self):
        d = _random_mixture(GRID, 11)
        for seed in range(5):
            d = bayes_update(d, _random_params(seed), seed % 2)
        assert GRID.integrate(d.density) == pytest.approx(1.0, abs=1e-9)


def _peak_grid_arrays(call) -> float:
    """Peak memory traced during ``call()``, in GRID-length float arrays."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * GRID.n_points)
    finally:
        tracemalloc.stop()


class TestOneBuffer:
    """The fringe, each likelihood and the update each allocate one grid array."""

    @pytest.mark.parametrize("call", [
        lambda d, p: _fringe(d.grid.points, p),
        lambda d, p: likelihood(0, d.grid.points, p),
        lambda d, p: likelihood(1, d.grid.points, p),
        lambda d, p: bayes_update(d, p, 1),
    ], ids=["fringe", "likelihood-0", "likelihood-1", "bayes_update"])
    def test_peak_is_one_grid_array(self, call):
        d = gaussian_distribution(GRID, 0.5, 2.0)
        p = RamseyParams(1.3, 0.7, 4.0)
        assert _peak_grid_arrays(lambda: call(d, p)) <= 1.1


def _xlogx_points(top):
    """100 000 points in (0, top], or the edge points 0, the smallest
    subnormal, the smallest normal and 1 when top is None."""
    if top is None:
        return np.array([0.0, 5e-324, np.finfo(float).tiny, 1.0])
    return top * (1.0 - np.random.default_rng(int(top)).random(100_000))


class TestXlogx:
    @pytest.mark.parametrize("top", [1.0, 5.0])
    def test_within_two_ulp_of_xlogy(self, top):
        x = _xlogx_points(top)
        ref = xlogy(x, x)
        assert np.all(np.abs(xlogx(x) - ref) <= 2 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("top", [None, 1.0, 5.0])
    def test_out_takes_the_same_bits(self, top):
        x = _xlogx_points(top)
        buf = np.full_like(x, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = xlogx(x, out=buf)
        assert got is buf
        assert np.array_equal(buf.view(np.int64), xlogx(x).view(np.int64))

    def test_exact_zero_at_zero_and_one_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert xlogx(0.0) == 0.0 and xlogx(1.0) == 0.0
            assert np.array_equal(xlogx(np.array([0.0, 1.0, 0.0])), np.zeros(3))


class TestEntropyVariance:
    def test_gaussian_entropy(self):
        sigma = 1.5  # spans ~600 grid points
        d = gaussian_distribution(GRID, 0.0, sigma)
        assert entropy(d) == pytest.approx(0.5 * math.log(2 * math.pi * math.e * sigma**2), abs=1e-3)

    @staticmethod
    def _window(lo, hi):
        """Uniform density over [lo, hi], zero elsewhere on the grid."""
        inside = (GRID.points >= lo) & (GRID.points <= hi)
        return distribution_from_density(GRID, inside.astype(float))

    def test_uniform_entropy(self):
        d = self._window(-10.0, 10.0)
        assert entropy(d) == pytest.approx(math.log(20.0), abs=1e-3)

    def test_entropy_with_exact_zeros(self):
        d = self._window(-5.0, 5.0)
        assert np.isfinite(entropy(d))

    def test_spike_variance(self):
        d = _spike(GRID, 1.0)
        assert variance(d) <= GRID.spacing**2

    def test_gaussian_variance(self):
        sigma = 1.5
        d = gaussian_distribution(GRID, -2.0, sigma)
        assert variance(d) == pytest.approx(sigma**2, rel=1e-3)

    def test_bimodal_variance_mixture_identity(self):
        # equal-mass modes at +-a with per-mode std s: variance a^2 + s^2
        a, s = 4.0, 0.8
        dens = np.exp(-0.5 * ((GRID.points - a) / s) ** 2) + np.exp(
            -0.5 * ((GRID.points + a) / s) ** 2
        )
        d = distribution_from_density(GRID, dens)
        assert variance(d) == pytest.approx(a**2 + s**2, rel=1e-6)


class TestMutualInformation:
    def test_tau_zero_is_zero(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        assert abs(mutual_information(d, RamseyParams(0.0, 0.7))) < 1e-12

    def test_fully_decohered_is_zero(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = RamseyParams(100.0 * 0.3, 0.0, coherence_time=0.3)
        assert abs(mutual_information(d, p)) < 1e-10

    def test_wide_uniform_equals_ln2_minus_profile_mean(self):
        # cross-module identity against the quadrature coefficient j=0
        d = uniform_distribution(PERIODIC_GRID)
        alpha0 = float(alpha_series_quadrature(0)[0])
        for tau, theta in [(1.0, 0.3), (2.0, 5.1), (0.5, 0.0)]:
            mi = mutual_information(d, RamseyParams(tau, theta))
            assert mi == pytest.approx(LN2 - alpha0, abs=1e-9)

    @given(st.integers(0, 200))
    def test_bounds(self, seed):
        d = _random_mixture(GRID, seed)
        p = _random_params(seed)
        mi = mutual_information(d, p)
        assert -1e-10 <= mi <= LN2 + 1e-10

    def test_monotone_in_coherence_time(self):
        d = gaussian_distribution(GRID, 0.5, 1.8)
        values = [
            mutual_information(d, RamseyParams(1.0, 0.7, T))
            for T in [0.5, 1.0, 2.0, 5.0, 10.0, 100.0, math.inf]
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))



class TestMutualInformationOverCoherence:
    """The (T, tau) surface kernel against the scalar oracle, cell by cell."""

    TIMES = [0.3, 2.0, 2.0, 10.0, math.inf]

    @staticmethod
    def _posterior():
        # a multi-modal posterior: a prior after three shots at finite T
        d = gaussian_distribution(FieldGrid(-20.0, 20.0, 2**12), 0.4, 2.5)
        for tau, theta, x in [(0.6, 0.2, 0), (1.3, 2.9, 1), (2.7, 5.5, 0)]:
            d = bayes_update(d, RamseyParams(tau, theta, 7.0), x)
        return d

    @staticmethod
    def _oracle(d, taus, theta, times):
        return [[mutual_information(d, RamseyParams(tau, theta, T)) for tau in taus] for T in times]

    @pytest.mark.parametrize("tau, theta", [(0.0, 0.7), (0.05, -1.0), (1.37, 7.5), (4.9, 3.0)])
    def test_bit_identical_to_the_oracle(self, tau, theta):
        # the column sits between others, so its block reuses their scratch
        d = self._posterior()
        taus = [2.2, tau, 0.0]
        got = mutual_information_surface(d, taus, theta, self.TIMES)
        assert got.shape == (len(self.TIMES), len(taus))
        assert got.tolist() == self._oracle(d, taus, theta, self.TIMES)

    def test_grid_bit_identical_to_the_oracle(self):
        # tau from 0, theta outside [0, 2 pi), T = 0.3, a repeated T and T = inf
        d = self._posterior()
        taus = [float(tau) for tau in np.linspace(0.0, 5.0, 17)]
        got = mutual_information_surface(d, taus, 7.5, self.TIMES)
        assert got.tolist() == self._oracle(d, taus, 7.5, self.TIMES)

    def test_no_coherence_times(self):
        got = mutual_information_surface(self._posterior(), [1.0, 2.0], 0.0, [])
        assert got.shape == (0, 2)

    def test_no_exposure_times(self):
        got = mutual_information_surface(self._posterior(), [], 0.0, self.TIMES)
        assert got.shape == (len(self.TIMES), 0)

    @pytest.mark.parametrize("times, tau, theta, message", [
        ([2.0, 0.0], 1.0, 0.0, "coherence_time > 0, got 0.0"),
        ([math.nan], 1.0, 0.0, "coherence_time > 0, got nan"),
        ([2.0], -1.0, 0.0, "finite tau >= 0, got -1.0"),
        ([2.0], 1.0, math.inf, "finite theta, got inf"),
    ])
    def test_validates_as_ramsey_params(self, times, tau, theta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            mutual_information_surface(self._posterior(), [0.5, tau], theta, times)


class TestExpectedPosteriorFunctional:
    def test_tau_zero_entropy(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = RamseyParams(0.0, 0.9)
        assert expected_posterior_functional(d, p, entropy) == pytest.approx(entropy(d), abs=1e-10)

    def test_tau_zero_variance(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = RamseyParams(0.0, 0.9)
        assert expected_posterior_functional(d, p, variance) == pytest.approx(variance(d), abs=1e-10)

    @given(st.integers(0, 200))
    def test_entropy_identity(self, seed):
        d = _random_mixture(GRID, seed)
        p = _random_params(seed)
        lhs = expected_posterior_functional(d, p, entropy)
        rhs = entropy(d) - mutual_information(d, p)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_one_sided_zero_evidence_is_fine(self):
        # spike where outcome 0 is certain: the impossible branch is skipped
        d = _spike(GRID, 0.0)
        p = RamseyParams(0.0, 0.0)  # likelihood(0) = 1 everywhere
        assert expected_posterior_functional(d, p, variance) == pytest.approx(0.0, abs=1e-12)


class TestInvariants:
    @given(st.integers(0, 100))
    def test_update_order_independence(self, seed):
        d = _random_mixture(GRID, seed)
        p1, p2 = _random_params(seed), _random_params(seed + 523)
        a = bayes_update(bayes_update(d, p1, 0), p2, 1)
        b = bayes_update(bayes_update(d, p2, 1), p1, 0)
        np.testing.assert_allclose(a.density, b.density, atol=1e-10)

    @given(st.integers(0, 100))
    def test_normalization_after_updates(self, seed):
        d = _random_mixture(GRID, seed)
        rng = np.random.default_rng(seed)
        for k in range(4):
            p = _random_params(seed * 7 + k)
            x = int(rng.integers(0, 2))
            if predictive_prob(d, p, x) > 1e-12:
                d = bayes_update(d, p, x)
        assert GRID.integrate(d.density) == pytest.approx(1.0, abs=1e-9)
