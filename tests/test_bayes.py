import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import xlogy

from ramsey_sched.bayes import (
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    ZeroEvidence,
    bayes_update,
    binary_entropy,
    distribution_from_density,
    entropy,
    expected_posterior_functional,
    gaussian_distribution,
    likelihood,
    mean,
    mutual_information,
    mutual_information_over_coherence,
    predictive_prob,
    spike_distribution,
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
        d = spike_distribution(GRID, 2.0)
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
        d = spike_distribution(grid, 0.0)
        # outcome 0 impossible exactly at b = 0 for tau=1, theta=pi, T=inf
        p = RamseyParams(1.0, math.pi)
        with pytest.raises(ZeroEvidence):
            bayes_update(d, p, 0)

    def test_renormalized(self):
        d = _random_mixture(GRID, 11)
        for seed in range(5):
            d = bayes_update(d, _random_params(seed), seed % 2)
        assert GRID.integrate(d.density) == pytest.approx(1.0, abs=1e-9)


class TestXlogx:
    @pytest.mark.parametrize("top", [1.0, 5.0])
    def test_within_two_ulp_of_xlogy(self, top):
        rng = np.random.default_rng(int(top))
        x = top * (1.0 - rng.random(100_000))  # in (0, top]
        ref = xlogy(x, x)
        assert np.all(np.abs(xlogx(x) - ref) <= 2 * np.spacing(np.abs(ref)))

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

    def test_uniform_entropy(self):
        d = uniform_distribution(GRID, -10.0, 10.0)
        assert entropy(d) == pytest.approx(math.log(20.0), abs=1e-3)

    def test_entropy_with_exact_zeros(self):
        d = uniform_distribution(GRID, -5.0, 5.0)
        assert np.isfinite(entropy(d))

    def test_spike_variance(self):
        d = spike_distribution(GRID, 1.0)
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
    """The shared-fringe scorer against the scalar oracle, value by value."""

    TIMES = [0.3, 2.0, 2.0, 10.0, math.inf]

    @staticmethod
    def _posterior():
        # a multi-modal posterior: a prior after three shots at finite T
        d = gaussian_distribution(FieldGrid(-20.0, 20.0, 2**12), 0.4, 2.5)
        for tau, theta, x in [(0.6, 0.2, 0), (1.3, 2.9, 1), (2.7, 5.5, 0)]:
            d = bayes_update(d, RamseyParams(tau, theta, 7.0), x)
        return d

    @pytest.mark.parametrize("tau, theta", [(0.0, 0.7), (0.05, -1.0), (1.37, 7.5), (4.9, 3.0)])
    def test_bit_identical_to_the_oracle(self, tau, theta):
        d = self._posterior()
        got = mutual_information_over_coherence(d, tau, theta, self.TIMES)
        expect = [mutual_information(d, RamseyParams(tau, theta, T)) for T in self.TIMES]
        assert got.tolist() == expect

    def test_no_coherence_times(self):
        got = mutual_information_over_coherence(self._posterior(), 1.0, 0.0, [])
        assert got.shape == (0,)

    @pytest.mark.parametrize("times, tau, theta, message", [
        ([2.0, 0.0], 1.0, 0.0, "coherence_time > 0, got 0.0"),
        ([math.nan], 1.0, 0.0, "coherence_time > 0, got nan"),
        ([2.0], -1.0, 0.0, "finite tau >= 0, got -1.0"),
        ([2.0], 1.0, math.inf, "finite theta, got inf"),
    ])
    def test_validates_as_ramsey_params(self, times, tau, theta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            mutual_information_over_coherence(self._posterior(), tau, theta, times)

class TestExpectedPosteriorFunctional:
    def test_tau_zero_entropy(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = RamseyParams(0.0, 0.9)
        assert expected_posterior_functional(d, p, "entropy") == pytest.approx(entropy(d), abs=1e-10)

    def test_tau_zero_variance(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = RamseyParams(0.0, 0.9)
        assert expected_posterior_functional(d, p, "variance") == pytest.approx(variance(d), abs=1e-10)

    @given(st.integers(0, 200))
    def test_entropy_identity(self, seed):
        d = _random_mixture(GRID, seed)
        p = _random_params(seed)
        lhs = expected_posterior_functional(d, p, "entropy")
        rhs = entropy(d) - mutual_information(d, p)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_unknown_tag(self):
        d = uniform_distribution(GRID)
        with pytest.raises(ValueError):
            expected_posterior_functional(d, RamseyParams(1.0, 0.0), "mode")

    def test_one_sided_zero_evidence_is_fine(self):
        # spike where outcome 0 is certain: the impossible branch is skipped
        d = spike_distribution(GRID, 0.0)
        p = RamseyParams(0.0, 0.0)  # likelihood(0) = 1 everywhere
        assert expected_posterior_functional(d, p, "variance") == pytest.approx(0.0, abs=1e-12)


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
