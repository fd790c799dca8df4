import math
import tracemalloc

import numpy as np
import pytest

from ramsey_sched import fourier
from ramsey_sched.bayes import (
    FieldGrid,
    RamseyParams,
    bayes_update,
    binary_entropy,
    distribution_from_density,
    dot,
    gaussian_distribution,
    likelihood,
    mutual_information,
    predictive_prob,
    uniform_distribution,
)
from ramsey_sched.fourier import (
    ALPHA_J_LIMIT,
    CONTRAST_SERIES_ERR,
    MERGE_TOL,
    DeltaComb,
    alpha_series_closed,
    alpha_series_quadrature,
    bias_from_comb,
    comb_from_distribution,
    conditional_entropy_from_comb,
    contrast_entropy_series,
    kpe_posterior_comb,
    measurement_comb,
)

LN2 = math.log(2.0)

# Independently derived reference values for the entropy-profile cosine
# series: the mean is 2 ln 2 - 1 and coefficient j is -1/(4 j^3 - j).
ALPHA0_EXACT = 2.0 * LN2 - 1.0


def alpha_exact(j: int) -> float:
    return -1.0 / (4.0 * j**3 - j)


def periodic_grid(width_periods: float, fundamental_xi: float, n_points: int) -> FieldGrid:
    """Grid whose width is a whole number of 2*pi/fundamental_xi periods."""
    w = width_periods * 2.0 * math.pi / fundamental_xi
    return FieldGrid(-w / 2.0, w / 2.0, n_points)


class TestDeltaComb:
    def test_sorted_merged_pruned(self):
        c = DeltaComb(
            np.array([1.0, -1.0, 1.0 + 5e-10, 3.0]),
            np.array([0.5 + 0j, 0.5 - 0j, 0.25 + 0j, 1e-14 + 0j]),
        )
        np.testing.assert_allclose(c.frequencies, [-1.0, 1.0])
        assert c.amplitude_at(1.0) == pytest.approx(0.75)

    def test_amplitude_lookup_tolerance(self):
        c = DeltaComb(np.array([0.0, 2.0]), np.array([1.0 + 0j, 0.3 + 0j]))
        assert c.amplitude_at(2.0 + 5e-10) == pytest.approx(0.3)
        assert c.amplitude_at(2.1) == 0.0

    @pytest.mark.parametrize(
        "freqs, amps",
        [
            ([0.0, 1.0], [math.nan, 1.0]),
            ([0.0, 1.0], [complex(1.0, math.inf), 1.0]),
            ([math.nan, 1.0], [1.0, 1.0]),
            ([math.inf, 1.0], [1.0, 1.0]),
            ([-math.inf, 1.0], [1.0, 1.0]),
        ],
        ids=["nan-amplitude", "inf-amplitude", "nan-frequency", "inf-frequency", "-inf-frequency"],
    )
    def test_non_finite_input_raises(self, freqs, amps):
        with pytest.raises(ValueError, match="must be finite"):
            DeltaComb(freqs, amps)

    def test_empty_comb(self):
        c = DeltaComb([], [])
        assert len(c) == 0
        assert c.amplitude_at(0.0) == 0.0
        assert isinstance(c.amplitude_at(0.0), complex)
        assert c.is_hermitian()

    def test_chain_merges_into_one_peak_at_its_midpoint(self):
        # each step is within MERGE_TOL, the whole run is not
        c = DeltaComb([0.0, 6e-10, 1.2e-9], [1.0, 1.0, 1.0])
        assert c.frequencies.tolist() == [6e-10]
        assert c.amplitudes.tolist() == [3.0]

    def test_tie_goes_to_the_lower_peak(self):
        c = DeltaComb([0.0, 2e-9], [1.0, 2.0])
        assert c.amplitude_at(1e-9) == 1.0
        assert c.amplitude_at([1e-9]).tolist() == [1.0]

    def test_vectorised_lookup_equals_elementwise(self):
        c = kpe_posterior_comb(6, 4.0)
        f = c.frequencies
        mid = 0.5 * (f[:-1] + f[1:])
        xi = np.concatenate([f, mid, f - MERGE_TOL, f + MERGE_TOL, [f[0] - 1.0, f[-1] + 1.0]])
        got = c.amplitude_at(xi)
        assert got.shape == xi.shape
        assert got.tolist() == [c.amplitude_at(float(x)) for x in xi]
        # brute force: the first of the nearest peaks, if within MERGE_TOL
        dist = np.abs(f[None, :] - xi[:, None])
        nearest = np.argmin(dist, axis=1)
        expect = np.where(dist.min(axis=1) <= MERGE_TOL, c.amplitudes[nearest], 0.0)
        assert got.tolist() == expect.tolist()
        assert got[: len(f)].tolist() == c.amplitudes.tolist()
        assert not got[len(f): 2 * len(f) - 1].any()


class TestCombFromDistribution:
    def test_zero_frequency_is_one(self):
        g = FieldGrid(-20, 20, 2**13)
        d = gaussian_distribution(g, 0.3, 2.0)
        c = comb_from_distribution(d, [1.0, 2.5])
        assert abs(c.amplitude_at(0.0) - 1.0) < 1e-10
        assert c.is_hermitian(1e-10)

    def test_diffuse_prior_has_no_high_frequency_content(self):
        g = FieldGrid(-20, 20, 2**14)
        d = uniform_distribution(g)
        c = comb_from_distribution(d, [100.0, 137.7])
        assert abs(c.amplitude_at(100.0)) < 1e-3
        assert abs(c.amplitude_at(137.7)) < 1e-3

    def test_raised_cosine_pair(self):
        # density ~ 1 + cos(w b + phi) on an exact-period window: amplitude
        # exp(i phi)/2 at +w under the exp(-i xi b) convention
        w, phi = 2.0, 0.9
        g = periodic_grid(16, w, 2**14)
        d = distribution_from_density(g, 1.0 + np.cos(w * g.points + phi))
        c = comb_from_distribution(d, [w])
        amp = c.amplitude_at(w)
        assert abs(amp) == pytest.approx(0.5, abs=1e-3)
        assert amp == pytest.approx(0.5 * np.exp(1j * phi), abs=1e-6)

    def test_gaussian_characteristic_function(self):
        g = FieldGrid(-20, 20, 2**14)
        sigma = 2.0
        d = gaussian_distribution(g, 0.0, sigma)
        for xi in [0.3, 1.0, 2.0]:
            c = comb_from_distribution(d, [xi])
            assert abs(c.amplitude_at(xi)) == pytest.approx(math.exp(-0.5 * (sigma * xi) ** 2), abs=1e-6)

    def test_characteristic_bound(self):
        g = FieldGrid(-15, 15, 2**12)
        rng = np.random.default_rng(7)
        d = distribution_from_density(g, rng.uniform(0.0, 1.0, g.n_points))
        c = comb_from_distribution(d, rng.uniform(0.0, 20.0, 25))
        assert np.all(np.abs(c.amplitudes) <= 1.0 + 1e-12)


class TestMeasurementComb:
    def test_tau_zero_collapses(self):
        p = RamseyParams(0.0, 0.4)
        c = measurement_comb(p, 0)
        assert len(c) == 1
        assert c.amplitude_at(0.0) == pytest.approx(0.5 * (1.0 + math.cos(0.4)))

    def test_full_contrast_side_peaks(self):
        p = RamseyParams(1.5, 0.0)
        c = measurement_comb(p, 0)
        assert c.amplitude_at(0.0) == pytest.approx(0.5)
        assert c.amplitude_at(3.0) == pytest.approx(0.25)
        assert c.amplitude_at(-3.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("tau", [3e-10, 4.9e-10])
    def test_side_peaks_within_merge_tol_collapse_to_zero(self, tau):
        # +-2 tau lie within MERGE_TOL of the centre, though not of each other
        p = RamseyParams(tau, 0.3)
        c = measurement_comb(p, 0)
        assert c.frequencies.tolist() == [0.0]
        assert c.is_hermitian()
        assert c.amplitude_at(0.0) == pytest.approx(likelihood(0, 0.0, p), abs=1e-15)
        assert c.amplitude_at(0.0) == pytest.approx(0.97767, abs=1e-5)

    def test_outcome_flips_side_phase_by_pi(self):
        p = RamseyParams(1.0, 0.7, 4.0)
        a0 = measurement_comb(p, 0).amplitude_at(2.0)
        a1 = measurement_comb(p, 1).amplitude_at(2.0)
        assert a1 == pytest.approx(-a0, abs=1e-15)

    def test_matches_transform_of_pointwise_likelihood(self):
        # up to overall scale: side/center ratio agrees with the comb of
        # the (unnormalized) likelihood computed through the grid path
        p = RamseyParams(1.0, 1.3, 3.0)
        g = periodic_grid(8, 2.0 * p.tau, 2**14)
        vals = likelihood(0, g.points, p)
        d = distribution_from_density(g, vals)
        grid_comb = comb_from_distribution(d, [2.0 * p.tau])
        ref = measurement_comb(p, 0)
        ratio_grid = grid_comb.amplitude_at(2.0 * p.tau) / grid_comb.amplitude_at(0.0)
        ratio_ref = ref.amplitude_at(2.0 * p.tau) / ref.amplitude_at(0.0)
        assert ratio_grid == pytest.approx(ratio_ref, abs=1e-6)


class TestBiasFromComb:
    def test_diffuse_comb_no_bias(self):
        c = DeltaComb(np.array([0.0]), np.array([1.0 + 0j]))
        assert bias_from_comb(c, RamseyParams(1.7, 0.3)) == 0.0

    def test_off_resonance_no_bias(self):
        c = kpe_posterior_comb(2, 1.0)  # peaks at multiples of 1.0
        assert bias_from_comb(c, RamseyParams(0.77, 0.0)) == 0.0

    def test_off_phase_no_bias(self):
        w, phi = 2.0, 1.1
        g = periodic_grid(16, w, 2**14)
        d = distribution_from_density(g, 1.0 + np.cos(w * g.points + phi))
        c = comb_from_distribution(d, [w])
        # orthogonal phase: theta = phi +- pi/2 zeroes the real part
        p = RamseyParams(w / 2.0, phi + math.pi / 2.0)
        assert bias_from_comb(c, p) < 1e-8

    def test_grid_duality_on_resonance(self):
        w, phi = 2.0, 0.4
        g = periodic_grid(16, w, 2**14)
        d = distribution_from_density(g, 1.0 + np.cos(w * g.points + phi))
        c = comb_from_distribution(d, [w])
        for theta in [0.0, 0.9, 4.0]:
            p = RamseyParams(w / 2.0, theta, 7.0)
            assert bias_from_comb(c, p) == pytest.approx(
                abs(predictive_prob(d, p, 0) - 0.5), abs=1e-8
            )

    def test_grid_duality_random_distributions(self):
        g = FieldGrid(-15, 15, 2**13)
        rng = np.random.default_rng(42)
        for _ in range(10):
            dens = np.zeros(g.n_points)
            for _ in range(3):
                dens += rng.uniform(0.2, 1.0) * np.exp(
                    -0.5 * ((g.points - rng.uniform(-6, 6)) / rng.uniform(0.3, 2.0)) ** 2
                )
            d = distribution_from_density(g, dens)
            p = RamseyParams(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0, 2 * math.pi)),
                             float(rng.uniform(1.0, 20.0)))
            c = comb_from_distribution(d, [2.0 * p.tau])
            assert bias_from_comb(c, p) == pytest.approx(
                abs(predictive_prob(d, p, 0) - 0.5), abs=1e-8
            )


class TestAlphaSeries:
    def test_quadrature_mean_value(self):
        a = alpha_series_quadrature(0)
        assert 0.0 < a[0] < LN2
        assert a[0] == pytest.approx(ALPHA0_EXACT, abs=1e-10)

    def test_quadrature_two_resolutions_agree(self):
        a = alpha_series_quadrature(8, n_panels=2**12)
        b = alpha_series_quadrature(8, n_panels=2**14)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_quadrature_matches_exact_form(self):
        a = alpha_series_quadrature(32)
        for j in [1, 2, 3, 5, 10, 32]:
            assert a[j] == pytest.approx(alpha_exact(j), abs=1e-10)

    @pytest.mark.parametrize("j_max", [1, 32, ALPHA_J_LIMIT])
    def test_quadrature_equals_the_outer_product_formula(self, j_max):
        # the per-row basis against the basis built from np.outer, bit for bit
        n = 2**14
        x = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        h = binary_entropy(0.5 * (1.0 + np.cos(x)))
        j = np.arange(1, j_max + 1)
        expect = [2.0 * dot(row, h) / n for row in np.cos(2.0 * np.outer(j, x))]
        assert alpha_series_quadrature(j_max)[1:].tolist() == expect

    def test_quadrature_forms_no_basis_block(self):
        # a (386, 2**14) basis block would be 48 MiB; one row is 128 KiB
        tracemalloc.start()
        try:
            alpha_series_quadrature(ALPHA_J_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_sine_component_vanishes(self):
        # even symmetry: replacing cos(2jx) by sin(2jx) integrates to zero
        n = 2**13
        x = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        h = binary_entropy(0.5 * (1.0 + np.cos(x)))
        for j in [1, 2, 5]:
            assert abs(2.0 * np.mean(h * np.sin(2 * j * x))) < 1e-12

    def test_closed_matches_quadrature(self):
        closed = alpha_series_closed(32)
        quad = alpha_series_quadrature(32)
        np.testing.assert_allclose(
            closed[1:], quad[1:], atol=1e-8
        )

    def test_closed_alpha0_needs_no_quadrature(self, monkeypatch):
        # alpha_0 is the closed profile mean 2 ln 2 - 1, not the oracle's
        def must_not_run(*args, **kwargs):
            raise AssertionError("alpha_series_closed called the quadrature")

        monkeypatch.setattr(fourier, "alpha_series_quadrature", must_not_run)
        a = alpha_series_closed(32)
        assert a[0] == contrast_entropy_series(1.0, 0)[0][0]
        assert a[0] == pytest.approx(ALPHA0_EXACT, abs=1e-15)

    def test_closed_signs_and_monotonicity(self):
        a = alpha_series_closed(20)
        tail = a[1:]
        assert np.all(tail < 0.0)
        assert np.all(np.diff(tail) > 0.0)
        assert abs(a[20]) < abs(a[5])

    def test_term_cap_precondition(self):
        with pytest.raises(ValueError):
            alpha_series_closed(32, term_cap=20)


class TestClosedSeriesTail:
    @pytest.mark.parametrize(
        "js",
        [
            range(1, 41),
            # from j = 69 on a stop rule on small terms would fire just past
            # the sign change and drop the positive tail
            range(68, 73),
            # past j = 292 |alpha_j| < 1e-8, below the quadrature gate
            [292, 357, ALPHA_J_LIMIT],
        ],
        ids=["1-40", "68-72", "292-386"],
    )
    def test_within_1e9_relative_of_exact(self, js):
        for j in js:
            got = fourier._closed_coefficient(j)
            assert abs(got - alpha_exact(j)) <= 1e-9 * abs(alpha_exact(j)), j

    # 140 is the last j whose exact terms end at 40000, 141 the first past it
    CACHED_JS = [1, 32, 140, 141, ALPHA_J_LIMIT]

    @staticmethod
    def _uncached_coefficient(j):
        """_closed_coefficient with every array formed afresh, step for step."""
        s = 2 * (j + 1) ** 2
        m_exact = max(s, fourier._SERIES_EXACT)
        m = np.arange(j, m_exact + 1, dtype=float)
        half = (m - 0.5) * m
        ratios = m * m - j * j
        ratios[0] = half[0]
        terms = np.multiply.accumulate(half / ratios) * 0.25**j
        terms = terms * (m - s) / ((m + (j + 1)) * half * 4.0)
        a = m_exact + 0.5
        n = fourier._TAIL_INTERVALS
        u = np.arange(1, n + 1) / n
        x = a / (u * u)
        lgamma = np.vectorize(math.lgamma, otypes=[float])
        log_t = (
            lgamma(2.0 * x + 1.0) - lgamma(x + j + 1.0) - lgamma(x - j + 1.0) - x * math.log(4.0)
            + np.log((x - s) / (2.0 * x * (2.0 * x - 1.0) * (x + j + 1.0)))
        )
        simpson = np.tile([4.0, 2.0], n // 2)
        simpson[-1] = 1.0
        tail = (np.exp(log_t) * 2.0 * a / u**3) @ simpson / (3.0 * n)
        return float(np.sum(terms) + tail)

    def test_shared_arrays_change_no_value(self):
        def cold(j):
            fourier._series_arrays.cache_clear()
            return fourier._closed_coefficient(j)

        values = [cold(j) for j in self.CACHED_JS]
        assert values == [self._uncached_coefficient(j) for j in self.CACHED_JS]
        fourier._series_arrays.cache_clear()
        assert [fourier._closed_coefficient(j) for j in self.CACHED_JS] == values
        fourier._series_arrays.cache_clear()
        backward = [fourier._closed_coefficient(j) for j in reversed(self.CACHED_JS)]
        assert backward[::-1] == values

    @pytest.mark.parametrize("m_exact", [40_000, 2 * 142**2])
    def test_shared_arrays_are_read_only(self, m_exact):
        arrays = fourier._series_arrays(m_exact)
        assert len(arrays[0]) == m_exact + 1
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("j, m_exact", [(1, 40_000), (4, 40_000), (200, 2 * 201**2)])
    def test_cap_below_the_exact_terms_raises(self, j, m_exact, monkeypatch):
        real = fourier._closed_coefficient
        calls = []

        def spy(k):
            calls.append(k)
            return real(k)

        monkeypatch.setattr(fourier, "_closed_coefficient", spy)
        with pytest.raises(
            ValueError, match=f"require term_cap >= {m_exact} for j_max = {j}, got {m_exact - 1}$"
        ):
            alpha_series_closed(j, term_cap=m_exact - 1)
        assert calls == []
        # a cap that just holds the exact terms is accepted, and changes no value
        assert alpha_series_closed(j, term_cap=m_exact).tolist() == alpha_series_closed(j).tolist()
        assert calls == 2 * list(range(1, j + 1))

    def test_default_cap_holds_the_limit(self, monkeypatch):
        calls = []

        def record(j):
            calls.append(j)
            return -1.0

        monkeypatch.setattr(fourier, "_closed_coefficient", record)
        alpha_series_closed(ALPHA_J_LIMIT)
        assert calls == list(range(1, ALPHA_J_LIMIT + 1))

    @pytest.mark.parametrize("j_max", [-1, ALPHA_J_LIMIT + 1, 520])
    def test_j_max_out_of_range_raises_before_any_term(self, j_max, monkeypatch):
        # past j = 517 the running product of the term ratios overflows
        def must_not_run(j):
            raise AssertionError(f"coefficient {j} computed for j_max = {j_max}")

        monkeypatch.setattr(fourier, "_closed_coefficient", must_not_run)
        with pytest.raises(ValueError, match=f"require 0 <= j_max <= {ALPHA_J_LIMIT}, got {j_max}$"):
            alpha_series_closed(j_max)


CONTRASTS = [0.3, 0.9, 0.999, 1.0]

# midpoint panels of the quadrature the contrast series is checked against
QUAD_PANELS = 2**16


def _quadrature_profile(contrast, j_max):
    """Cosine coefficients 0..j_max of h((1 + C cos x)/2) by the midpoint
    rule, and a bound on their error.

    The rule folds coefficient j onto j +- m n/2 (m >= 1), and |a_i(C)|
    <= |alpha_i| = 1/(4 i^3 - i), so the folded part is at most
    2 zeta(3) |alpha_{n/2 - j_max}|; 1e-15 covers the rounding.
    """
    n = QUAD_PANELS
    x = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    h = binary_entropy(0.5 * (1.0 + contrast * np.cos(x)))
    j = np.arange(1, j_max + 1)
    coeffs = np.r_[np.mean(h), 2.0 * (np.cos(2.0 * np.outer(j, x)) @ h) / n]
    return coeffs, 2.0 * 1.2021 * -alpha_exact(n // 2 - j_max) + 1e-15


def _direct_series(contrast, j_max, n_max):
    """a_0..a_j_max summed term by term from h((1 + x)/2) = ln 2 -
    sum_n x^{2n} / (2n (2n - 1)) with x = C cos phi, where cos^{2n} phi
    = 4^-n [C(2n, n) + 2 sum_{j=1}^n C(2n, n - j) cos 2 j phi]."""
    n = np.arange(1, n_max + 1, dtype=float)
    power = contrast ** (2.0 * n) / (2.0 * n * (2.0 * n - 1.0))
    out = np.empty(j_max + 1)
    for j in range(j_max + 1):
        # w[n] = 4^-n C(2n, n - j) for n >= max(j, 1), by its ratio in n
        m = n[max(j, 1) - 1 :]
        ratio = (2.0 * m[:-1] + 2.0) * (2.0 * m[:-1] + 1.0) / (4.0 * (m[:-1] + 1.0 - j) * (m[:-1] + 1.0 + j))
        first = math.comb(2 * int(m[0]), int(m[0]) - j) / 4.0 ** m[0]
        w = first * np.r_[1.0, np.cumprod(ratio)]
        total = math.fsum(w * power[max(j, 1) - 1 :])
        out[j] = LN2 - total if j == 0 else -2.0 * total
    return out


class TestContrastEntropySeries:
    @pytest.mark.parametrize("contrast", CONTRASTS)
    def test_signs_and_alpha_envelope(self, contrast):
        a, tail = contrast_entropy_series(contrast, 32)
        j = np.arange(1, 33)
        assert np.all(a[1:] < 0.0)
        envelope = contrast ** (2 * j) * np.array([-alpha_exact(int(k)) for k in j])
        assert np.all(np.abs(a[1:]) <= envelope + CONTRAST_SERIES_ERR)
        assert tail >= -CONTRAST_SERIES_ERR

    def test_full_contrast_is_alpha(self):
        a, _ = contrast_entropy_series(1.0, 32)
        _, quad_err = _quadrature_profile(1.0, 32)
        quad = alpha_series_quadrature(32, n_panels=QUAD_PANELS)
        np.testing.assert_allclose(a, quad, rtol=0.0, atol=CONTRAST_SERIES_ERR + quad_err)
        np.testing.assert_allclose(a[1:9], alpha_series_closed(8)[1:], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("contrast", [0.3, 0.9, 0.99])
    def test_closed_forms_sum_the_direct_series(self, contrast):
        # the direct series is one-signed and geometric in C^2: by n_max
        # its terms are below 1e-20
        n_max = int(math.ceil(46.0 / -math.log(contrast * contrast)))
        a, _ = contrast_entropy_series(contrast, 8)
        np.testing.assert_allclose(a, _direct_series(contrast, 8, n_max), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 4, 8])
    @pytest.mark.parametrize("contrast", CONTRASTS)
    def test_tail_identity_against_quadrature(self, contrast, k):
        a, tail = contrast_entropy_series(contrast, k)
        quad, quad_err = _quadrature_profile(contrast, 64)
        # coefficients within the stated error plus the quadrature's
        assert np.all(np.abs(a - quad[: k + 1]) <= CONTRAST_SERIES_ERR + quad_err)
        # the tail by the same identity from quadrature coefficients
        edge = float(binary_entropy(0.5 * (1.0 + contrast)))
        quad_tail = quad[0] - edge - np.abs(quad[1 : k + 1]).sum()
        assert abs(tail - quad_tail) <= (k + 2) * CONTRAST_SERIES_ERR + (k + 1) * quad_err + 1e-15
        # and it is the sum of the |a_j| left out: every coefficient past
        # k is negative, and those up to 64 sum to at most the tail
        left_out = quad[k + 1 :]
        assert np.all(left_out < quad_err)
        assert np.abs(left_out).sum() <= tail + 64 * quad_err
        if contrast < 1.0:
            # past j = 64 at C <= 0.999 the rest is below C^130 / 4
            assert np.abs(left_out).sum() >= tail - 0.25 * contrast**130 - 64 * quad_err

    def test_validation(self):
        for bad in (-0.1, 1.0 + 1e-12, math.nan):
            with pytest.raises(ValueError):
                contrast_entropy_series(bad, 4)
        with pytest.raises(ValueError):
            contrast_entropy_series(0.5, -1)

    def test_cached_and_read_only(self):
        a, tail = contrast_entropy_series(0.75, 4)
        with pytest.raises(ValueError):
            a[0] = 0.0


def halving_posterior(n, coherence_time, seed):
    """Posterior after n halving-schedule shots (tau 1, 1/2, ...) on a
    uniform prior, on a grid two periods of the last shot's 2 tau wide,
    and that last tau."""
    tau_n = 2.0 ** (1 - n)
    d = uniform_distribution(periodic_grid(2, tau_n, 2**14))
    tau, theta = 1.0, 0.2
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = int(rng.integers(0, 2))
        d = bayes_update(d, RamseyParams(tau, theta, coherence_time), x)
        tau, theta = 0.5 * tau, 0.5 * (theta + math.pi * x)
    return d, tau_n


class TestConditionalEntropyFromComb:
    def test_diffuse_comb_gives_profile_mean(self):
        c = DeltaComb(np.array([0.0]), np.array([1.0 + 0j]))
        a = alpha_series_quadrature(4)
        p = RamseyParams(1.3, 0.4)
        assert conditional_entropy_from_comb(c, p) == pytest.approx(
            float(a[0])
        )

    def test_single_measurement_half_tau(self):
        # posterior ~ 1 + cos(2 tau1 b + phi); measuring at tau1/2 pulls in
        # the k=1 coefficient with weight cos(2 theta - phi)/2
        tau1, th1, x1 = 1.0, 0.8, 1
        g = periodic_grid(16, 2.0 * tau1, 2**14)
        d = bayes_update(uniform_distribution(g), RamseyParams(tau1, th1), x1)
        comb = comb_from_distribution(d, [2.0 * tau1 * k for k in range(1, 9)])
        a = alpha_series_quadrature(16)
        phi = th1 + math.pi * x1
        for theta in [phi / 2.0, 0.2, 2.2]:
            p = RamseyParams(tau1 / 2.0, theta)
            got = conditional_entropy_from_comb(comb, p)
            want = float(a[0]) + float(a[1]) * 0.5 * math.cos(
                2.0 * theta - phi
            )
            assert got == pytest.approx(want, abs=1e-9)
            # grid agreement: on this window the trapezoid rule first
            # aliases alpha_k at k = n_points - 1, |alpha_k| ~ 6e-14
            h_grid = g.integrate(binary_entropy(likelihood(0, g.points, p)) * d.density)
            assert got == pytest.approx(h_grid, abs=1e-12)

    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_comb_mi_matches_grid_mi(self, n, coherence_time):
        # the comb route H(X) - H(X|B) against the grid's MI at every
        # contrast, for taus on the posterior's ladder (m odd: the next
        # halving shot at m = 1), off it in part, and tau = 0
        d, tau_n = halving_posterior(n, coherence_time, seed=n)
        for m in [0, 1, 2, 3, 5]:
            tau = 0.5 * m * tau_n
            # 2 tau for the bias, and the ladder 4 tau k past the
            # posterior's top frequency (2**n - 1) 2 tau_n
            c = comb_from_distribution(d, [2.0 * tau * k for k in range(1, 2 ** (n + 1) + 1)])
            for theta in [0.0, 0.7, 2.9]:
                p = RamseyParams(tau, theta, coherence_time)
                got = float(binary_entropy(0.5 + bias_from_comb(c, p))) - conditional_entropy_from_comb(c, p)
                assert got == pytest.approx(mutual_information(d, p), abs=1e-10)

    def test_contrast_zero_gives_ln2(self):
        # exp(-tau/T) underflows to 0: the outcome is a fair coin at every
        # field, even with peaks on the ladder at k = 1, 2
        p = RamseyParams(800.0, 0.3, coherence_time=1.0)
        assert p.contrast == 0.0
        c = DeltaComb(
            np.array([-6400.0, -3200.0, 0.0, 3200.0, 6400.0]),
            np.array([0.2, 0.5 + 0.1j, 1.0, 0.5 - 0.1j, 0.2]),
        )
        assert conditional_entropy_from_comb(c, p) == pytest.approx(LN2, abs=1e-15)

    def test_off_comb_tau_gives_profile_mean(self):
        tau1 = 1.0
        g = periodic_grid(16, 2.0 * tau1, 2**14)
        d = bayes_update(uniform_distribution(g), RamseyParams(tau1, 0.3), 0)
        comb = comb_from_distribution(d, [2.0 * tau1 * k for k in range(1, 5)])
        a = alpha_series_quadrature(8)
        got = conditional_entropy_from_comb(comb, RamseyParams(tau1 / 3.0, 0.0))
        assert got == pytest.approx(float(a[0]))

    def test_high_order_ladder(self):
        # the 7-shot halving comb measured at its next tau puts real weight
        # 1 - k/128 on every ladder index k up to 127
        n, spacing = 7, 2.0**-5
        c = kpe_posterior_comb(n, 1.0)
        a = alpha_series_quadrature(2**n - 1)
        k = np.arange(1, 2**n)
        for theta in [0.0, 0.4, 1.9]:
            want = a[0] + np.sum(a[1:] * (1.0 - k / 2**n) * np.cos(2.0 * k * theta))
            got = conditional_entropy_from_comb(c, RamseyParams(spacing / 4.0, theta))
            assert got == pytest.approx(want, abs=1e-10)


class TestKpePosteriorComb:
    def test_n1_weights(self):
        c = kpe_posterior_comb(1, 1.5)
        np.testing.assert_allclose(c.frequencies, [-3.0, 0.0, 3.0])
        np.testing.assert_allclose(c.amplitudes, [0.5, 1.0, 0.5])

    def test_n2_seven_peaks(self):
        c = kpe_posterior_comb(2, 1.0)
        assert len(c) == 7
        np.testing.assert_allclose(c.frequencies, np.arange(-3, 4) * 1.0)
        np.testing.assert_allclose(
            np.abs(c.amplitudes), 1.0 - np.abs(np.arange(-3, 4)) / 4.0
        )

    def test_zero_peak_weight_and_symmetry(self):
        for n in [1, 2, 3, 5]:
            c = kpe_posterior_comb(n, 0.7)
            assert c.amplitude_at(0.0) == pytest.approx(1.0)
            assert c.is_hermitian(1e-12)
            assert np.all(np.abs(c.amplitudes) <= 1.0 + 1e-12)

    def test_grid_cross_check(self):
        # run the halving schedule on a wide uniform prior and compare the
        # posterior transform against the triangular weights
        tau1 = 1.0
        for n in [1, 2, 3, 4]:
            spacing = 2.0 ** (-n + 2) * tau1
            g = periodic_grid(2, spacing, 2**15)
            d = uniform_distribution(g)
            tau, theta = tau1, 0.2
            rng = np.random.default_rng(n)
            for _ in range(n):
                x = int(rng.integers(0, 2))
                d = bayes_update(d, RamseyParams(tau, theta), x)
                tau, theta = 0.5 * tau, 0.5 * (theta + math.pi * x)
            ref = kpe_posterior_comb(n, tau1)
            got = comb_from_distribution(d, ref.frequencies)
            for f in ref.frequencies:
                assert abs(got.amplitude_at(f)) == pytest.approx(
                    abs(ref.amplitude_at(f)), abs=1e-3
                )
            # after rezeroing by the fundamental's phase, amplitudes are real
            base = got.amplitude_at(spacing)
            for f in ref.frequencies:
                k = round(f / spacing)
                rezeroed = got.amplitude_at(f) * np.exp(-1j * np.angle(base) * k)
                assert abs(rezeroed.imag) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            kpe_posterior_comb(0, 1.0)
        with pytest.raises(ValueError):
            kpe_posterior_comb(1, 0.0)
