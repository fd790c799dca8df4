import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ramsey_sched import cli, policies
from ramsey_sched.bayes import (
    ZERO_EVIDENCE_FLOOR,
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    bayes_update,
    distribution_from_density,
    expected_posterior_functional,
    gaussian_distribution,
    likelihood,
    mutual_information,
    uniform_distribution,
    variance,
)
from ramsey_sched.fourier import contrast_entropy_series
from ramsey_sched.policies import (
    _ROUNDING_MARGIN,
    _SCREEN_TERMS,
    TIE_TOL,
    PolicyConfig,
    PolicyState,
    _best_cell,
    _expected_variance_matrix,
    _harmonic_table,
    _mi_matrix,
    _moments,
    _screen,
    _series_table,
    compare_kpe_to_myopic,
    myopic_choices,
    next_params,
    next_params_kpe,
    next_params_myopic_entropy,
    next_params_random,
    next_params_variance_min,
    tau_cell_index,
    tau_search_grid,
    theta_cell_index,
    theta_cells_apart,
    theta_search_grid,
    variance_choices,
)
from ramsey_sched.simulate import SimConfig, run_trials

GRID = FieldGrid(-20.0, 20.0, 2**11)

SMALL_CFG = PolicyConfig(
    kind="myopic_entropy",
    tau_min=0.05,
    tau_max=4.0,
    tau_grid_size=16,
    theta_grid_size=16,
    coherence_time=8.0,
)


def _state(dist, history=()):
    return PolicyState(dist, tuple(history), len(history))


def _spike(grid: FieldGrid, b0: float) -> FieldDistribution:
    """All probability mass on the grid point nearest b0: a one-hot density, normalized."""
    return distribution_from_density(grid, np.arange(grid.n_points) == np.argmin(np.abs(grid.points - b0)))


class TestPolicyConfig:
    def test_defaults_valid(self):
        cfg = PolicyConfig()
        assert cfg.kind == "myopic_entropy"
        assert len(tau_search_grid(cfg)) == cfg.tau_grid_size

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(kind="annealed")
        with pytest.raises(ValueError):
            PolicyConfig(tau_min=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(tau_min=2.0, tau_max=1.0)
        with pytest.raises(ValueError):
            PolicyConfig(kpe_tau0=0.0)

    @pytest.mark.parametrize("key, value", [
        ("kpe_tau0", math.inf), ("kpe_tau0", math.nan),
        ("kpe_theta0", math.inf), ("kpe_theta0", -math.inf), ("kpe_theta0", math.nan),
    ])
    def test_non_finite_kpe_seed_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"finite {key}"):
            PolicyConfig(**{key: value})

    def test_kpe_theta0_wrapped(self):
        assert PolicyConfig(kpe_theta0=-0.5).kpe_theta0 == pytest.approx(2 * math.pi - 0.5)


class TestPolicyState:
    def test_history_length_must_match(self):
        d = uniform_distribution(GRID)
        with pytest.raises(ValueError):
            PolicyState(d, (), 2)


class TestRandomPolicy:
    def test_reproducible(self):
        d = uniform_distribution(GRID)
        a = next_params_random(_state(d), SMALL_CFG, np.random.default_rng(9))
        b = next_params_random(_state(d), SMALL_CFG, np.random.default_rng(9))
        assert (a.tau, a.theta) == (b.tau, b.theta)

    def test_uniform_law(self):
        d = uniform_distribution(GRID)
        rng = np.random.default_rng(123)
        taus = np.array([
            next_params_random(_state(d), SMALL_CFG, rng).tau for _ in range(10_000)
        ])
        lo, hi = SMALL_CFG.tau_min, SMALL_CFG.tau_max
        se = (hi - lo) / math.sqrt(12.0) / math.sqrt(len(taus))
        assert abs(taus.mean() - 0.5 * (lo + hi)) < 3.0 * se
        assert np.all((taus >= lo) & (taus < hi))

    def test_state_ignored(self):
        d1 = uniform_distribution(GRID)
        d2 = gaussian_distribution(GRID, 1.0, 0.5)
        a = next_params_random(_state(d1), SMALL_CFG, np.random.default_rng(5))
        b = next_params_random(_state(d2), SMALL_CFG, np.random.default_rng(5))
        assert (a.tau, a.theta) == (b.tau, b.theta)


class TestKpePolicy:
    def test_first_call_returns_hyperparameters(self):
        cfg = PolicyConfig(kind="kpe", kpe_tau0=2.0, kpe_theta0=0.7)
        p = next_params_kpe(_state(uniform_distribution(GRID)), cfg)
        assert (p.tau, p.theta) == (2.0, 0.7)

    def test_halving_outcome_zero(self):
        prev = (RamseyParams(1.0, 0.0), 0)
        p = next_params_kpe(_state(uniform_distribution(GRID), [prev]), PolicyConfig(kind="kpe"))
        assert (p.tau, p.theta) == (0.5, 0.0)

    def test_halving_outcome_one(self):
        prev = (RamseyParams(1.0, 0.0), 1)
        p = next_params_kpe(_state(uniform_distribution(GRID), [prev]), PolicyConfig(kind="kpe"))
        assert p.tau == 0.5
        assert p.theta == pytest.approx(math.pi / 2.0)

    def test_two_iterations_by_hand(self):
        # theta0 = 0, outcomes (1, 1): theta -> pi/2 -> 3 pi/4
        cfg = PolicyConfig(kind="kpe", kpe_tau0=1.0, kpe_theta0=0.0)
        d = uniform_distribution(GRID)
        hist = []
        p = next_params_kpe(_state(d), cfg)
        hist.append((p, 1))
        p = next_params_kpe(_state(d, hist), cfg)
        hist.append((p, 1))
        p = next_params_kpe(_state(d, hist), cfg)
        assert p.theta == pytest.approx(3.0 * math.pi / 4.0)
        assert p.tau == pytest.approx(0.25)


class TestMyopicPolicy:
    def test_returns_positive_information_cell(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = next_params_myopic_entropy(_state(d), SMALL_CFG)
        assert mutual_information(d, p) > 0.0

    def test_argmax_dominance_by_rescan(self):
        d = gaussian_distribution(GRID, 0.5, 1.5)
        best = next_params_myopic_entropy(_state(d), SMALL_CFG)
        best_mi = mutual_information(d, best)
        for tau in tau_search_grid(SMALL_CFG):
            for theta in theta_search_grid(SMALL_CFG):
                cell = RamseyParams(float(tau), float(theta), SMALL_CFG.coherence_time)
                assert mutual_information(d, cell) <= best_mi + 1e-9

    def test_decohered_ties_break_to_smallest_cell(self):
        # tau >> T everywhere: every cell carries no information, so the
        # tie rule returns the smallest tau and theta = 0
        cfg = PolicyConfig(
            kind="myopic_entropy", tau_min=500.0, tau_max=5000.0,
            tau_grid_size=8, theta_grid_size=8, coherence_time=1.0,
        )
        d = gaussian_distribution(GRID, 0.0, 2.0)
        p = next_params_myopic_entropy(_state(d), cfg)
        assert p.tau == pytest.approx(cfg.tau_min)
        assert p.theta == 0.0

    def test_diffuse_prior_near_ties(self):
        # wide uniform prior: every cell carries nearly the same
        # information, and the spread shrinks as the window widens (it is
        # transform leakage ~ 1/(xi * width), not real structure)
        cfg = PolicyConfig(
            kind="myopic_entropy", tau_min=0.5, tau_max=2.0,
            tau_grid_size=8, theta_grid_size=8, coherence_time=math.inf,
        )
        spreads = []
        for periods, n in [(8, 2**12), (32, 2**14)]:
            g = FieldGrid(-periods * math.pi, periods * math.pi, n)
            d = uniform_distribution(g)
            values = [
                mutual_information(d, RamseyParams(float(t), float(th), math.inf))
                for t in tau_search_grid(cfg)
                for th in theta_search_grid(cfg)
            ]
            spreads.append(max(values) - min(values))
            p = next_params_myopic_entropy(_state(d), cfg)
            assert mutual_information(d, p) >= max(values) - 1e-9
        assert spreads[0] < 0.02
        assert spreads[1] < spreads[0] / 2.0

    def test_after_one_measurement_matches_halving_prediction(self):
        # on a diffuse prior with T = inf, the argmax after one measurement
        # is tau1/2 with theta = (theta1 + pi x1)/2
        tau0 = 2.0
        g = FieldGrid(-8.0 * math.pi, 8.0 * math.pi, 2**12)
        cfg = PolicyConfig(
            kind="myopic_entropy", tau_min=tau0 / 64, tau_max=tau0,
            tau_grid_size=37, theta_grid_size=32, coherence_time=math.inf,
            kpe_tau0=tau0, kpe_theta0=0.0,
        )
        d = uniform_distribution(g)
        first = RamseyParams(tau0, 0.0)
        x1 = 1
        d = bayes_update(d, first, x1)
        p = next_params_myopic_entropy(_state(d, [(first, x1)]), cfg)
        assert p.tau == pytest.approx(tau0 / 2.0, rel=1e-9)
        assert p.theta == pytest.approx(math.pi / 2.0, abs=1e-9)


class TestVariancePolicy:
    def test_argmin_dominance_by_rescan(self):
        d = gaussian_distribution(GRID, -0.5, 1.0)
        best = next_params_variance_min(_state(d), SMALL_CFG)
        best_ev = expected_posterior_functional(d, best, variance)
        for tau in tau_search_grid(SMALL_CFG):
            for theta in theta_search_grid(SMALL_CFG):
                cell = RamseyParams(float(tau), float(theta), SMALL_CFG.coherence_time)
                assert expected_posterior_functional(d, cell, variance) >= best_ev - 1e-9

    def test_beats_random_cells(self):
        d = gaussian_distribution(GRID, 0.0, 1.2)
        best = next_params_variance_min(_state(d), SMALL_CFG)
        best_ev = expected_posterior_functional(d, best, variance)
        taus = tau_search_grid(SMALL_CFG)
        thetas = theta_search_grid(SMALL_CFG)
        rng = np.random.default_rng(31)
        for _ in range(100):
            cell = RamseyParams(
                float(rng.choice(taus)),
                float(rng.choice(thetas)),
                SMALL_CFG.coherence_time,
            )
            assert best_ev <= expected_posterior_functional(d, cell, variance) + 1e-9

    def test_spike_posterior_ties_break_to_smallest_cell(self):
        d = _spike(GRID, 0.3)
        p = next_params_variance_min(_state(d), SMALL_CFG)
        assert p.tau == pytest.approx(SMALL_CFG.tau_min)
        assert p.theta == 0.0


class TestOnePointTauGrid:
    CFG = PolicyConfig(tau_min=0.05, tau_max=4.0, tau_grid_size=1, theta_grid_size=8, coherence_time=8.0)

    def test_grid_is_tau_min(self):
        grid = tau_search_grid(self.CFG)
        assert grid.tolist() == [self.CFG.tau_min]

    @pytest.mark.parametrize("tau", [1e-9, 0.05, 0.7, 4.0, 50.0])
    def test_every_tau_is_cell_0(self, tau):
        assert tau_cell_index(self.CFG, tau) == 0

    @pytest.mark.parametrize("chooser", [next_params_myopic_entropy, next_params_variance_min])
    def test_greedy_choosers_pick_tau_min(self, chooser):
        d = gaussian_distribution(GRID, 0.3, 1.5)
        assert chooser(_state(d), self.CFG).tau == self.CFG.tau_min


class TestDispatch:
    def test_all_kinds(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        rng = np.random.default_rng(0)
        for kind in ("random", "kpe", "myopic_entropy", "variance_min"):
            cfg = PolicyConfig(
                kind=kind, tau_min=0.05, tau_max=4.0, tau_grid_size=8,
                theta_grid_size=8, coherence_time=8.0,
            )
            p = next_params(_state(d), cfg, rng)
            assert 0.0 <= p.theta < 2 * math.pi

    def test_random_needs_rng(self):
        d = uniform_distribution(GRID)
        with pytest.raises(ValueError):
            next_params(_state(d), PolicyConfig(kind="random"), None)

    def test_deterministic_policies_pure(self):
        d = gaussian_distribution(GRID, 0.0, 2.0)
        a = next_params_myopic_entropy(_state(d), SMALL_CFG)
        b = next_params_myopic_entropy(_state(d), SMALL_CFG)
        assert (a.tau, a.theta) == (b.tau, b.theta)

    def test_canonical_theta_below_pi_under_label_symmetry(self):
        # the objective is invariant under theta -> theta + pi, so the
        # tie rule keeps the representative below pi
        d = bayes_update(
            uniform_distribution(FieldGrid(-8 * math.pi, 8 * math.pi, 2**12)),
            RamseyParams(2.0, 5.0), 1,
        )
        cfg = PolicyConfig(
            kind="myopic_entropy", tau_min=0.125, tau_max=2.0, tau_grid_size=5,
            theta_grid_size=16, coherence_time=math.inf,
        )
        p = next_params_myopic_entropy(_state(d), cfg)
        assert p.theta < math.pi


def _expected_variance(d, p):
    return expected_posterior_functional(d, p, variance)


# (matrix kernel, its scalar oracle, the policy built on it, sign that
# turns the objective into a maximisation)
def _mi_one(d, cfg):
    return _mi_matrix(_moments([d], cfg), cfg)[0]


def _variance_one(d, cfg):
    return _expected_variance_matrix([d], cfg)[0]


KERNELS = [
    (_mi_one, mutual_information, next_params_myopic_entropy, 1.0),
    (_variance_one, _expected_variance, next_params_variance_min, -1.0),
]


def _oracle_matrix(d, cfg, oracle):
    return np.array([
        [oracle(d, RamseyParams(float(tau), float(theta), cfg.coherence_time))
         for theta in theta_search_grid(cfg)]
        for tau in tau_search_grid(cfg)
    ])


def _scored(full, cfg):
    # the columns of a full-grid matrix that the kernels score
    return full[..., : policies._scored_theta_count(cfg)]


def _asymmetric_posterior(grid, coherence_time):
    d = gaussian_distribution(grid, 0.4, 2.0)
    for tau, theta, x in ((1.3, 0.4, 1), (0.7, 2.1, 0), (2.9, 5.0, 1)):
        d = bayes_update(d, RamseyParams(tau, theta, coherence_time), x)
    return d


def _rounding_case():
    # A grid, a search grid, a scored theta column j and a one-point
    # posterior on a point where the cosine term rounds below -1 at tau_min
    grid = FieldGrid(-8.0 * math.pi, 8.0 * math.pi, 2**10 + 1)
    cfg = PolicyConfig(
        tau_min=0.25, tau_max=2.0, tau_grid_size=4,
        theta_grid_size=32, coherence_time=math.inf,
    )
    thetas = theta_search_grid(cfg)[: cfg.theta_grid_size // 2]
    phase = 2.0 * cfg.tau_min * grid.points
    term = np.cos(thetas)[:, None] * np.cos(phase) - np.sin(thetas)[:, None] * np.sin(phase)
    j, k = np.argwhere(term < -1.0)[0]
    return grid, cfg, j, _spike(grid, float(grid.points[k]))


def _distinct_posteriors(grid, coherence_time):
    # three shapes on one grid: a Gaussian, after one update, after three
    d = gaussian_distribution(grid, 0.4, 2.0)
    once = bayes_update(d, RamseyParams(1.3, 0.4, coherence_time), 1)
    return [d, once, _asymmetric_posterior(grid, coherence_time)]


class TestScoringKernelsAgainstScalarOracle:
    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_every_cell_and_the_chosen_cell(self, coherence_time, theta_grid_size):
        # an even theta grid is scored below pi, and the columns from pi on
        # repeat those; an odd one has no theta + pi partners and is scored
        # in full
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        d = _asymmetric_posterior(GRID, coherence_time)
        n = policies._scored_theta_count(cfg)
        for kernel, oracle, policy, sign in KERNELS:
            want = _oracle_matrix(d, cfg, oracle)
            np.testing.assert_allclose(kernel(d, cfg), _scored(want, cfg), rtol=0.0, atol=1e-12)
            if n < theta_grid_size:
                np.testing.assert_allclose(want[:, n:], want[:, :n], rtol=0.0, atol=1e-12)
            p = policy(_state(d), cfg)
            assert (p.tau, p.theta) == _best_cell(sign * want, cfg)

    def test_certain_outcome_cells(self):
        # T = inf with b = 0 on the grid: at theta = 0 and theta = pi one
        # outcome has likelihood exactly 0 there, so 0 ln 0 must read 0
        grid = FieldGrid(-8.0 * math.pi, 8.0 * math.pi, 2**10 + 1)
        cfg = PolicyConfig(
            tau_min=0.25, tau_max=2.0, tau_grid_size=4,
            theta_grid_size=8, coherence_time=math.inf,
        )
        assert 0.0 in grid.points
        assert math.pi in theta_search_grid(cfg)
        assert likelihood(0, 0.0, RamseyParams(cfg.tau_min, math.pi)) == 0.0
        assert likelihood(1, 0.0, RamseyParams(cfg.tau_min, 0.0)) == 0.0
        d = _asymmetric_posterior(grid, math.inf)
        for kernel, oracle, _, _ in KERNELS:
            got = kernel(d, cfg)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, _scored(_oracle_matrix(d, cfg, oracle), cfg), rtol=0.0, atol=1e-12)

    def test_cosine_term_rounding_past_one(self):
        # On this grid cos(theta) cos(2 tau b) - sin(theta) sin(2 tau b)
        # rounds below -1 in some scored cell, so at C = 1 the outcome-0
        # likelihood would come out -2^-53 without a clamp, and so would
        # the predictive probability of a posterior on that one point
        grid, cfg, j, spike = _rounding_case()
        for d in (_asymmetric_posterior(grid, math.inf), spike):
            for kernel, oracle, policy, sign in KERNELS:
                got = kernel(d, cfg)
                assert np.all(np.isfinite(got))
                want = _oracle_matrix(d, cfg, oracle)
                np.testing.assert_allclose(got, _scored(want, cfg), rtol=0.0, atol=1e-12)
                p = policy(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(sign * want, cfg)
        # the outcome at that cell is certain, so it carries no information
        assert _mi_one(spike, cfg)[0, j] == 0.0


class TestTieRuleOnScoredColumns:
    # the choosers take the tie-rule cell of the scored columns alone; on
    # an even grid the rest of the grid holds each scored column again, pi
    # above it, and the tie rule reaches the copy below pi first
    CFG = PolicyConfig(tau_min=0.05, tau_max=4.0, tau_grid_size=5, theta_grid_size=8)

    @staticmethod
    def _mirrored(half):
        return np.concatenate((half, half), axis=-1)

    def test_scored_thetas_lead_the_grid_and_sit_pi_below_the_rest(self):
        n = policies._scored_theta_count(self.CFG)
        thetas = theta_search_grid(self.CFG)
        assert n == self.CFG.theta_grid_size // 2
        assert np.all(thetas[:n] < math.pi)
        np.testing.assert_allclose(thetas[n:] - math.pi, thetas[:n], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("ties", [
        [(2, 1), (2, 3)],          # within one tau row
        [(3, 0), (1, 3)],          # across rows: the smaller tau wins
        [(0, 3)],                  # one cell, tied only with its own copy
        [(4, 2), (4, 0), (2, 2)],  # both at once
    ])
    def test_even_grid_exact_ties(self, ties):
        half = np.arange(20.0).reshape(5, 4) / 40.0
        for i, j in ties:
            half[i, j] = 1.0
        cell = _best_cell(half, self.CFG)
        assert cell == _best_cell(self._mirrored(half), self.CFG)
        i, j = min(ties)
        assert cell == (float(tau_search_grid(self.CFG)[i]), float(theta_search_grid(self.CFG)[j]))

    def test_even_grid_near_ties_and_masked_cells(self):
        # ties within TIE_TOL, not only exact ones, and the -inf cells that
        # a need mask leaves
        half = np.full((5, 4), -np.inf)
        half[3, 3] = 0.5
        half[3, 1] = 0.5 - 0.5 * TIE_TOL
        half[4, 0] = 0.5 + 0.25 * TIE_TOL
        half[1, 2] = 0.5 - 2.0 * TIE_TOL
        cell = _best_cell(half, self.CFG)
        assert cell == _best_cell(self._mirrored(half), self.CFG)
        assert cell == (float(tau_search_grid(self.CFG)[3]), float(theta_search_grid(self.CFG)[1]))

    def test_even_grid_random_ties(self):
        # few distinct values, so most matrices hold several tied maxima
        rng = np.random.default_rng(6)
        for _ in range(300):
            half = rng.integers(0, 3, size=(5, 4)).astype(float)
            assert _best_cell(half, self.CFG) == _best_cell(self._mirrored(half), self.CFG)
            assert _best_cell(-half, self.CFG) == _best_cell(self._mirrored(-half), self.CFG)

    @pytest.mark.parametrize("theta_grid_size", [1, 9, 15])
    def test_odd_grid_scores_every_column(self, theta_grid_size):
        cfg = replace(SMALL_CFG, theta_grid_size=theta_grid_size)
        assert policies._scored_theta_count(cfg) == theta_grid_size
        d = _asymmetric_posterior(GRID, cfg.coherence_time)
        for kernel, _, _, _ in KERNELS:
            assert kernel(d, cfg).shape == (cfg.tau_grid_size, theta_grid_size)


class TestLockstepMiKernel:
    def _assert_each_alone(self, ds, cfg):
        got = _mi_matrix(_moments(ds, cfg), cfg)
        assert got.shape == (len(ds), cfg.tau_grid_size, policies._scored_theta_count(cfg))
        for d, scores in zip(ds, got):
            assert np.array_equal(scores, _mi_one(d, cfg))
        chosen = myopic_choices(ds, cfg)
        assert chosen == [next_params_myopic_entropy(_state(d), cfg) for d in ds]

    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    @pytest.mark.parametrize("coherence_time", [10.0, math.inf])
    def test_each_posterior_scores_as_alone(self, coherence_time, theta_grid_size):
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        self._assert_each_alone(_distinct_posteriors(GRID, coherence_time), cfg)

    def test_cosine_term_rounding_grid(self):
        grid, cfg, j, spike = _rounding_case()
        self._assert_each_alone(_distinct_posteriors(grid, math.inf) + [spike], cfg)
        assert _mi_matrix(_moments([uniform_distribution(grid), spike], cfg), cfg)[1, 0, j] == 0.0

    def test_posteriors_must_share_a_grid(self):
        ds = [uniform_distribution(GRID), uniform_distribution(FieldGrid(-20.0, 20.0, 2**10))]
        with pytest.raises(ValueError, match="one grid"):
            _mi_matrix(_moments(ds, SMALL_CFG), SMALL_CFG)

    def test_builder_reads_q_and_the_table_from_the_moments(self, monkeypatch):
        # the builder takes the decision's table and q stack from the
        # moments tuple: it neither forms q nor looks up the table again
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6, theta_grid_size=12, coherence_time=10.0,
        )
        ds = _distinct_posteriors(GRID, 10.0)
        moments = _moments(ds, cfg)
        r, i, j = np.indices((len(ds), cfg.tau_grid_size, policies._scored_theta_count(cfg)))
        need = (r + i + j) % 3 == 0
        full, masked = _mi_matrix(moments, cfg), _mi_matrix(moments, cfg, need)

        def must_not_run(*args, **kwargs):
            raise AssertionError("the cell builder formed q or looked up the table")

        monkeypatch.setattr(policies, "_weights", must_not_run)
        monkeypatch.setattr(policies, "_harmonic_table", must_not_run)
        assert np.array_equal(_mi_matrix(moments, cfg), full)
        assert np.array_equal(_mi_matrix(moments, cfg, need), masked)

    def test_one_q_stack_per_decision(self, monkeypatch):
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6, theta_grid_size=12, coherence_time=10.0,
        )
        ds = _distinct_posteriors(GRID, 10.0)
        weights, stacks = policies._weights, []

        def counting(ds):
            stacks.append(len(ds))
            return weights(ds)

        monkeypatch.setattr(policies, "_weights", counting)
        myopic_choices(ds, cfg)
        assert stacks == [len(ds)]


def _random_posteriors(grid, coherence_time, seed, count):
    # Gaussians of random centre and width, each after 1-7 random shots
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = gaussian_distribution(grid, rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0))
        for _ in range(rng.integers(1, 8)):
            p = RamseyParams(rng.uniform(0.05, 4.0), rng.uniform(0.0, 2 * math.pi), coherence_time)
            d = bayes_update(d, p, int(rng.integers(2)))
        out.append(d)
    return out


def _two_point_posterior(grid, b0, b1):
    dens = np.zeros(grid.n_points)
    for b in (b0, b1):
        k = int(np.argmin(np.abs(grid.points - b)))
        dens[k] = 0.5 / grid.trapz_weights[k]
    return FieldDistribution(grid, dens)


def _myopic_trajectory(grid, cfg, seed, steps):
    # posteriors met by a myopic run on a true field drawn from the prior
    rng = np.random.default_rng(seed)
    b_true = rng.normal(0.0, 2.0)
    d = gaussian_distribution(grid, 0.0, 3.0 / math.sqrt(2.0))
    for _ in range(steps):
        yield d
        p = next_params_myopic_entropy(_state(d), cfg)
        d = bayes_update(d, p, 0 if rng.random() < likelihood(0, b_true, p) else 1)


def _assert_screen_covers(ds, cfg):
    # at k = 1 and at k = _SCREEN_TERMS every cell's exact score lies
    # within its estimate's error bar; returns the k = _SCREEN_TERMS
    # error bars
    exact = _mi_matrix(_moments(ds, cfg), cfg)
    for k in (1, _SCREEN_TERMS):
        est, width = _screen(_moments(ds, cfg), cfg, np.arange(cfg.tau_grid_size), k)
        assert width.shape == (len(ds), cfg.tau_grid_size)
        assert np.all(np.abs(exact - est) <= width[:, :, None] + _ROUNDING_MARGIN)
    return width


class TestBoundPrunedChoice:
    @pytest.mark.parametrize("n_points", [2**11, 2**12])
    @pytest.mark.parametrize("coherence_time", [10.0, math.inf])
    def test_pruned_choice_equals_full_scan(self, n_points, coherence_time):
        grid = FieldGrid(-20.0, 20.0, n_points)
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=16, coherence_time=coherence_time,
        )
        for seed in range(5):
            for d in _myopic_trajectory(grid, cfg, seed, 10):
                full = _mi_matrix(_moments([d], cfg), cfg)[0]
                p = next_params_myopic_entropy(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(full, cfg)

    def test_lockstep_choice_equals_each_posterior_alone(self):
        grid = FieldGrid(-20.0, 20.0, 2**11)
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=16, coherence_time=10.0,
        )
        # four posteriors at different depths keep different rows
        ds = [list(_myopic_trajectory(grid, cfg, seed, steps))[-1]
              for seed, steps in ((0, 1), (1, 4), (2, 7), (3, 10))]
        chosen = myopic_choices(ds, cfg)
        assert chosen == [next_params_myopic_entropy(_state(d), cfg) for d in ds]
        full = _mi_matrix(_moments(ds, cfg), cfg)
        assert [(p.tau, p.theta) for p in chosen] == [_best_cell(m, cfg) for m in full]

    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    def test_partial_mask_builds_only_its_cells(self, theta_grid_size):
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6,
            theta_grid_size=theta_grid_size, coherence_time=10.0,
        )
        ds = _distinct_posteriors(GRID, 10.0)
        rows = np.array([
            [1, 0, 0, 1, 0, 1],
            [1, 0, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
        ], dtype=bool)
        # holes inside kept rows, in a different place for each posterior,
        # so that a row's block covers more columns than one posterior needs
        r, i, j = np.indices((3, 6, policies._scored_theta_count(cfg)))
        need = rows[:, :, None] & ((r + i + j) % 3 != 0)
        need[2, 5] = True
        got = _mi_matrix(_moments(ds, cfg), cfg, need)
        full = _mi_matrix(_moments(ds, cfg), cfg)
        assert got.shape == full.shape == need.shape
        assert not need[rows].all() and need[rows].any(axis=-1).all()
        assert np.all(got[~need] == -np.inf)
        np.testing.assert_allclose(got[need], full[need], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("theta_grid_size", [16, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_built_cells_cover_every_tied_cell(self, coherence_time, theta_grid_size, monkeypatch):
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=16,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        spikes = [_spike(GRID, b) for b in np.linspace(-19.0, 19.0, 5)]
        two_points = [_two_point_posterior(GRID, b, b + math.pi / 4.0) for b in (-3.0, 0.0, 1.7)]
        deep = list(_myopic_trajectory(GRID, replace(cfg, theta_grid_size=16), 3, 30))[4::5]
        ds = (_random_posteriors(GRID, coherence_time, 13, 6) + spikes + two_points + deep
              + [uniform_distribution(GRID)])
        full_matrix = policies._mi_matrix
        masks = []

        def recording(moments, cfg, need=None):
            masks.append(need)
            return full_matrix(moments, cfg, need)

        monkeypatch.setattr(policies, "_mi_matrix", recording)
        full = full_matrix(_moments(ds, cfg), cfg)
        tied = full >= full.max(axis=(1, 2), keepdims=True) - TIE_TOL
        for r in (1, 8):
            masks.clear()
            for k in range(0, len(ds), r):
                myopic_choices(ds[k : k + r], cfg)
            built = np.concatenate(masks)
            assert np.all(built[tied])
            assert built.mean() < 0.5

    @pytest.mark.parametrize("theta_grid_size", [16, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_margin_covers_bounds_tight_to_rounding(self, coherence_time, theta_grid_size, monkeypatch):
        # with TIE_TOL = 0 only _ROUNDING_MARGIN and the error bars'
        # coefficient allowance cover rounding, on posteriors whose error
        # bars are tight: one-point ones (MI 0 up to rounding, either
        # side) and two-point ones, whose likelihoods at T = inf reach 0,
        # 1/2 and 1.  The second pass takes the coefficient allowance
        # away, so that the margin alone covers rounding.
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=16,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        grid, _, _, spike = _rounding_case()
        ds = [spike] + [_spike(grid, b) for b in (-7.3, 0.0, 2.0, 11.1)]
        ds += [
            _two_point_posterior(grid, b, b + gap)
            for b in (-3.0, 0.0, 1.7)
            for gap in (math.pi / 4.0, math.pi / 2.0, 0.3)
        ]
        full_matrix = policies._mi_matrix
        masks = []

        def recording(moments, cfg, need=None):
            masks.append(need)
            return full_matrix(moments, cfg, need)

        monkeypatch.setattr(policies, "TIE_TOL", 0.0)
        monkeypatch.setattr(policies, "_mi_matrix", recording)
        full = full_matrix(_moments(ds, cfg), cfg)
        best = full.max(axis=(1, 2), keepdims=True)
        for series_err, r in itertools.product((policies.CONTRAST_SERIES_ERR, 0.0), (1, len(ds))):
            monkeypatch.setattr(policies, "CONTRAST_SERIES_ERR", series_err)
            masks.clear()
            chosen = []
            for k in range(0, len(ds), r):
                chosen += myopic_choices(ds[k : k + r], cfg)
            assert np.all(np.concatenate(masks)[full >= best])
            for m, p in zip(full, chosen):
                cell = m[tau_cell_index(cfg, p.tau), theta_cell_index(cfg, p.theta)]
                assert cell >= m.max() - 1e-14


class TestFourierScreen:
    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_estimates_within_error_bar(self, coherence_time, theta_grid_size):
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=16,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        spikes = [_spike(GRID, b) for b in np.linspace(-19.0, 19.0, 13)]
        two_points = [_two_point_posterior(GRID, b, b + math.pi / 4.0) for b in (-3.0, 0.0, 1.7)]
        deep = list(_myopic_trajectory(GRID, replace(cfg, theta_grid_size=16), 3, 30))[9::10]
        ds = (_random_posteriors(GRID, coherence_time, 11, 6) + spikes + two_points + deep
              + [uniform_distribution(GRID)])
        _assert_screen_covers(ds, cfg)

    def test_estimates_on_the_rounding_grid(self):
        grid, cfg, _, spike = _rounding_case()
        two_point = _two_point_posterior(grid, 0.0, math.pi / 4.0)
        _assert_screen_covers(_distinct_posteriors(grid, math.inf) + [spike, two_point], cfg)

    def test_error_bar_below_tie_tol_at_low_contrast(self):
        # at T = 2 the longest tau has contrast e^-2, where K = 4 terms
        # leave a tail below TIE_TOL
        cfg = PolicyConfig(tau_min=0.05, tau_max=4.0, tau_grid_size=8, coherence_time=2.0)
        width = _assert_screen_covers(_random_posteriors(GRID, 2.0, 5, 2), cfg)
        assert np.all(width[:, -1] < TIE_TOL)
        assert np.all(width[:, 0] > TIE_TOL)

    @pytest.mark.parametrize("coherence_time", [10.0, math.inf])
    def test_rounds_read_the_shared_moments(self, coherence_time):
        # a round over some rows gives those rows exactly what a round
        # over every row gives them: each reads its four moments from the
        # one product over the table and builds its own harmonics
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=16,
            theta_grid_size=12, coherence_time=coherence_time,
        )
        ds = _random_posteriors(GRID, coherence_time, 17, 3)
        moments = _moments(ds, cfg)
        table, qs, head = moments
        assert head.shape == (4, cfg.tau_grid_size, len(ds))
        np.testing.assert_allclose(head, np.einsum("ktn,rn->ktr", table, qs), rtol=0.0, atol=1e-15)
        every = _screen(moments, cfg, np.arange(cfg.tau_grid_size), _SCREEN_TERMS)
        for rows in (np.array([3]), np.array([0, 7, 15]), np.array([14, 2])):
            some = _screen(moments, cfg, rows, _SCREEN_TERMS)
            for got, full in zip(some, every):
                assert np.array_equal(got, full[:, rows])

    def test_complex_harmonics_match_direct_trig(self):
        # the screen's estimates from complex powers of exp(4 i tau b)
        # against the same sum built on cos and sin of 4 j tau b taken
        # afresh
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=8,
            theta_grid_size=12, coherence_time=10.0,
        )
        ds = _random_posteriors(GRID, 10.0, 19, 2) + [_two_point_posterior(GRID, 0.0, 1.0)]
        est, _ = _screen(_moments(ds, cfg), cfg, np.arange(cfg.tau_grid_size), _SCREEN_TERMS)
        contrast = policies._contrasts(cfg)
        a, _ = _series_table(cfg, _SCREEN_TERMS)
        thetas = theta_search_grid(cfg)[:6]
        b = GRID.points
        for r, d in enumerate(ds):
            q = GRID.trapz_weights * d.density
            q0 = q.sum()
            for i, tau in enumerate(tau_search_grid(cfg).tolist()):
                q_c, q_s = q @ np.cos(2.0 * tau * b), q @ np.sin(2.0 * tau * b)
                q_u = np.cos(thetas) * q_c - np.sin(thetas) * q_s
                p0 = np.clip(0.5 * q0 + 0.5 * contrast[i] * q_u, 0.0, q0)
                p1 = q0 - p0
                want = -(p0 * np.log(p0) + p1 * np.log(p1)) - a[0, i] * q0
                for j in range(1, _SCREEN_TERMS + 1):
                    m_c, m_s = q @ np.cos(4.0 * j * tau * b), q @ np.sin(4.0 * j * tau * b)
                    want -= a[j, i] * (np.cos(2 * j * thetas) * m_c - np.sin(2 * j * thetas) * m_s)
                np.testing.assert_allclose(est[r, i], want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_screened_choice_equals_full_scan_over_30_steps(self, coherence_time, monkeypatch):
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=16, coherence_time=coherence_time,
        )
        built, cells, screens = [], [], []
        full_matrix, full_screen = policies._mi_matrix, policies._screen

        def counting(moments, cfg, need=None):
            built.append(need.any(axis=(0, 2)).mean())
            cells.append(need.mean())
            return full_matrix(moments, cfg, need)

        def counting_screen(moments, cfg, taus, k):
            screens.append((k, taus.tolist()))
            return full_screen(moments, cfg, taus, k)

        monkeypatch.setattr(policies, "_mi_matrix", counting)
        monkeypatch.setattr(policies, "_screen", counting_screen)
        for seed in range(2):
            for d in _myopic_trajectory(GRID, cfg, seed, 30):
                full = full_matrix(_moments([d], cfg), cfg)[0]
                p = next_params_myopic_entropy(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(full, cfg)
        # the screen builds few rows (the point of it); every decision
        # screens every row at k = 1, then some of them at K terms
        assert np.mean(built) < 0.25
        every = list(range(cfg.tau_grid_size))
        assert len(screens) == 2 * len(built)
        for (k1, rows1), (k, rows) in zip(screens[::2], screens[1::2]):
            assert (k1, rows1) == (1, every)
            assert k == _SCREEN_TERMS and 0 < len(rows) <= len(every)
        # at finite T the K-term error bars leave about one cell of each
        # built row (12.5% of its cells); at T = inf about half of them
        if math.isfinite(coherence_time):
            assert np.mean(cells) < 0.25 * np.mean(built)


def _per_tau_variance_matrix(d, cfg):
    """The expected-variance kernel over the whole theta grid with one
    vector product per tau and trig function, on cos and sin taken afresh:
    the reference for the kernel's one product with the harmonic table."""
    taus = tau_search_grid(cfg)
    thetas = theta_search_grid(cfg)
    b = d.grid.points
    q = d.grid.trapz_weights * d.density
    qb = q * b
    w = np.stack((q, qb, qb * b))
    tot = w.sum(axis=1)[:, None, None]
    trig = [(np.cos(2.0 * tau * b), np.sin(2.0 * tau * b)) for tau in taus.tolist()]
    wc = np.stack([w @ c for c, _ in trig], axis=1)[:, :, None]
    ws = np.stack([w @ s for _, s in trig], axis=1)[:, :, None]
    half_c = np.array([0.5 * math.exp(-tau / cfg.coherence_time) for tau in taus])[:, None]
    moments = 0.5 * tot + half_c * (wc * np.cos(thetas) - ws * np.sin(thetas))
    out = np.zeros((len(taus), len(thetas)))
    for m0, m1, m2 in (moments, tot - moments):
        ok = m0 > ZERO_EVIDENCE_FLOOR
        mm = np.where(ok, m0, 1.0)
        var = np.maximum(m2 / mm - (m1 / mm) ** 2, 0.0)
        out += np.where(ok, m0 * var, 0.0)
    return out


class TestHarmonicTable:
    def test_rows_are_cos_sin_and_their_double_angles(self):
        cfg = PolicyConfig()
        table = _harmonic_table(GRID, cfg)
        assert table.shape == (4, cfg.tau_grid_size, GRID.n_points)
        for i, tau in enumerate(tau_search_grid(cfg).tolist()):
            c = np.cos(2.0 * tau * GRID.points)
            s = np.sin(2.0 * tau * GRID.points)
            assert table[0, i].tobytes() == c.tobytes()
            assert table[1, i].tobytes() == s.tobytes()
            assert table[2, i].tobytes() == (c * c - s * s).tobytes()
            assert table[3, i].tobytes() == (c * s * 2.0).tobytes()

    def test_read_only(self):
        table = _harmonic_table(GRID, SMALL_CFG)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0

    def test_shared_by_kind_and_coherence_time(self):
        variance = replace(SMALL_CFG, kind="variance_min", coherence_time=10.0)
        myopic = replace(SMALL_CFG, kind="myopic_entropy", coherence_time=math.inf)
        assert _harmonic_table(GRID, variance) is _harmonic_table(GRID, myopic)
        other = replace(SMALL_CFG, tau_grid_size=SMALL_CFG.tau_grid_size + 1)
        assert _harmonic_table(GRID, other).shape[1] == SMALL_CFG.tau_grid_size + 1

    @pytest.mark.parametrize("theta_grid_size", [16, 9])
    @pytest.mark.parametrize("coherence_time", [10.0, math.inf])
    def test_variance_choice_equals_per_tau_kernel(self, coherence_time, theta_grid_size):
        cfg = PolicyConfig(
            kind="variance_min", tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        # the two kernels sum the same products in another order: each
        # moment w_k . c is within N eps of sum |w_k|, and w_2 carries b^2
        tol = GRID.n_points * np.finfo(float).eps * GRID.b_max**2
        for seed in range(3):
            for d in _myopic_trajectory(GRID, replace(cfg, kind="myopic_entropy"), seed, 10):
                oracle = _per_tau_variance_matrix(d, cfg)
                np.testing.assert_allclose(_variance_one(d, cfg), _scored(oracle, cfg), rtol=0.0, atol=tol)
                p = next_params_variance_min(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(-oracle, cfg)


class TestSeriesTable:
    @pytest.mark.parametrize("k", [1, _SCREEN_TERMS])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_equals_per_row_series_bit_for_bit(self, coherence_time, k):
        cfg = replace(SMALL_CFG, coherence_time=coherence_time)
        contrast = policies._contrasts(cfg)
        a, tail = _series_table(cfg, k)
        assert a.shape == (k + 1, cfg.tau_grid_size)
        assert tail.shape == (cfg.tau_grid_size,)
        for i, tau in enumerate(tau_search_grid(cfg).tolist()):
            assert contrast[i] == math.exp(-tau / coherence_time)
            coeffs, t = contrast_entropy_series(float(contrast[i]), k)
            assert a[:, i].tobytes() == coeffs.tobytes()
            assert tail[i] == t

    def test_read_only_and_cached(self):
        contrast, series = policies._contrasts(SMALL_CFG), _series_table(SMALL_CFG, _SCREEN_TERMS)
        assert policies._contrasts(SMALL_CFG) is contrast
        assert _series_table(SMALL_CFG, _SCREEN_TERMS) is series
        for x in (contrast, *series):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0


class TestVarianceBatchKernel:
    @pytest.mark.parametrize("n_points", [2**11, 2**12])
    @pytest.mark.parametrize("theta_grid_size", [16, 9])
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_each_posterior_scores_as_alone(self, count, theta_grid_size, n_points):
        grid = FieldGrid(-20.0, 20.0, n_points)
        cfg = PolicyConfig(
            kind="variance_min", tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=theta_grid_size, coherence_time=10.0,
        )
        ds = _random_posteriors(grid, 10.0, 23, count - 1) + [_spike(grid, 0.3)]
        got = _expected_variance_matrix(ds, cfg)
        assert got.shape == (count, cfg.tau_grid_size, policies._scored_theta_count(cfg))
        # as in test_variance_choice_equals_per_tau_kernel
        tol = grid.n_points * np.finfo(float).eps * grid.b_max**2
        for d, scores in zip(ds, got):
            assert scores.tobytes() == _expected_variance_matrix([d], cfg)[0].tobytes()
            np.testing.assert_allclose(scores, _scored(_per_tau_variance_matrix(d, cfg), cfg), rtol=0.0, atol=tol)
        chosen = variance_choices(ds, cfg)
        assert chosen == [next_params_variance_min(_state(d), cfg) for d in ds]
        assert [(p.tau, p.theta) for p in chosen] == [_best_cell(-m, cfg) for m in got]
        for d, p in zip(ds, chosen):
            assert (p.tau, p.theta) == _best_cell(-_per_tau_variance_matrix(d, cfg), cfg)


class TestPinnedMyopicCells:
    # (tau index, theta index) the myopic policy chose at the default
    # configurations, recorded before the Fourier screen (the first ten
    # compare cells before any row was pruned); cell indices hold across
    # platforms where float bytes may not
    KPE_CHECK = [(56, 0), (49, 0), (42, 0), (35, 0), (28, 0)]
    # every cell of the standard experiment (all trials, all steps) for
    # both greedy kinds, recorded while the screen still had its row
    # bounds and two K-term rounds; both kinds run their trials in
    # lockstep, so these pin the batched choosers
    COMPARE = {
        "myopic_entropy": [
            [
                (36, 16), (39, 29), (43, 22), (47, 14), (35, 31), (50, 24),
                (53, 4), (43, 8), (56, 2), (57, 11), (58, 7), (58, 1),
                (60, 12), (61, 20), (61, 24), (54, 26), (61, 28), (63, 1),
                (63, 4), (63, 8), (63, 4), (63, 2), (63, 31), (63, 28),
                (63, 31), (63, 29), (63, 31), (63, 29), (63, 31), (63, 1),
            ],
            [
                (36, 16), (39, 29), (43, 15), (46, 5), (50, 11), (43, 6),
                (53, 30), (55, 31), (57, 23), (58, 15), (51, 7), (60, 31),
                (61, 18), (61, 23), (61, 27), (61, 0), (61, 3), (54, 14),
                (61, 6), (62, 5), (40, 3), (63, 2), (63, 31), (63, 2),
                (63, 31), (63, 1), (63, 31), (63, 1), (63, 31), (63, 29),
            ],
            [
                (36, 16), (39, 29), (43, 22), (47, 14), (35, 31), (50, 24),
                (53, 17), (55, 8), (57, 15), (58, 8), (58, 2), (51, 20),
                (60, 27), (61, 20), (61, 16), (62, 17), (62, 13), (63, 14),
                (63, 10), (63, 7), (63, 10), (63, 7), (63, 10), (63, 8),
                (63, 10), (63, 12), (63, 14), (63, 17), (63, 20), (63, 16),
            ],
            [
                (36, 16), (39, 29), (43, 15), (46, 5), (31, 11), (39, 18),
                (31, 11), (50, 8), (52, 0), (54, 18), (57, 14), (49, 2),
                (58, 23), (59, 28), (60, 30), (61, 18), (61, 22), (62, 7),
                (63, 27), (63, 23), (52, 25), (63, 21), (63, 24), (63, 21),
                (63, 18), (63, 15), (63, 12), (63, 16), (63, 13), (56, 27),
            ],
            [
                (36, 16), (39, 3), (43, 10), (47, 26), (50, 7), (52, 9),
                (55, 19), (38, 20), (57, 13), (58, 13), (59, 31), (60, 28),
                (61, 14), (51, 28), (62, 0), (62, 28), (62, 24), (63, 17),
                (63, 13), (63, 16), (63, 13), (63, 16), (63, 19), (63, 21),
                (63, 24), (63, 21), (63, 19), (63, 17), (63, 15), (63, 14),
            ],
            [
                (36, 16), (39, 3), (43, 17), (34, 23), (47, 15), (50, 14),
                (53, 24), (45, 0), (55, 3), (57, 11), (58, 7), (59, 2),
                (60, 17), (60, 12), (62, 20), (62, 24), (62, 28), (55, 27),
                (63, 15), (63, 12), (63, 15), (63, 18), (63, 21), (63, 23),
                (63, 20), (63, 18), (63, 20), (63, 18), (63, 16), (63, 14),
            ],
            [
                (36, 16), (39, 3), (43, 17), (46, 27), (31, 21), (50, 13),
                (53, 11), (55, 29), (37, 11), (57, 29), (58, 6), (51, 5),
                (59, 15), (60, 1), (61, 6), (61, 2), (62, 14), (63, 23),
                (63, 26), (63, 30), (56, 28), (55, 6), (56, 28), (63, 31),
                (63, 27), (63, 24), (63, 21), (63, 24), (63, 27), (63, 24),
            ],
            [
                (36, 16), (39, 3), (43, 10), (47, 26), (50, 30), (53, 2),
                (44, 0), (55, 8), (57, 31), (58, 22), (59, 25), (60, 28),
                (60, 1), (59, 7), (52, 0), (53, 29), (53, 28), (54, 27),
                (52, 31), (60, 7), (61, 30), (61, 24), (61, 20), (61, 16),
                (62, 18), (62, 14), (46, 26), (62, 12), (62, 9), (62, 12),
            ],
        ],
        "variance_min": [
            [
                (32, 16), (34, 23), (38, 4), (40, 31), (28, 8), (29, 7),
                (30, 28), (43, 21), (44, 14), (45, 21), (47, 0), (51, 28),
                (51, 1), (37, 5), (52, 4), (56, 22), (56, 19), (43, 12),
                (57, 19), (58, 19), (58, 22), (59, 22), (61, 1), (61, 4),
                (62, 7), (62, 9), (63, 13), (63, 10), (63, 8), (57, 16),
            ],
            [
                (32, 16), (34, 23), (38, 4), (40, 31), (42, 8), (47, 16),
                (28, 6), (40, 7), (40, 12), (41, 16), (34, 24), (42, 26),
                (43, 25), (48, 29), (48, 27), (52, 21), (54, 18), (41, 31),
                (49, 26), (51, 4), (55, 1), (41, 0), (49, 24), (56, 20),
                (56, 16), (58, 15), (58, 18), (58, 20), (62, 26), (63, 27),
            ],
            [
                (32, 16), (34, 23), (37, 19), (41, 11), (43, 20), (46, 13),
                (47, 19), (50, 14), (51, 8), (54, 12), (54, 8), (47, 19),
                (58, 28), (27, 0), (55, 30), (57, 0), (57, 3), (57, 31),
                (59, 22), (60, 24), (60, 27), (60, 24), (60, 26), (61, 20),
                (62, 21), (62, 23), (62, 25), (55, 30), (62, 28), (62, 26),
            ],
            [
                (32, 16), (34, 9), (38, 28), (39, 20), (31, 13), (42, 1),
                (44, 16), (46, 28), (46, 0), (35, 4), (52, 7), (53, 20),
                (55, 10), (55, 13), (57, 31), (46, 6), (57, 25), (58, 27),
                (59, 26), (60, 21), (46, 26), (51, 13), (54, 1), (55, 11),
                (45, 25), (51, 13), (58, 23), (60, 21), (60, 24), (60, 27),
            ],
            [
                (32, 16), (34, 9), (37, 13), (42, 3), (43, 8), (44, 2),
                (46, 23), (48, 8), (41, 13), (52, 2), (55, 24), (55, 21),
                (55, 25), (48, 13), (48, 8), (48, 6), (48, 9), (51, 4),
                (52, 11), (54, 27), (55, 15), (57, 7), (60, 18), (60, 16),
                (63, 11), (31, 26), (60, 14), (61, 6), (63, 18), (63, 16),
            ],
            [
                (32, 16), (34, 9), (38, 28), (40, 1), (42, 24), (47, 16),
                (48, 7), (50, 20), (43, 3), (53, 8), (53, 11), (54, 31),
                (54, 3), (54, 31), (55, 18), (57, 4), (61, 21), (57, 7),
                (61, 27), (63, 21), (63, 24), (63, 21), (63, 24), (63, 21),
                (63, 24), (63, 26), (63, 24), (63, 26), (30, 24), (63, 27),
            ],
            [
                (32, 16), (34, 9), (38, 28), (39, 20), (31, 13), (31, 16),
                (33, 11), (37, 23), (38, 1), (46, 26), (46, 30), (48, 14),
                (49, 2), (55, 13), (56, 26), (49, 9), (57, 2), (58, 20),
                (59, 5), (59, 2), (59, 5), (59, 8), (59, 11), (59, 8),
                (59, 10), (44, 16), (63, 13), (63, 15), (63, 18), (63, 15),
            ],
            [
                (32, 16), (34, 9), (37, 13), (42, 3), (43, 8), (44, 2),
                (51, 30), (45, 5), (47, 27), (52, 29), (52, 1), (54, 23),
                (52, 30), (53, 21), (60, 12), (60, 14), (60, 17), (60, 14),
                (61, 15), (61, 12), (61, 15), (61, 17), (62, 11), (62, 8),
                (62, 11), (62, 9), (62, 11), (62, 12), (62, 11), (62, 12),
            ],
        ],
    }
    COMPARE_TRIAL_0 = COMPARE["myopic_entropy"][0]

    @staticmethod
    def _cells(cfg, params):
        return [(tau_cell_index(cfg, tau), theta_cell_index(cfg, theta)) for tau, theta in params]

    def test_default_kpe_check(self):
        keys = cli.resolve_config("kpe-check", None)
        cfg = cli._policy_config(keys, "myopic_entropy")
        rows = compare_kpe_to_myopic(
            keys["outcomes"], cfg, FieldGrid(keys["b_min"], keys["b_max"], keys["n_points"])
        )
        assert self._cells(cfg, [(r.myopic_tau, r.myopic_theta) for r in rows]) == self.KPE_CHECK

    def test_default_compare_trial_0(self):
        # all 30 steps of trial 0 of the standard experiment: the deep
        # posteriors of the last steps are where the screen rules out most
        standard = SimConfig()
        sim = replace(standard, policy=replace(standard.policy, kind="myopic_entropy"))
        records = run_trials(sim, [0])[0].records
        assert self._cells(sim.policy, [(r.tau, r.theta) for r in records]) == self.COMPARE_TRIAL_0

    @pytest.mark.parametrize("kind", ["myopic_entropy", "variance_min"])
    def test_default_compare_every_trial(self, kind):
        standard = SimConfig()
        sim = replace(standard, policy=replace(standard.policy, kind=kind))
        trajectories = run_trials(sim, range(sim.n_realizations))
        got = [self._cells(sim.policy, [(r.tau, r.theta) for r in t.records]) for t in trajectories]
        assert got == self.COMPARE[kind]


class TestKpeMyopicComparison:
    def test_all_zero_outcomes_agree_exactly(self):
        tau0 = 4.0
        grid = FieldGrid(-8.0 * math.pi, 8.0 * math.pi, 2**12)
        cfg = PolicyConfig(
            kind="myopic_entropy", tau_min=tau0 / 512, tau_max=tau0,
            tau_grid_size=64, theta_grid_size=64,
            kpe_tau0=tau0, kpe_theta0=0.0, coherence_time=math.inf,
        )
        rows = compare_kpe_to_myopic([0, 0, 0], cfg, grid)
        assert [r.step for r in rows] == [2, 3, 4]
        for r in rows:
            assert r.tau_cell_delta == 0
            assert r.theta_cell_delta == 0

    def test_every_five_outcome_string_agrees_at_the_defaults(self):
        # the paper's reduction claim at the kpe-check defaults, over all
        # 2^5 outcome strings, not only the default five 0s
        keys = cli.resolve_config("kpe-check", None)
        cfg = cli._policy_config(keys, "myopic_entropy")
        grid = FieldGrid(keys["b_min"], keys["b_max"], keys["n_points"])
        assert len(keys["outcomes"]) == 5
        for outcomes in itertools.product((0, 1), repeat=5):
            rows = compare_kpe_to_myopic(outcomes, cfg, grid)
            assert [r.step for r in rows] == [2, 3, 4, 5, 6]
            assert all(r.tau_cell_delta == 0 and r.theta_cell_delta == 0 for r in rows), outcomes

    def test_rejects_bad_outcomes(self):
        with pytest.raises(ValueError):
            compare_kpe_to_myopic([0, 2], SMALL_CFG, GRID)

    def test_theta_delta_folds_pi_on_an_even_grid(self):
        cfg = PolicyConfig(theta_grid_size=64)
        step = 2 * math.pi / 64
        for theta in (0.0, 5 * step, 40 * step):
            assert theta_cells_apart(cfg, theta, theta + math.pi) == 0
        assert theta_cells_apart(cfg, 0.0, 31 * step) == 1
        assert theta_cells_apart(cfg, 0.0, 16 * step) == 16
        assert theta_cells_apart(cfg, 0.0, 48 * step) == 16

    def test_theta_delta_on_an_odd_grid_goes_around_the_circle(self):
        # an odd grid holds no theta + pi cell: theta + pi lies midway
        # between two cells, each one cell from it, so a circle distance d
        # also counts as ceil(|d - 4.5|)
        cfg = PolicyConfig(theta_grid_size=9)
        thetas = theta_search_grid(cfg)
        assert [theta_cells_apart(cfg, 0.0, t) for t in thetas] == [0, 1, 2, 2, 1, 1, 2, 2, 1]
        for i in range(9):
            for j in range(9):
                d = min(abs(i - j), 9 - abs(i - j))
                assert theta_cells_apart(cfg, thetas[i], thetas[j]) == min(d, math.ceil(abs(d - 4.5)))
