import math
from dataclasses import replace

import numpy as np
import pytest

from ramsey_sched import cli, policies
from ramsey_sched.bayes import (
    FieldDistribution,
    FieldGrid,
    RamseyParams,
    bayes_update,
    expected_posterior_functional,
    gaussian_distribution,
    likelihood,
    mutual_information,
    spike_distribution,
    uniform_distribution,
)
from ramsey_sched.policies import (
    _BOUND_MARGIN,
    _SCREEN_TERMS,
    TIE_TOL,
    PolicyConfig,
    PolicyState,
    _best_cell,
    _expected_variance_matrix,
    _mi_matrix,
    _screen,
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
    theta_search_grid,
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
        best_ev = expected_posterior_functional(d, best, "variance")
        for tau in tau_search_grid(SMALL_CFG):
            for theta in theta_search_grid(SMALL_CFG):
                cell = RamseyParams(float(tau), float(theta), SMALL_CFG.coherence_time)
                assert expected_posterior_functional(d, cell, "variance") >= best_ev - 1e-9

    def test_beats_random_cells(self):
        d = gaussian_distribution(GRID, 0.0, 1.2)
        best = next_params_variance_min(_state(d), SMALL_CFG)
        best_ev = expected_posterior_functional(d, best, "variance")
        taus = tau_search_grid(SMALL_CFG)
        thetas = theta_search_grid(SMALL_CFG)
        rng = np.random.default_rng(31)
        for _ in range(100):
            cell = RamseyParams(
                float(rng.choice(taus)),
                float(rng.choice(thetas)),
                SMALL_CFG.coherence_time,
            )
            assert best_ev <= expected_posterior_functional(d, cell, "variance") + 1e-9

    def test_spike_posterior_ties_break_to_smallest_cell(self):
        d = spike_distribution(GRID, 0.3)
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
    return expected_posterior_functional(d, p, "variance")


# (matrix kernel, its scalar oracle, the policy built on it, sign that
# turns the objective into a maximisation)
def _mi_one(d, cfg):
    return _mi_matrix([d], cfg)[0]


KERNELS = [
    (_mi_one, mutual_information, next_params_myopic_entropy, 1.0),
    (_expected_variance_matrix, _expected_variance, next_params_variance_min, -1.0),
]


def _oracle_matrix(d, cfg, oracle):
    return np.array([
        [oracle(d, RamseyParams(float(tau), float(theta), cfg.coherence_time))
         for theta in theta_search_grid(cfg)]
        for tau in tau_search_grid(cfg)
    ])


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
    return grid, cfg, j, spike_distribution(grid, float(grid.points[k]))


def _distinct_posteriors(grid, coherence_time):
    # three shapes on one grid: a Gaussian, after one update, after three
    d = gaussian_distribution(grid, 0.4, 2.0)
    once = bayes_update(d, RamseyParams(1.3, 0.4, coherence_time), 1)
    return [d, once, _asymmetric_posterior(grid, coherence_time)]


class TestScoringKernelsAgainstScalarOracle:
    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_every_cell_and_the_chosen_cell(self, coherence_time, theta_grid_size):
        # an even theta grid is scored below pi and mirrored; an odd one
        # has no theta + pi partners and is scored in full
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        d = _asymmetric_posterior(GRID, coherence_time)
        for kernel, oracle, policy, sign in KERNELS:
            want = _oracle_matrix(d, cfg, oracle)
            np.testing.assert_allclose(kernel(d, cfg), want, rtol=0.0, atol=1e-12)
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
            np.testing.assert_allclose(got, _oracle_matrix(d, cfg, oracle), rtol=0.0, atol=1e-12)

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
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
                p = policy(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(sign * want, cfg)
        # the outcome at that cell is certain, so it carries no information
        assert _mi_one(spike, cfg)[0, j] == 0.0


class TestLockstepMiKernel:
    def _assert_each_alone(self, ds, cfg):
        got = _mi_matrix(ds, cfg)
        assert got.shape == (len(ds), cfg.tau_grid_size, cfg.theta_grid_size)
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
        assert _mi_matrix([uniform_distribution(grid), spike], cfg)[1, 0, j] == 0.0

    def test_posteriors_must_share_a_grid(self):
        ds = [uniform_distribution(GRID), uniform_distribution(FieldGrid(-20.0, 20.0, 2**10))]
        with pytest.raises(ValueError, match="one grid"):
            _mi_matrix(ds, SMALL_CFG)


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
    # at k = 1 and at k = _SCREEN_TERMS: the bound covers every row and
    # every cell's exact score lies within its estimate's error bar;
    # returns the k = _SCREEN_TERMS bound and error bars
    exact = _mi_matrix(ds, cfg)
    for k in (1, _SCREEN_TERMS):
        bound, est, width = _screen(ds, cfg, tau_search_grid(cfg), k)
        assert bound.shape == width.shape == (len(ds), cfg.tau_grid_size)
        assert np.all(bound >= exact.max(axis=2) - _BOUND_MARGIN)
        assert np.all(np.abs(exact[:, :, : est.shape[2]] - est) <= width[:, :, None] + _BOUND_MARGIN)
    return bound, width


class TestBoundPrunedChoice:
    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_bound_covers_every_cell(self, coherence_time, theta_grid_size):
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=16,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        # one-point posteriors carry no information: their bound is 0 and
        # the exact score is 0 up to rounding, on either side
        spikes = [spike_distribution(GRID, b) for b in np.linspace(-19.0, 19.0, 39)]
        ds = _random_posteriors(GRID, coherence_time, 7, 6) + spikes
        _assert_screen_covers(ds + [uniform_distribution(GRID)], cfg)

    def test_bound_on_the_rounding_grid(self):
        grid, cfg, _, spike = _rounding_case()
        _assert_screen_covers(_distinct_posteriors(grid, math.inf) + [spike], cfg)

    def test_bound_is_tight_where_outcomes_are_certain(self):
        # T = inf, mass 1/2 on b = 0 and b = pi/4: at tau = 2, theta = 0
        # the outcome is certain at both points, so MI = H(X) = ln 2 and
        # both bounds equal it
        grid, cfg, _, _ = _rounding_case()
        d = _two_point_posterior(grid, 0.0, math.pi / 4.0)
        row = _mi_matrix([d], cfg)[0, -1]
        assert row.max() == pytest.approx(math.log(2.0), abs=1e-15)
        bound, _ = _assert_screen_covers([d], cfg)
        assert bound[0, -1] == pytest.approx(math.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("n_points", [2**11, 2**12])
    @pytest.mark.parametrize("coherence_time", [10.0, math.inf])
    def test_pruned_choice_equals_full_scan(self, n_points, coherence_time):
        grid = FieldGrid(-20.0, 20.0, n_points)
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=16, coherence_time=coherence_time,
        )
        kept = []
        for seed in range(5):
            for d in _myopic_trajectory(grid, cfg, seed, 10):
                full = _mi_matrix([d], cfg)[0]
                p = next_params_myopic_entropy(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(full, cfg)
                bounds = _screen([d], cfg, tau_search_grid(cfg), 1)[0][0]
                kept.append(np.mean(bounds >= full.max() - TIE_TOL - _BOUND_MARGIN))
        # the bound rules out most rows (the point of pruning)
        assert np.mean(kept) < 0.5

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
        full = _mi_matrix(ds, cfg)
        assert [(p.tau, p.theta) for p in chosen] == [_best_cell(m, cfg) for m in full]

    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    def test_partial_mask_keeps_rows_bit_for_bit(self, theta_grid_size):
        cfg = PolicyConfig(
            tau_min=0.05, tau_max=4.0, tau_grid_size=6,
            theta_grid_size=theta_grid_size, coherence_time=10.0,
        )
        ds = _distinct_posteriors(GRID, 10.0)
        need = np.array([
            [1, 0, 0, 1, 0, 1],
            [1, 0, 1, 0, 0, 1],
            [0, 0, 0, 0, 0, 1],
        ], dtype=bool)
        got = _mi_matrix(ds, cfg, need)
        full = _mi_matrix(ds, cfg)
        assert np.array_equal(got[need], full[need])
        assert np.all(got[~need] == -np.inf)


class TestFourierScreen:
    @pytest.mark.parametrize("theta_grid_size", [12, 9])
    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_estimates_within_error_bar(self, coherence_time, theta_grid_size):
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=16,
            theta_grid_size=theta_grid_size, coherence_time=coherence_time,
        )
        spikes = [spike_distribution(GRID, b) for b in np.linspace(-19.0, 19.0, 13)]
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
        _, width = _assert_screen_covers(_random_posteriors(GRID, 2.0, 5, 2), cfg)
        assert np.all(width[:, -1] < TIE_TOL)
        assert np.all(width[:, 0] > TIE_TOL)

    @pytest.mark.parametrize("coherence_time", [2.0, 10.0, math.inf])
    def test_screened_choice_equals_full_scan_over_30_steps(self, coherence_time, monkeypatch):
        cfg = PolicyConfig(
            tau_min=5.0 / 512.0, tau_max=5.0, tau_grid_size=32,
            theta_grid_size=16, coherence_time=coherence_time,
        )
        built, screened = [], []
        full_matrix, full_screen = policies._mi_matrix, policies._screen

        def counting(ds, cfg, need=None):
            built.append(need.any(axis=0).mean())
            return full_matrix(ds, cfg, need)

        def counting_screen(ds, cfg, taus, k):
            if k == _SCREEN_TERMS:
                screened.append(len(taus) / cfg.tau_grid_size)
            return full_screen(ds, cfg, taus, k)

        monkeypatch.setattr(policies, "_mi_matrix", counting)
        monkeypatch.setattr(policies, "_screen", counting_screen)
        for seed in range(2):
            for d in _myopic_trajectory(GRID, cfg, seed, 30):
                full = full_matrix([d], cfg)[0]
                p = next_params_myopic_entropy(_state(d), cfg)
                assert (p.tau, p.theta) == _best_cell(full, cfg)
        # the screen builds few rows (the point of it); at finite T the
        # k = 1 pass leaves few rows to screen at K terms (the bounds
        # alone leave 37-42%), at T = inf its error bar of about 0.05 q0
        # rules out little
        assert np.mean(built) < 0.25
        assert sum(screened) / len(built) < (0.45 if math.isinf(coherence_time) else 0.3)


class TestPinnedMyopicCells:
    # (tau index, theta index) the myopic policy chose at the default
    # configurations, recorded before the Fourier screen (the first ten
    # compare cells before any row was pruned); cell indices hold across
    # platforms where float bytes may not
    KPE_CHECK = [(56, 0), (49, 0), (42, 0), (35, 0), (28, 0)]
    COMPARE_TRIAL_0 = [
        (36, 16), (39, 29), (43, 22), (47, 14), (35, 31),
        (50, 24), (53, 4), (43, 8), (56, 2), (57, 11),
        (58, 7), (58, 1), (60, 12), (61, 20), (61, 24),
        (54, 26), (61, 28), (63, 1), (63, 4), (63, 8),
        (63, 4), (63, 2), (63, 31), (63, 28), (63, 31),
        (63, 29), (63, 31), (63, 29), (63, 31), (63, 1),
    ]

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

    def test_rejects_bad_outcomes(self):
        with pytest.raises(ValueError):
            compare_kpe_to_myopic([0, 2], SMALL_CFG, GRID)
