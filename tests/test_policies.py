import math

import numpy as np
import pytest

from ramsey_sched.bayes import (
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
    PolicyConfig,
    PolicyState,
    _best_cell,
    _expected_variance_matrix,
    _mi_matrix,
    compare_kpe_to_myopic,
    next_params,
    next_params_kpe,
    next_params_lockstep,
    next_params_myopic_entropy,
    next_params_random,
    next_params_variance_min,
    tau_search_grid,
    theta_search_grid,
)

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
        states = [_state(d) for d in ds]
        chosen = next_params_lockstep(states, cfg, [None] * len(ds))
        assert chosen == [next_params_myopic_entropy(state, cfg) for state in states]

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

    def test_other_kinds_go_state_by_state(self):
        states = [_state(d) for d in _distinct_posteriors(GRID, 8.0)]
        for kind in ("random", "kpe", "variance_min"):
            cfg = PolicyConfig(
                kind=kind, tau_min=0.05, tau_max=4.0, tau_grid_size=8,
                theta_grid_size=8, coherence_time=8.0,
            )
            got = next_params_lockstep(states, cfg, [np.random.default_rng(i) for i in range(3)])
            want = [next_params(s, cfg, np.random.default_rng(i)) for i, s in enumerate(states)]
            assert got == want


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
