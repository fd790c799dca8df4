import math

import numpy as np
import pytest

from ramsey_sched import simulate
from ramsey_sched.bayes import FieldGrid, RamseyParams, ZeroEvidence
from ramsey_sched.policies import POLICY_KINDS, PolicyConfig
from ramsey_sched.simulate import (
    SimConfig,
    run_ensemble,
    run_trial,
    run_trials,
    sample_outcome,
    summarize,
    trial_rng,
)

GRID = FieldGrid(-20.0, 20.0, 2**11)

# Entropy drops of the halving schedule on a wide uniform prior without
# decoherence, frozen from direct entropy differencing on the grid
# pipeline (the drops are outcome-independent).  The same numbers follow
# from ln 2 minus the conditional-entropy series of the triangular comb.
KPE_UNIFORM_DROPS = [0.306853, 0.473519, 0.575900, 0.632597, 0.662385]


def _cfg(kind="random", **kw):
    policy = PolicyConfig(
        kind=kind,
        tau_min=kw.pop("tau_min", 0.05),
        tau_max=kw.pop("tau_max", 4.0),
        tau_grid_size=kw.pop("tau_grid_size", 12),
        theta_grid_size=kw.pop("theta_grid_size", 12),
        kpe_tau0=kw.pop("kpe_tau0", 2.0),
        kpe_theta0=kw.pop("kpe_theta0", 0.0),
        coherence_time=kw.pop("coherence_time", 8.0),
    )
    defaults = dict(
        prior_mean=0.0,
        prior_std=1.5,
        n_measurements=6,
        n_realizations=3,
        master_seed=99,
        policy=policy,
        grid=GRID,
        true_field=None,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def _prefixes(trajectories, length):
    """The distinct outcome prefixes of the given length, in order of the
    first trial (in run order) that holds each."""
    return list(dict.fromkeys(tuple(r.outcome for r in t.records[:length]) for t in trajectories))


def _update_order(kind, trajectories):
    """(trial, step) that each bayes_update call of a run_trials call
    belongs to, in call order.  Greedy trials share a history's update,
    made by the first trial in run order that reaches it, step by step;
    the other kinds update trial by trial."""
    if kind not in ("myopic_entropy", "variance_min"):
        return [(t.trial_index, r.step) for t in trajectories for r in t.records]
    outcomes = [tuple(r.outcome for r in t.records) for t in trajectories]
    return [
        (trajectories[[o[:step] for o in outcomes].index(prefix)].trial_index, step)
        for step in range(1, len(outcomes[0]) + 1)
        for prefix in dict.fromkeys(o[:step] for o in outcomes)
    ]


class TestSimConfig:
    def test_grid_must_cover_prior(self):
        with pytest.raises(ValueError):
            _cfg(prior_std=5.0)  # 6 sigma = 30 > 20

    @pytest.mark.parametrize("key, value, named", [
        ("prior_mean", math.nan, "finite prior_mean, got nan"),
        ("prior_std", math.inf, "finite prior_std > 0, got inf"),
        ("prior_std", 0.0, "finite prior_std > 0, got 0.0"),
    ])
    def test_prior_must_be_finite(self, key, value, named):
        # NaN fails both of the coverage comparisons, so it is named first
        with pytest.raises(ValueError, match=rf"^require {named}$"):
            _cfg(**{key: value})

    def test_prior_must_span_four_grid_spacings(self):
        # a two-point grid cannot resolve a unit-std prior
        with pytest.raises(ValueError, match=r"^require prior_std >= 4 grid spacings \(80.0\), got 1.0$"):
            _cfg(grid=FieldGrid(-10.0, 10.0, 2), prior_std=1.0)
        assert _cfg(prior_std=4.0 * GRID.spacing).prior_std == 4.0 * GRID.spacing

    @pytest.mark.parametrize("true_field", [35.0, -20.5, math.nan])
    def test_true_field_must_lie_on_grid(self, true_field):
        with pytest.raises(ValueError, match=rf"true_field {true_field} .*\[-20.0, 20.0\]"):
            _cfg(true_field=true_field)

    @pytest.mark.parametrize("true_field", [-20.0, 20.0])
    def test_true_field_on_grid_edge_is_accepted(self, true_field):
        assert _cfg(true_field=true_field).true_field == true_field

    def test_master_seed_must_be_non_negative(self):
        # rejected on construction, not later by the seed sequence
        with pytest.raises(ValueError, match=r"require master_seed >= 0, got -1"):
            _cfg(master_seed=-1)
        assert _cfg(master_seed=0).master_seed == 0

    @pytest.mark.parametrize("key", ["tau_max", "kpe_tau0"])
    def test_exposure_phase_must_be_finite(self, key):
        # 2 tau b overflows to inf, whose cosine is NaN, so every
        # likelihood of such an exposure would be NaN
        with pytest.raises(ValueError, match=rf"key '{key}': require a finite phase"):
            _cfg(**{key: 1e308})
        assert getattr(_cfg(**{key: 1e306}).policy, key) == 1e306


class TestSampleOutcome:
    def test_certain_zero(self):
        p = RamseyParams(0.0, 0.0)
        rng = np.random.default_rng(0)
        assert all(sample_outcome(rng, 3.3, p) == 0 for _ in range(50))

    def test_certain_one(self):
        p = RamseyParams(1.0, math.pi)
        rng = np.random.default_rng(0)
        assert all(sample_outcome(rng, 0.0, p) == 1 for _ in range(50))

    def test_bernoulli_law(self):
        # unbiased point: 2 b tau + theta = pi/2
        p = RamseyParams(1.0, 0.0)
        rng = np.random.default_rng(7)
        n = 10_000
        zeros = sum(sample_outcome(rng, math.pi / 4.0, p) == 0 for _ in range(n))
        assert abs(zeros / n - 0.5) < 3.0 * 0.5 / math.sqrt(n)

    def test_consumes_one_draw(self):
        p = RamseyParams(0.7, 0.2, 5.0)
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        sample_outcome(a, 1.0, p)
        b.random()
        assert a.random() == b.random()


class TestRunTrial:
    def test_deterministic(self):
        cfg = _cfg("random")
        assert run_trial(cfg, 4) == run_trial(cfg, 4)

    def test_zero_measurements(self):
        t = run_trial(_cfg("random", n_measurements=0), 0)
        assert t.records == ()

    def test_fixed_true_field(self):
        cfg = _cfg("random", true_field=0.25)
        assert run_trial(cfg, 0).b_true == 0.25
        assert run_trial(cfg, 1).b_true == 0.25

    def test_trials_differ(self):
        cfg = _cfg("random")
        assert run_trial(cfg, 0).b_true != run_trial(cfg, 1).b_true

    def test_kpe_schedule_structure(self):
        cfg = _cfg("kpe", coherence_time=math.inf, n_measurements=5)
        t = run_trial(cfg, 0)
        assert [r.step for r in t.records] == [1, 2, 3, 4, 5]
        assert [r.tau for r in t.records] == [2.0, 1.0, 0.5, 0.25, 0.125]
        assert all(np.isfinite(r.posterior_entropy) for r in t.records)

    def test_kpe_wide_prior_entropy_drops_match_oracle(self):
        # a sigma = 12 prior is diffuse on every scale the tau0 = 4 halving
        # schedule touches, so the per-step entropy drops must match the
        # frozen differencing oracle; they are also outcome-independent,
        # so two different trials see identical drops
        policy = PolicyConfig(
            kind="kpe", tau_min=0.01, tau_max=5.0, kpe_tau0=4.0,
            kpe_theta0=0.0, coherence_time=math.inf,
        )
        cfg = SimConfig(
            prior_mean=0.0, prior_std=12.0,
            n_measurements=5, n_realizations=1, master_seed=3,
            policy=policy, grid=FieldGrid(-80.0, 80.0, 2**14),
        )
        prior_entropy = 0.5 * math.log(2 * math.pi * math.e * 12.0**2)
        for trial in (0, 1):
            t = run_trial(cfg, trial)
            ents = [prior_entropy] + [r.posterior_entropy for r in t.records]
            drops = [ents[i] - ents[i + 1] for i in range(5)]
            np.testing.assert_allclose(drops, KPE_UNIFORM_DROPS, atol=5e-5)


class TestRunTrials:
    @pytest.mark.parametrize("true_field", [None, 0.25])
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_matches_each_trial_run_alone(self, kind, true_field):
        # greedy trials share one scoring call per step; every trajectory
        # must still equal that of its trial run alone, bit for bit
        cfg = _cfg(kind, true_field=true_field, n_measurements=4)
        alone = [run_trial(cfg, i) for i in range(3)]
        assert run_trials(cfg, range(3)) == alone
        assert run_trials(cfg, [2, 0]) == [alone[2], alone[0]]
        assert run_trials(cfg, []) == []

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_lockstep_tree_is_correct_for_every_kind(self, kind):
        # run_trials sends the blind kinds one trial per call, but the tree
        # keys children on (node, params, outcome), so any kind and grouping
        # walks it correctly: random trials that see the same outcome after
        # different draws must not share a child
        cfg = _cfg(
            kind, n_measurements=4, tau_grid_size=8, theta_grid_size=8,
            grid=FieldGrid(-20.0, 20.0, 2**9),
        )
        assert simulate._run_lockstep(cfg, [0, 1, 2]) == [run_trial(cfg, i) for i in range(3)]

    @pytest.mark.parametrize(
        "kind, calls",
        [("kpe", 3), ("myopic_entropy", 0), ("random", 3), ("variance_min", 0)],
    )
    def test_one_at_a_time_kinds_go_through_run_trial(self, kind, calls, monkeypatch):
        # run_trial and the batch choosers are looked up at call time, so
        # a wrapper on run_trial sees every trial of a kind that does not
        # run in lockstep, and one on a greedy kind's batch chooser sees
        # each lockstep step with one posterior per distinct outcome
        # history reached so far
        cfg = _cfg(kind, n_measurements=4)
        expect = run_trials(cfg, range(3))
        real_trial, seen, batches = simulate.run_trial, [], []

        def counting_trial(cfg, i):
            seen.append(i)
            return real_trial(cfg, i)

        def counting(name):
            real = getattr(simulate, name)

            def choices(ds, cfg):
                batches.append((name, len(ds)))
                return real(ds, cfg)

            return choices

        monkeypatch.setattr(simulate, "run_trial", counting_trial)
        for name in ("myopic_choices", "variance_choices"):
            monkeypatch.setattr(simulate, name, counting(name))
        assert run_trials(cfg, range(3)) == expect
        assert len(seen) == calls
        chooser = {"myopic_entropy": "myopic_choices", "variance_min": "variance_choices"}.get(kind)
        sizes = [len(_prefixes(expect, step - 1)) for step in range(1, 5)]
        assert batches == ([(chooser, n) for n in sizes] if chooser else [])
        if chooser:
            # at seed 99 some histories are shared and some split
            assert sizes[0] == 1 and max(sizes) > 1 and sum(sizes) < 3 * 4

    @pytest.mark.parametrize("kind", ["myopic_entropy", "kpe"])
    def test_zero_evidence_names_trial_step_and_seed(self, kind, monkeypatch):
        # greedy trials share the update of a shared history, and the
        # first trial to reach it (the lowest index here) is named; the
        # other kinds run trial by trial (update k is trial k // 4 at
        # step k % 4 + 1).  A failure injected at each update in turn
        # names that update's trial and step.
        cfg = _cfg(kind, n_measurements=4)
        real = simulate.bayes_update
        order = _update_order(kind, run_trials(cfg, range(3)))
        assert len(order) == len(set(order)) and len(order) <= 3 * 4

        def failing_at(bad, calls):
            def flaky(d, p, x):
                calls.append(None)
                if len(calls) - 1 == bad:
                    raise ZeroEvidence("injected")
                return real(d, p, x)

            return flaky

        calls = []
        monkeypatch.setattr(simulate, "bayes_update", failing_at(-1, calls))
        run_trials(cfg, range(3))
        assert len(calls) == len(order)
        for bad, (trial, step) in enumerate(order):
            monkeypatch.setattr(simulate, "bayes_update", failing_at(bad, []))
            with pytest.raises(ZeroEvidence, match=rf"trial {trial}, step {step}, master_seed 99: injected$") as info:
                run_trials(cfg, range(3))
            assert str(info.value.__cause__) == "injected"
        # myopic trials 0 and 1 share their first three outcomes (two
        # updates per step), so trial 1 is first named by update 7, at step 4
        if kind == "myopic_entropy":
            assert order[:8] == [(0, 1), (2, 1), (0, 2), (2, 2), (0, 3), (2, 3), (0, 4), (1, 4)]
        else:
            assert order[5] == (1, 2)

    @pytest.mark.parametrize("bad, error, message", [
        # tau = theta = 0 makes outcome 1 impossible at every field value
        (RamseyParams(0.0, 0.0), ZeroEvidence,
         r"^trial 1, step 3, master_seed 99: outcome 1 has predictive probability 0\.0 under the prior$"),
        # 2 tau b overflows, so the evidence is nan: not a zero-evidence outcome
        (RamseyParams(1e308, 0.3), ValueError, r"^outcome 1 has non-finite predictive probability nan$"),
    ])
    def test_real_update_failure_reaches_the_caller(self, bad, error, message, monkeypatch):
        # kpe trials run one by one, 4 steps each: call 7 is trial 1, step 3
        real_next, real_sample, calls = simulate.next_params, simulate.sample_outcome, []

        def next_params(state, policy, rng):
            calls.append(None)
            return bad if len(calls) == 7 else real_next(state, policy, rng)

        monkeypatch.setattr(simulate, "next_params", next_params)
        monkeypatch.setattr(simulate, "sample_outcome", lambda rng, b, p: 1 if p == bad else real_sample(rng, b, p))
        with np.errstate(invalid="ignore"), pytest.raises(error, match=message) as info:
            run_trials(_cfg("kpe", n_measurements=4), range(3))
        assert type(info.value) is error and len(calls) == 7


class TestPrefixSharing:
    # 16 greedy trials from one prior hold at most 2^(s-1) distinct
    # histories at step s, so most of them share every early step
    @pytest.mark.parametrize("kind", ["myopic_entropy", "variance_min"])
    def test_each_distinct_history_is_scored_and_updated_once(self, kind, monkeypatch):
        cfg = _cfg(
            kind, n_measurements=5, n_realizations=16, tau_grid_size=8,
            theta_grid_size=8, grid=FieldGrid(-20.0, 20.0, 2**9),
        )
        alone = [run_trial(cfg, i) for i in range(16)]
        name = "myopic_choices" if kind == "myopic_entropy" else "variance_choices"
        real_choices, real_update = getattr(simulate, name), simulate.bayes_update
        batches, updates = [], []

        def choices(ds, cfg):
            batches.append((len(ds), len({id(d) for d in ds})))
            return real_choices(ds, cfg)

        def update(d, p, x):
            updates.append(x)
            return real_update(d, p, x)

        monkeypatch.setattr(simulate, name, choices)
        monkeypatch.setattr(simulate, "bayes_update", update)
        assert run_trials(cfg, range(16)) == alone
        sizes = [len(_prefixes(alone, step - 1)) for step in range(1, 6)]
        assert batches == [(n, n) for n in sizes]
        assert updates == [p[-1] for step in range(1, 6) for p in _prefixes(alone, step)]
        assert len(updates) < 16 * 5 and len(_prefixes(alone, 5)) > 2


class TestRunEnsemble:
    def test_single_trial_summary_matches_trajectory(self):
        cfg = _cfg("random", n_realizations=1)
        s = run_ensemble(cfg)
        t = run_trial(cfg, 0)
        np.testing.assert_allclose([r.mean_entropy for r in s], [r.posterior_entropy for r in t.records])
        np.testing.assert_allclose([r.std_entropy for r in s], 0.0)

    def test_reproducible(self):
        cfg = _cfg("random", n_realizations=3)
        a, b = run_ensemble(cfg), run_ensemble(cfg)
        np.testing.assert_array_equal([r.mean_entropy for r in a], [r.mean_entropy for r in b])
        np.testing.assert_array_equal([r.std_posterior_std for r in a], [r.std_posterior_std for r in b])

    def test_trial_permutation_invariance(self):
        cfg = _cfg("random", n_realizations=4)
        trajectories = [run_trial(cfg, i) for i in range(4)]
        forward = summarize(trajectories)
        backward = summarize(list(reversed(trajectories)))
        np.testing.assert_allclose([r.mean_entropy for r in forward], [r.mean_entropy for r in backward])
        np.testing.assert_allclose([r.std_entropy for r in forward], [r.std_entropy for r in backward])

    def test_true_fields_match_across_policies(self):
        # same master seed: the first rng draw is b_true for every policy
        seeds = []
        for kind in ("random", "kpe"):
            cfg = _cfg(kind, n_realizations=3, n_measurements=2)
            seeds.append([run_trial(cfg, i).b_true for i in range(3)])
        assert seeds[0] == seeds[1]

    def test_rng_stream_stateless_mix(self):
        a = trial_rng(11, 3).random()
        b = trial_rng(11, 3).random()
        c = trial_rng(11, 4).random()
        assert a == b and a != c


class TestBayesianConsistency:
    def test_myopic_estimate_close_to_truth(self):
        # decoherence regime smoke test: after 30 adaptive measurements the
        # posterior mean lands within the step-1 posterior spread of the
        # true field in at least 90% of 50 trials
        policy = PolicyConfig(
            kind="myopic_entropy", tau_min=5.0 / 512.0, tau_max=5.0,
            tau_grid_size=40, theta_grid_size=40, coherence_time=10.0,
        )
        cfg = SimConfig(
            prior_mean=0.0, prior_std=3.0 / math.sqrt(2.0),
            n_measurements=30, n_realizations=50, master_seed=2024,
            policy=policy, grid=FieldGrid(-20.0, 20.0, 2**11),
        )
        hits = 0
        for t in run_trials(cfg, range(cfg.n_realizations)):
            if abs(t.records[-1].posterior_mean - t.b_true) < t.records[0].posterior_std:
                hits += 1
        assert hits >= 45
