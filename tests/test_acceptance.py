"""Acceptance suite: one test per criterion, at pinned tolerances.

Each test prints a PASS/FAIL line with the measured quantities before
asserting, so a plain ``pytest tests/test_acceptance.py -v -s`` reads as
a checklist.  Criterion 5 checks that the myopic schedule ends below both
random and the halving schedule ("kpe"); criterion 7 checks that the
halving schedule's per-step entropy drop on a uniform prior matches the
comb/alpha-series prediction exactly, starts at 1 - ln 2 and approaches
ln 2 as the comb's conditional-entropy deficit halves each step.  The
README's "Known results" section records the measured values.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ramsey_sched.bayes import (
    FieldGrid,
    RamseyParams,
    bayes_update,
    distribution_from_density,
    entropy,
    expected_posterior_functional,
    likelihood,
    mutual_information,
    predictive_prob,
    uniform_distribution,
)
from ramsey_sched.fourier import (
    alpha_series_closed,
    alpha_series_quadrature,
    comb_from_distribution,
    kpe_posterior_comb,
)
from ramsey_sched.policies import PolicyConfig, compare_kpe_to_myopic
from ramsey_sched.simulate import SimConfig, run_ensemble

LN2 = math.log(2.0)
PRIOR_STD = 3.0 / math.sqrt(2.0)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_alpha_series_oracle_equivalence():
    t0 = time.time()
    closed = alpha_series_closed(32)
    quad = alpha_series_quadrature(32)
    elapsed = time.time() - t0
    diffs = np.abs(closed[1:] - quad[1:])
    tail = closed[1:]
    ok = (
        float(diffs.max()) <= 1e-8
        and bool(np.all(tail < 0.0))
        and bool(np.all(np.diff(tail) > 0.0))
        and elapsed < 10.0
    )
    _report(
        1,
        ok,
        f"max|closed-quadrature| = {diffs.max():.3e} (tol 1e-8), "
        f"all negative and strictly increasing for j=1..32, {elapsed:.2f}s",
    )
    assert float(diffs.max()) <= 1e-8
    assert np.all(tail < 0.0)
    assert np.all(np.diff(tail) > 0.0)
    assert elapsed < 10.0


def test_criterion_2_kpe_myopic_equivalence():
    t0 = time.time()
    tau0 = 4.0
    grid = FieldGrid(-8.0 * math.pi, 8.0 * math.pi, 2**12)
    cfg = PolicyConfig(
        kind="myopic_entropy",
        tau_min=tau0 / 512.0,
        tau_max=tau0,
        tau_grid_size=64,
        theta_grid_size=64,
        kpe_tau0=tau0,
        kpe_theta0=0.0,
        coherence_time=math.inf,
    )
    sequences = [
        [0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1],
        [0, 1, 0, 1, 0],
        [1, 0, 1, 0, 1],
        [0, 0, 1, 1, 0],
        [1, 1, 0, 0, 1],
        [0, 1, 1, 0, 1],
        [1, 0, 0, 1, 0],
    ]
    worst = 0
    for seq in sequences:
        for row in compare_kpe_to_myopic(seq, cfg, grid):
            assert 2 <= row.step <= 6
            worst = max(worst, row.tau_cell_delta, row.theta_cell_delta)
    elapsed = time.time() - t0
    ok = worst <= 1 and elapsed < 120.0
    _report(
        2,
        ok,
        f"worst cell delta over 8 scripted sequences, steps 2-6: {worst} "
        f"(tol 1 cell), {elapsed:.1f}s",
    )
    assert worst <= 1
    assert elapsed < 120.0


def test_criterion_3_triangular_comb():
    t0 = time.time()
    tau1 = 1.0
    worst = 0.0
    for n in range(1, 5):
        spacing = 2.0 ** (-n + 2) * tau1
        width = 2.0 * (2.0 * math.pi / spacing)
        grid = FieldGrid(-width / 2.0, width / 2.0, 2**15)
        d = uniform_distribution(grid)
        tau, theta = tau1, 0.2
        rng = np.random.default_rng(n)
        for _ in range(n):
            x = int(rng.integers(0, 2))
            d = bayes_update(d, RamseyParams(tau, theta), x)
            tau, theta = 0.5 * tau, 0.5 * (theta + math.pi * x)
        ref = kpe_posterior_comb(n, tau1)
        got = comb_from_distribution(d, ref.frequencies)
        for f in ref.frequencies:
            worst = max(worst, abs(abs(got.amplitude_at(f)) - abs(ref.amplitude_at(f))))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    _report(
        3,
        ok,
        f"max |grid amplitude| vs triangular weight deviation over n=1..4: "
        f"{worst:.2e} (tol 1e-3), {elapsed:.1f}s",
    )
    assert worst <= 1e-3
    assert elapsed < 30.0


def test_criterion_4_information_surface_shape():
    t0 = time.time()
    grid = FieldGrid(-20.0, 20.0, 2**13)
    z = (grid.points / PRIOR_STD) ** 2
    prior = distribution_from_density(grid, np.exp(-0.5 * z))
    taus = np.linspace(0.05, 5.0, 128)
    locations, heights = [], []
    all_in_bounds = True
    interior = True
    for T in (2.0, 5.0, 10.0):
        mi = np.array(
            [mutual_information(prior, RamseyParams(float(t), 0.0, T)) for t in taus]
        )
        all_in_bounds &= bool(np.all(mi >= -1e-10) and np.all(mi <= LN2 + 1e-10))
        k = int(np.argmax(mi))
        interior &= 0 < k < len(taus) - 1
        locations.append(float(taus[k]))
        heights.append(float(mi[k]))
    monotone = locations == sorted(locations) and heights == sorted(heights)
    elapsed = time.time() - t0
    ok = all_in_bounds and interior and monotone and elapsed < 60.0
    _report(
        4,
        ok,
        f"maxima at tau={['%.2f' % x for x in locations]} heights="
        f"{['%.3f' % h for h in heights]} for T=2,5,10; interior={interior}, "
        f"non-decreasing={monotone}, bounds ok={all_in_bounds}, {elapsed:.1f}s",
    )
    assert interior
    assert monotone
    assert all_in_bounds
    assert elapsed < 60.0


def test_criterion_5_policy_comparison():
    # the standard experiment: the default `compare` run
    t0 = time.time()
    standard = SimConfig()
    summaries = {}
    for kind in ("random", "kpe", "variance_min", "myopic_entropy"):
        cfg = replace(standard, policy=replace(standard.policy, kind=kind))
        summaries[kind] = run_ensemble(cfg)
    elapsed = time.time() - t0
    myopic30 = summaries["myopic_entropy"][-1].mean_entropy
    random30 = summaries["random"][-1].mean_entropy
    kpe30 = summaries["kpe"][-1].mean_entropy
    variance30 = summaries["variance_min"][-1].mean_entropy
    myopic_drop = summaries["myopic_entropy"][0].mean_entropy - myopic30
    kpe_drop = summaries["kpe"][0].mean_entropy - kpe30
    ok = (
        myopic30 < random30
        and myopic30 < kpe30
        and myopic_drop >= 2.0
        and elapsed < 600.0
    )
    _report(
        5,
        ok,
        f"step-30 mean entropy myopic {myopic30:+.3f} < random {random30:+.3f}: "
        f"{myopic30 < random30}, < kpe {kpe30:+.3f}: {myopic30 < kpe30} "
        f"(variance_min {variance30:+.3f}); step1->30 drops myopic "
        f"{myopic_drop:.3f} (need >= 2), kpe {kpe_drop:.3f} (the halving "
        f"schedule's ceiling at T=10 is 1.568, at tau0=5), {elapsed:.0f}s",
    )
    assert myopic30 < random30
    assert myopic30 < kpe30
    assert elapsed < 600.0
    assert myopic_drop >= 2.0


def test_criterion_6_information_identities():
    t0 = time.time()
    grid = FieldGrid(-15.0, 15.0, 2**12)
    rng = np.random.default_rng(20240809)
    worst_identity = 0.0
    worst_norm = 0.0
    worst_commute = 0.0
    for _ in range(100):
        dens = np.zeros(grid.n_points)
        for _ in range(int(rng.integers(1, 4))):
            mu = float(rng.uniform(-6.0, 6.0))
            sig = float(rng.uniform(0.25, 2.5))
            dens += float(rng.uniform(0.2, 1.0)) * np.exp(
                -0.5 * ((grid.points - mu) / sig) ** 2
            )
        d = distribution_from_density(grid, dens)
        coherence = math.inf if rng.random() < 0.3 else float(rng.uniform(0.5, 30.0))
        p = RamseyParams(
            float(rng.uniform(0.01, 6.0)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            coherence,
        )
        mi = mutual_information(d, p)
        assert -1e-10 <= mi <= LN2 + 1e-10
        worst_identity = max(
            worst_identity,
            abs(mi - (entropy(d) - expected_posterior_functional(d, p, "entropy"))),
        )
        b_probe = float(rng.uniform(-10.0, 10.0))
        assert likelihood(0, b_probe, p) + likelihood(1, b_probe, p) == 1.0
        p2 = RamseyParams(
            float(rng.uniform(0.01, 6.0)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            coherence,
        )
        d01 = bayes_update(bayes_update(d, p, 0), p2, 1)
        d10 = bayes_update(bayes_update(d, p2, 1), p, 0)
        worst_commute = max(worst_commute, float(np.max(np.abs(d01.density - d10.density))))
        worst_norm = max(worst_norm, abs(grid.integrate(d01.density) - 1.0))
    elapsed = time.time() - t0
    ok = (
        worst_identity <= 1e-8
        and worst_norm <= 1e-9
        and worst_commute <= 1e-10
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"100 randomized pairs: identity dev {worst_identity:.2e} (tol 1e-8), "
        f"normalization dev {worst_norm:.2e} (tol 1e-9), update-order dev "
        f"{worst_commute:.2e} (tol 1e-10), completeness exact, {elapsed:.1f}s",
    )
    assert worst_identity <= 1e-8
    assert worst_norm <= 1e-9
    assert worst_commute <= 1e-10
    assert elapsed < 60.0


def test_criterion_7_per_step_ln2_extraction():
    t0 = time.time()
    tau0 = 4.0
    width = 16.0 * math.pi  # whole number of fringe periods through step 7 (tau = 1/16)
    grid = FieldGrid(-width / 2.0, width / 2.0, 2**15)
    d = uniform_distribution(grid)
    entropies = [entropy(d)]
    tau, theta = tau0, 0.0
    outcomes = [0, 1, 1, 0, 1, 0, 0]
    for x in outcomes:
        d = bayes_update(d, RamseyParams(tau, theta), x)
        entropies.append(entropy(d))
        tau, theta = 0.5 * tau, 0.5 * (theta + math.pi * x)
    n_steps = len(outcomes)
    drops = [entropies[i] - entropies[i + 1] for i in range(n_steps)]

    # independent prediction of the same drops from the triangular-comb
    # conditional-entropy series: drop_n = ln 2 - H(X|B_{n-1})
    coeffs = alpha_series_quadrature(2**6)
    predicted = []
    for m in range(n_steps):
        n_peaks = 2**m
        hxb = float(coeffs[0])
        for k in range(1, min(n_peaks, 2**6 + 1)):
            hxb += float(coeffs[k]) * (1.0 - k / n_peaks)
        predicted.append(LN2 - hxb)
    agreement = max(abs(a - b) for a, b in zip(drops, predicted))

    elapsed = time.time() - t0
    deficits = [LN2 - drop for drop in drops]
    first_exact = abs(drops[0] - (1.0 - LN2)) <= 1e-9
    # drops strictly increase and stay below ln2: the deficit strictly shrinks
    shrinking = all(0.0 < b < a for a, b in zip(deficits, deficits[1:]))
    late = max(deficits[5:])
    ok = (
        agreement < 1e-6
        and elapsed < 10.0
        and first_exact
        and shrinking
        and late <= 0.02
    )
    _report(
        7,
        ok,
        f"per-step drops {['%.4f' % d for d in drops]} match the independent "
        f"series prediction to {agreement:.1e} (tol 1e-6); step 1 = 1 - ln2: "
        f"{first_exact}; deficits to ln2 {['%.4f' % d for d in deficits]} "
        f"strictly shrink: {shrinking}; steps 6-7 within {late:.4f} of ln2 "
        f"(tol 0.02), {elapsed:.1f}s",
    )
    # the grid Bayes update and entropy agree with the comb series...
    assert agreement < 1e-6
    assert elapsed < 10.0
    # ...one full-contrast shot on a uniform phase carries 1 - ln 2 nats...
    assert first_exact, f"step 1: drop {drops[0]:.12f} != 1 - ln2 = {1.0 - LN2:.12f}"
    # ...and ln 2 per step is the limit: the comb deficit shrinks each step
    assert shrinking, f"deficits to ln2 not strictly shrinking: {deficits}"
    for step, drop in enumerate(drops[5:], start=6):
        assert abs(drop - LN2) <= 0.02, (
            f"step {step}: drop {drop:.4f} is not within 0.02 of ln2"
        )
