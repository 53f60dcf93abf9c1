"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single line (visible with ``pytest -s`` or in captured
output) so a reviewer can scan the verdicts at a glance. Expected values
are computed by independent oracles inside this module: exhaustive policy
enumeration with exact linear solves, central finite differences, pair
counting, quadratic-scan dominance, epoch-wise brute force, and dense grid
search.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from fidaudit.aggregation import VotingRule, find_manipulation, pareto_front, _winner
from fidaudit.assessment import (
    demo_log_likelihood,
    feasible_rewards_irl,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
    one_hot_states,
    prudent_investor_weights,
)
from fidaudit.audit import emit_report, run_audit
from fidaudit.care import inductive_bias_diagnostic
from fidaudit.loyalty import alignment_check, disgorgement_check
from fidaudit.macid import (
    enumerate_deterministic_rules,
    expected_utility,
    joint_distribution,
    mutual_information,
    value_of_information,
)
from fidaudit.mdp import (
    DiscountSpec,
    Mdp,
    RewardOption,
    detect_preference_reversal,
    discount_weight,
    evaluate_policy,
    value_iteration,
)
from fidaudit.scenario import load_scenario

from helpers import contraction_gaps, guess_model, mean_variance_objective, run_cli, xor_model
from test_assessment import chain_walk_mdp, timing_choice_mdp

SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


def report_line(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: PASS{suffix}")


def random_mdp(rng, n_states, n_actions):
    transition = rng.uniform(0.01, 1.0, size=(n_states, n_actions, n_states))
    transition /= transition.sum(axis=2, keepdims=True)
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    return Mdp(
        tuple(f"s{i}" for i in range(n_states)),
        tuple(f"a{j}" for j in range(n_actions)),
        transition,
        reward,
    )


def test_criterion_01_mdp_optimality_oracle():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    beta = 0.9
    for _ in range(50):
        mdp = random_mdp(rng, 5, 3)
        greedy = value_iteration(mdp, beta).policy
        greedy_values = evaluate_policy(mdp, greedy, beta).values
        for assignment in itertools.product(range(len(mdp.actions)), repeat=5):
            values = evaluate_policy(mdp, np.array(assignment), beta).values
            for s in range(len(mdp.states)):
                assert greedy_values[s] >= values[s] - 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report_line(1, "mdp-optimality-oracle", f"50 MDPs x 243 policies in {elapsed:.2f}s")


def test_criterion_02_bellman_contraction():
    rng = np.random.default_rng(202)
    runs = 0
    for _ in range(25):
        n_states = int(rng.integers(2, 7))
        n_actions = int(rng.integers(2, 4))
        beta = float(rng.uniform(0.2, 0.97))
        mdp = random_mdp(rng, n_states, n_actions)
        result = value_iteration(mdp, beta)
        gaps, values = contraction_gaps(mdp, beta)
        assert (len(gaps), values.tobytes()) == (result.iterations, result.values.tobytes())
        for previous, current in zip(gaps, gaps[1:]):
            assert current <= beta * previous + 1e-12
        runs += 1
    report_line(2, "bellman-contraction", f"{runs} recorded trajectories")


def test_criterion_03_maxent_gradient_finite_differences():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 10:
        transition = rng.uniform(0.05, 1.0, size=(4, 2, 4))
        transition /= transition.sum(axis=2, keepdims=True)
        mdp = Mdp(("s0", "s1", "s2", "s3"), ("a0", "a1"), transition, np.zeros((4, 2)))
        features = rng.normal(size=(4, 2, 3))
        demos = []
        for _ in range(3):
            steps = []
            i = int(rng.integers(0, 4))
            for _ in range(4):
                j = int(rng.integers(0, 2))
                steps.append((i, j))
                i = int(rng.choice(4, p=transition[i, j]))
            demos.append(steps)
        theta = rng.normal(size=3)
        _, grad = demo_log_likelihood(mdp, features, demos, theta, beta=0.9)
        step = 1e-5
        for k in range(3):
            bump = np.zeros(3)
            bump[k] = step
            up, _ = demo_log_likelihood(mdp, features, demos, theta + bump, beta=0.9)
            down, _ = demo_log_likelihood(mdp, features, demos, theta - bump, beta=0.9)
            numeric = (up - down) / (2 * step)
            scale = max(abs(numeric), abs(grad[k]), 1e-8)
            assert abs(grad[k] - numeric) / scale < 1e-4
        checked += 1
    report_line(3, "maxent-gradient-vs-finite-differences", "10 parameter points, rel err < 1e-4")


def test_criterion_04_irl_policy_equivalence_and_zero_feasibility():
    mdp = chain_walk_mdp()
    features = one_hot_states(mdp)
    demonstrated = value_iteration(mdp, beta=0.9).policy
    demos = []
    for i in range(len(mdp.states)):
        steps = []
        for _ in range(6):
            j = int(demonstrated[i])
            steps.append((i, j))
            i = int(np.argmax(mdp.transition[i, j]))
        demos.append(steps)
    estimate = maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.2, iters=150)
    learned_policy = value_iteration(mdp.with_reward(estimate.table), beta=0.9).policy
    assert np.array_equal(learned_policy, demonstrated)

    chain_set = feasible_rewards_irl(mdp, demonstrated, beta=0.9, bound=1.0)
    assert chain_set.zero_reward_feasible
    assert chain_set.contains(np.zeros(len(mdp.states) * len(mdp.actions)))

    rng = np.random.default_rng(404)
    instances = 1
    for _ in range(10):
        dynamics = random_mdp(rng, 4, 2)
        policy = np.array([int(rng.integers(0, 2)) for _ in dynamics.states])
        feasible = feasible_rewards_irl(dynamics, policy, beta=0.9, bound=1.0)
        assert feasible.zero_reward_feasible
        assert feasible.contains(np.zeros((4, 2)))
        instances += 1
    report_line(4, "irl-policy-equivalence-and-degeneracy", f"zero reward feasible on {instances} instances")


def test_criterion_05_preference_fit_kendall_tau():
    rng = np.random.default_rng(505)
    features = rng.normal(size=(6 * 2, 3))  # six states, two actions: row s * 2 + a
    trajectories = []
    for _ in range(10):
        length = int(rng.integers(3, 7))
        trajectories.append(tuple(int(rng.integers(0, 6)) * 2 + int(rng.integers(0, 2)) for _ in range(length)))

    def trajectory_return(theta, rows):
        return float(sum((features[r] for r in rows), np.zeros(3)) @ theta)

    theta_true = rng.normal(size=3)
    true_returns = [trajectory_return(theta_true, t) for t in trajectories]
    comparisons = []
    for _ in range(200):
        i, j = rng.choice(10, size=2, replace=False)
        preferred = "left" if true_returns[i] > true_returns[j] else "right"
        comparisons.append((trajectories[i], trajectories[j], preferred))
    estimate = fit_preference_reward(features, comparisons, learn_rate=0.1, iters=500)
    fitted_returns = [trajectory_return(estimate.weights, t) for t in trajectories]
    concordant = discordant = 0
    for i, j in itertools.combinations(range(10), 2):
        sign_true = np.sign(true_returns[i] - true_returns[j])
        sign_fit = np.sign(fitted_returns[i] - fitted_returns[j])
        if sign_true * sign_fit > 0:
            concordant += 1
        else:
            discordant += 1
    tau = (concordant - discordant) / (concordant + discordant)
    assert tau == 1.0
    report_line(5, "preference-fit-kendall-tau", "tau = 1.0 over 10 trajectories, 200 judgments")


def test_criterion_06_discount_inference_recovers_generator():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.95).policy
    grid = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]
    posterior = infer_discount(mdp, behavior, grid, [1.0 / 7] * 7, temperature=0.01)
    assert abs(sum(posterior.values()) - 1.0) <= 1e-9
    assert max(posterior, key=posterior.get) == 0.95
    report_line(6, "discount-inference-argmax", f"posterior(0.95) = {posterior[0.95]:.6f}")


def test_criterion_07_time_consistency():
    rewards = [1.0, 2.0, 4.0, 8.0, 16.0]
    sweeps = 0
    for beta10 in range(1, 10):
        spec = DiscountSpec("exponential", beta=beta10 / 10.0)
        for d_early in range(0, 10):
            for d_late in range(d_early + 1, 11):
                for r_early in rewards:
                    for r_late in rewards:
                        report = detect_preference_reversal(
                            spec,
                            RewardOption(r_early, d_early),
                            RewardOption(r_late, d_late),
                            horizon=10,
                        )
                        assert not report.reversed
                        sweeps += 1
    spec = DiscountSpec("hyperbolic", k=1.0)
    early, late = RewardOption(8.0, 9), RewardOption(10.0, 10)
    found = detect_preference_reversal(spec, early, late, horizon=10)
    assert found.reversed
    # epoch-wise brute force oracle
    def preference(epoch):
        v_early = early.reward * discount_weight(spec, early.delay - epoch)
        v_late = late.reward * discount_weight(spec, late.delay - epoch)
        return "early" if v_early >= v_late else "late"

    initial = preference(0)
    flips = [e for e in range(1, early.delay + 1) if preference(e) != initial]
    assert found.reversal_epoch == flips[0]
    report_line(7, "time-consistency", f"{sweeps} exponential cases clean; hyperbolic flip at epoch {flips[0]}")


def test_criterion_08_pareto_front_oracle():
    rng = np.random.default_rng(808)
    options = tuple(f"o{i}" for i in range(20))
    for _ in range(1000):
        rows = rng.integers(0, 6, size=(3, 20)).astype(float).tolist()
        fast = pareto_front(options, rows)
        oracle = set()
        for j, o in enumerate(options):
            vec = [row[j] for row in rows]
            dominated = False
            for k in range(len(options)):
                if k == j:
                    continue
                ovec = [row[k] for row in rows]
                if all(a >= b for a, b in zip(ovec, vec)) and any(a > b for a, b in zip(ovec, vec)):
                    dominated = True
                    break
            if not dominated:
                oracle.add(o)
        assert fast == frozenset(oracle)
    report_line(8, "pareto-front-oracle", "1000 random 3x20 matrices, exact set equality")


def test_criterion_09_manipulation_search():
    started = time.monotonic()
    instance = find_manipulation(VotingRule("borda"), 3, 3)
    assert instance is not None
    trial = (
        instance.profile[: instance.voter]
        + (instance.insincere_ballot,)
        + instance.profile[instance.voter + 1 :]
    )
    assert _winner(VotingRule("borda"), instance.profile, 3) == instance.sincere_winner
    assert _winner(VotingRule("borda"), trial, 3) == instance.manipulated_winner
    rank = {o: i for i, o in enumerate(instance.profile[instance.voter])}
    assert rank[instance.manipulated_winner] < rank[instance.sincere_winner]
    assert find_manipulation(VotingRule("dictator", 0), 3, 3) is None
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report_line(9, "manipulation-search", f"borda witness verified, dictator clean, {elapsed:.2f}s")


def test_criterion_10_loyalty_condition_oracles():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        size = int(rng.integers(2, 7))
        outcomes = [f"c{i}" for i in range(size)]
        a = [float(rng.integers(-3, 4)) for _ in outcomes]
        b = [float(rng.integers(-3, 4)) for _ in outcomes]
        align = alignment_check(outcomes, a, b)
        pairs = list(itertools.permutations(range(size), 2))  # in declared order
        expected_align = tuple(
            (outcomes[i], outcomes[j]) for i, j in pairs if a[i] > a[j] and not b[i] > b[j]
        )
        assert align.witnesses == expected_align
        assert align.aligned == (not expected_align)
        dis = disgorgement_check(outcomes, a, b)
        expected_dis = tuple(
            (outcomes[i], outcomes[j]) for i, j in pairs if a[i] > a[j] and not b[i] <= b[j]
        )
        assert dis.witnesses == expected_dis
    # invariance under strictly increasing transformations of either table
    rng = np.random.default_rng(1011)
    for _ in range(200):
        outcomes = [f"c{i}" for i in range(4)]
        a = [float(rng.uniform(-2, 2)) for _ in outcomes]
        b = [float(rng.uniform(-2, 2)) for _ in outcomes]
        base = alignment_check(outcomes, a, b)
        a_t = [math.exp(v) for v in a]
        b_t = [v**3 + 0.5 * v for v in b]
        transformed = alignment_check(outcomes, a_t, b_t)
        assert transformed.aligned == base.aligned
        assert transformed.witnesses == base.witnesses
    report_line(10, "loyalty-condition-oracles", "1000 pairs exact; 200 transform invariances")


def test_criterion_11_information_flow_oracles():
    # xor channel leaks nothing
    model = xor_model()
    joint = joint_distribution(model, {})
    order = model.outcome_order
    r_i, s_i = order.index("R"), order.index("S")
    pair = {}
    for assignment, p in joint.items():
        key = (assignment[r_i], assignment[s_i])
        pair[key] = pair.get(key, 0.0) + p
    assert abs(mutual_information(pair)) <= 1e-12

    # identity channel carries exactly one bit
    identity = {("0", "0"): 0.5, ("1", "1"): 0.5, ("0", "1"): 0.0, ("1", "0"): 0.0}
    assert mutual_information(identity) == 1.0

    # observing the hidden bit is worth exactly the exhaustive-search gain
    guess = guess_model()
    base_best = max(
        expected_utility(guess, {"B": rule}, "bob")
        for rule in enumerate_deterministic_rules(guess, "B")
    )
    extended = guess.with_edge("C", "B")
    informed_best = max(
        expected_utility(extended, {"B": rule}, "bob")
        for rule in enumerate_deterministic_rules(extended, "B")
    )
    voi = value_of_information(guess, "B", "C")
    assert abs(voi - 0.5) <= 1e-9
    assert abs(voi - (informed_best - base_best)) <= 1e-9
    report_line(11, "information-flow-oracles", "xor 0 bits, identity 1 bit, VoI 0.5")


def test_criterion_12_prudent_investor_closed_form():
    mu, sigma = np.array([0.1, 0.2]), np.diag([0.04, 0.04])
    portfolio = prudent_investor_weights(mu, sigma, 1.0)
    assert np.all(np.abs(portfolio.weights - np.array([1.25, 2.5])) <= 1e-6)
    grid = np.linspace(-5.0, 5.0, 201)
    best_grid = max(mean_variance_objective(mu, sigma, 1.0, np.array([x, y])) for x in grid for y in grid)
    closed = portfolio.objective
    assert closed == mean_variance_objective(mu, sigma, 1.0, portfolio.weights)
    assert closed >= best_grid - 1e-12
    assert closed - best_grid <= 1e-3
    report_line(12, "prudent-investor-closed-form", f"objective gap {closed - best_grid:.2e}")


def test_criterion_13_inductive_bias_diagnostic():
    unit = inductive_bias_diagnostic(0.31, 0.6, 0.6)
    assert unit.posterior == 0.31  # exact
    assert unit.prior_dominated
    rng = np.random.default_rng(1313)
    for _ in range(500):
        prior = float(rng.uniform(0.0, 1.0))
        l1 = float(rng.uniform(0.01, 1.0))
        l0 = float(rng.uniform(0.01, 1.0))
        got = inductive_bias_diagnostic(prior, l1, l0).posterior
        brute = (prior * l1) / (prior * l1 + (1 - prior) * l0)
        assert abs(got - brute) <= 1e-12
    report_line(13, "inductive-bias-diagnostic", "unit ratio exact; 500 Bayes checks within 1e-12")


def test_criterion_14_end_to_end_determinism():
    expected_exit = {
        "disclosure_demo.json": 0,
        "trust_portfolio.json": 0,
        "care_skipped.json": 1,
        "engagement_prior_warn.json": 1,
        "disclosure_demo_muted.json": 2,
    }
    statuses = set()
    for path in sorted(SCENARIOS.glob("*.json")):
        first = emit_report(run_audit(load_scenario(path)), "machine")
        second = emit_report(run_audit(load_scenario(path)), "machine")
        assert first == second, f"{path.name} not reproducible"
        golden = (GOLDEN / f"{path.stem}.report.json").read_text()
        assert first == golden, f"{path.name} drifted from its golden file"
        statuses.add(json.loads(first)["overall"])
    assert statuses == {"pass", "warn", "fail"}
    for name, code in expected_exit.items():
        result = run_cli(["check", str(SCENARIOS / name)])
        assert result.exit_code == code, f"{name}: expected exit {code}"
    report_line(14, "end-to-end-determinism", f"{len(expected_exit)} scenarios byte-identical, exit codes honored")
