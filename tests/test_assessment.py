import itertools
import math
import re

import numpy as np
import pytest

from fidaudit.assessment import (
    FeatureMap,
    PairwiseComparison,
    PortfolioProblem,
    Trajectory,
    _sigmoid,
    demo_log_likelihood,
    feasible_rewards_irl,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
    patient_recommendation,
    prudent_investor_weights,
    trajectory_return,
)
from fidaudit.errors import DegenerateData, EmptyGrid, InvalidDiscount, InvalidPrior
from fidaudit.mdp import Mdp, evaluate_policy, policy_iteration, value_iteration


def deterministic_mdp(states, actions, moves, rewards=None):
    """moves[(s, a)] = next state; rewards[(s, a)] optional."""
    n_s, n_a = len(states), len(actions)
    transition = np.zeros((n_s, n_a, n_s))
    reward = np.zeros((n_s, n_a))
    for i, s in enumerate(states):
        for j, a in enumerate(actions):
            transition[i, j, states.index(moves[(s, a)])] = 1.0
            if rewards:
                reward[i, j] = rewards.get((s, a), 0.0)
    return Mdp(tuple(states), tuple(actions), transition, reward)


def chain_walk_mdp():
    """Four states in a line; right/left moves; reward 1 at the end state."""
    states = ["s0", "s1", "s2", "s3"]
    moves = {}
    for i, s in enumerate(states):
        moves[(s, "right")] = states[min(i + 1, 3)]
        moves[(s, "left")] = states[max(i - 1, 0)]
    rewards = {("s3", "right"): 1.0, ("s3", "left"): 1.0}
    return deterministic_mdp(states, ["right", "left"], moves, rewards)


def random_dynamics(rng, n_states=4, n_actions=2):
    transition = rng.uniform(0.05, 1.0, size=(n_states, n_actions, n_states))
    transition /= transition.sum(axis=2, keepdims=True)
    return Mdp.from_dynamics(
        [f"s{i}" for i in range(n_states)], [f"a{j}" for j in range(n_actions)], transition
    )


# --- feasible_rewards_irl ---------------------------------------------------


def test_zero_reward_always_feasible(rng):
    for _ in range(5):
        mdp = random_dynamics(rng)
        policy = {s: mdp.actions[int(rng.integers(0, 2))] for s in mdp.states}
        feasible = feasible_rewards_irl(mdp, policy, beta=0.9, bound=1.0)
        assert feasible.zero_reward_feasible
        assert feasible.contains(np.zeros((4, 2)))


def test_sampled_rewards_make_policy_optimal(rng):
    # oracle: re-solve the MDP under each sampled reward
    states = ["s0", "s1"]
    moves = {
        ("s0", "stay"): "s0",
        ("s0", "move"): "s1",
        ("s1", "stay"): "s1",
        ("s1", "move"): "s0",
    }
    mdp = deterministic_mdp(states, ["stay", "move"], moves)
    policy = {"s0": "move", "s1": "stay"}  # always head to s1
    feasible = feasible_rewards_irl(mdp, policy, beta=0.9, bound=2.0)
    for _ in range(10):
        reward = feasible.sample(rng)
        assert feasible.contains(reward)
        solved = value_iteration(mdp.with_reward(reward), beta=0.9, tol=1e-12)
        greedy_value = evaluate_policy(mdp.with_reward(reward), solved.policy, 0.9)
        stated_value = evaluate_policy(mdp.with_reward(reward), policy, 0.9)
        for s in mdp.states:
            assert stated_value.values[s] >= greedy_value.values[s] - 1e-8


def test_suboptimal_reward_violates_a_constraint():
    states = ["s0", "s1"]
    moves = {
        ("s0", "stay"): "s0",
        ("s0", "move"): "s1",
        ("s1", "stay"): "s1",
        ("s1", "move"): "s0",
    }
    mdp = deterministic_mdp(states, ["stay", "move"], moves)
    lazy = {"s0": "stay", "s1": "stay"}
    feasible = feasible_rewards_irl(mdp, lazy, beta=0.9, bound=2.0)
    # reward that pays only for reaching s1 makes 'stay at s0' strictly suboptimal
    reward = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not feasible.contains(reward)


def test_a_map_that_leaves_out_a_state_is_a_value_error():
    mdp = chain_walk_mdp()
    partial = {"s0": "right", "s1": "right", "s2": "left"}
    with pytest.raises(ValueError, match="policy missing state 's3'"):
        feasible_rewards_irl(mdp, partial, beta=0.9, bound=1.0)
    with pytest.raises(ValueError, match="policy missing state 's3'"):
        infer_discount(mdp, partial, [0.5, 0.9], [0.5, 0.5])
    with pytest.raises(ValueError, match="policy missing state 's3'"):
        evaluate_policy(mdp, partial, 0.9)


# --- maxent_irl -----------------------------------------------------------------


def test_maxent_zero_information_features_keep_theta_zero():
    mdp = chain_walk_mdp()
    constant = FeatureMap(2, {(s, a): np.ones(2) for s in mdp.states for a in mdp.actions})
    demos = [Trajectory((("s0", "right"), ("s1", "right")))]
    estimate = maxent_irl(mdp, constant, demos, beta=0.9, learn_rate=0.1, iters=50)
    assert np.allclose(estimate.weights, 0.0)
    assert estimate.diagnostics["grad_norm"] == pytest.approx(0.0, abs=1e-12)


def test_maxent_recovers_demonstrated_policy():
    mdp = chain_walk_mdp()
    features = FeatureMap.one_hot_states(mdp)
    demonstrated = value_iteration(mdp, beta=0.9).policy
    assert all(a == "right" for a in demonstrated.values())
    demos = []
    for start in mdp.states:
        steps = []
        s = start
        for _ in range(6):
            a = demonstrated[s]
            steps.append((s, a))
            i, j = mdp.state_index(s), mdp.action_index(a)
            s = mdp.states[int(np.argmax(mdp.transition[i, j]))]
        demos.append(Trajectory(tuple(steps)))
    estimate = maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.2, iters=150)
    # policy equivalence is the success criterion; reward equality is not
    learned_policy = value_iteration(mdp.with_reward(estimate.table), beta=0.9).policy
    assert learned_policy == demonstrated


def test_maxent_gradient_matches_finite_differences(rng):
    for _ in range(3):
        mdp = random_dynamics(rng, 4, 2)
        features = FeatureMap(
            3, {(s, a): rng.normal(size=3) for s in mdp.states for a in mdp.actions}
        )
        demos = []
        for _ in range(3):
            steps = []
            s = mdp.states[int(rng.integers(0, 4))]
            for _ in range(4):
                a = mdp.actions[int(rng.integers(0, 2))]
                steps.append((s, a))
                s = mdp.states[int(rng.choice(4, p=mdp.transition[mdp.state_index(s), mdp.action_index(a)]))]
            demos.append(Trajectory(tuple(steps)))
        for _ in range(4):
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


def test_maxent_log_likelihood_is_that_of_the_returned_theta(monkeypatch):
    import fidaudit.assessment as assessment

    mdp = chain_walk_mdp()
    demos = [Trajectory((("s0", "right"), ("s1", "right"), ("s2", "left")))]
    one_hot = FeatureMap.one_hot_states(mdp)
    zero = FeatureMap(2, {(s, a): np.zeros(2) for s in mdp.states for a in mdp.actions})
    calls = []
    builds = []
    kernel, dense = assessment._log_likelihood, FeatureMap.dense

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    def counted_dense(self, mdp):
        builds.append(1)
        return dense(self, mdp)

    monkeypatch.setattr(assessment, "_log_likelihood", counted)
    monkeypatch.setattr(FeatureMap, "dense", counted_dense)
    # no steps, the grad_norm == 0 early stop, and a normal run; the feature
    # tensor is built once per fit
    for features, iters, evaluations in [(one_hot, 0, 1), (zero, 50, 1), (one_hot, 25, 26)]:
        calls.clear()
        builds.clear()
        estimate = maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.1, iters=iters)
        assert (len(calls), len(builds)) == (evaluations, 1)
        expected, _ = demo_log_likelihood(mdp, features, demos, estimate.weights, 0.9)
        assert estimate.diagnostics["log_likelihood"] == expected
    assert estimate.diagnostics["grad_norm"] > 0.0


def _einsum_log_likelihood(mdp, dense, demos, theta, beta):
    # reference: the backward pass that carries the value gradients
    # dQ_t/dtheta (S, A, d) and dV_t/dtheta (S, d) through every step, with
    # both contractions written as np.einsum; log pi_t(s, a) has gradient
    # dQ_t(s, a) - dV_t(s)
    horizon = max(len(d.steps) for d in demos)
    reward = dense @ theta
    v = np.zeros(len(mdp.states))
    grad_v = np.zeros((len(mdp.states), theta.shape[0]))
    policies, grad_qs, grad_vs = [None] * horizon, [None] * horizon, [None] * horizon
    for t in range(horizon - 1, -1, -1):
        q = reward + beta * (mdp.transition @ v)
        peak = q.max(axis=1, keepdims=True)
        exp_q = np.exp(q - peak)
        norm = exp_q.sum(axis=1, keepdims=True)
        policies[t] = exp_q / norm
        v = (peak + np.log(norm)).ravel()
        grad_qs[t] = dense + beta * np.einsum("ijk,kd->ijd", mdp.transition, grad_v)
        grad_vs[t] = grad_v = np.einsum("ij,ijd->id", policies[t], grad_qs[t])
    total, grad = 0.0, np.zeros(theta.shape[0])
    for demo in demos:
        for t, (s, a) in enumerate(demo.steps):
            i, j = mdp.state_index(s), mdp.action_index(a)
            total += math.log(policies[t][i, j])
            grad += grad_qs[t][i, j] - grad_vs[t][i]
    return total, grad


def _random_demos(rng, mdp, lengths, choose=None):
    """One demo per length: actions from ``choose`` (a state index -> action
    index map) or uniform, next states drawn from the dynamics."""
    n_s, n_a = mdp.transition.shape[:2]
    demos = []
    for length in lengths:
        i, steps = int(rng.integers(0, n_s)), []
        for _ in range(length):
            j = int(rng.integers(0, n_a)) if choose is None else choose[i]
            steps.append((mdp.states[i], mdp.actions[j]))
            i = int(rng.choice(n_s, p=mdp.transition[i, j]))
        demos.append(Trajectory(tuple(steps)))
    return demos


def test_demo_log_likelihood_matches_einsum_reference(rng):
    for n_states, dim in [(3, 1), (5, 4), (8, 6), (12, 12)]:
        mdp = random_dynamics(rng, n_states, 3)
        features = FeatureMap(
            dim, {(s, a): rng.normal(size=dim) for s in mdp.states for a in mdp.actions}
        )
        demos = _random_demos(rng, mdp, [1, 4, 7, 2])
        for beta in (0.5, 0.999):
            theta = rng.normal(size=dim)
            total, grad = demo_log_likelihood(mdp, features, demos, theta, beta)
            want_total, want_grad = _einsum_log_likelihood(mdp, features.dense(mdp), demos, theta, beta)
            assert total == want_total
            assert grad.shape == want_grad.shape
            assert float(np.max(np.abs(grad - want_grad))) <= 1e-12 * float(np.max(np.abs(want_grad)))


def test_maxent_fit_matches_the_einsum_gradient_fit():
    # the mdp benchmark's shapes: A = 2, one-hot state features, five
    # 10-step demos of the myopic policy, 20 steps at learn rate 0.01
    rng = np.random.default_rng(7)
    for n_states, beta in [(20, 0.9), (20, 0.99), (20, 0.999), (50, 0.9), (50, 0.99), (100, 0.9), (100, 0.99)]:
        transition = rng.uniform(0.5, 1.5, size=(n_states, 2, n_states))
        transition /= transition.sum(axis=2, keepdims=True)
        reward = rng.random((n_states, 2))
        mdp = Mdp(tuple(f"s{i}" for i in range(n_states)), ("a0", "a1"), transition, reward)
        demos = _random_demos(rng, mdp, [10] * 5, choose=reward.argmax(axis=1).tolist())
        features = FeatureMap.one_hot_states(mdp)
        estimate = maxent_irl(mdp, features, demos, beta=beta, learn_rate=0.01, iters=20)

        dense = features.dense(mdp)
        theta = np.zeros(n_states)
        _, grad = _einsum_log_likelihood(mdp, dense, demos, theta, beta)
        for _ in range(20):
            theta = theta + 0.01 * grad
            _, grad = _einsum_log_likelihood(mdp, dense, demos, theta, beta)
        grad_norm = float(np.linalg.norm(grad))

        assert float(np.max(np.abs(estimate.weights - theta))) <= 1e-12 * float(np.max(np.abs(theta)))
        assert abs(estimate.diagnostics["grad_norm"] - grad_norm) <= 1e-12 * grad_norm
        greedy = policy_iteration(mdp.with_reward(estimate.table), beta).policy
        assert greedy == policy_iteration(mdp.with_reward(dense @ theta), beta).policy


def test_dense_features_match_the_loop_on_a_shuffled_table(rng):
    mdp = random_dynamics(rng, 5, 3)
    keys = [(s, a) for s in mdp.states for a in mdp.actions]
    features = FeatureMap(4, {keys[k]: rng.normal(size=4) for k in rng.permutation(len(keys))})
    loop = np.zeros((5, 3, 4))
    for i, s in enumerate(mdp.states):
        for j, a in enumerate(mdp.actions):
            loop[i, j] = features.vector(s, a)
    assert np.array_equal(features.dense(mdp), loop)


@pytest.mark.parametrize("bad", [("s9", "right"), ("s1", "jump")])
def test_a_demo_step_outside_the_mdp_is_named(bad):
    mdp = chain_walk_mdp()
    features = FeatureMap.one_hot_states(mdp)
    demos = [Trajectory((("s0", "right"), bad))]
    message = re.escape(f"trajectory step {bad!r} not in the MDP")
    with pytest.raises(ValueError, match=message):
        demo_log_likelihood(mdp, features, demos, np.zeros(4), 0.9)
    with pytest.raises(ValueError, match=message):
        maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.1, iters=5)


# --- fit_preference_reward --------------------------------------------------------


def _kendall_tau(order_a, order_b):
    # independent pair-counting oracle
    rank_a = {x: i for i, x in enumerate(order_a)}
    rank_b = {x: i for i, x in enumerate(order_b)}
    concordant = discordant = 0
    items = list(order_a)
    for x, y in itertools.combinations(items, 2):
        sign_a = rank_a[x] - rank_a[y]
        sign_b = rank_b[x] - rank_b[y]
        if sign_a * sign_b > 0:
            concordant += 1
        else:
            discordant += 1
    return (concordant - discordant) / (concordant + discordant)


def _two_branch_sigmoid(x):
    """The logistic function as two separately computed halves."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_the_two_branch_reference_bit_for_bit():
    edges = [0.0, 1e-300, 36.0, 745.0, 1e308, math.inf]
    x = np.concatenate([edges, [-e for e in edges], [math.nan], np.random.default_rng(5).normal(size=10_000)])
    got, want = _sigmoid(x), _two_branch_sigmoid(x)
    nan = np.isnan(want)
    assert nan.sum() == 1 and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_single_separable_comparison():
    features = FeatureMap(1, {("s", "a"): np.array([1.0]), ("s", "b"): np.array([0.0])})
    left = Trajectory((("s", "a"), ("s", "a")))
    right = Trajectory((("s", "b"),))
    estimate = fit_preference_reward(
        features, [PairwiseComparison(left, right, "left")], learn_rate=0.5, iters=100
    )
    assert trajectory_return(features, estimate.weights, left) > trajectory_return(
        features, estimate.weights, right
    )


def test_noiseless_comparisons_recover_full_ranking(rng):
    states = [f"s{i}" for i in range(6)]
    actions = ["a", "b"]
    features = FeatureMap(
        3, {(s, a): rng.normal(size=3) for s in states for a in actions}
    )
    trajectories = []
    for _ in range(10):
        length = int(rng.integers(3, 7))
        steps = tuple(
            (states[int(rng.integers(0, 6))], actions[int(rng.integers(0, 2))])
            for _ in range(length)
        )
        trajectories.append(Trajectory(steps))
    theta_true = rng.normal(size=3)
    true_returns = [trajectory_return(features, theta_true, t) for t in trajectories]
    comparisons = []
    for _ in range(200):
        i, j = rng.choice(10, size=2, replace=False)
        preferred = "left" if true_returns[i] > true_returns[j] else "right"
        comparisons.append(PairwiseComparison(trajectories[i], trajectories[j], preferred))
    estimate = fit_preference_reward(features, comparisons, learn_rate=0.1, iters=500)
    fitted_returns = [trajectory_return(features, estimate.weights, t) for t in trajectories]
    true_order = sorted(range(10), key=lambda k: true_returns[k])
    fitted_order = sorted(range(10), key=lambda k: fitted_returns[k])
    assert _kendall_tau(true_order, fitted_order) == 1.0


def test_feature_identical_pair_is_degenerate():
    features = FeatureMap(2, {("s", "a"): np.array([1.0, 2.0]), ("t", "b"): np.array([1.0, 2.0])})
    left = Trajectory((("s", "a"),))
    right = Trajectory((("t", "b"),))
    with pytest.raises(DegenerateData):
        fit_preference_reward(
            features, [PairwiseComparison(left, right, "left")], learn_rate=0.1, iters=10
        )


# --- infer_discount ------------------------------------------------------------


def timing_choice_mdp():
    """Two dated-reward choices that bracket beta = 0.95.

    Choice A (a0): 8 now vs 10 three steps out -> late wins iff beta > 0.928.
    Choice B (b0): 9 now vs 10 three steps out -> early wins iff beta < 0.9655.
    """
    states = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "z"]
    actions = ["early", "late"]
    moves = {}
    for s in states:
        moves[(s, "early")] = "z"
        moves[(s, "late")] = "z"
    for chain in ("a", "b"):
        moves[(f"{chain}0", "late")] = f"{chain}1"
        for i in (1, 2):
            moves[(f"{chain}{i}", "early")] = f"{chain}{i + 1}"
            moves[(f"{chain}{i}", "late")] = f"{chain}{i + 1}"
    rewards = {
        ("a0", "early"): 8.0,
        ("b0", "early"): 9.0,
        ("a3", "early"): 10.0,
        ("a3", "late"): 10.0,
        ("b3", "early"): 10.0,
        ("b3", "late"): 10.0,
    }
    return deterministic_mdp(states, actions, moves, rewards)


GRID = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99]


def test_uninformative_likelihood_returns_prior():
    mdp = deterministic_mdp(
        ["s"], ["a", "b"], {("s", "a"): "s", ("s", "b"): "s"}, {("s", "a"): 1.0, ("s", "b"): 1.0}
    )
    prior = [0.3, 0.7]
    posterior = infer_discount(mdp, {"s": "a"}, [0.5, 0.9], prior)
    assert posterior[0.5] == pytest.approx(0.3, abs=1e-9)
    assert posterior[0.9] == pytest.approx(0.7, abs=1e-9)


def test_posterior_peaks_at_generating_beta():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.95).policy
    assert behavior["a0"] == "late" and behavior["b0"] == "early"
    # oracle: compare Q* at each grid point directly
    for b in GRID:
        q = value_iteration(mdp, beta=b).q
        assert (q[("a0", "late")] > q[("a0", "early")]) == (b > 0.9283)
    prior = [1.0 / len(GRID)] * len(GRID)
    posterior = infer_discount(mdp, behavior, GRID, prior, temperature=0.01)
    assert sum(posterior.values()) == pytest.approx(1.0, abs=1e-9)
    assert max(posterior, key=posterior.get) == 0.95


def test_posterior_invariant_to_grid_permutation():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.95).policy
    prior = [1.0 / len(GRID)] * len(GRID)
    forward = infer_discount(mdp, behavior, GRID, prior)
    permuted_grid = list(reversed(GRID))
    backward = infer_discount(mdp, behavior, permuted_grid, prior)
    for b in GRID:
        assert forward[b] == pytest.approx(backward[b], abs=1e-12)


def test_single_point_grid_normalizes():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.9).policy
    posterior = infer_discount(mdp, behavior, [0.9], [1.0])
    assert posterior == {0.9: 1.0}


def test_discount_grid_validation():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.9).policy
    with pytest.raises(EmptyGrid):
        infer_discount(mdp, behavior, [], [])
    with pytest.raises(InvalidPrior):
        infer_discount(mdp, behavior, [0.5, 0.9], [0.7, 0.7])


# --- patient_recommendation -------------------------------------------------------


def patience_mdp():
    states = ["c0", "e1", "l1", "l2", "l3"]
    actions = ["now", "wait"]
    moves = {
        ("c0", "now"): "e1",
        ("c0", "wait"): "l1",
        ("e1", "now"): "e1",
        ("e1", "wait"): "e1",
        ("l1", "now"): "l2",
        ("l1", "wait"): "l2",
        ("l2", "now"): "l3",
        ("l2", "wait"): "l3",
        ("l3", "now"): "e1",
        ("l3", "wait"): "e1",
    }
    rewards = {
        ("c0", "now"): 1.0,
        ("e1", "now"): 0.3,
        ("e1", "wait"): 0.3,
        ("l3", "now"): 10.0,
        ("l3", "wait"): 10.0,
    }
    return deterministic_mdp(states, actions, moves, rewards)


def test_equal_betas_no_divergence():
    mdp = patience_mdp()
    advice = patient_recommendation(mdp, 0.5, 0.5)
    assert advice.divergent_states == ()


def test_patience_flips_to_delayed_branch():
    # exact values: Q(c0, now) = 1 + 0.5*0.6 = 1.3 vs Q(c0, wait) = 1.2875 at 0.5;
    # at 0.95 waiting is worth 13.46 vs 6.7
    mdp = patience_mdp()
    advice = patient_recommendation(mdp, 0.5, 0.95)
    assert advice.fitted_policy["c0"] == "now"
    assert advice.policy["c0"] == "wait"
    assert advice.divergent_states == ("c0",)


def test_zero_reward_no_divergence():
    mdp = patience_mdp()
    advice = patient_recommendation(mdp.with_reward(np.zeros((5, 2))), 0.5, 0.95)
    assert advice.divergent_states == ()


def test_patiences_validated():
    mdp = patience_mdp()
    with pytest.raises(InvalidDiscount):
        patient_recommendation(mdp, 0.9, 0.5)


# --- prudent_investor_weights -------------------------------------------------------


def test_zero_mean_zero_position():
    problem = PortfolioProblem(np.zeros(3), np.eye(3) * 0.1, 1.0)
    assert np.allclose(prudent_investor_weights(problem), 0.0)


def test_diagonal_closed_form_fixture():
    problem = PortfolioProblem(np.array([0.1, 0.2]), np.diag([0.04, 0.04]), 1.0)
    weights = prudent_investor_weights(problem)
    assert weights == pytest.approx([1.25, 2.5], abs=1e-9)


def test_symmetric_assets_equal_weights():
    sigma = np.array([[0.05, 0.0], [0.0, 0.05]])
    problem = PortfolioProblem(np.array([0.1, 0.1]), sigma, 2.0)
    weights = prudent_investor_weights(problem)
    assert weights[0] == pytest.approx(weights[1])


def test_closed_form_beats_grid_search():
    problem = PortfolioProblem(np.array([0.1, 0.2]), np.diag([0.04, 0.04]), 1.0)
    weights = prudent_investor_weights(problem)
    grid = np.linspace(-5.0, 5.0, 101)
    best = max(problem.objective(np.array([x, y])) for x in grid for y in grid)
    closed = problem.objective(weights)
    assert closed >= best - 1e-12
    assert closed - best <= 1e-3


def test_portfolio_validation():
    with pytest.raises(ValueError):
        PortfolioProblem(np.array([0.1, 0.2]), np.array([[0.04, 0.1], [0.0, 0.04]]), 1.0)
    with pytest.raises(ValueError):
        PortfolioProblem(np.array([0.1]), np.array([[-0.5]]), 1.0)
