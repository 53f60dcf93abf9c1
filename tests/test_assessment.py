import itertools
import math
import re
import struct

import numpy as np
import pytest

from fidaudit import assessment
from fidaudit.assessment import (
    FeasibleRewardSet,
    _slack,
    demo_log_likelihood,
    feasible_rewards_irl,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
    one_hot_states,
    patient_recommendation,
    prudent_investor_weights,
)
from fidaudit import mdp as mdp_module
from fidaudit.mdp import Mdp, evaluate_policy, policy_iteration, solve_exact, value_iteration
from helpers import (
    _sigmoid,
    looped_feasible_constraints,
    looped_feasible_sample,
    mean_variance_objective,
    numpy_log_likelihood,
    numpy_preference_fit,
    stacked_expected_next,
    stacked_linear_reward,
)


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
    return Mdp(
        tuple(f"s{i}" for i in range(n_states)),
        tuple(f"a{j}" for j in range(n_actions)),
        transition,
        np.zeros((n_states, n_actions)),
    )


# --- feasible_rewards_irl ---------------------------------------------------


def test_zero_reward_always_feasible(rng):
    for _ in range(5):
        mdp = random_dynamics(rng)
        policy = np.array([int(rng.integers(0, 2)) for _ in mdp.states])
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
    policy = np.array([1, 0])  # always head to s1: move in s0, stay in s1
    feasible = feasible_rewards_irl(mdp, policy, beta=0.9, bound=2.0)
    for _ in range(10):
        reward = feasible.sample(rng)
        assert feasible.contains(reward)
        solved = value_iteration(mdp.with_reward(reward), beta=0.9, tol=1e-12)
        greedy_value = evaluate_policy(mdp.with_reward(reward), solved.policy, 0.9)
        stated_value = evaluate_policy(mdp.with_reward(reward), policy, 0.9)
        for s in range(len(mdp.states)):
            assert stated_value.values[s] >= greedy_value.values[s] - 1e-8


def test_sample_matches_the_per_cell_draws_bit_for_bit():
    for seed, (n_states, n_actions) in enumerate([(1, 1), (3, 1), (4, 2), (7, 3), (20, 4)]):
        draw = np.random.default_rng(seed)
        mdp = random_dynamics(draw, n_states, n_actions)
        policy = draw.integers(0, n_actions, size=n_states)
        for bound in (0.05, 100.0):  # rescaled into the bound, and not
            feasible = feasible_rewards_irl(mdp, policy, beta=0.9, bound=bound)
            fast, slow = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            reward = feasible.sample(fast)
            assert reward.tobytes() == looped_feasible_sample(feasible, slow).tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state


def test_constraint_matrix_is_within_rounding_of_the_row_loop():
    for seed, (n_states, n_actions) in enumerate([(1, 1), (3, 1), (4, 2), (7, 3), (20, 4), (100, 2)]):
        draw = np.random.default_rng(seed)
        mdp = random_dynamics(draw, n_states, n_actions)
        policy = draw.integers(0, n_actions, size=n_states)
        for beta in (0.5, 0.99):
            feasible = feasible_rewards_irl(mdp, policy, beta=beta, bound=1.0)
            want = looped_feasible_constraints(mdp, policy, beta)
            assert feasible.constraint_matrix.shape == want.shape == (n_states * (n_actions - 1), n_states * n_actions)
            assert float(np.max(np.abs(feasible.constraint_matrix - want), initial=0.0)) <= 1e-12
            looped = FeasibleRewardSet(feasible.mdp, feasible.chosen, feasible.beta, feasible.bound, want)
            rewards = [feasible.sample(draw) for _ in range(5)]
            rewards += [draw.uniform(-1.0, 1.0, size=(n_states, n_actions)) for _ in range(5)]
            assert all(feasible.contains(r) for r in rewards[:5])
            assert [feasible.contains(r) for r in rewards] == [looped.contains(r) for r in rewards]


def test_suboptimal_reward_violates_a_constraint():
    states = ["s0", "s1"]
    moves = {
        ("s0", "stay"): "s0",
        ("s0", "move"): "s1",
        ("s1", "stay"): "s1",
        ("s1", "move"): "s0",
    }
    mdp = deterministic_mdp(states, ["stay", "move"], moves)
    lazy = np.array([0, 0])  # stay in both states
    feasible = feasible_rewards_irl(mdp, lazy, beta=0.9, bound=2.0)
    # reward that pays only for reaching s1 makes 'stay at s0' strictly suboptimal
    reward = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not feasible.contains(reward)


@pytest.mark.parametrize(
    "call",
    [
        lambda mdp, policy: feasible_rewards_irl(mdp, policy, beta=0.9, bound=1.0),
        lambda mdp, policy: infer_discount(mdp, policy, [0.5, 0.9], [0.5, 0.5]),
        lambda mdp, policy: evaluate_policy(mdp, policy, 0.9),
    ],
    ids=["feasible_rewards_irl", "infer_discount", "evaluate_policy"],
)
@pytest.mark.parametrize(
    "policy, message",
    [
        (np.array([0, 0, 1]), r"policy has shape \(3,\), expected \(4,\)"),
        (np.zeros((4, 1), dtype=int), r"policy has shape \(4, 1\), expected \(4,\)"),
        ({"s0": "right", "s1": "right", "s2": "left"}, r"policy has shape \(\), expected \(4,\)"),
        (np.array([0.0, 0.0, 1.0, 1.0]), "policy has dtype float64, expected integer action indices"),
        (np.array([True, False, True, False]), "policy has dtype bool, expected integer action indices"),
        (np.array([0, -1, 0, 0]), r"policy picks action index -1 in state 's1', outside 0\.\.1"),
        (np.array([0, 0, 0, 2]), r"policy picks action index 2 in state 's3', outside 0\.\.1"),
    ],
    ids=["short", "two-d", "map", "float", "bool", "negative", "too-large"],
)
def test_a_bad_policy_array_is_a_value_error(call, policy, message):
    with pytest.raises(ValueError, match=message):
        call(chain_walk_mdp(), policy)


# --- maxent_irl -----------------------------------------------------------------


def test_maxent_zero_information_features_keep_theta_zero():
    mdp = chain_walk_mdp()
    constant = np.ones((8, 2))
    demos = [(0, 2)]  # s0 right, s1 right
    estimate = maxent_irl(mdp, constant, demos, beta=0.9, learn_rate=0.1, iters=50)
    assert np.allclose(estimate.weights, 0.0)
    assert estimate.grad_norm == pytest.approx(0.0, abs=1e-12)


def test_maxent_recovers_demonstrated_policy():
    mdp = chain_walk_mdp()
    features = one_hot_states(mdp)
    demonstrated = value_iteration(mdp, beta=0.9).policy
    assert all(mdp.actions[a] == "right" for a in demonstrated)
    demos = []
    for i in range(len(mdp.states)):
        steps = []
        for _ in range(6):
            j = int(demonstrated[i])
            steps.append(i * len(mdp.actions) + j)
            i = int(np.argmax(mdp.transition[i, j]))
        demos.append(steps)
    estimate = maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.2, iters=150)
    # policy equivalence is the success criterion; reward equality is not
    learned_policy = value_iteration(mdp.with_reward(estimate.table), beta=0.9).policy
    assert np.array_equal(learned_policy, demonstrated)


def test_maxent_gradient_matches_finite_differences(rng):
    for _ in range(3):
        mdp = random_dynamics(rng, 4, 2)
        features = rng.normal(size=(8, 3))
        demos = []
        for _ in range(3):
            steps = []
            i = int(rng.integers(0, 4))
            for _ in range(4):
                j = int(rng.integers(0, 2))
                steps.append(i * 2 + j)
                i = int(rng.choice(4, p=mdp.transition[i, j]))
            demos.append(steps)
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
    mdp = chain_walk_mdp()
    demos = [(0, 2, 5)]  # s0 right, s1 right, s2 left
    one_hot = one_hot_states(mdp)
    zero = np.zeros((8, 2))
    calls = []
    kernel = assessment._Workspace.evaluate

    def counted(self, theta):
        calls.append(1)
        return kernel(self, theta)

    monkeypatch.setattr(assessment._Workspace, "evaluate", counted)
    # no steps, the grad_norm == 0 early stop, and a normal run
    for features, iters, evaluations in [(one_hot, 0, 1), (zero, 50, 1), (one_hot, 25, 26)]:
        calls.clear()
        estimate = maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.1, iters=iters)
        assert len(calls) == evaluations
        expected, _ = demo_log_likelihood(mdp, features, demos, estimate.weights, 0.9)
        assert estimate.log_likelihood == expected
    assert estimate.grad_norm > 0.0


def _einsum_log_likelihood(mdp, features, demos, theta, beta):
    # reference: the backward pass that carries the value gradients
    # dQ_t/dtheta (S, A, d) and dV_t/dtheta (S, d) through every step, with
    # both contractions written as np.einsum; log pi_t(s, a) has gradient
    # dQ_t(s, a) - dV_t(s)
    n_a = len(mdp.actions)
    dense = features.reshape(len(mdp.states), n_a, -1)
    horizon = max(len(d) for d in demos)
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
        for t, (i, j) in enumerate(divmod(r, n_a) for r in demo):
            total += math.log(policies[t][i, j])
            grad += grad_qs[t][i, j] - grad_vs[t][i]
    return total, grad


def _random_demos(rng, mdp, lengths, choose=None):
    """One demo per length, as the rows of its steps: actions from
    ``choose`` (a state index -> action index map) or uniform, next states
    drawn from the dynamics."""
    n_s, n_a = mdp.transition.shape[:2]
    demos = []
    for length in lengths:
        i, steps = int(rng.integers(0, n_s)), []
        for _ in range(length):
            j = int(rng.integers(0, n_a)) if choose is None else choose[i]
            steps.append(i * n_a + j)
            i = int(rng.choice(n_s, p=mdp.transition[i, j]))
        demos.append(steps)
    return demos


def test_demo_log_likelihood_matches_einsum_reference(rng):
    for n_states, dim in [(3, 1), (5, 4), (8, 6), (12, 12)]:
        mdp = random_dynamics(rng, n_states, 3)
        features = rng.normal(size=(n_states * 3, dim))
        demos = _random_demos(rng, mdp, [1, 4, 7, 2])
        for beta in (0.5, 0.999):
            theta = rng.normal(size=dim)
            total, grad = demo_log_likelihood(mdp, features, demos, theta, beta)
            want_total, want_grad = _einsum_log_likelihood(mdp, features, demos, theta, beta)
            assert abs(total - want_total) <= 1e-12 * abs(want_total)
            assert grad.shape == want_grad.shape
            assert float(np.max(np.abs(grad - want_grad))) <= 1e-12 * float(np.max(np.abs(want_grad)))


def test_log_likelihood_equals_the_numpy_reduction_oracle_bit_for_bit():
    # the mdp benchmark's shapes (A = 2, one-hot state features, five
    # 10-step demos), then dense features at A = 1, 3 and 7; each also
    # with single-step demos (horizon 1)
    rng = np.random.default_rng(11)
    for n_states, n_actions, dim in [(20, 2, None), (50, 2, None), (100, 2, None), (6, 1, 2), (12, 3, 5), (9, 7, 3)]:
        mdp = random_dynamics(rng, n_states, n_actions)
        dense = one_hot_states(mdp) if dim is None else rng.normal(size=(n_states * n_actions, dim))
        for lengths in ([10] * 5, [1] * 3):
            demos = _random_demos(rng, mdp, lengths)
            _, counts = assessment._visits(mdp, demos)
            assert counts.shape[0] == lengths[0]
            for beta in (0.9, 0.99, 0.999):
                theta = rng.normal(size=dense.shape[1])
                work = assessment._Workspace(mdp, dense, demos, beta)
                grad = work.evaluate(theta)
                want_policies, want_grad = numpy_log_likelihood(mdp, dense, counts, theta, beta)
                assert work.policies.tobytes() == want_policies.tobytes()
                assert grad.tobytes() == want_grad.tobytes()


def _oracle_fit(mdp, dense, demos, beta, learn_rate, iters):
    """``maxent_irl``'s steps over ``numpy_log_likelihood``: the weights, the
    final gradient and each step's (policies, gradient)."""
    _, counts = assessment._visits(mdp, demos)
    theta = np.zeros(dense.shape[1])
    passes = [numpy_log_likelihood(mdp, dense, counts, theta, beta)]
    for _ in range(iters):
        theta = theta + learn_rate * passes[-1][1]
        passes.append(numpy_log_likelihood(mdp, dense, counts, theta, beta))
    return theta, passes


def test_one_workspace_runs_a_sequence_of_thetas_bit_for_bit():
    # each pass overwrites the buffers of the last, so the results of a
    # sequence, of two fits interleaved on different MDPs and of separate
    # fits must agree byte for byte
    rng = np.random.default_rng(13)
    worlds = []
    for n_states, n_actions, dim in [(20, 2, None), (9, 3, 4), (6, 1, 2)]:
        mdp = random_dynamics(rng, n_states, n_actions)
        dense = one_hot_states(mdp) if dim is None else rng.normal(size=(n_states * n_actions, dim))
        worlds.append((mdp, dense, _random_demos(rng, mdp, [10, 3, 7])))
    for mdp, dense, demos in worlds:
        _, counts = assessment._visits(mdp, demos)
        work = assessment._Workspace(mdp, dense, demos, 0.95)
        grads = []
        for theta in [rng.normal(size=dense.shape[1]) for _ in range(4)] + [np.zeros(dense.shape[1])]:
            grads.append(work.evaluate(theta))
            want_policies, want_grad = numpy_log_likelihood(mdp, dense, counts, theta, 0.95)
            assert work.policies.tobytes() == want_policies.tobytes()
            assert grads[-1].tobytes() == want_grad.tobytes()
            assert work.demo_log_prob() == demo_log_likelihood(mdp, dense, demos, theta, 0.95)[0]
            grads[-1] = (grads[-1], want_grad)
        # each gradient is a fresh array, which later passes leave alone
        assert all(grad.tobytes() == want.tobytes() for grad, want in grads)

    # two fits' steps interleaved, one workspace each
    fits = [(worlds[0], 0.99), (worlds[1], 0.9)]
    works = [assessment._Workspace(mdp, dense, demos, beta) for (mdp, dense, demos), beta in fits]
    thetas = [np.zeros(work.features.shape[1]) for work in works]
    grads = [None, None]
    oracles = [_oracle_fit(mdp, dense, demos, beta, 0.05, 6) for (mdp, dense, demos), beta in fits]
    for step in range(7):
        for k, work in enumerate(works):
            if step:
                thetas[k] = thetas[k] + 0.05 * grads[k]
            grads[k] = work.evaluate(thetas[k])
            want_policies, want_grad = oracles[k][1][step]
            assert work.policies.tobytes() == want_policies.tobytes()
            assert grads[k].tobytes() == want_grad.tobytes()
    for ((mdp, dense, demos), beta), work, theta, grad, (want_theta, _) in zip(fits, works, thetas, grads, oracles):
        fit = maxent_irl(mdp, dense, demos, beta, learn_rate=0.05, iters=6)
        assert theta.tobytes() == fit.weights.tobytes() == want_theta.tobytes()
        assert math.sqrt(grad @ grad) == fit.grad_norm == float(np.linalg.norm(grad))
        assert work.demo_log_prob() == fit.log_likelihood


def test_mutating_returned_arrays_leaves_later_passes_unchanged():
    rng = np.random.default_rng(17)
    mdp = random_dynamics(rng, 8, 2)
    dense = rng.normal(size=(16, 3))
    demos = _random_demos(rng, mdp, [5, 5])
    first, second = rng.normal(size=3), rng.normal(size=3)
    want = demo_log_likelihood(mdp, dense, demos, second, 0.9)
    work = assessment._Workspace(mdp, dense, demos, 0.9)
    theta = first.copy()
    grad = work.evaluate(theta)
    grad[:] = np.nan
    theta[:] = np.nan
    got = work.evaluate(second)
    assert got.tobytes() == want[1].tobytes()
    assert work.demo_log_prob() == want[0]

    # the fit's own workspace, after its weights, table and last gradient are spoilt
    seen = []
    kernel = assessment._Workspace.evaluate

    def recorded(self, theta):
        grad = kernel(self, theta)
        seen.append((self, grad))
        return grad

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assessment._Workspace, "evaluate", recorded)
        fit = maxent_irl(mdp, dense, demos, 0.9, learn_rate=0.05, iters=5)
    work, grad = seen[-1]
    assert all(w is work for w, _ in seen)
    again = maxent_irl(mdp, dense, demos, 0.9, learn_rate=0.05, iters=5)
    for spoilt in (fit.weights, fit.table, grad):
        spoilt[...] = np.nan
    got = work.evaluate(second)
    assert got.tobytes() == want[1].tobytes()
    assert work.demo_log_prob() == want[0]
    later = maxent_irl(mdp, dense, demos, 0.9, learn_rate=0.05, iters=5)
    assert later.weights.tobytes() == again.weights.tobytes()
    assert later.table.tobytes() == again.table.tobytes()
    assert (later.grad_norm, later.log_likelihood) == (again.grad_norm, again.log_likelihood)


# Bounds on max |flat - stacked| / max |stacked|, where "stacked" is the
# library run with the (S, A, ·) @ (·,) products of tests/helpers.py. On the
# mdp benchmark's worlds of seeds 1-5 the largest drifts were 2.3e-15
# (weights), 1.4e-15 (grad_norm) and 1.1e-12 (posterior) by this measure,
# and 4.2e-13, 1.4e-15 and 2.2e-12 entry by entry.
EVALUATION_BOUND = 1e-12  # one likelihood evaluation, one solve's Q and V, one sample
FIT_BOUND = 1e-11  # 20 fixed steps, each moved by the one before
# the temperature-0.01 softmax multiplies Q's drift by up to max |Q| / 0.01 (9e4 here)
POSTERIOR_BOUND = 1e-9


def _within(got, want, bound):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want), initial=0.0)) <= bound * float(np.max(np.abs(want), initial=0.0))


def test_flat_products_agree_with_the_stacked_products(monkeypatch):
    # the mdp benchmark's shapes (A = 2, one-hot state features, five
    # 10-step demos of the myopic policy, 20 steps at learn rate 0.01, the
    # posterior over [0.5, 0.75, beta]), then dense features at A = 1, 3 and 7
    rng = np.random.default_rng(5)
    for n_states, n_actions, dim in [(20, 2, None), (50, 2, None), (100, 2, None), (6, 1, 2), (12, 3, 5), (9, 7, 3)]:
        world = random_dynamics(rng, n_states, n_actions).with_reward(rng.random((n_states, n_actions)))
        dense = one_hot_states(world) if dim is None else rng.normal(size=(n_states * n_actions, dim))
        myopic = world.reward.argmax(axis=1)
        demos = _random_demos(rng, world, [10] * 5, choose=myopic.tolist())
        _, counts = assessment._visits(world, demos)
        for beta in (0.9, 0.99, 0.999):
            theta = rng.normal(size=dense.shape[1])
            feasible = feasible_rewards_irl(world, rng.integers(0, n_actions, size=n_states), beta, bound=1.0)
            seed = int(rng.integers(1 << 30))

            def run():
                fresh = world.with_reward(world.reward)  # solve_exact keeps its solves per instance
                fit = maxent_irl(fresh, dense, demos, beta, learn_rate=0.01, iters=20)
                work = assessment._Workspace(fresh, dense, demos, beta)
                grad = work.evaluate(theta)
                return (
                    (work.policies, grad),
                    policy_iteration(fresh, beta),
                    feasible.sample(np.random.default_rng(seed)),
                    fit,
                    solve_exact(fresh.with_reward(fit.table), beta).policy,
                    infer_discount(fresh, myopic, [0.5, 0.75, beta], [0.25, 0.25, 0.5]),
                )

            def stacked_evaluate(work, theta):
                # the same pass over the stacked reward and E[V] products
                policies, grad = numpy_log_likelihood(world, dense, counts, theta, beta, stacked=True)
                work.reward[...] = stacked_linear_reward(world, dense, theta)
                work.policies[...] = policies
                return grad

            (policies, grad), solved, sample, fit, greedy, posterior = run()
            with monkeypatch.context() as stacked:
                stacked.setattr(mdp_module, "_expected_next", stacked_expected_next)
                stacked.setattr(assessment, "_expected_next", stacked_expected_next)
                stacked.setattr(assessment._Workspace, "evaluate", stacked_evaluate)
                (want_policies, want_grad), want_solved, want_sample, want_fit, want_greedy, want_posterior = run()
            assert _within(policies, want_policies, EVALUATION_BOUND)
            assert _within(grad, want_grad, EVALUATION_BOUND)
            assert _within(solved.values, want_solved.values, EVALUATION_BOUND)
            assert _within(solved.q, want_solved.q, EVALUATION_BOUND)
            assert np.array_equal(solved.policy, want_solved.policy)
            assert _within(sample, want_sample, EVALUATION_BOUND)
            assert _within(fit.weights, want_fit.weights, FIT_BOUND)
            assert _within(fit.grad_norm, want_fit.grad_norm, FIT_BOUND)
            assert np.array_equal(greedy, want_greedy)
            assert list(posterior) == list(want_posterior)
            assert _within(list(posterior.values()), list(want_posterior.values()), POSTERIOR_BOUND)


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
        dense = one_hot_states(mdp)
        estimate = maxent_irl(mdp, dense, demos, beta=beta, learn_rate=0.01, iters=20)

        theta = np.zeros(n_states)
        _, grad = _einsum_log_likelihood(mdp, dense, demos, theta, beta)
        for _ in range(20):
            theta = theta + 0.01 * grad
            _, grad = _einsum_log_likelihood(mdp, dense, demos, theta, beta)
        grad_norm = float(np.linalg.norm(grad))

        assert float(np.max(np.abs(estimate.weights - theta))) <= 1e-12 * float(np.max(np.abs(theta)))
        assert abs(estimate.grad_norm - grad_norm) <= 1e-12 * grad_norm
        greedy = policy_iteration(mdp.with_reward(estimate.table), beta).policy
        assert np.array_equal(greedy, policy_iteration(mdp.with_reward((dense @ theta).reshape(-1, 2)), beta).policy)


def test_one_hot_states_is_a_contiguous_identity_per_action():
    mdp = chain_walk_mdp()
    features = one_hot_states(mdp)
    assert features.shape == (8, 4) and features.flags.c_contiguous
    for j in range(2):  # row s * A + a is e_s
        assert np.array_equal(features[j::2], np.eye(4))


@pytest.mark.parametrize(
    "features, demos, message",
    [
        # row 8 is state 4's first step; a (state, action) pair is not a row
        (np.zeros((8, 4)), [(0, 8)], re.escape("trajectory step 8 not in the feature table")),
        (np.zeros((8, 4)), [(0, (1, 1))], re.escape("trajectory step (1, 1) not in the feature table")),
        (np.zeros((8, 4)), [(0, -1)], re.escape("trajectory step -1 not in the feature table")),
        (np.zeros((8, 4)), [(0, 1.5)], re.escape("trajectory step 1.5 not in the feature table")),
        # equal to row 1, but no row index
        (np.zeros((8, 4)), [(0, 1.0)], re.escape("trajectory step 1.0 not in the feature table")),
        (np.zeros((8, 4)), [(0, True)], re.escape("trajectory step True not in the feature table")),
        (np.zeros((8, 4)), [(0,), ()], "trajectory must be non-empty"),
        (np.zeros((8, 4)), [], "demos must be non-empty"),
        (np.ones((4, 2, 4)), [(0,)], re.escape("features have shape (4, 2, 4), expected (8, d)")),
        (np.ones((12, 4)), [(0,)], re.escape("features have shape (12, 4), expected (8, d)")),
        (np.full((8, 4), np.nan), [(0,)], "features have non-finite entries"),
        (np.zeros((8, 0)), [(0,)], re.escape("features have zero width: d >= 1 required")),
    ],
    ids=[
        "state", "action", "negative", "float", "integral-float", "bool", "empty-demo", "no-demos", "tensor-features", "wrong-actions",
        "nan-features", "zero-width",
    ],
)
def test_a_demo_step_outside_the_mdp_is_named(features, demos, message):
    mdp = chain_walk_mdp()
    with pytest.raises(ValueError, match=message):
        demo_log_likelihood(mdp, features, demos, np.zeros(4), 0.9)
    with pytest.raises(ValueError, match=message):
        maxent_irl(mdp, features, demos, beta=0.9, learn_rate=0.1, iters=5)


def test_demo_log_likelihood_checks_beta_as_maxent_irl_does():
    mdp = chain_walk_mdp()
    for call in (
        lambda: demo_log_likelihood(mdp, np.zeros((8, 4)), [(0,)], np.zeros(4), 1.5),
        lambda: maxent_irl(mdp, np.zeros((8, 4)), [(0,)], beta=1.5, learn_rate=0.1, iters=5),
    ):
        with pytest.raises(ValueError, match=re.escape("beta must lie in (0, 1), got 1.5")):
            call()


@pytest.mark.parametrize("theta", [np.zeros(3), np.zeros(5), np.zeros((4, 1)), 0.5])
def test_demo_log_likelihood_names_d_for_a_theta_of_the_wrong_shape(theta):
    shape = np.shape(theta)
    with pytest.raises(ValueError, match=re.escape(f"theta has shape {shape}, expected (d,) = (4,)")):
        demo_log_likelihood(chain_walk_mdp(), np.zeros((8, 4)), [(0,)], theta, 0.9)


# --- fit_preference_reward --------------------------------------------------------


def _return(features, theta, rows):
    """A trajectory's return: its feature rows summed in step order, dotted with theta."""
    return float(sum((features[r] for r in rows), np.zeros(features.shape[1])) @ theta)


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


def _two_branch_slack(margin):
    """sigmoid(-margin) as two separately computed halves."""
    x = -margin
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def test_slack_matches_the_two_branch_logistic_at_the_edges():
    edges = [0.0, 1e-300, 36.0, 745.0, 1e308, math.inf]
    margins = edges + [-e for e in edges] + np.random.default_rng(5).normal(size=1_000).tolist()
    for m in margins:
        got, want = _slack(m), _two_branch_slack(m)
        assert struct.pack("<d", got) == struct.pack("<d", want), m
        assert 0.0 <= got <= 1.0
        oracle = float(_sigmoid(np.array(-m)))  # numpy's exp: equal up to its last bits
        assert abs(got - oracle) <= 1e-15 * oracle, m
    assert [_slack(m) for m in (0.0, -0.0, 1e-300, -1e-300)] == [0.5] * 4
    assert [_slack(m) for m in (1e308, math.inf, -1e308, -math.inf)] == [0.0, 0.0, 1.0, 1.0]
    assert _slack(745.0) == 5e-324 and _slack(-745.0) == 1.0
    assert math.isnan(_slack(math.nan))


def _random_comparisons(rng, rows):
    comparisons = []
    for _ in range(int(rng.integers(1, 8))):
        left = tuple(int(r) for r in rng.integers(0, rows, size=int(rng.integers(1, 4))))
        right = tuple(int(r) for r in rng.integers(0, rows, size=int(rng.integers(1, 4))))
        if left != right:
            comparisons.append((left, right, "left" if rng.random() < 0.5 else "right"))
    return comparisons


def test_preference_fit_is_within_rounding_of_the_numpy_fit():
    rng = np.random.default_rng(22)
    fits = 0
    while fits < 60:
        rows = int(rng.integers(2, 10))
        features = rng.normal(size=(rows, int(rng.integers(1, 6))))
        comparisons = _random_comparisons(rng, rows)
        if not comparisons:
            continue
        # a step small enough for a stable ascent, so rounding is not amplified
        estimate = fit_preference_reward(features, comparisons, learn_rate=0.01, iters=100)
        weights, log_likelihood = numpy_preference_fit(features, comparisons, 0.01, 100)
        assert np.max(np.abs(estimate.weights - weights)) <= 1e-12 * np.max(np.abs(weights))
        assert abs(estimate.log_likelihood - log_likelihood) <= 1e-12 * abs(log_likelihood)
        fits += 1


def _dense_sequential_fit(features, comparisons, learn_rate, iters):
    """Every (comparison, feature) term, zeros included, summed from 0.0 in
    ascending feature order for a margin and in comparison order for a
    gradient, and every feature stepped."""
    diffs = []
    for left, right, preferred in comparisons:
        winner, loser = (left, right) if preferred == "left" else (right, left)
        diffs.append((sum((features[r] for r in winner), np.zeros(features.shape[1]))
                      - sum((features[r] for r in loser), np.zeros(features.shape[1]))).tolist())
    theta = [0.0] * features.shape[1]
    for _ in range(iters):
        slack = []
        for row in diffs:
            margin = 0.0
            for v, t in zip(row, theta):
                margin += v * t
            slack.append(_two_branch_slack(margin))
        grad = [0.0] * len(theta)
        for row, s in zip(diffs, slack):
            for j, v in enumerate(row):
                grad[j] += v * s
        theta = [t + learn_rate * g for t, g in zip(theta, grad)]
    return np.array(theta), diffs


def test_preference_fit_equals_a_dense_sequential_loop_bit_for_bit():
    rng = np.random.default_rng(40)
    zero_differences = fits = 0
    while fits < 60:
        rows = int(rng.integers(2, 10))
        features = rng.normal(size=(rows, int(rng.integers(2, 7))))
        features[rng.random(features.shape) < 0.4] = 0.0
        comparisons = _random_comparisons(rng, rows)
        try:
            estimate = fit_preference_reward(features, comparisons, learn_rate=0.05, iters=40)
        except ValueError:  # no comparison, or every one feature-identical
            continue
        weights, diffs = _dense_sequential_fit(features, comparisons, 0.05, 40)
        assert estimate.weights.view(np.uint64).tolist() == weights.view(np.uint64).tolist()
        zero_differences += sum(v == 0.0 for row in diffs for v in row)
        fits += 1
    assert zero_differences > 60  # the kernel skipped many terms the loop summed


def test_single_separable_comparison():
    features = np.array([[1.0], [0.0]])  # rows a and b
    left, right = (0, 0), (1,)
    estimate = fit_preference_reward(features, [(left, right, "left")], learn_rate=0.5, iters=100)
    assert _return(features, estimate.weights, left) > _return(features, estimate.weights, right)


def test_noiseless_comparisons_recover_full_ranking(rng):
    features = rng.normal(size=(6 * 2, 3))  # six states, two actions: row s * 2 + a
    trajectories = []
    for _ in range(10):
        length = int(rng.integers(3, 7))
        trajectories.append(tuple(int(rng.integers(0, 6)) * 2 + int(rng.integers(0, 2)) for _ in range(length)))
    theta_true = rng.normal(size=3)
    true_returns = [_return(features, theta_true, t) for t in trajectories]
    comparisons = []
    for _ in range(200):
        i, j = rng.choice(10, size=2, replace=False)
        preferred = "left" if true_returns[i] > true_returns[j] else "right"
        comparisons.append((trajectories[i], trajectories[j], preferred))
    estimate = fit_preference_reward(features, comparisons, learn_rate=0.1, iters=500)
    fitted_returns = [_return(features, estimate.weights, t) for t in trajectories]
    true_order = sorted(range(10), key=lambda k: true_returns[k])
    fitted_order = sorted(range(10), key=lambda k: fitted_returns[k])
    assert _kendall_tau(true_order, fitted_order) == 1.0


def test_feature_identical_pair_is_degenerate():
    features = np.array([[1.0, 2.0], [1.0, 2.0]])
    left, right = (0,), (1,)
    with pytest.raises(ValueError, match="every comparison is feature-identical; gradient is zero"):
        fit_preference_reward(features, [(left, right, "left")], learn_rate=0.1, iters=10)


@pytest.mark.parametrize(
    "features, left, right, message",
    [
        (np.eye(2), (0, 2), (1,), "trajectory step 2 not in the feature table"),
        (np.eye(2), (0,), (-1,), "trajectory step -1 not in the feature table"),
        (np.eye(2), (0,), (0.5,), "trajectory step 0.5 not in the feature table"),
        (np.eye(2), (0,), (1.0,), "trajectory step 1.0 not in the feature table"),
        (np.eye(2), (0,), (True,), "trajectory step True not in the feature table"),
        (np.ones(2), (0,), (1,), re.escape("features have shape (2,), expected (rows, d)")),
        (np.array([[1.0], [np.inf]]), (0,), (1,), "features have non-finite entries"),
        (np.zeros((2, 0)), (0,), (1,), re.escape("features have zero width: d >= 1 required")),
        (np.eye(2), (), (1,), "trajectory must be non-empty"),
        (np.eye(2), (0, 1), (0, 1), "comparison sides must differ"),
    ],
    ids=["past-end", "negative", "float", "integral-float", "bool", "one-axis", "infinite", "zero-width", "empty-side", "same-sides"],
)
def test_preference_fit_rejects_a_bad_table_or_comparison(features, left, right, message):
    with pytest.raises(ValueError, match=message):
        fit_preference_reward(features, [(left, right, "left")], learn_rate=0.1, iters=10)


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
    posterior = infer_discount(mdp, np.array([0]), [0.5, 0.9], prior)
    assert posterior[0.5] == pytest.approx(0.3, abs=1e-9)
    assert posterior[0.9] == pytest.approx(0.7, abs=1e-9)


def test_posterior_peaks_at_generating_beta():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.95).policy
    a0, b0 = mdp.states.index("a0"), mdp.states.index("b0")
    early, late = mdp.actions.index("early"), mdp.actions.index("late")
    assert behavior[a0] == late and behavior[b0] == early
    # oracle: compare Q* at each grid point directly
    for b in GRID:
        q = value_iteration(mdp, beta=b).q
        assert (q[a0, late] > q[a0, early]) == (b > 0.9283)
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


def _scalar_posterior(mdp, behavior, grid, prior, temperature):
    """infer_discount's posterior with each state's softmax scored on its own,
    over Q from the same exact solver."""
    log_posts = []
    for b, w in zip(grid, prior):
        solution = solve_exact(mdp, b)
        loglik = 0.0
        for s in range(len(mdp.states)):
            scaled = np.array([solution.q[s, a] for a in range(len(mdp.actions))]) / temperature
            peak = scaled.max()
            loglik += scaled[behavior[s]] - (peak + math.log(np.sum(np.exp(scaled - peak))))
        log_posts.append((b, math.log(w) + loglik))
    peak = max(lp for _, lp in log_posts)
    raw = {b: math.exp(lp - peak) for b, lp in log_posts}
    total = sum(raw.values())
    return {b: raw[b] / total for b in sorted(raw)}


def test_posterior_matches_the_per_state_reference_bit_for_bit(rng):
    for n_states, n_actions in [(1, 2), (3, 5), (7, 3), (20, 2), (40, 4), (100, 2)]:
        mdp = random_dynamics(rng, n_states, n_actions).with_reward(rng.normal(size=(n_states, n_actions)))
        grid = sorted(rng.uniform(0.3, 0.95, size=3).tolist())
        prior = [0.2, 0.5, 0.3]
        behavior = np.array([int(rng.integers(n_actions)) for _ in mdp.states])
        for temperature in (1.0, 0.1, 0.01):
            got = infer_discount(mdp, behavior, grid, prior, temperature)
            want = _scalar_posterior(mdp, behavior, grid, prior, temperature)
            assert list(got) == list(want)
            bits = [np.array(list(posterior.values())).view(np.uint64) for posterior in (got, want)]
            assert np.array_equal(*bits)


def test_discount_grid_validation():
    mdp = timing_choice_mdp()
    behavior = value_iteration(mdp, beta=0.9).policy
    with pytest.raises(ValueError, match="beta grid is empty"):
        infer_discount(mdp, behavior, [], [])
    with pytest.raises(ValueError, match=r"prior sums to 1\.4"):
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
    assert advice.divergent_states.tolist() == []


def test_patience_flips_to_delayed_branch():
    # exact values: Q(c0, now) = 1 + 0.5*0.6 = 1.3 vs Q(c0, wait) = 1.2875 at 0.5;
    # at 0.95 waiting is worth 13.46 vs 6.7
    mdp = patience_mdp()
    advice = patient_recommendation(mdp, 0.5, 0.95)
    c0, now, wait = mdp.states.index("c0"), mdp.actions.index("now"), mdp.actions.index("wait")
    assert advice.fitted_policy[c0] == now
    assert advice.policy[c0] == wait
    assert advice.divergent_states.tolist() == [c0]


def test_zero_reward_no_divergence():
    mdp = patience_mdp()
    advice = patient_recommendation(mdp.with_reward(np.zeros((5, 2))), 0.5, 0.95)
    assert advice.divergent_states.tolist() == []


def test_patiences_validated():
    mdp = patience_mdp()
    with pytest.raises(ValueError, match="beta_advice must be at least beta_fit"):
        patient_recommendation(mdp, 0.9, 0.5)


# --- prudent_investor_weights -------------------------------------------------------


def test_zero_mean_zero_position():
    assert np.allclose(prudent_investor_weights(np.zeros(3), np.eye(3) * 0.1, 1.0).weights, 0.0)


def test_diagonal_closed_form_fixture():
    weights = prudent_investor_weights(np.array([0.1, 0.2]), np.diag([0.04, 0.04]), 1.0).weights
    assert weights == pytest.approx([1.25, 2.5], abs=1e-9)


def test_symmetric_assets_equal_weights():
    sigma = np.array([[0.05, 0.0], [0.0, 0.05]])
    weights = prudent_investor_weights(np.array([0.1, 0.1]), sigma, 2.0).weights
    assert weights[0] == pytest.approx(weights[1])


def test_closed_form_beats_grid_search():
    mu, sigma = np.array([0.1, 0.2]), np.diag([0.04, 0.04])
    portfolio = prudent_investor_weights(mu, sigma, 1.0)
    grid = np.linspace(-5.0, 5.0, 101)
    best = max(mean_variance_objective(mu, sigma, 1.0, np.array([x, y])) for x in grid for y in grid)
    closed = portfolio.objective
    assert closed == mean_variance_objective(mu, sigma, 1.0, portfolio.weights)
    assert closed >= best - 1e-12
    assert closed - best <= 1e-3


def test_portfolio_validation():
    with pytest.raises(ValueError):
        prudent_investor_weights(np.array([0.1, 0.2]), np.array([[0.04, 0.1], [0.0, 0.04]]), 1.0)
    with pytest.raises(ValueError):
        prudent_investor_weights(np.array([0.1]), np.array([[-0.5]]), 1.0)
