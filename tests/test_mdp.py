import itertools

import numpy as np
import pytest

from fidaudit import mdp as mdp_module
from fidaudit.mdp import (
    DiscountSpec,
    Mdp,
    RewardOption,
    ValueFunction,
    detect_preference_reversal,
    discount_weight,
    evaluate_policy,
    _evaluate,
    _expected_next,
    _fold_actions,
    policy_iteration,
    solve_exact,
    value_iteration,
)
from helpers import contraction_gaps, delayed_reward_chain, stacked_expected_next


def single_state_mdp(rewards):
    n_actions = len(rewards)
    transition = np.ones((1, n_actions, 1))
    return Mdp(("s",), tuple(f"a{i}" for i in range(n_actions)), transition, np.array([rewards]))


def chain_mdp():
    # s0 -> s1 -> s1 deterministically under either action
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 1] = 1.0
    reward = np.array([[0.0], [1.0]])
    return Mdp(("s0", "s1"), ("go",), transition, reward)


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


# --- value_iteration -------------------------------------------------------


def test_geometric_series_value():
    result = value_iteration(single_state_mdp([1.0]), beta=0.5)
    assert result.values[0] == pytest.approx(2.0, abs=1e-8)
    assert result.converged


def test_dominant_action_and_tie_break():
    result = value_iteration(single_state_mdp([0.0, 1.0]), beta=0.5)
    assert result.values[0] == pytest.approx(2.0, abs=1e-8)
    assert result.policy[0] == 1
    tie = value_iteration(single_state_mdp([1.0, 1.0]), beta=0.5)
    assert tie.policy[0] == 0  # lowest action index on ties


def test_two_state_chain_matches_linear_solve():
    # exact solution of the 2x2 system: V(s1) = 10, V(s0) = 9
    result = value_iteration(chain_mdp(), beta=0.9, tol=1e-10)
    assert result.values[1] == pytest.approx(10.0, abs=1e-8)
    assert result.values[0] == pytest.approx(9.0, abs=1e-8)


def test_invalid_discount_rejected():
    with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\), got 1\.0"):
        value_iteration(chain_mdp(), beta=1.0)
    with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\), got 0\.0"):
        value_iteration(chain_mdp(), beta=0.0)


def test_max_iters_exhaustion_returns_partial():
    result = value_iteration(chain_mdp(), beta=0.9, tol=1e-12, max_iters=3)
    assert not result.converged
    assert result.iterations == 3


def test_contraction_bound_on_random_mdps(rng):
    for _ in range(10):
        mdp = random_mdp(rng, 4, 3)
        beta = float(rng.uniform(0.3, 0.95))
        result = value_iteration(mdp, beta)
        gaps, values = contraction_gaps(mdp, beta)
        assert (len(gaps), values.tobytes()) == (result.iterations, result.values.tobytes())
        for previous, current in zip(gaps, gaps[1:]):
            assert current <= beta * previous + 1e-12


def test_value_q_consistency(rng):
    mdp = random_mdp(rng, 5, 3)
    result = value_iteration(mdp, beta=0.9)
    for s in range(len(mdp.states)):
        assert result.values[s] == pytest.approx(
            max(result.q[s, a] for a in range(len(mdp.actions))), abs=1e-9
        )


# --- evaluate_policy ----------------------------------------------------------


def test_constant_reward_any_policy():
    mdp = single_state_mdp([1.0, 1.0])
    for action in range(len(mdp.actions)):
        result = evaluate_policy(mdp, np.array([action]), beta=0.5)
        assert result.values[0] == pytest.approx(2.0)


def test_policy_evaluation_matches_value_iteration():
    mdp = chain_mdp()
    vi = value_iteration(mdp, beta=0.9, tol=1e-10)
    pe = evaluate_policy(mdp, vi.policy, beta=0.9)
    for s in range(len(mdp.states)):
        assert pe.values[s] == pytest.approx(vi.values[s], abs=1e-6)


def test_policy_choosing_zero_reward_action():
    mdp = single_state_mdp([0.0, 1.0])
    result = evaluate_policy(mdp, np.array([0]), beta=0.5)
    assert result.values[0] == pytest.approx(0.0)


def test_greedy_beats_all_deterministic_policies(rng):
    # optimality oracle on a small instance
    mdp = random_mdp(rng, 4, 2)
    beta = 0.9
    greedy_value = evaluate_policy(mdp, value_iteration(mdp, beta).policy, beta)
    for assignment in itertools.product(range(len(mdp.actions)), repeat=len(mdp.states)):
        other = evaluate_policy(mdp, np.array(assignment), beta)
        for s in range(len(mdp.states)):
            assert greedy_value.values[s] >= other.values[s] - 1e-6


# --- policy_iteration -----------------------------------------------------------


def test_policy_iteration_beats_all_deterministic_policies(rng):
    for n_actions, beta in [(2, 0.5), (3, 0.9), (2, 0.99), (3, 0.999)]:
        mdp = random_mdp(rng, 4, n_actions)
        result = policy_iteration(mdp, beta)
        assert result.converged
        best = evaluate_policy(mdp, result.policy, beta)
        for assignment in itertools.product(range(len(mdp.actions)), repeat=len(mdp.states)):
            other = evaluate_policy(mdp, np.array(assignment), beta)
            for s in range(len(mdp.states)):
                assert best.values[s] >= other.values[s] - 1e-9 * (1.0 + abs(other.values[s]))


def test_policy_iteration_is_a_bellman_fixed_point_and_agrees_with_value_iteration(rng):
    for n_actions, beta in [(2, 0.9), (3, 0.99), (3, 0.999)]:
        mdp = random_mdp(rng, 6, n_actions)
        exact = policy_iteration(mdp, beta)
        v = exact.values
        q = mdp.reward + beta * (mdp.transition @ v)
        assert float(np.max(np.abs(q.max(axis=1) - v))) <= 1e-9
        oracle = value_iteration(mdp, beta, tol=1e-12)
        assert oracle.converged
        for s in range(len(mdp.states)):
            ranked = sorted(exact.q[s].tolist())
            if ranked[-1] - ranked[-2] > 1e-6:
                assert exact.policy[s] == oracle.policy[s]


def test_policy_iteration_tie_goes_to_lowest_index():
    assert policy_iteration(single_state_mdp([1.0, 1.0]), beta=0.5).policy[0] == 0
    # the myopic start picks a1 in s0, whose exact Q then ties with a0's:
    # a0 pays 0 and leads to s1 (1 forever), a1 pays 0.5 and leads to s2 (0.5 forever)
    transition = np.zeros((3, 2, 3))
    transition[0, 0, 1] = transition[0, 1, 2] = 1.0
    transition[1, :, 1] = transition[2, :, 2] = 1.0
    reward = np.array([[0.0, 0.5], [1.0, 1.0], [0.5, 0.5]])
    result = policy_iteration(Mdp(("s0", "s1", "s2"), ("a0", "a1"), transition, reward), beta=0.5)
    assert result.q[0, 0] == result.q[0, 1] == 1.0
    assert result.policy[0] == 0


def test_policy_iteration_stops_on_ties_that_differ_by_rounding(monkeypatch):
    # deterministic moves; in s5 actions a1 and a2 tie exactly, but the two
    # evaluations each show the other one ahead by one ulp, so switching on
    # every computed gain would flip between them until the round cap
    moves = [[4, 3, 1], [1, 5, 5], [2, 4, 1], [3, 1, 3], [0, 3, 2], [2, 1, 3]]
    transition = np.zeros((6, 3, 6))
    for s, row in enumerate(moves):
        transition[s, [0, 1, 2], row] = 1.0
    third = 1.0 / 3.0
    reward = np.array(
        [
            [0.0, 0.0, 0.1],
            [0.7, 0.7, third],
            [0.0, third, 0.0],
            [third, 0.0, 0.7],
            [0.7, 0.3, 0.3],
            [0.1, 0.0, 0.0],
        ]
    )
    mdp = Mdp(tuple(f"s{i}" for i in range(6)), ("a0", "a1", "a2"), transition, reward)
    monkeypatch.setattr("fidaudit.mdp.MAX_ITERS_CAP", 50)
    result = policy_iteration(mdp, beta=0.95)
    assert result.converged
    assert result.iterations <= 4
    assert result.q[5, 1] == pytest.approx(result.q[5, 2], abs=1e-12)
    assert result.policy[5] in (1, 2)


def test_policy_iteration_round_cap_returns_unconverged(monkeypatch):
    # s0: "stay" pays 1 now, "go" pays 0 but leads to s1, which pays 10 forever;
    # the first sweep block already sees s1's value and goes, so one round certifies it
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = transition[0, 1, 1] = 1.0
    transition[1, :, 1] = 1.0
    mdp = Mdp(("s0", "s1"), ("stay", "go"), transition, np.array([[1.0, 0.0], [10.0, 10.0]]))
    solved = policy_iteration(mdp, beta=0.9)
    assert solved.converged and solved.iterations == 1 and solved.policy[0] == mdp.actions.index("go")

    chain = delayed_reward_chain(50)
    solved = policy_iteration(chain, beta=0.9)
    assert solved.converged and solved.iterations == 5
    # round cap: one sweep, then one exact round where more are needed
    monkeypatch.setattr("fidaudit.mdp.MAX_ITERS_CAP", 1)
    capped = policy_iteration(chain, beta=0.9)
    assert not capped.converged and capped.iterations == 1
    first = value_iteration(chain, beta=0.9, max_iters=1).policy
    assert np.array_equal(capped.values, evaluate_policy(chain, first, 0.9).values)
    assert not np.array_equal(capped.policy, solved.policy)
    # sweep cap: a first block of 3 sweeps and its 2 exact rounds, then no sweeps left
    monkeypatch.setattr("fidaudit.mdp.MAX_ITERS_CAP", 3)
    capped = policy_iteration(chain, beta=0.9)
    assert not capped.converged and capped.iterations == 2
    assert not np.array_equal(capped.policy, solved.policy)


def test_solve_exact_solves_each_instance_and_beta_once(monkeypatch):
    chain = delayed_reward_chain(12)
    calls = []
    solver = mdp_module.policy_iteration

    def counted(mdp, beta):
        calls.append((mdp, beta))
        if beta == 0.7:  # a solve stopped at its cap
            solved = solver(mdp, beta)
            return ValueFunction(solved.values, solved.q, solved.iterations, False)
        return solver(mdp, beta)

    monkeypatch.setattr(mdp_module, "policy_iteration", counted)
    first = solve_exact(chain, 0.9)
    assert solve_exact(chain, 0.9) is first and len(calls) == 1
    fresh = solver(chain, 0.9)
    assert first.values.tobytes() == fresh.values.tobytes() and first.q.tobytes() == fresh.q.tobytes()
    assert solve_exact(chain, 0.5) is not first and len(calls) == 2
    twin = Mdp(chain.states, chain.actions, chain.transition, chain.reward)  # same tables, own solves
    assert solve_exact(twin, 0.9) is not first and len(calls) == 3
    for _ in range(2):  # the capped solve raises on every call and runs once
        with pytest.raises(ValueError, match="MDP solve at beta 0.7 hit the cap"):
            solve_exact(chain, 0.7)
    assert len(calls) == 4
    assert not first.values.flags.writeable and not first.q.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.q[0, 0] = 0.0


def test_mdp_keeps_read_only_copies_of_its_tables():
    transition = np.full((2, 2, 2), 0.5)
    reward = np.array([[1.0, 0.0], [0.0, 2.0]])
    mdp = Mdp(("s0", "s1"), ("a0", "a1"), transition, reward)
    solved = solve_exact(mdp, 0.9)
    values = solved.values.tolist()
    transition[:, :, 0], transition[:, :, 1] = 1.0, 0.0
    reward[:] = 5.0
    assert mdp.transition.tolist() == np.full((2, 2, 2), 0.5).tolist()
    assert mdp.reward.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert solve_exact(mdp, 0.9) is solved and solved.values.tolist() == values
    assert policy_iteration(mdp, 0.9).values.tolist() == values
    with pytest.raises(ValueError, match="read-only"):
        mdp.transition[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mdp.reward[0, 0] = 1.0
    twin = mdp.with_reward(reward)
    assert twin.transition is mdp.transition and not twin.reward.flags.writeable
    assert twin.reward is not reward and twin.reward.tolist() == reward.tolist()


def test_fold_actions_equals_numpy_reductions_bit_for_bit(rng):
    for n_actions in range(1, 8):
        tables = (
            rng.normal(scale=3.0, size=(40, n_actions)),
            np.exp(rng.normal(scale=5.0, size=(40, n_actions))),  # softmax terms over many magnitudes
            rng.integers(-2, 3, size=(40, n_actions)).astype(float),  # ties in most rows
            rng.normal(size=(3, 40, n_actions)),  # (T, S, A), as the demo visit counts
        )
        for table in tables:
            for ufunc, reduce in ((np.maximum, np.max), (np.add, np.sum)):
                folded = _fold_actions(ufunc, table)
                assert folded.tobytes() == reduce(table, axis=-1).tobytes()
                assert not np.shares_memory(folded, table)


def test_expected_next_is_one_flat_product(rng):
    for n_states, n_actions in [(1, 1), (5, 2), (20, 2), (100, 2), (9, 7)]:
        mdp = random_mdp(rng, n_states, n_actions)
        v = rng.normal(scale=10.0, size=n_states)
        flat = (mdp.transition.reshape(n_states * n_actions, n_states) @ v).reshape(n_states, n_actions)
        got = _expected_next(mdp, v)
        assert got.shape == (n_states, n_actions) and got.tobytes() == flat.tobytes()
        # each product of S probabilities with v is within S * eps / 2 * max |v| of the exact sum
        stacked = stacked_expected_next(mdp, v)
        assert float(np.max(np.abs(got - stacked))) <= n_states * np.finfo(float).eps * float(np.max(np.abs(v)))


def howard(mdp, beta):
    """Reference: Howard iteration from the myopic policy with the solver's
    switching rule (a strict Q gain) and stop (a revisited policy)."""
    rows = np.arange(len(mdp.states))
    action_idx = np.argmax(mdp.reward, axis=1)
    visited = set()
    for rounds in itertools.count(1):
        v, q = _evaluate(mdp, action_idx, beta)
        best = np.argmax(q, axis=1)
        visited.add(action_idx.tobytes())
        action_idx = np.where(q[rows, best] > q[rows, action_idx], best, action_idx)
        if action_idx.tobytes() in visited:
            return v, q, rounds


def sparse_mdp(rng, n_states, n_actions):
    """Each (s, a) row reaches at most three random states."""
    transition = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            support = rng.choice(n_states, size=min(3, n_states), replace=False)
            transition[s, a, support] = rng.dirichlet(np.ones(len(support)))
    reward = rng.uniform(-1.0, 1.0, size=(n_states, n_actions))
    return Mdp(tuple(f"s{i}" for i in range(n_states)), tuple(f"a{j}" for j in range(n_actions)), transition, reward)


def test_solver_matches_howard_bit_for_bit(rng):
    worlds = []
    for n_states in (2, 3, 5, 8, 13, 21, 34, 60):
        for beta in (0.5, 0.9, 0.99, 0.999):
            n_actions = int(rng.integers(2, 5))
            worlds += [(random_mdp(rng, n_states, n_actions), beta), (sparse_mdp(rng, n_states, n_actions), beta)]
    worlds += [(delayed_reward_chain(n), beta) for n in (50, 100, 200) for beta in (0.9, 0.99)]
    for mdp, beta in worlds:
        v, q, _ = howard(mdp, beta)
        solved = policy_iteration(mdp, beta)
        assert solved.converged
        assert solved.values.tobytes() == v.tobytes() and solved.q.tobytes() == q.tobytes()


def test_tied_worlds_end_at_an_optimal_policy(rng):
    # deterministic moves and rewards from a small set, so exact ties are common
    rewards = np.array([0.0, 0.1, 0.3, 1.0 / 3.0, 0.7])
    for _ in range(150):
        n_states, n_actions = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        beta = float(rng.choice([0.5, 0.9, 0.95, 0.99]))
        transition = np.zeros((n_states, n_actions, n_states))
        moves = rng.integers(0, n_states, size=(n_states, n_actions))
        transition[np.arange(n_states)[:, None], np.arange(n_actions), moves] = 1.0
        mdp = Mdp(
            tuple(f"s{i}" for i in range(n_states)),
            tuple(f"a{j}" for j in range(n_actions)),
            transition,
            rewards[rng.integers(0, len(rewards), size=(n_states, n_actions))],
        )
        solved = policy_iteration(mdp, beta)
        assert solved.converged
        optimum = np.full(n_states, -np.inf)
        for assignment in itertools.product(range(n_actions), repeat=n_states):
            optimum = np.maximum(optimum, evaluate_policy(mdp, np.array(assignment), beta).values)
        reported = evaluate_policy(mdp, solved.policy, beta).values
        assert np.max(np.abs(reported - optimum)) <= 1e-12


def test_chain_needs_few_exact_evaluations():
    mdp = delayed_reward_chain(200)
    solved = policy_iteration(mdp, beta=0.99)
    assert solved.converged and solved.iterations == 9
    assert np.all(solved.policy == mdp.actions.index("wait"))
    # Howard from the myopic start switches about one state per round
    assert howard(mdp, 0.99)[2] == 200


def test_policy_iteration_rejects_invalid_discount():
    for beta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\)"):
            policy_iteration(chain_mdp(), beta=beta)


# --- discount weights -----------------------------------------------------------


def test_discount_weights_basics():
    assert discount_weight(DiscountSpec("exponential", beta=0.5), 0) == pytest.approx(1.0)
    assert discount_weight(DiscountSpec("hyperbolic", k=1.0), 1) == pytest.approx(0.5)
    assert discount_weight(DiscountSpec("exponential", beta=0.9), 2) == pytest.approx(0.81)


def test_discount_weights_monotone():
    for spec in (DiscountSpec("exponential", beta=0.7), DiscountSpec("hyperbolic", k=0.3)):
        weights = [discount_weight(spec, t) for t in range(12)]
        assert weights[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(weights, weights[1:]))


def test_discount_spec_validation():
    with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\), got 1\.0"):
        DiscountSpec("exponential", beta=1.0)
    with pytest.raises(ValueError, match=r"hyperbolic discount needs k > 0, got 0\.0"):
        DiscountSpec("hyperbolic", k=0.0)
    with pytest.raises(ValueError, match="unknown discount kind 'weird'"):
        DiscountSpec("weird")


# --- preference reversal -----------------------------------------------------------


def test_exponential_never_reverses():
    spec = DiscountSpec("exponential", beta=0.9)
    report = detect_preference_reversal(spec, RewardOption(8.0, 1), RewardOption(10.0, 2), horizon=10)
    assert not report.reversed


def test_hyperbolic_reversal_instance():
    # epoch-0 prefers late (10/11 > 8/10); near the dates the early option wins
    spec = DiscountSpec("hyperbolic", k=1.0)
    early, late = RewardOption(8.0, 9), RewardOption(10.0, 10)
    report = detect_preference_reversal(spec, early, late, horizon=10)
    assert report.initial_preference == "late"
    assert report.reversed
    # brute-force oracle over epochs; ties prefer the earlier option, and the
    # values tie exactly at epoch 6 (8/4 == 10/5)
    flips = [
        e
        for e in range(0, early.delay + 1)
        if (8.0 / (1 + (9 - e))) >= (10.0 / (1 + (10 - e)))
    ]
    assert report.reversal_epoch == flips[0] == 6


def test_identical_options_never_reverse():
    spec = DiscountSpec("hyperbolic", k=2.0)
    report = detect_preference_reversal(spec, RewardOption(5.0, 3), RewardOption(5.0, 4), horizon=8)
    # not literally identical (delays must differ); same reward, tie prefers early
    assert report.initial_preference in ("early", "late")
    spec_exp = DiscountSpec("exponential", beta=0.5)
    assert not detect_preference_reversal(
        spec_exp, RewardOption(5.0, 3), RewardOption(5.0, 4), horizon=8
    ).reversed


def test_invalid_delays():
    spec = DiscountSpec("exponential", beta=0.9)
    with pytest.raises(ValueError, match=r"need late\.delay > early\.delay >= 0, got 3 and 3"):
        detect_preference_reversal(spec, RewardOption(1.0, 3), RewardOption(1.0, 3), horizon=5)
    with pytest.raises(ValueError, match=r"need late\.delay > early\.delay >= 0, got -1 and 3"):
        detect_preference_reversal(spec, RewardOption(1.0, -1), RewardOption(1.0, 3), horizon=5)


def test_exponential_sweep_no_reversals():
    # property sweep over a beta grid and delay pairs
    rewards = [1.0, 2.0, 4.0, 8.0, 16.0]
    for beta10 in range(1, 10):
        spec = DiscountSpec("exponential", beta=beta10 / 10.0)
        for d_early in range(0, 4):
            for d_late in range(d_early + 1, 6):
                for r_early in rewards:
                    for r_late in rewards:
                        report = detect_preference_reversal(
                            spec,
                            RewardOption(r_early, d_early),
                            RewardOption(r_late, d_late),
                            horizon=10,
                        )
                        assert not report.reversed


# --- Mdp validation ------------------------------------------------------------


def test_mdp_rejects_bad_rows():
    transition = np.ones((1, 1, 1)) * 0.5
    with pytest.raises(ValueError):
        Mdp(("s",), ("a",), transition, np.zeros((1, 1)))


def test_mdp_rejects_nan_transition_row():
    transition = np.full((1, 1, 1), np.nan)
    with pytest.raises(ValueError, match="sums to nan"):
        Mdp(("s",), ("a",), transition, np.zeros((1, 1)))


def test_mdp_names_the_first_transition_row_off_one():
    transition = np.full((2, 2, 2), 0.5)
    transition[0, 1, 0] += 0.5e-9  # within PROB_TOL
    Mdp(("s0", "s1"), ("a0", "a1"), transition, np.zeros((2, 2)))
    transition[1, 0, 0] += 3e-9
    with pytest.raises(ValueError, match=r"row for \(s=s1, a=a0\) sums to 1\.000000003"):
        Mdp(("s0", "s1"), ("a0", "a1"), transition, np.zeros((2, 2)))
    transition[1, 1] = np.nan
    transition[0, 1, 1] = -0.0  # now (s0, a1), (s1, a0) and (s1, a1) are off: the first is named
    with pytest.raises(ValueError, match=r"row for \(s=s0, a=a1\) sums to 0\.5"):
        Mdp(("s0", "s1"), ("a0", "a1"), transition, np.zeros((2, 2)))


def test_mdp_rejects_nonfinite_reward():
    transition = np.ones((1, 1, 1))
    with pytest.raises(ValueError):
        Mdp(("s",), ("a",), transition, np.array([[np.inf]]))
