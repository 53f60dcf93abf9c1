"""Assessment of principal interests from behavior, judgments and standards.

Four routes to a proxy objective, each a pure batch computation over fixed
inputs (nothing here trains on-line):

* ``feasible_rewards_irl`` characterizes every reward consistent with an
  observed policy (the optimality inequalities), making the degeneracy of
  behavior-based inference explicit: the zero reward is always a member.
* ``maxent_irl`` fits a linear reward by gradient ascent on the demo
  log-likelihood under a soft-optimal policy. The gradient is exact (demo
  feature counts less the expected counts of a forward occupancy pass, in
  O(T S^2 A)), so it can be validated against finite differences.
* ``fit_preference_reward`` fits a linear reward to pairwise trajectory
  judgments under a logistic choice model (Bradley & Terry 1952). Its
  fixed steps are one loop on Python floats over the comparisons' nonzero
  feature differences, O(iters x nonzero differences), each sum in a
  fixed order; numpy products would agree to the last bits only.
* ``prudent_investor_weights`` is the legal-standard template: the
  unconstrained mean-variance optimum and its objective.

``infer_discount`` and ``patient_recommendation`` treat the discount rate
itself as the quantity of interest: a posterior over a candidate grid, and
re-solved advice at a higher patience than the fitted one.

Behavior data comes as indices and dense arrays in MDP order: a policy is
an (S,) array of action indices. Both fits read one form: features are a
(rows, d) table, over an MDP the (S·A, d) table whose row s·A + a holds
the features of step (s, a) (``one_hot_states`` gives the default), and a
trajectory, a demo or a side of a preference judgment, is a sequence of
the rows of its steps. Results come back as arrays and indices too; only
the report names states and actions.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .mdp import Mdp, _check_beta, _check_policy, _expected_next, _fold_actions, solve_exact

RIDGE_EPSILON = 1e-8
FEASIBLE_TOL = 1e-9  # slack FeasibleRewardSet.contains allows on each bound
DEFAULT_TEMPERATURE = 0.01  # infer_discount's softmax choice temperature


def one_hot_states(mdp: Mdp) -> np.ndarray:
    """One-hot state features: contiguous (S·A, S) rows, row s·A + a = e_s."""
    return np.repeat(np.eye(len(mdp.states)), len(mdp.actions), axis=0)


# --- feasible reward set (degeneracy made explicit) -----------------------


class FeasibleRewardSet:
    """Linear description of all rewards for which the policy is optimal.

    ``constraint_matrix`` has one row per (state, non-chosen action); a
    flattened reward table r (row-major over states then actions) is in
    the optimality cone iff constraint_matrix @ r >= 0. Magnitudes are
    capped entrywise by ``bound``. The zero reward always satisfies the
    cone, which is the degeneracy witness: observed behavior alone cannot
    pin the reward down. ``chosen`` holds the policy's action index in
    each state.
    """

    __slots__ = ("mdp", "chosen", "beta", "bound", "constraint_matrix")

    # R = 0 meets every constraint with equality: the degenerate solution (Ng & Russell 2000)
    zero_reward_feasible = True

    def __init__(
        self, mdp: Mdp, chosen: np.ndarray, beta: float, bound: float, constraint_matrix: np.ndarray
    ) -> None:
        self.mdp, self.chosen, self.beta, self.bound = mdp, chosen, beta, bound
        self.constraint_matrix = constraint_matrix

    def contains(self, reward: np.ndarray) -> bool:
        r = np.asarray(reward, dtype=float).reshape(-1)
        if np.any(np.abs(r) > self.bound + FEASIBLE_TOL):
            return False
        return bool(np.all(self.constraint_matrix @ r >= -FEASIBLE_TOL))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A feasible reward with the policy strictly greedy.

        Construction: draw target values V and strictly positive
        disadvantages for non-chosen actions, then read the reward off the
        optimality equations; rescale into the bound (the cone is
        homogeneous, so scaling preserves feasibility).
        """
        n_s, n_a = len(self.mdp.states), len(self.mdp.actions)
        v = rng.uniform(-1.0, 1.0, size=n_s)
        others = np.ones((n_s, n_a), dtype=bool)
        others[np.arange(n_s), self.chosen] = False
        gaps = np.zeros((n_s, n_a))
        gaps[others] = rng.uniform(0.1, 1.0, size=int(others.sum()))  # drawn in row-major order
        reward = (v[:, None] - gaps) - self.beta * _expected_next(self.mdp, v)
        peak = float(np.max(np.abs(reward)))
        if peak > self.bound:
            reward *= self.bound / peak
        return reward


def feasible_rewards_irl(
    mdp: Mdp, policy: np.ndarray, beta: float, bound: float
) -> FeasibleRewardSet:
    """Optimality inequalities Q_pi(s, pi(s)) >= Q_pi(s, a) as linear rows.

    ``policy`` is the action index chosen in each state. The reward table
    of ``mdp`` is ignored; only the dynamics matter. Each constraint row
    is the reward-space functional of the Q gap, using V_pi = (I - beta
    P_pi)^{-1} r_pi: one solve with S right-hand sides gives the inverse,
    and one (S(A-1), S) x (S, S) product of the rows' transition gaps with
    it fills every row's chosen-action columns, to which the +1 and -1 of
    the row's own state are added.
    """
    _check_beta(beta)
    if not bound > 0:
        raise ValueError("bound must be positive")
    n_s, n_a = len(mdp.states), len(mdp.actions)
    chosen = _check_policy(mdp, policy)
    states = np.arange(n_s)
    try:  # V_pi = value_of_reward @ r_pi
        value_of_reward = np.linalg.solve(np.eye(n_s) - beta * mdp.transition[states, chosen], np.eye(n_s))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"could not assemble constraints: {exc}") from exc

    # one row per (state i, action j != chosen[i]), in row-major order
    others = np.ones((n_s, n_a), dtype=bool)
    others[states, chosen] = False
    row_state, row_action = np.nonzero(others)
    rows = np.arange(row_state.size)
    gaps = mdp.transition[row_state, chosen[row_state]] - mdp.transition[row_state, row_action]
    matrix = np.zeros((rows.size, n_s * n_a))
    matrix[:, states * n_a + chosen] = (beta * gaps) @ value_of_reward
    matrix[rows, row_state * n_a + chosen[row_state]] += 1.0
    matrix[rows, row_state * n_a + row_action] -= 1.0
    return FeasibleRewardSet(mdp=mdp, chosen=chosen, beta=beta, bound=bound, constraint_matrix=matrix)


# --- maximum-entropy IRL -----------------------------------------------------


def _feature_table(features: np.ndarray, rows: int | None = None) -> np.ndarray:
    """``features`` as a contiguous (rows, d) float table; another shape (or
    another row count than ``rows``), d = 0 or a non-finite entry is a
    ValueError."""
    table = np.asarray(features, dtype=float)
    if table.ndim != 2 or rows not in (None, table.shape[0]):
        raise ValueError(f"features have shape {table.shape}, expected ({'rows' if rows is None else rows}, d)")
    if table.shape[1] == 0:
        raise ValueError("features have zero width: d >= 1 required")
    if not np.all(np.isfinite(table)):
        raise ValueError("features have non-finite entries")
    return np.ascontiguousarray(table)


def _trajectory(steps: Sequence[int], rows: int) -> Sequence[int]:
    """``steps`` as given; an empty trajectory or a step that is not one of
    ``rows`` table rows, an integer in 0..rows-1 (not a bool or a float), is
    a ValueError, which names the step."""
    if not steps:
        raise ValueError("trajectory must be non-empty")
    for r in steps:
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)) or not 0 <= r < rows:
            raise ValueError(f"trajectory step {r!r} not in the feature table")
    return steps


def _visits(mdp: Mdp, demos: Sequence[Sequence[int]]):
    """The demos' steps as (time, row) index arrays in demo order, and their
    visit counts n_t(s, a) as a (T, S, A) array; each demo is checked by
    ``_trajectory``."""
    n_s, n_a = len(mdp.states), len(mdp.actions)
    steps = [(t, r) for d in demos for t, r in enumerate(_trajectory(d, n_s * n_a))]
    steps = np.array(steps, dtype=int).reshape(-1, 2).T
    counts = np.zeros((int(steps[0].max()) + 1, n_s * n_a))
    np.add.at(counts, tuple(steps), 1.0)
    return steps, counts.reshape(-1, n_s, n_a)


def demo_log_likelihood(
    mdp: Mdp,
    features: np.ndarray,
    demos: Sequence[Sequence[int]],
    theta: np.ndarray,
    beta: float,
) -> tuple[float, np.ndarray]:
    """Log-likelihood of the demos under the soft policy, with exact gradient.
    ``features`` is an (S·A, d) table in MDP order; each demo is a
    sequence of the rows of its steps. The inputs are checked as in
    ``maxent_irl``, and ``theta`` must have shape (d,)."""
    work = _Workspace(mdp, features, demos, beta)
    grad = work.evaluate(theta)
    return work.demo_log_prob(), grad


class _Workspace:
    """The buffers of the max-entropy likelihood passes of one fit.

    Built once from the MDP, the features, the demos and ``beta``, whose
    checks it runs: non-empty demos, ``_check_beta``, ``_visits`` and
    ``_feature_table``. It holds the flat (S·A, S) transition view and the
    (S·A, d) features, the demos' visit counts n_t(s, a) and state counts n_t(s)
    as per-step views, the (T, S, A) ``policies`` buffer and its per-step
    views, and one step's (S, A) and (S,) buffers, with the Q buffer's
    action columns; the (S,) buffers that broadcast over the actions are
    kept as (S, 1) columns: O(T·S·A) floats. ``evaluate`` then makes only the ufunc
    and matmul calls of a pass, each writing through ``out=``.
    """

    __slots__ = (
        "steps", "beta", "transition", "features", "counts", "state_counts", "policies", "step_policies",
        "reward", "q", "flat_q", "columns", "w", "flat_w", "weight", "value", "occupancy", "peak", "norm", "gap",
    )

    def __init__(self, mdp: Mdp, features: np.ndarray, demos: Sequence[Sequence[int]], beta: float) -> None:
        if not demos:
            raise ValueError("demos must be non-empty")
        _check_beta(beta)
        steps, counts = _visits(mdp, demos)
        n_s, n_a = counts.shape[1:]
        self.features = _feature_table(features, n_s * n_a)
        self.steps, self.beta = tuple(steps), beta
        self.transition = mdp.transition.reshape(n_s * n_a, n_s)
        self.counts, self.state_counts = tuple(counts), tuple(_fold_actions(np.add, counts))
        self.policies = np.empty(counts.shape)
        self.step_policies = tuple(self.policies)
        self.reward, self.q, self.w, self.weight = (np.empty((n_s, n_a)) for _ in range(4))
        self.flat_q, self.flat_w = self.q.reshape(-1), self.w.reshape(-1)
        # _fold_actions' calls on the Q columns: the first two, then each
        # further one in order. At A = 1 the second is the fold's identity
        # (-inf for maximum, -0.0 for add), which gives the first back bit
        # for bit, as _fold_actions' copy does.
        columns = [self.q[:, j] for j in range(n_a)]
        if n_a > 1:
            self.columns = (columns[0], columns[1], columns[1], tuple(columns[2:]))
        else:
            self.columns = (columns[0], np.full(n_s, -np.inf), np.full(n_s, -0.0), ())
        self.value, self.occupancy = np.empty(n_s), np.empty(n_s)
        # broadcast over the actions as they are; a pass takes their (S,) views
        self.peak, self.norm, self.gap = (np.empty((n_s, 1)) for _ in range(3))

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """One likelihood pass at ``theta``: the soft policies pi_t go to
        ``policies``, from which ``demo_log_prob`` sums the demo
        log-likelihood, and their exact gradient is returned, a fresh array.
        A backward soft pass gives the policies. A forward pass weighs each
        (t, s, a) by W_t = n_t - (n_t(s) - m_t(s)) pi_t, the demo visits
        less the soft policy's expected ones; m_t is the discounted
        occupancy the demo actions before t lead to, less that of the
        policy's actions (m_0 = 0, m_{t+1} = beta W_t P). The gradient is
        sum_t W_t phi. Each step of either pass is one flat (S A) x S
        product, each feature product one flat (S A) x d product, and each
        action-axis reduction the column fold of ``_fold_actions``. The
        next call overwrites ``policies``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.features.shape[1:]:
            raise ValueError(f"theta has shape {theta.shape}, expected (d,) = ({self.features.shape[1]},)")
        beta, transition, reward, policies = self.beta, self.transition, self.reward, self.step_policies
        q, flat_q, value, peak, norm = self.q, self.flat_q, self.value, self.peak, self.norm
        first, max_second, add_second, rest = self.columns
        peak_flat, norm_flat = peak[:, 0], norm[:, 0]
        np.matmul(self.features, theta, out=reward.reshape(-1))
        value.fill(0.0)
        for policy in reversed(policies):
            np.matmul(transition, value, out=flat_q)
            np.multiply(q, beta, out=q)
            np.add(q, reward, out=q)
            np.maximum(first, max_second, out=peak_flat)
            for column in rest:
                np.maximum(peak_flat, column, out=peak_flat)
            np.subtract(q, peak, out=q)
            np.exp(q, out=q)
            np.add(first, add_second, out=norm_flat)
            for column in rest:
                np.add(norm_flat, column, out=norm_flat)
            np.divide(q, norm, out=policy)
            np.log(norm_flat, out=value)
            np.add(peak_flat, value, out=value)
        w, flat_w, weight, occupancy, gap = self.w, self.flat_w, self.weight, self.occupancy, self.gap
        gap_flat = gap[:, 0]
        weight.fill(0.0)
        occupancy.fill(0.0)
        for t, (policy, counts, state_counts) in enumerate(zip(policies, self.counts, self.state_counts)):
            if t:  # m_t from W_{t-1}; the last W leads nowhere
                np.matmul(flat_w, transition, out=occupancy)
                np.multiply(occupancy, beta, out=occupancy)
            np.subtract(state_counts, occupancy, out=gap_flat)
            np.multiply(gap, policy, out=w)
            np.subtract(counts, w, out=w)
            np.add(weight, w, out=weight)
        return weight.reshape(-1) @ self.features

    def demo_log_prob(self) -> float:
        """The sum of log pi_t(a | s) over the demos' steps, in demo order,
        under the policies of the last ``evaluate``."""
        total = 0.0
        for p in self.policies.reshape(len(self.policies), -1)[self.steps].tolist():
            total += math.log(p)
        return total


def maxent_irl(
    mdp: Mdp,
    features: np.ndarray,
    demos: Sequence[Sequence[int]],
    beta: float,
    learn_rate: float,
    iters: int,
) -> SimpleNamespace:
    """Fit linear reward weights to demonstrations: the estimate's
    ``weights``, the dense r(s, a) ``table`` they give, the final
    ``grad_norm`` and the demos' ``log_likelihood``.

    ``features`` and ``demos`` are as in ``demo_log_likelihood``. Plain
    gradient ascent from theta = 0 with a fixed step, deterministic by
    construction. The reward table of ``mdp`` is ignored. The gradient
    is the demo feature counts less the expected counts of a forward
    occupancy pass under the current soft policy (``_Workspace.evaluate``).
    The fit builds one ``_Workspace``, so the demos' visits are indexed
    once and every pass runs in the same buffers; the table is a copy of
    the last pass's reward, and the weights, the table and each gradient
    are fresh arrays. The demos' log-likelihood is summed once, under the
    returned theta's policies. Raises ValueError when the gradient norm
    grows tenfold over its initial value (a sign the step size is too
    large for the instance).
    """
    work = _Workspace(mdp, features, demos, beta)
    theta = np.zeros(work.features.shape[1])
    grad = work.evaluate(theta)
    initial_norm = math.sqrt(grad @ grad)  # np.linalg.norm's sum for a 1-D array
    grad_norm = initial_norm
    for _ in range(iters):
        if grad_norm == 0.0:
            break
        theta = theta + learn_rate * grad
        grad = work.evaluate(theta)
        grad_norm = math.sqrt(grad @ grad)
        if initial_norm > 0 and grad_norm > 10.0 * initial_norm:
            raise ValueError(f"gradient norm {grad_norm:.3g} exceeds 10x initial {initial_norm:.3g}")
    return SimpleNamespace(
        weights=theta, table=work.reward.copy(), grad_norm=grad_norm, log_likelihood=work.demo_log_prob()
    )


# --- preference judgments -----------------------------------------------------


def fit_preference_reward(
    features: np.ndarray,
    comparisons: Sequence[tuple[tuple[int, ...], tuple[int, ...], str]],
    learn_rate: float,
    iters: int,
) -> SimpleNamespace:
    """Logistic pairwise-choice fit of linear reward weights: the
    estimate's ``weights`` and the final ``log_likelihood``.

    ``features`` is a (rows, d) table, and each comparison is a judgment
    ``(left, right, preferred)``: each side is a non-empty trajectory given
    as the rows of its steps (over an MDP, step (s, a) is row s * A + a),
    the two sides differ, and ``preferred`` is "left" or "right". P(left
    preferred) is the logistic of the return difference, where a
    trajectory's return is the sum of its rows dotted with theta. Data in
    which every pair is feature-identical carries no gradient and is
    surfaced as a ValueError rather than silently returning theta = 0.

    Each comparison's difference (the winner's rows summed from 0.0 in
    step order, less the loser's) is kept as its nonzero (feature, value)
    pairs, and the ``iters`` fixed steps from theta = 0 run on Python
    floats, in O(iters x nonzero differences): each margin is summed in
    ascending feature order, each feature's gradient in comparison order,
    and only features with a nonzero difference are stepped. So while
    theta is finite the weights equal a dense sequential loop's bit for
    bit, and those of BLAS products and numpy's ``exp`` to the last bits.
    The log-likelihood is one numpy pass over the final margins; feature
    sums or a theta that overflowed give non-finite weights and
    log-likelihood, and no warning.
    """
    table = _feature_table(features)
    if not comparisons:
        raise ValueError("need at least one comparison")

    def counts(rows: tuple[int, ...]) -> np.ndarray:
        total = np.zeros(table.shape[1])
        for r in rows:  # summed from 0.0 in step order
            total += table[r]
        return total

    diffs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for left, right, preferred in comparisons:
            if preferred not in ("left", "right"):
                raise ValueError("preferred must be 'left' or 'right'")
            _trajectory(left, len(table))
            _trajectory(right, len(table))
            if left == right:
                raise ValueError("comparison sides must differ")
            winner, loser = (left, right) if preferred == "left" else (right, left)
            diffs.append(counts(winner) - counts(loser))
    diff_matrix = np.array(diffs)
    if float(np.max(np.abs(diff_matrix))) < 1e-12:
        raise ValueError("every comparison is feature-identical; gradient is zero")

    pairs = [[(j, v) for j, v in enumerate(row) if v != 0.0] for row in diff_matrix.tolist()]
    stepped = {j for row in pairs for j, _ in row}
    theta = [0.0] * table.shape[1]
    for _ in range(iters):
        grad = dict.fromkeys(stepped, 0.0)
        for row in pairs:
            margin = 0.0
            for j, v in row:
                margin += v * theta[j]
            slack = _slack(margin)  # d/dmargin of log sigmoid(margin)
            for j, v in row:
                grad[j] += v * slack
        for j, g in grad.items():
            theta[j] += learn_rate * g
    weights = np.array(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        log_likelihood = float(np.sum(_log_sigmoid(diff_matrix @ weights)))
    return SimpleNamespace(weights=weights, log_likelihood=log_likelihood)


def _slack(margin: float) -> float:
    """sigmoid(-margin), from exp(-|margin|): at most 1, so it never overflows."""
    ex = math.exp(-abs(margin))
    return 1.0 / (1.0 + ex) if margin <= 0 else ex / (1.0 + ex)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


# --- discount inference ---------------------------------------------------------


def infer_discount(
    mdp: Mdp,
    behavior: np.ndarray,
    beta_grid: Sequence[float],
    prior: Sequence[float],
    temperature: float = DEFAULT_TEMPERATURE,
) -> dict[float, float]:
    """Posterior over candidate discount factors given observed behavior.

    ``behavior`` is the action index chosen in each state. Its likelihood
    at each grid point is the product over states of a softmax choice
    model over the optimal Q values at that discount (temperature
    ``temperature``), the exact Q of ``solve_exact``; a solve stopped at
    its cap is a ValueError. Log-domain normalization keeps
    the small-temperature regime stable. The returned mapping sums to 1
    and does not depend on the order the grid was supplied in.
    """
    grid = [float(b) for b in beta_grid]
    if not grid:
        raise ValueError("beta grid is empty")
    if len(set(grid)) != len(grid):
        raise ValueError("beta grid has duplicate entries")
    for b in grid:
        _check_beta(b)
    weights = [float(p) for p in prior]
    if len(weights) != len(grid):
        raise ValueError(f"prior length {len(weights)} != grid length {len(grid)}")
    if any(not w >= 0 for w in weights):
        raise ValueError("prior has negative or NaN mass")
    if not abs(sum(weights) - 1.0) <= 1e-9:
        raise ValueError(f"prior sums to {sum(weights)}")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    chosen = _check_policy(mdp, behavior)
    states = np.arange(len(mdp.states))

    log_posts = []
    for b, w in zip(grid, weights):
        scaled = solve_exact(mdp, b).q / temperature
        peak = _fold_actions(np.maximum, scaled)
        norm = _fold_actions(np.add, np.exp(scaled - peak[:, None]))
        loglik = 0.0  # summed state by state, so the bits equal scoring each state alone
        for x, p, z in zip(scaled[states, chosen].tolist(), peak.tolist(), norm.tolist()):
            loglik += x - (p + math.log(z))
        log_posts.append((b, (math.log(w) if w > 0 else -math.inf) + loglik))
    peak = max(lp for _, lp in log_posts)
    raw = {b: math.exp(lp - peak) for b, lp in log_posts}
    total = sum(raw.values())
    return {b: raw[b] / total for b in sorted(raw)}


def patient_recommendation(mdp: Mdp, beta_fit: float, beta_advice: float) -> SimpleNamespace:
    """Re-solve under a higher patience and report where advice changes.

    Solves the MDP's own reward (for a fitted one, pass
    ``mdp.with_reward(estimate.table)``) exactly by ``solve_exact`` at
    both discounts; a solve stopped at its cap is a ValueError. Divergent
    states are those where the advised action differs from the one at the
    fitted discount; both solves break ties to the lowest action index of
    the exact Q, so a zero reward yields none. The advice's attributes
    are ``policy`` and ``fitted_policy``, the action indices of the greedy
    policies at ``beta_advice`` and ``beta_fit``, and
    ``divergent_states``, the indices of the states where they differ.
    """
    _check_beta(beta_fit)
    _check_beta(beta_advice)
    if beta_advice < beta_fit:
        raise ValueError("beta_advice must be at least beta_fit")
    fitted = solve_exact(mdp, beta_fit).policy
    advised = solve_exact(mdp, beta_advice).policy
    return SimpleNamespace(policy=advised, fitted_policy=fitted, divergent_states=np.flatnonzero(fitted != advised))


# --- legal standard: mean-variance template ----------------------------------


def prudent_investor_weights(mu: np.ndarray, sigma: np.ndarray, risk_aversion: float) -> SimpleNamespace:
    """Closed-form maximizer of mu'w - lambda w'Sigma w: Sigma^-1 mu / (2 lambda).

    ``sigma`` must be a symmetric positive semi-definite (n, n) matrix for
    the n entries of ``mu``, and ``risk_aversion`` (lambda) positive.
    Near-singular covariances get a documented ridge (RIDGE_EPSILON on the
    diagonal) before the solve; no normalization or short-selling
    constraints are applied. The result's attributes are ``weights`` and
    ``objective``, the objective at them under the given ``sigma``;
    infinite weights give a NaN objective, and no warning.
    """
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    n = mu.shape[0]
    if sigma.shape != (n, n):
        raise ValueError(f"sigma shape {sigma.shape}, expected {(n, n)}")
    if not np.allclose(sigma, sigma.T, atol=1e-9, rtol=0.0):
        raise ValueError("sigma must be symmetric")
    smallest = float(np.linalg.eigvalsh(sigma).min())
    if smallest < -1e-9:
        raise ValueError("sigma must be positive semi-definite")
    if not risk_aversion > 0:
        raise ValueError("risk_aversion must be positive")
    ridged = sigma + RIDGE_EPSILON * np.eye(n) if smallest <= 1e-9 else sigma
    try:
        weights = np.linalg.solve(ridged, mu) / (2.0 * risk_aversion)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"covariance not invertible after ridge: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        objective = float(mu @ weights - risk_aversion * weights @ sigma @ weights)
    return SimpleNamespace(weights=weights, objective=objective)
