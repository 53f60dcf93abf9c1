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
  judgments under a logistic choice model.
* ``prudent_investor_weights`` is the legal-standard template: the
  unconstrained mean-variance optimum.

``infer_discount`` and ``patient_recommendation`` treat the discount rate
itself as the quantity of interest: a posterior over a candidate grid, and
re-solved advice at a higher patience than the fitted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateData,
    DivergenceDetected,
    EmptyGrid,
    InfeasibleNumerics,
    InvalidDiscount,
    InvalidPrior,
    SingularCovariance,
)
from .mdp import Mdp, Policy, _check_beta, policy_iteration, value_iteration

RIDGE_EPSILON = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of (state, action) pairs."""

    steps: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("trajectory must be non-empty")


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Fixed-dimension feature vectors phi(s, a)."""

    dim: int
    table: Mapping[tuple[str, str], np.ndarray]

    def __post_init__(self) -> None:
        for key, vec in self.table.items():
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (self.dim,):
                raise ValueError(f"feature for {key} has shape {arr.shape}, expected ({self.dim},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"feature for {key} has non-finite entries")

    def vector(self, state: str, action: str) -> np.ndarray:
        return np.asarray(self.table[(state, action)], dtype=float)

    def counts(self, trajectory: Trajectory) -> np.ndarray:
        total = np.zeros(self.dim)
        for s, a in trajectory.steps:
            total += self.vector(s, a)
        return total

    def dense(self, mdp: Mdp) -> np.ndarray:
        """Feature tensor (S, A, d) aligned with the MDP's orderings."""
        rows = [[self.table[(s, a)] for a in mdp.actions] for s in mdp.states]
        return np.array(rows, dtype=float).reshape(len(mdp.states), len(mdp.actions), self.dim)

    @staticmethod
    def one_hot_states(mdp: Mdp) -> "FeatureMap":
        table = {}
        for i, s in enumerate(mdp.states):
            vec = np.zeros(len(mdp.states))
            vec[i] = 1.0
            for a in mdp.actions:
                table[(s, a)] = vec
        return FeatureMap(len(mdp.states), table)


@dataclass(frozen=True, eq=False)
class RewardEstimate:
    """A fitted linear reward: the ``weights`` vector, the dense r(s, a)
    ``table`` they give where the fit has an MDP (``maxent_irl``; None for
    ``fit_preference_reward``), and the fit's ``diagnostics``."""

    weights: np.ndarray
    table: np.ndarray | None = None
    diagnostics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PairwiseComparison:
    """A judgment that one trajectory is preferred over another."""

    left: Trajectory
    right: Trajectory
    preferred: str  # "left" | "right"

    def __post_init__(self) -> None:
        if self.preferred not in ("left", "right"):
            raise ValueError("preferred must be 'left' or 'right'")
        if self.left == self.right:
            raise ValueError("comparison sides must differ")


# --- feasible reward set (degeneracy made explicit) -----------------------


@dataclass(frozen=True, eq=False)
class FeasibleRewardSet:
    """Linear description of all rewards for which the policy is optimal.

    ``constraint_matrix`` has one row per (state, non-chosen action); a
    flattened reward table r (row-major over states then actions) is in
    the optimality cone iff constraint_matrix @ r >= 0. Magnitudes are
    capped entrywise by ``bound``. The zero reward always satisfies the
    cone, which is the degeneracy witness: observed behavior alone cannot
    pin the reward down.
    """

    mdp: Mdp
    policy: dict[str, str]
    beta: float
    bound: float
    constraint_matrix: np.ndarray
    zero_reward_feasible: bool

    def contains(self, reward: np.ndarray, tol: float = 1e-9) -> bool:
        r = np.asarray(reward, dtype=float).reshape(-1)
        if np.any(np.abs(r) > self.bound + tol):
            return False
        return bool(np.all(self.constraint_matrix @ r >= -tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A feasible reward with the policy strictly greedy.

        Construction: draw target values V and strictly positive
        disadvantages for non-chosen actions, then read the reward off the
        optimality equations; rescale into the bound (the cone is
        homogeneous, so scaling preserves feasibility).
        """
        n_s, n_a = len(self.mdp.states), len(self.mdp.actions)
        chosen = self.mdp.policy_index(self.policy)
        v = rng.uniform(-1.0, 1.0, size=n_s)
        q = np.empty((n_s, n_a))
        for i in range(n_s):
            for j in range(n_a):
                gap = 0.0 if j == chosen[i] else float(rng.uniform(0.1, 1.0))
                q[i, j] = v[i] - gap
        reward = q - self.beta * (self.mdp.transition @ v)
        peak = float(np.max(np.abs(reward)))
        if peak > self.bound:
            reward *= self.bound / peak
        return reward


def feasible_rewards_irl(
    mdp: Mdp, policy: Policy, beta: float, bound: float
) -> FeasibleRewardSet:
    """Optimality inequalities Q_pi(s, pi(s)) >= Q_pi(s, a) as linear rows.

    The reward table of ``mdp`` is ignored; only the dynamics matter.
    Each constraint row is the reward-space functional of the Q gap, using
    V_pi = (I - beta P_pi)^{-1} r_pi, solved for the selector of r_pi.
    """
    _check_beta(beta)
    if bound <= 0:
        raise ValueError("bound must be positive")
    n_s, n_a = len(mdp.states), len(mdp.actions)
    chosen = mdp.policy_index(policy)
    states = np.arange(n_s)
    selector = np.zeros((n_s, n_s * n_a))  # r_pi = selector @ r_flat
    selector[states, states * n_a + chosen] = 1.0
    try:  # V_pi = value_of_reward @ r_flat
        value_of_reward = np.linalg.solve(np.eye(n_s) - beta * mdp.transition[states, chosen], selector)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleNumerics(f"could not assemble constraints: {exc}") from exc

    rows = []
    for i in range(n_s):
        for j in range(n_a):
            if j == chosen[i]:
                continue
            row = np.zeros(n_s * n_a)
            row[i * n_a + chosen[i]] += 1.0
            row[i * n_a + j] -= 1.0
            row += beta * (mdp.transition[i, chosen[i]] - mdp.transition[i, j]) @ value_of_reward
            rows.append(row)
    matrix = np.array(rows) if rows else np.zeros((0, n_s * n_a))
    zero_ok = bool(np.all(matrix @ np.zeros(n_s * n_a) >= -1e-12))
    return FeasibleRewardSet(
        mdp=mdp,
        policy={s: policy[s] for s in mdp.states},
        beta=beta,
        bound=bound,
        constraint_matrix=matrix,
        zero_reward_feasible=zero_ok,
    )


# --- maximum-entropy IRL -----------------------------------------------------


def _visits(mdp: Mdp, demos: Sequence[Trajectory]):
    """The demos' steps as (time, state, action) index arrays in demo order,
    and their visit counts n_t(s, a) as a (T, S, A) array. A step outside
    the MDP is a ValueError that names it."""
    rows = []
    for d in demos:
        for t, (s, a) in enumerate(d.steps):
            if s not in mdp.states or a not in mdp.actions:
                raise ValueError(f"trajectory step ({s!r}, {a!r}) not in the MDP")
            rows.append((t, mdp.state_index(s), mdp.action_index(a)))
    steps = np.array(rows, dtype=int).reshape(-1, 3).T
    counts = np.zeros((int(steps[0].max()) + 1, len(mdp.states), len(mdp.actions)))
    np.add.at(counts, tuple(steps), 1.0)
    return steps, counts


def demo_log_likelihood(
    mdp: Mdp,
    features: FeatureMap,
    demos: Sequence[Trajectory],
    theta: np.ndarray,
    beta: float,
) -> tuple[float, np.ndarray]:
    """Log-likelihood of the demos under the soft policy, with exact gradient."""
    return _log_likelihood(mdp, features.dense(mdp), *_visits(mdp, demos), theta, beta)


def _log_likelihood(
    mdp: Mdp, dense: np.ndarray, steps: np.ndarray, counts: np.ndarray, theta: np.ndarray, beta: float
) -> tuple[float, np.ndarray]:
    """``demo_log_likelihood`` over a prebuilt (S, A, d) feature tensor and
    the demos' ``_visits``. A backward soft pass gives the policies pi_t. A
    forward pass weighs each (t, s, a) by W_t = n_t - (n_t(s) - m_t(s)) pi_t,
    the demo visits less the soft policy's expected ones; m_t is the
    discounted occupancy the demo actions before t lead to, less that of
    the policy's actions (m_0 = 0, m_{t+1} = beta W_t P). The gradient is
    sum_t W_t phi: one (S A) x S product per step, one feature product."""
    horizon, n_s, n_a = counts.shape
    reward = dense @ np.asarray(theta, float)  # (S, A)
    policies = np.empty(counts.shape)
    v = np.zeros(n_s)
    for t in range(horizon - 1, -1, -1):
        q = reward + beta * (mdp.transition @ v)  # (S, A)
        peak = q.max(axis=1, keepdims=True)
        exp_q = np.exp(q - peak)
        norm = exp_q.sum(axis=1, keepdims=True)
        policies[t] = exp_q / norm
        v = (peak + np.log(norm)).ravel()
    total = 0.0
    for p in policies[tuple(steps)].tolist():
        total += math.log(p)
    flat_transition = mdp.transition.reshape(n_s * n_a, n_s)
    state_counts = counts.sum(axis=2)
    occupancy = np.zeros(n_s)
    weight = np.zeros((n_s, n_a))
    for t in range(horizon):
        w = counts[t] - (state_counts[t] - occupancy)[:, None] * policies[t]
        weight += w
        occupancy = beta * (w.reshape(-1) @ flat_transition)
    return total, weight.reshape(-1) @ dense.reshape(n_s * n_a, -1)


def maxent_irl(
    mdp: Mdp,
    features: FeatureMap,
    demos: Sequence[Trajectory],
    beta: float,
    learn_rate: float,
    iters: int,
) -> RewardEstimate:
    """Fit linear reward weights to demonstrations.

    Plain gradient ascent from theta = 0 with a fixed step, deterministic
    by construction. The reward table of ``mdp`` is ignored. The gradient
    is the demo feature counts less the expected counts of a forward
    occupancy pass under the current soft policy (see ``_log_likelihood``);
    the demos' visits are indexed once per fit. Raises
    DivergenceDetected when the gradient norm grows tenfold over its
    initial value (a sign the step size is too large for the instance).
    """
    if not demos:
        raise ValueError("demos must be non-empty")
    _check_beta(beta)
    steps, counts = _visits(mdp, demos)
    dense = features.dense(mdp)
    theta = np.zeros(features.dim)
    log_likelihood, grad = _log_likelihood(mdp, dense, steps, counts, theta, beta)
    initial_norm = float(np.linalg.norm(grad))
    grad_norm = initial_norm
    for _ in range(iters):
        if grad_norm == 0.0:
            break
        theta = theta + learn_rate * grad
        log_likelihood, grad = _log_likelihood(mdp, dense, steps, counts, theta, beta)
        grad_norm = float(np.linalg.norm(grad))
        if initial_norm > 0 and grad_norm > 10.0 * initial_norm:
            raise DivergenceDetected(
                f"gradient norm {grad_norm:.3g} exceeds 10x initial {initial_norm:.3g}"
            )
    table = dense @ theta
    return RewardEstimate(
        weights=theta,
        table=table,
        diagnostics={"grad_norm": grad_norm, "log_likelihood": log_likelihood},
    )


# --- preference judgments -----------------------------------------------------


def fit_preference_reward(
    features: FeatureMap,
    comparisons: Sequence[PairwiseComparison],
    learn_rate: float,
    iters: int,
) -> RewardEstimate:
    """Logistic pairwise-choice fit of linear reward weights.

    P(left preferred) is the logistic of the return difference, where a
    trajectory's return is the feature count dotted with theta. Data in
    which every pair is feature-identical carries no gradient and is
    surfaced as DegenerateData rather than silently returning theta = 0.
    """
    if not comparisons:
        raise ValueError("need at least one comparison")
    diffs = []
    for comp in comparisons:
        winner, loser = (
            (comp.left, comp.right) if comp.preferred == "left" else (comp.right, comp.left)
        )
        diffs.append(features.counts(winner) - features.counts(loser))
    diff_matrix = np.array(diffs)
    if float(np.max(np.abs(diff_matrix))) < 1e-12:
        raise DegenerateData("every comparison is feature-identical; gradient is zero")

    theta = np.zeros(features.dim)
    for _ in range(iters):
        margins = diff_matrix @ theta
        slack = _sigmoid(-margins)  # d/dtheta of sum log sigmoid(margins)
        grad = diff_matrix.T @ slack
        theta = theta + learn_rate * grad
    margins = diff_matrix @ theta
    log_likelihood = float(np.sum(_log_sigmoid(margins)))
    return RewardEstimate(
        weights=theta,
        diagnostics={"log_likelihood": log_likelihood},
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))  # at most 1: no overflow on either side
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def trajectory_return(features: FeatureMap, theta: np.ndarray, trajectory: Trajectory) -> float:
    return float(features.counts(trajectory) @ np.asarray(theta, float))


# --- discount inference ---------------------------------------------------------


def infer_discount(
    mdp: Mdp,
    behavior: Policy,
    beta_grid: Sequence[float],
    prior: Sequence[float],
    temperature: float = 0.01,
) -> dict[float, float]:
    """Posterior over candidate discount factors given observed behavior.

    Likelihood of the behavior at each grid point is the product over
    states of a softmax choice model over the optimal Q values at that
    discount (temperature ``temperature``). Log-domain normalization keeps
    the small-temperature regime stable. The returned mapping sums to 1
    and does not depend on the order the grid was supplied in.
    """
    grid = [float(b) for b in beta_grid]
    if not grid:
        raise EmptyGrid("beta grid is empty")
    if len(set(grid)) != len(grid):
        raise EmptyGrid("beta grid has duplicate entries")
    for b in grid:
        _check_beta(b)
    weights = [float(p) for p in prior]
    if len(weights) != len(grid):
        raise InvalidPrior(f"prior length {len(weights)} != grid length {len(grid)}")
    if any(w < 0 for w in weights):
        raise InvalidPrior("prior has negative mass")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise InvalidPrior(f"prior sums to {sum(weights)}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    chosen = mdp.policy_index(behavior)

    log_posts = []
    for b, w in zip(grid, weights):
        solution = value_iteration(mdp, b)
        loglik = 0.0
        for s, j in zip(mdp.states, chosen):
            scaled = np.array([solution.q[(s, a)] for a in mdp.actions]) / temperature
            peak = scaled.max()
            loglik += scaled[j] - (
                peak + math.log(np.sum(np.exp(scaled - peak)))
            )
        log_posts.append((b, (math.log(w) if w > 0 else -math.inf) + loglik))
    peak = max(lp for _, lp in log_posts)
    raw = {b: math.exp(lp - peak) for b, lp in log_posts}
    total = sum(raw.values())
    return {b: raw[b] / total for b in sorted(raw)}


@dataclass(frozen=True)
class PatienceAdvice:
    """Greedy policy at the advice discount, with its myopic divergences."""

    policy: dict[str, str]
    fitted_policy: dict[str, str]
    divergent_states: tuple[str, ...]


def patient_recommendation(mdp: Mdp, beta_fit: float, beta_advice: float) -> PatienceAdvice:
    """Re-solve under a higher patience and report where advice changes.

    Solves the MDP's own reward (for a fitted one, pass
    ``mdp.with_reward(estimate.table)``) exactly by policy iteration at
    both discounts. Divergent states are those where the advised action
    differs from the one at the fitted discount; both solves break ties to
    the lowest action index of the exact Q, so a zero reward yields none.
    """
    _check_beta(beta_fit)
    _check_beta(beta_advice)
    if beta_advice < beta_fit:
        raise InvalidDiscount("beta_advice must be at least beta_fit")
    fitted = policy_iteration(mdp, beta_fit).policy
    advised = policy_iteration(mdp, beta_advice).policy
    divergent = tuple(s for s in mdp.states if fitted[s] != advised[s])
    return PatienceAdvice(policy=advised, fitted_policy=fitted, divergent_states=divergent)


# --- legal standard: mean-variance template ----------------------------------


@dataclass(frozen=True, eq=False)
class PortfolioProblem:
    """Inputs for the unconstrained mean-variance objective."""

    mu: np.ndarray
    sigma: np.ndarray
    risk_aversion: float

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        n = mu.shape[0]
        if sigma.shape != (n, n):
            raise ValueError(f"sigma shape {sigma.shape}, expected {(n, n)}")
        if not np.allclose(sigma, sigma.T, atol=1e-9, rtol=0.0):
            raise ValueError("sigma must be symmetric")
        if float(np.linalg.eigvalsh(sigma).min()) < -1e-9:
            raise ValueError("sigma must be positive semi-definite")
        if self.risk_aversion <= 0:
            raise ValueError("risk_aversion must be positive")

    def objective(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        return float(self.mu @ w - self.risk_aversion * w @ self.sigma @ w)


def prudent_investor_weights(problem: PortfolioProblem) -> np.ndarray:
    """Closed-form maximizer of mu'w - lambda w'Sigma w: Sigma^-1 mu / (2 lambda).

    Near-singular covariances get a documented ridge (RIDGE_EPSILON on the
    diagonal) before the solve; no normalization or short-selling
    constraints are applied.
    """
    sigma = problem.sigma
    if float(np.linalg.eigvalsh(sigma).min()) <= 1e-9:
        sigma = sigma + RIDGE_EPSILON * np.eye(sigma.shape[0])
    try:
        return np.linalg.solve(sigma, problem.mu) / (2.0 * problem.risk_aversion)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"covariance not invertible after ridge: {exc}") from exc
