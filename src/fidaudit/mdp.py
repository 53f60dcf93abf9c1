"""Finite MDP solver and discounting models.

Howard policy iteration for exact optimal policies, value iteration with
recorded contraction gaps (the contraction oracle, and the solver discount
inference reads its Q values from), exact policy evaluation by linear
solve, exponential and hyperbolic discount curves, and detection of
preference reversals between a smaller-sooner and a larger-later reward.

Conventions: rewards are r(s, a); transition is a dense (S, A, S) tensor
of P(s' | s, a); greedy argmax ties break to the lowest action index so
identical inputs always give identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidDelays, InvalidDiscount, SingularSystem

PROB_TOL = 1e-9
MAX_ITERS_CAP = 100_000


@dataclass(frozen=True, eq=False)
class Mdp:
    """Finite MDP with ordered state/action id lists and dense tables."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)

    def __post_init__(self) -> None:
        s, a = len(self.states), len(self.actions)
        transition = np.asarray(self.transition, dtype=float)
        reward = np.asarray(self.reward, dtype=float)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", reward)
        if len(set(self.states)) != s or len(set(self.actions)) != a:
            raise ValueError("state/action ids must be unique")
        if transition.shape != (s, a, s):
            raise ValueError(f"transition shape {transition.shape}, expected {(s, a, s)}")
        if reward.shape != (s, a):
            raise ValueError(f"reward shape {reward.shape}, expected {(s, a)}")
        if not np.all(np.isfinite(reward)):
            raise ValueError("reward table has non-finite entries")
        if np.any(transition < -PROB_TOL):
            raise ValueError("transition table has negative entries")
        rows = transition.sum(axis=2)
        if not np.allclose(rows, 1.0, atol=PROB_TOL, rtol=0.0):
            bad = np.argwhere(~(np.abs(rows - 1.0) <= PROB_TOL))[0]  # a NaN row too
            raise ValueError(
                f"transition row for (s={self.states[bad[0]]}, a={self.actions[bad[1]]}) "
                f"sums to {rows[tuple(bad)]}"
            )

    def state_index(self, state: str) -> int:
        return self.states.index(state)

    def action_index(self, action: str) -> int:
        return self.actions.index(action)

    def policy_index(self, policy: Policy) -> np.ndarray:
        """The action index ``policy`` picks in each state, in state order."""
        for s in self.states:
            if s not in policy:
                raise ValueError(f"policy missing state {s!r}")
        return np.array([self.action_index(policy[s]) for s in self.states], dtype=int)

    @staticmethod
    def from_dynamics(
        states: Sequence[str], actions: Sequence[str], transition: np.ndarray
    ) -> "Mdp":
        """MDP with a zero reward table, for reward-learning inputs."""
        s, a = len(states), len(actions)
        return Mdp(tuple(states), tuple(actions), np.asarray(transition, float), np.zeros((s, a)))

    def with_reward(self, reward: np.ndarray) -> "Mdp":
        return Mdp(self.states, self.actions, self.transition, np.asarray(reward, float))


@dataclass(frozen=True)
class DiscountSpec:
    """Either exponential weights beta**t or hyperbolic weights 1/(1 + k*t)."""

    kind: str  # "exponential" | "hyperbolic"
    beta: float | None = None
    k: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "exponential":
            if self.beta is None or not 0.0 < self.beta < 1.0:
                raise InvalidDiscount(f"exponential discount needs 0 < beta < 1, got {self.beta}")
        elif self.kind == "hyperbolic":
            if self.k is None or self.k <= 0.0:
                raise InvalidDiscount(f"hyperbolic discount needs k > 0, got {self.k}")
        else:
            raise InvalidDiscount(f"unknown discount kind {self.kind!r}")

    @staticmethod
    def exponential(beta: float) -> "DiscountSpec":
        return DiscountSpec("exponential", beta=beta)

    @staticmethod
    def hyperbolic(k: float) -> "DiscountSpec":
        return DiscountSpec("hyperbolic", k=k)


def discount_weight(spec: DiscountSpec, t: int) -> float:
    """Weight placed on a reward ``t`` steps away; 1 at t = 0, decreasing."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if spec.kind == "exponential":
        return spec.beta**t
    return 1.0 / (1.0 + spec.k * t)


Policy = Mapping[str, str]


@dataclass(frozen=True)
class ValueFunction:
    """Solver output: V, the companion Q, and the greedy policy.

    ``gap_history`` records the sup-norm differences between successive
    value-iteration sweeps (used to verify the contraction bound);
    ``converged`` is False when the iteration cap was hit, in which case
    the partial result is still returned.
    """

    values: dict[str, float]
    q: dict[tuple[str, str], float]
    policy: dict[str, str]
    iterations: int
    converged: bool
    gap_history: tuple[float, ...] = field(default=(), repr=False)


def default_max_iters(beta: float, tol: float) -> int:
    """Iteration budget from the contraction rate, hard-capped."""
    bound = math.ceil(math.log(tol * (1.0 - beta)) / math.log(beta))
    return min(10 * max(bound, 1), MAX_ITERS_CAP)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise InvalidDiscount(f"beta must lie in (0, 1), got {beta}")


def _package(mdp: Mdp, v: np.ndarray, q: np.ndarray, iterations: int, converged: bool, gaps: list[float]) -> ValueFunction:
    greedy = np.argmax(q, axis=1)  # the first (lowest-index) maximizer
    return ValueFunction(
        values={s: float(v[i]) for i, s in enumerate(mdp.states)},
        q={(s, a): float(q[i, j]) for i, s in enumerate(mdp.states) for j, a in enumerate(mdp.actions)},
        policy={s: mdp.actions[int(greedy[i])] for i, s in enumerate(mdp.states)},
        iterations=iterations,
        converged=converged,
        gap_history=tuple(gaps),
    )


def value_iteration(
    mdp: Mdp, beta: float, tol: float = 1e-9, max_iters: int | None = None
) -> ValueFunction:
    """Optimal values by the Bellman backup V <- max_a r + beta * E[V].

    Stops once successive sweeps differ by at most ``tol`` in sup norm,
    which bounds the Bellman residual of the returned V by beta * tol.
    Iterate gaps contract at rate beta; the recorded history lets callers
    check that. If ``max_iters`` sweeps pass first, the partial result is
    returned with ``converged=False``.
    """
    _check_beta(beta)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters is None:
        max_iters = default_max_iters(beta, tol)
    v = np.zeros(len(mdp.states))
    gaps: list[float] = []
    for it in range(1, max_iters + 1):
        q = mdp.reward + beta * (mdp.transition @ v)
        v_next = q.max(axis=1)
        gap = float(np.max(np.abs(v_next - v)))
        gaps.append(gap)
        v = v_next
        if gap <= tol:
            return _package(mdp, v, q, it, True, gaps)
    q = mdp.reward + beta * (mdp.transition @ v)
    return _package(mdp, v, q, max_iters, False, gaps)


def _evaluate(mdp: Mdp, action_idx: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (V, Q) of the policy choosing action ``action_idx[i]`` in state i."""
    rows = np.arange(len(mdp.states))
    p_pi = mdp.transition[rows, action_idx]  # (S, S)
    r_pi = mdp.reward[rows, action_idx]
    try:
        v = np.linalg.solve(np.eye(len(rows)) - beta * p_pi, r_pi)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - beta<1 keeps it regular
        raise SingularSystem(str(exc)) from exc
    residual = float(np.max(np.abs(v - (r_pi + beta * p_pi @ v))))
    if residual > 1e-9:
        raise SingularSystem(f"fixed-point residual {residual} exceeds 1e-9")
    return v, mdp.reward + beta * (mdp.transition @ v)


def evaluate_policy(mdp: Mdp, policy: Policy, beta: float) -> ValueFunction:
    """Exact V of a stationary policy via the linear system (I - beta*P) V = r.

    The system is always non-singular for beta < 1; a numerical failure is
    reported as SingularSystem rather than silently propagated.
    """
    _check_beta(beta)
    v, q = _evaluate(mdp, mdp.policy_index(policy), beta)
    return _package(mdp, v, q, 1, True, [])


def policy_iteration(mdp: Mdp, beta: float) -> ValueFunction:
    """Optimal policy by Howard policy iteration (Puterman 1994, ch. 6).

    Starts from the myopic policy, evaluates each policy exactly and
    switches a state's action only on a strict Q gain, so it stops after
    finitely many rounds; the reported policy is the lowest-index
    maximizer of the exact Q. Each switch strictly raises the exact
    values, so a policy met again means the gains were rounding noise
    between tied actions, and the solve stops there too. Hitting
    MAX_ITERS_CAP rounds returns the last evaluation with
    ``converged=False``.
    """
    _check_beta(beta)
    rows = np.arange(len(mdp.states))
    action_idx = np.argmax(mdp.reward, axis=1)
    visited: set[bytes] = set()
    for rounds in range(1, MAX_ITERS_CAP + 1):
        v, q = _evaluate(mdp, action_idx, beta)
        best = np.argmax(q, axis=1)
        visited.add(action_idx.tobytes())
        action_idx = np.where(q[rows, best] > q[rows, action_idx], best, action_idx)
        if action_idx.tobytes() in visited:  # no switch, or a cycle of ties
            return _package(mdp, v, q, rounds, True, [])
    return _package(mdp, v, q, MAX_ITERS_CAP, False, [])


@dataclass(frozen=True)
class RewardOption:
    """A reward of fixed size arriving after a fixed delay."""

    reward: float
    delay: int


@dataclass(frozen=True)
class ReversalReport:
    """First evaluation epoch at which the preferred option flips, if any."""

    reversal_epoch: int | None
    initial_preference: str  # "early" | "late"

    @property
    def reversed(self) -> bool:
        return self.reversal_epoch is not None


def detect_preference_reversal(
    spec: DiscountSpec, early: RewardOption, late: RewardOption, horizon: int
) -> ReversalReport:
    """Scan evaluation epochs for a flip between two dated rewards.

    At epoch e the options still ahead (delay >= e) are valued at
    reward * weight(delay - e); the scan covers e = 0 .. min(horizon,
    early.delay) so both options remain comparable. Exact value ties
    prefer the earlier option. Exponential discounting never reverses
    (the comparison ratio is delay-shift invariant); hyperbolic can.
    """
    if early.delay < 0 or late.delay <= early.delay:
        raise InvalidDelays(
            f"need late.delay > early.delay >= 0, got {early.delay} and {late.delay}"
        )
    if early.reward <= 0 or late.reward <= 0:
        raise ValueError("rewards must be positive")
    if horizon < 1:
        raise ValueError("horizon must be positive")

    def preference(epoch: int) -> str:
        v_early = early.reward * discount_weight(spec, early.delay - epoch)
        v_late = late.reward * discount_weight(spec, late.delay - epoch)
        return "early" if v_early >= v_late else "late"

    initial = preference(0)
    for epoch in range(1, min(horizon, early.delay) + 1):
        if preference(epoch) != initial:
            return ReversalReport(epoch, initial)
    return ReversalReport(None, initial)
