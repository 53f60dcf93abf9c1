"""Finite MDP solver and discounting models.

One exact solver for optimal policies, ``policy_iteration``: blocks of
Bellman sweeps find a candidate policy, and rounds of Howard improvement
over exact evaluations certify it (modified policy iteration), with
MAX_ITERS_CAP on the evaluations and on the sweeps; ``solve_exact`` turns
a capped solve into a ValueError and solves each model and beta once.
Also value iteration (the solver's sweeps), exact policy evaluation by
linear solve, exponential and hyperbolic discount curves, and detection of
preference reversals between a smaller-sooner and a larger-later reward.

Conventions: everything is an array in MDP order. Rewards are an (S, A)
table r(s, a); transition is a dense (S, A, S) tensor of P(s' | s, a); a
policy is an (S,) integer array of action indices; a solve returns V as
an (S,) array and Q as an (S, A) array. Greedy argmax ties break to the
lowest action index so identical inputs always give identical outputs.
E[V] per (s, a) is one flat (S·A, S) product (``_expected_next``), shared
by every solver and sampler; a max-entropy fit runs the same product on
the flat view its workspace holds. Results agree with those of the
stacked (S, A, S) @ (S,) product within 1e-12 relative for one solve,
evaluation or sample, 1e-11 for a 20-step max-entropy fit and 1e-9 for
a temperature-0.01 discount posterior; a greedy policy can change only
between actions whose Q values tie to rounding.
Reductions over the short action axis fold its columns (``_fold_actions``,
whose calls the fit's workspace makes on its held columns); over that
product they equal numpy's reductions bit for bit while A < 8.
The id tuples are kept only so that a report can name states and actions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .readonly import ReadOnly


PROB_TOL = 1e-9
MAX_ITERS_CAP = 100_000


class Mdp(ReadOnly):
    """Finite MDP with ordered state/action id lists and dense tables: an
    (S, A, S) ``transition`` and an (S, A) ``reward``.

    The tables are read-only float copies of the caller's arrays, so a
    validated model cannot change under its memoized solves (see
    ``solve_exact``); ``with_reward`` shares the transition tensor.
    """

    __slots__ = ("states", "actions", "transition", "reward", "_solves")  # _solves: beta -> policy_iteration's result

    def __init__(
        self, states: tuple[str, ...], actions: tuple[str, ...], transition: np.ndarray, reward: np.ndarray
    ) -> None:
        s, a = len(states), len(actions)
        transition = _read_only(transition)
        reward = _read_only(reward)
        self._set(states=states, actions=actions, transition=transition, reward=reward, _solves={})
        if len(set(states)) != s or len(set(actions)) != a:
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
        off = ~(np.abs(rows - 1.0) <= PROB_TOL)  # a NaN row too
        if off.any():
            bad = np.argwhere(off)[0]
            raise ValueError(
                f"transition row for (s={self.states[bad[0]]}, a={self.actions[bad[1]]}) "
                f"sums to {rows[tuple(bad)]}"
            )

    def with_reward(self, reward: np.ndarray) -> "Mdp":
        return Mdp(self.states, self.actions, self.transition, reward)


def _read_only(table) -> np.ndarray:
    """``table`` as a read-only float array: a copy, unless it already is a
    read-only float array that owns its data, such as another Mdp's table."""
    if isinstance(table, np.ndarray) and table.dtype == float and table.flags.owndata and not table.flags.writeable:
        return table
    frozen = np.array(table, dtype=float)
    frozen.flags.writeable = False
    return frozen


def _expected_next(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """E[V](s, a), the expectation of ``v`` over the next state, as an (S, A)
    array: one flat (S·A, S) product of the transition table with ``v``.
    numpy runs the stacked ``transition @ v`` as S small (A, S) products,
    about twice as slow; the two round differently in the last bits."""
    n_s, n_a = mdp.reward.shape
    return (mdp.transition.reshape(n_s * n_a, n_s) @ v).reshape(n_s, n_a)


def _fold_actions(ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the action axis (the last) of ``table``, in
    action order, into a new array: A - 1 elementwise calls on the
    columns, several times faster than a ``max`` or ``sum`` over a short
    last axis. ``np.maximum`` gives ``max(axis=-1)`` exactly; ``np.add``
    gives ``sum(axis=-1)`` bit for bit while A < 8, where numpy also adds
    a row in order (from 8 on numpy sums pairwise, and the bits can differ)."""
    n_a = table.shape[-1]
    if n_a == 1:
        return table[..., 0].copy()
    out = ufunc(table[..., 0], table[..., 1])
    for j in range(2, n_a):
        ufunc(out, table[..., j], out=out)
    return out


class DiscountSpec:
    """Either exponential weights beta**t or hyperbolic weights 1/(1 + k*t);
    ``kind`` is "exponential" or "hyperbolic"."""

    __slots__ = ("kind", "beta", "k")

    def __init__(self, kind: str, beta: float | None = None, k: float | None = None) -> None:
        if kind == "exponential":
            if beta is None:
                raise ValueError("exponential discount needs 0 < beta < 1, got None")
            _check_beta(beta)
        elif kind == "hyperbolic":
            if k is None or not k > 0.0:
                raise ValueError(f"hyperbolic discount needs k > 0, got {k}")
        else:
            raise ValueError(f"unknown discount kind {kind!r}")
        self.kind, self.beta, self.k = kind, beta, k


def discount_weight(spec: DiscountSpec, t: int) -> float:
    """Weight placed on a reward ``t`` steps away; 1 at t = 0, decreasing."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if spec.kind == "exponential":
        return spec.beta**t
    return 1.0 / (1.0 + spec.k * t)


class ValueFunction(NamedTuple):
    """Solver output: V as an (S,) array and the companion (S, A) Q array.

    ``converged`` is False when the iteration cap was hit, in which case
    the partial result is still returned.
    """

    values: np.ndarray
    q: np.ndarray
    iterations: int
    converged: bool

    @property
    def policy(self) -> np.ndarray:
        """The greedy policy: each state's lowest-index maximizer of Q."""
        return np.argmax(self.q, axis=1)


def default_max_iters(beta: float, tol: float) -> int:
    """Iteration budget from the contraction rate, hard-capped."""
    bound = math.ceil(math.log(tol * (1.0 - beta)) / math.log(beta))
    return min(10 * max(bound, 1), MAX_ITERS_CAP)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def _check_policy(mdp: Mdp, policy: np.ndarray) -> np.ndarray:
    """``policy`` as an (S,) array of action indices; a wrong length, a
    non-integer dtype or an index outside 0..A-1 is a ValueError."""
    chosen = np.asarray(policy)
    n_s, n_a = len(mdp.states), len(mdp.actions)
    if chosen.shape != (n_s,):
        raise ValueError(f"policy has shape {chosen.shape}, expected ({n_s},)")
    if not np.issubdtype(chosen.dtype, np.integer):
        raise ValueError(f"policy has dtype {chosen.dtype}, expected integer action indices")
    outside = np.flatnonzero((chosen < 0) | (chosen >= n_a))
    if outside.size:
        i = int(outside[0])
        raise ValueError(f"policy picks action index {chosen[i]} in state {mdp.states[i]!r}, outside 0..{n_a - 1}")
    return chosen


def value_iteration(
    mdp: Mdp,
    beta: float,
    tol: float = 1e-9,
    max_iters: int | None = None,
    start: np.ndarray | None = None,
) -> ValueFunction:
    """Optimal values by the Bellman backup V <- max_a r + beta * E[V].

    Sweeps from ``start`` (zeros by default) and stops once successive
    sweeps differ by at most ``tol`` in sup norm, which bounds the Bellman
    residual of the returned V by beta * tol. Iterate gaps contract at
    rate beta. If ``max_iters`` sweeps pass first, the partial result is
    returned with ``converged=False``.
    """
    _check_beta(beta)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters is None:
        max_iters = default_max_iters(beta, tol)
    v = np.zeros(len(mdp.states)) if start is None else np.asarray(start, dtype=float)
    for it in range(1, max_iters + 1):
        q = mdp.reward + beta * _expected_next(mdp, v)
        v_next = _fold_actions(np.maximum, q)
        gap = float(np.max(np.abs(v_next - v)))
        v = v_next
        if gap <= tol:
            return ValueFunction(v, q, it, True)
    q = mdp.reward + beta * _expected_next(mdp, v)
    return ValueFunction(v, q, max_iters, False)


def _evaluate(mdp: Mdp, action_idx: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (V, Q) of the policy choosing action ``action_idx[i]`` in state i."""
    rows = np.arange(len(mdp.states))
    p_pi = mdp.transition[rows, action_idx]  # (S, S)
    r_pi = mdp.reward[rows, action_idx]
    # beta < 1 keeps the system regular; numpy's LinAlgError is a ValueError
    v = np.linalg.solve(np.eye(len(rows)) - beta * p_pi, r_pi)
    residual = float(np.max(np.abs(v - (r_pi + beta * p_pi @ v))))
    if residual > 1e-9:
        raise ValueError(f"fixed-point residual {residual} exceeds 1e-9")
    return v, mdp.reward + beta * _expected_next(mdp, v)


def evaluate_policy(mdp: Mdp, policy: np.ndarray, beta: float) -> ValueFunction:
    """Exact V of a stationary policy via the linear system (I - beta*P) V = r.

    ``policy`` is the action index chosen in each state. The system is
    always non-singular for beta < 1; a numerical failure is reported as a
    ValueError rather than silently propagated.
    """
    _check_beta(beta)
    v, q = _evaluate(mdp, _check_policy(mdp, policy), beta)
    return ValueFunction(v, q, 1, True)


_FIRST_BLOCK = 8  # sweeps before the first exact round; each later block doubles
_ROUNDS_PER_BLOCK = 2


def policy_iteration(mdp: Mdp, beta: float) -> ValueFunction:
    """Optimal policy by modified policy iteration (Puterman & Shin 1978).

    Bellman sweeps (``value_iteration``) run in blocks of 8, 16, 32 and so
    on; the first starts from V = 0 and each later one from the exact V of
    the last policy evaluated. After each block the greedy policy gets at
    most two rounds of Howard improvement (Puterman 1994, ch. 6): evaluate
    the policy exactly and switch a state's action only on a strict Q
    gain. The solve stops when a switch leads to a policy evaluated
    before: no switch at all, or a cycle of switches that were rounding
    noise between tied actions, since every real switch raises the exact
    values. The result is that last exact evaluation, so wherever the
    solve ends at Howard's policy, V and Q are the same bits; the reported
    policy is the lowest-index maximizer of the exact Q. ``iterations``
    counts exact evaluations. MAX_ITERS_CAP caps the evaluations and,
    separately, the sweeps; a solve that hits either cap returns its last
    exact evaluation with ``converged=False``.
    """
    _check_beta(beta)
    rows = np.arange(len(mdp.states))
    v = np.zeros(len(rows))
    visited: set[bytes] = set()
    rounds = sweeps = 0
    block = _FIRST_BLOCK
    while sweeps < MAX_ITERS_CAP:
        swept = value_iteration(mdp, beta, max_iters=min(block, MAX_ITERS_CAP - sweeps), start=v)
        sweeps += swept.iterations
        action_idx = swept.policy
        for _ in range(_ROUNDS_PER_BLOCK):
            if rounds == MAX_ITERS_CAP:
                return ValueFunction(v, q, rounds, False)
            v, q = _evaluate(mdp, action_idx, beta)
            rounds += 1
            best = np.argmax(q, axis=1)
            visited.add(action_idx.tobytes())
            action_idx = np.where(q[rows, best] > q[rows, action_idx], best, action_idx)
            if action_idx.tobytes() in visited:  # no switch, or a cycle of ties
                return ValueFunction(v, q, rounds, True)
        block *= 2
    return ValueFunction(v, q, rounds, False)


def solve_exact(mdp: Mdp, beta: float) -> ValueFunction:
    """``policy_iteration``'s result, certified: a solve that hit a cap is
    a ValueError naming beta and the cap, not an answer. Each (mdp, beta)
    is solved once: the result is kept on the instance, with read-only
    arrays, and a later call returns it (or raises again)."""
    solved = mdp._solves.get(beta)
    if solved is None:
        solved = policy_iteration(mdp, beta)
        solved.values.flags.writeable = False
        solved.q.flags.writeable = False
        mdp._solves[beta] = solved
    if not solved.converged:
        raise ValueError(
            f"MDP solve at beta {beta} hit the cap of {MAX_ITERS_CAP} exact evaluations or sweeps before converging"
        )
    return solved


class RewardOption(NamedTuple):
    """A reward of fixed size arriving after a fixed delay."""

    reward: float
    delay: int


class ReversalReport(NamedTuple):
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
        raise ValueError(f"need late.delay > early.delay >= 0, got {early.delay} and {late.delay}")
    if not (early.reward > 0 and late.reward > 0):
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
