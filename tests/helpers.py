"""Model builders and reference implementations shared across test modules."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import numpy as np

from fidaudit import __version__
from fidaudit.audit import DISCLAIMER, RUBRIC, TOOL_NAME
from fidaudit.cli import main
from fidaudit.macid import Macid, Node, NodeKind, deterministic_rule
from fidaudit.mdp import Mdp, default_max_iters, value_iteration


def match_table(domain=("0", "1")):
    """Utility table over (X, Y) parents: 1.0 when values match."""
    return np.eye(len(domain))


def mismatch_table(domain=("0", "1")):
    return 1.0 - np.eye(len(domain))


def coin_model():
    """Single uniform chance node, no decisions."""
    return Macid(
        nodes=(Node("coin", NodeKind.CHANCE, domain=("H", "T")),),
        edges={"coin": ()},
        cpds={"coin": [0.5, 0.5]},
        utilities={},
        agents=(),
    )


def copy_chain_model():
    """C uniform, chance R deterministically copies C."""
    return Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("R", NodeKind.CHANCE, domain=("0", "1")),
        ),
        edges={"C": (), "R": ("C",)},
        cpds={
            "C": [0.5, 0.5],
            "R": [[1.0, 0.0], [0.0, 1.0]],
        },
        utilities={},
        agents=(),
    )


def guess_model():
    """One decision guessing a hidden uniform bit; payoff 1 on a match."""
    return Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("B", NodeKind.DECISION, owner="bob", domain=("0", "1")),
            Node("U", NodeKind.UTILITY, owner="bob"),
        ),
        edges={"C": (), "B": (), "U": ("C", "B")},
        cpds={"C": [0.5, 0.5]},
        utilities={"U": match_table()},
        agents=("bob",),
    )


def disclosure_model(aligned=True):
    """Adviser observes C, reports R_a; principal acts on the report.

    With ``aligned`` the adviser's payoff equals the principal's
    (order-preserving alignment of the utility tables); otherwise the
    adviser is paid a constant and has no incentive to communicate.
    """
    u_a = match_table() if aligned else np.ones((2, 2))
    return Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("R_a", NodeKind.DECISION, owner="alice", domain=("0", "1")),
            Node("B_b", NodeKind.DECISION, owner="bob", domain=("0", "1")),
            Node("U_a", NodeKind.UTILITY, owner="alice"),
            Node("U_b", NodeKind.UTILITY, owner="bob"),
        ),
        edges={
            "C": (),
            "R_a": ("C",),
            "B_b": ("R_a",),
            "U_a": ("C", "B_b"),
            "U_b": ("C", "B_b"),
        },
        cpds={"C": [0.5, 0.5]},
        utilities={"U_a": u_a, "U_b": match_table()},
        agents=("alice", "bob"),
    )


def relay_chain_model(hops, arity, rng):
    """C -> R1 -> ... -> R<hops> -> B_b over ``arity`` values: the adviser's
    report relayed by ``hops`` decisions, then the client's guess of C. Both
    agents are paid 1 when the guess matches C; C's law is drawn from
    ``rng``. The shapes of the benchmark's chain-disclosure scenarios."""
    values = tuple(f"v{i}" for i in range(arity))
    links = [f"R{i}" for i in range(1, hops + 1)]
    nodes = [Node("C", NodeKind.CHANCE, domain=values)]
    edges = {"C": ()}
    for parent, nid in zip(["C", *links], links):
        nodes.append(Node(nid, NodeKind.DECISION, owner="advisory_system", domain=values))
        edges[nid] = (parent,)
    nodes += [
        Node("B_b", NodeKind.DECISION, owner="client", domain=values),
        Node("U_a", NodeKind.UTILITY, owner="advisory_system"),
        Node("U_b", NodeKind.UTILITY, owner="client"),
    ]
    edges.update({"B_b": (links[-1],), "U_a": ("C", "B_b"), "U_b": ("C", "B_b")})
    weights = rng.uniform(0.5, 1.5, size=arity)
    return Macid(
        nodes=tuple(nodes),
        edges=edges,
        cpds={"C": weights / weights.sum()},
        utilities={"U_a": np.eye(arity), "U_b": np.eye(arity)},
        agents=("advisory_system", "client"),
    )


def disclosure_profile(model, copying=True):
    """Copying report plus report-following principal; or a muted report."""
    r = deterministic_rule(model, "R_a", [0, 1] if copying else 0)
    return {"R_a": r, "B_b": deterministic_rule(model, "B_b", [0, 1])}


def matching_pennies_model():
    """Two simultaneous binary decisions with strictly opposed payoffs."""
    return Macid(
        nodes=(
            Node("A", NodeKind.DECISION, owner="a", domain=("0", "1")),
            Node("B", NodeKind.DECISION, owner="b", domain=("0", "1")),
            Node("U_a", NodeKind.UTILITY, owner="a"),
            Node("U_b", NodeKind.UTILITY, owner="b"),
        ),
        edges={"A": (), "B": (), "U_a": ("A", "B"), "U_b": ("A", "B")},
        cpds={},
        utilities={"U_a": match_table(), "U_b": mismatch_table()},
        agents=("a", "b"),
    )


def xor_model():
    """Chance S, C independent uniform bits; chance R = S xor C."""
    # rows (S, C) = 00, 01, 10, 11
    xor_rows = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]
    return Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("R", NodeKind.CHANCE, domain=("0", "1")),
            Node("S", NodeKind.CHANCE, domain=("0", "1")),
        ),
        edges={"S": (), "C": (), "R": ("S", "C")},
        cpds={
            "S": [0.5, 0.5],
            "C": [0.5, 0.5],
            "R": xor_rows,
        },
        utilities={},
        agents=(),
    )


def delayed_reward_chain(n_states):
    """States s0..s{S-1}; ``wait`` moves one state right with probability 0.9
    and stays with 0.1 (the last state keeps it), and pays 1 in the last
    state; ``take`` pays 0.01 * (1 + s/S) in state s and returns to s0. The
    myopic policy takes everywhere but the last state, and Howard iteration
    from it switches about one state to ``wait`` per round."""
    transition = np.zeros((n_states, 2, n_states))
    reward = np.zeros((n_states, 2))
    for s in range(n_states):
        transition[s, 0, min(s + 1, n_states - 1)] += 0.9
        transition[s, 0, s] += 0.1
        transition[s, 1, 0] = 1.0
        reward[s, 1] = 0.01 * (1 + s / n_states)
    reward[n_states - 1, 0] = 1.0
    return Mdp(tuple(f"s{i}" for i in range(n_states)), ("wait", "take"), transition, reward)


def contraction_gaps(mdp, beta, tol=1e-9):
    """Value iteration from zeros one sweep at a time, each sweep a call
    of ``value_iteration(mdp, beta, tol, max_iters=1, start=v)``: the
    sup-norm gaps between successive sweeps, for checking the contraction
    bound, and the last sweep's values. It stops where ``value_iteration``
    does, at a gap of at most ``tol`` or after its default budget."""
    v = np.zeros(len(mdp.states))
    gaps = []
    for _ in range(default_max_iters(beta, tol)):
        sweep = value_iteration(mdp, beta, tol, max_iters=1, start=v)
        gaps.append(float(np.max(np.abs(sweep.values - v))))
        v = sweep.values
        if sweep.converged:
            break
    return gaps, v


def stacked_expected_next(mdp, v):
    """E[V](s, a) as the stacked (S, A, S) @ (S,) product, which numpy runs
    as S small (A, S) products: the reference that ``mdp._expected_next``'s
    flat (S * A, S) product agrees with to rounding. Same signature."""
    return mdp.transition @ v


def stacked_linear_reward(dense, theta):
    """phi(s, a) . theta as the stacked (S, A, d) @ (d,) product: the
    reference for the flat (S * A, d) one of ``assessment._Workspace``."""
    return dense @ theta


def looped_feasible_sample(feasible, rng):
    """``FeasibleRewardSet.sample`` as a double loop over (state, action),
    one scalar gap draw per non-chosen cell: an oracle for the vectorized
    draw, which must give the same rewards and leave ``rng`` in the same
    state, bit for bit. E[V] is the flat (S * A, S) product, written out
    here rather than taken from the library."""
    n_s, n_a = len(feasible.mdp.states), len(feasible.mdp.actions)
    v = rng.uniform(-1.0, 1.0, size=n_s)
    q = np.empty((n_s, n_a))
    for i in range(n_s):
        for j in range(n_a):
            gap = 0.0 if j == feasible.chosen[i] else float(rng.uniform(0.1, 1.0))
            q[i, j] = v[i] - gap
    expected = (feasible.mdp.transition.reshape(n_s * n_a, n_s) @ v).reshape(n_s, n_a)
    reward = q - feasible.beta * expected
    peak = float(np.max(np.abs(reward)))
    if peak > feasible.bound:
        reward *= feasible.bound / peak
    return reward


def numpy_log_likelihood(mdp, dense, counts, theta, beta, stacked=False):
    """``assessment._Workspace.evaluate`` with numpy's reductions over the
    action axis and a fresh array per step: the backward soft pass, then
    the forward occupancy pass. An oracle that the column folds and
    in-place steps must equal bit for bit while A < 8. The transition and
    feature products are the flat (S * A, ·) ones, written out here rather
    than taken from the library; with ``stacked`` the reward and E[V] are
    the stacked products of ``stacked_linear_reward`` and
    ``stacked_expected_next`` instead. Returns the (T, S, A) policies and
    the gradient."""
    horizon, n_s, n_a = counts.shape
    flat_transition = mdp.transition.reshape(n_s * n_a, n_s)
    theta = np.asarray(theta, float)
    if stacked:
        reward = stacked_linear_reward(dense, theta)
    else:
        reward = (dense.reshape(n_s * n_a, -1) @ theta).reshape(n_s, n_a)
    policies = np.empty(counts.shape)
    v = np.zeros(n_s)
    for t in range(horizon - 1, -1, -1):
        expected = stacked_expected_next(mdp, v) if stacked else (flat_transition @ v).reshape(n_s, n_a)
        q = reward + beta * expected
        peak = q.max(axis=1, keepdims=True)
        exp_q = np.exp(q - peak)
        norm = exp_q.sum(axis=1, keepdims=True)
        policies[t] = exp_q / norm
        v = (peak + np.log(norm)).ravel()
    state_counts = counts.sum(axis=2)
    occupancy = np.zeros(n_s)
    weight = np.zeros((n_s, n_a))
    for t in range(horizon):
        w = counts[t] - (state_counts[t] - occupancy)[:, None] * policies[t]
        weight += w
        occupancy = beta * (w.reshape(-1) @ flat_transition)
    return policies, weight.reshape(-1) @ dense.reshape(n_s * n_a, -1)


def looped_feasible_constraints(mdp, chosen, beta):
    """``feasible_rewards_irl``'s constraint matrix one row at a time: a
    solve with S * A right-hand sides for the selector of r_pi, then one
    vector-matrix product per (state, non-chosen action) row. An oracle for
    the one-product construction, which sums in another order and so
    agrees with it to rounding."""
    n_s, n_a = len(mdp.states), len(mdp.actions)
    states = np.arange(n_s)
    selector = np.zeros((n_s, n_s * n_a))
    selector[states, states * n_a + chosen] = 1.0
    value_of_reward = np.linalg.solve(np.eye(n_s) - beta * mdp.transition[states, chosen], selector)
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
    return np.array(rows) if rows else np.zeros((0, n_s * n_a))


def numpy_preference_fit(features, comparisons, learn_rate, iters):
    """The preference fit as numpy products over the dense (comparisons, d)
    difference matrix, each step a BLAS margin and gradient pass: an oracle
    for ``assessment.fit_preference_reward``, which sums in a fixed order
    and so agrees with it to rounding. Returns (weights, log-likelihood)."""
    table = np.asarray(features, dtype=float)

    def counts(rows):
        total = np.zeros(table.shape[1])
        for r in rows:
            total += table[r]
        return total

    diff_matrix = np.array(
        [
            counts(left) - counts(right) if preferred == "left" else counts(right) - counts(left)
            for left, right, preferred in comparisons
        ]
    )
    theta = np.zeros(table.shape[1])
    for _ in range(iters):
        slack = _sigmoid(-(diff_matrix @ theta))
        theta = theta + learn_rate * (diff_matrix.T @ slack)
    return theta, float(np.sum(_log_sigmoid(diff_matrix @ theta)))


def reference_winner(rule, profile, n_options):
    """The ``VotingRule``'s winner on ``profile`` by a scalar scoring loop:
    Borda gives n - 1 - place points, plurality and dictator one point to
    the top choice (only the dictator's ballot counts); a score tie goes to
    the lowest option index."""
    voters = [rule.dictator_voter] if rule.kind == "dictator" else range(len(profile))
    scores = [0] * n_options
    for voter in voters:
        for place, option in enumerate(profile[voter]):
            scores[option] += n_options - 1 - place if rule.kind == "borda" else int(place == 0)
    return scores.index(max(scores))


def mean_variance_objective(mu, sigma, risk_aversion, w):
    """mu'w - lambda w'Sigma w, the objective ``prudent_investor_weights``
    maximizes, evaluated at ``w``."""
    return float(mu @ w - risk_aversion * w @ sigma @ w)


def _sigmoid(x):
    ex = np.exp(-np.abs(x))  # at most 1: no overflow on either side
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _log_sigmoid(x):
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def reference_machine_report(report):
    """``emit_report(report, "machine")`` through the standard library's
    encoder: the oracle for the one-pass writer, which must give the same
    bytes."""
    doc = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "scenario": {
            "id": report.scenario_id,
            "version": report.scenario_version,
            "digest": report.digest,
            "tolerance": report.tolerance,
        },
        "disclaimer": DISCLAIMER,
        "steps": [
            {
                "step": record.step,
                "status": record.status,
                "rubric": RUBRIC[record.step],
                "findings": [vars(f) for f in record.findings],
            }
            for record in report.steps
        ],
        "overall": report.overall,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, in the order written


class _Tee(io.StringIO):
    """One stream's text, also copied into the interleaved ``output``."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


def run_cli(args):
    """``fidaudit ARGS`` run in this process: its exit code and what it
    wrote. A usage error or ``--version`` ends the parser with
    ``SystemExit``, which is caught and read as the exit code."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(arg) for arg in args])
        except SystemExit as exc:
            code = exc.code
    return CliResult(0 if code is None else code, out.getvalue(), err.getvalue(), output.getvalue())
