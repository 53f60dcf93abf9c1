"""Loyalty verification over utility tables and influence models.

Two families of checks:

* Order conditions between two utility tables over one outcome space.
  Each check takes the outcome ids and the two tables as rows in their
  declared order, and lists witness pairs in that order. The outcomes and
  rows are checked as the aggregation rules check theirs
  (``aggregation._check_rows``), the rows numbered in argument order.
  ``alignment_check`` demands that whenever the principal strictly prefers
  one outcome to another, the fiduciary-conditioned agent utility agrees;
  ``disgorgement_check`` demands that the fiduciary-conditioned utility
  never strictly profits in a direction the unconditioned utility would
  have; ``no_conflict_check`` applies the alignment logic to a system
  objective against the aggregated principal interests (the first step of
  the loyalty two-step). Only orderings are consulted, so verdicts are
  invariant under strictly increasing transformations of either table.

* Information-flow duties over a model and an audited profile (decision
  node id to rule array, as ``fidaudit.macid`` takes it).
  ``confidentiality_check`` requires zero mutual information between a
  report and a secret; ``disclosure_check`` requires that material
  information actually flows through the report and that communicating
  leaves the principal no worse off than silence. Both check the audited
  profile against the whole model, then restrict the model to the bound
  nodes, the utility nodes and their ancestors (``Macid.ancestral``) and
  the profile to the decisions kept, and compute everything, silenced and
  extended models included, on the restricted model: nodes no utility and
  no bound node depends on cannot change a verdict, and they would
  multiply every joint by their domain sizes.
"""

from __future__ import annotations

import itertools
from operator import gt, le
from types import SimpleNamespace
from typing import Sequence

from .aggregation import _check_rows
from .macid import (
    Macid,
    NodeKind,
    PolicyProfile,
    _check_profile,
    _Checked,
    _iterate,
    deterministic_rule,
    expected_utility,
    marginal,
    mutual_information,
    value_of_information,
)

INFO_TOL = 1e-9


def _ordered_pair_check(
    outcomes: Sequence[str], rows: tuple[Sequence[float], Sequence[float]], premise: int, holds
) -> SimpleNamespace:
    """The verdict of an order check: ``witnesses``, the pairs (c1, c2),
    in declared order, where ``rows[premise]`` strictly prefers c1 and the
    other row fails ``holds``, and ``aligned``, whether there are none.
    ``rows`` are the public check's two tables in argument order, each in
    ``outcomes`` order, and ``aggregation._check_rows`` checks them under
    those row numbers."""
    _check_rows(outcomes, rows, "outcome")
    prefers, conclusion = rows[premise], rows[1 - premise]
    witnesses = tuple(
        (outcomes[i], outcomes[j])
        for i, j in itertools.permutations(range(len(outcomes)), 2)
        if prefers[i] > prefers[j] and not holds(conclusion[i], conclusion[j])
    )
    return SimpleNamespace(aligned=not witnesses, witnesses=witnesses)


def alignment_check(
    outcomes: Sequence[str], principal: Sequence[float], agent_fiduciary: Sequence[float]
) -> SimpleNamespace:
    """Strict principal preferences must be strictly preserved by the agent
    (``aligned``, with the violating pairs as ``witnesses``).

    Pairs the principal is indifferent between impose no constraint, so a
    constant principal table is vacuously aligned with anything.
    """
    return _ordered_pair_check(outcomes, (principal, agent_fiduciary), 0, gt)


def disgorgement_check(
    outcomes: Sequence[str], agent_nonfiduciary: Sequence[float], agent_fiduciary: Sequence[float]
) -> SimpleNamespace:
    """The fiduciary-conditioned utility may not profit where the raw one would.

    Wherever the unconditioned utility strictly increases, the conditioned
    one must not (weak decrease required); witnesses list the profiting
    outcome pairs.
    """
    return _ordered_pair_check(outcomes, (agent_nonfiduciary, agent_fiduciary), 0, le)


def no_conflict_check(
    outcomes: Sequence[str], system_objective: Sequence[float], aggregated_principal: Sequence[float]
) -> SimpleNamespace:
    """First step of the loyalty two-step: objective vs aggregated interests.

    Same order logic as ``alignment_check`` with the aggregated principal
    interests in the premise role.
    """
    return _ordered_pair_check(outcomes, (system_objective, aggregated_principal), 1, gt)


# --- information-flow duties -------------------------------------------------


def _restrict(
    model: Macid, profile: PolicyProfile, targets: tuple[str, ...]
) -> tuple[Macid, PolicyProfile]:
    """``model`` restricted to ``targets``, the utility nodes and their
    ancestors, with ``profile``'s rules for the decisions kept, ``_Checked``.
    A profile not ``_Checked`` for ``model`` (the scenario reader's is) is
    checked against the full model, so a missing or malformed rule at a
    dropped decision still raises."""
    _check_profile(model, profile)
    model = model.ancestral(targets)
    return model, _Checked(model, {nid: profile[nid] for nid in model.decision_nodes()})


def confidentiality_check(
    model: Macid,
    profile: PolicyProfile,
    report_node: str,
    secret_node: str,
    tol: float = INFO_TOL,
) -> SimpleNamespace:
    """Pass iff the report carries no information about the secret.

    Computes I(report; secret) in bits under the audited profile's joint
    distribution; anything above ``tol`` fails. The verdict depends only
    on the joint law, so relabeling domain values cannot change it. Its
    attributes are ``passed``, ``mutual_information_bits``,
    ``report_node`` and ``secret_node``.
    """
    model, profile = _restrict(model, profile, (report_node, secret_node))
    joint = marginal(model, profile, (report_node, secret_node))
    info = mutual_information(joint)
    return SimpleNamespace(
        passed=info <= tol,
        mutual_information_bits=info,
        report_node=report_node,
        secret_node=secret_node,
    )


def materiality_value(
    model: Macid, report_node: str, material_node: str, principal_decision: str
) -> float:
    """Value of observing the material node once the report is silenced.

    Materiality should reflect what the information itself is worth to the
    principal, not what the audited report already conveys, so the report
    decision is replaced by a constant before measuring the value of
    information; the most favorable constant is used.
    """
    best = 0.0
    for value in model.node(report_node).domain:
        silenced = model.replace_decision_with_constant_chance(report_node, value)
        best = max(best, value_of_information(silenced, principal_decision, material_node))
    return best


def disclosure_check(
    model: Macid,
    profile: PolicyProfile,
    report_node: str,
    material_node: str,
    principal_decision: str,
    tol: float = INFO_TOL,
) -> SimpleNamespace:
    """Material information must flow, and communicating must not hurt.

    If the material node has positive value for the principal's decision
    (measured with the report silenced), the audited profile must (a) put
    positive mutual information between report and material node and (b)
    give the principal at least the silent baseline, i.e. their utility
    when the report is a constant and they best-respond to it (most
    favorable constant), re-optimizing only their own decisions from the
    audited rules in the equilibrium search's loop (``macid._iterate``), so
    under its round cap. Immaterial nodes pass vacuously with a note.

    The verdict's attributes are ``passed``, ``material``,
    ``value_of_information``, ``information_bits``, ``principal_utility``
    and ``silent_baseline`` (the last three None when not material), and
    ``note``: why the node is not material or why no information flows,
    else empty.
    """
    model, profile = _restrict(model, profile, (report_node, material_node, principal_decision))
    if model.node_map[report_node].kind is not NodeKind.DECISION:
        raise ValueError(f"report node {report_node!r} must be a decision node")

    voi = materiality_value(model, report_node, material_node, principal_decision)
    if voi <= tol:
        return SimpleNamespace(
            passed=True,
            material=False,
            value_of_information=voi,
            information_bits=None,
            principal_utility=None,
            silent_baseline=None,
            note="not material: silence costs the principal nothing",
        )

    principal = model.node_map[principal_decision].owner
    info = mutual_information(marginal(model, profile, (report_node, material_node)))
    utility = expected_utility(model, profile, principal)
    own = [n for n in model.decision_nodes() if model.node_map[n].owner == principal]
    baseline = -float("inf")
    for action in range(len(model.node_map[report_node].domain)):
        muted = {**profile, report_node: deterministic_rule(model, report_node, action)}
        baseline = max(baseline, expected_utility(model, _iterate(model, muted, own), principal))
    flows = info > tol
    no_harm = utility >= baseline - tol
    return SimpleNamespace(
        passed=flows and no_harm,
        material=True,
        value_of_information=voi,
        information_bits=info,
        principal_utility=utility,
        silent_baseline=baseline,
        note="" if flows else "no information flows through the report despite materiality",
    )
