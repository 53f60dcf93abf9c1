"""Aggregation of per-principal interests.

Approval counting, Pareto filtering over partially ordered utilities,
lexicographic selection in priority order, exhaustive manipulation search
for small ordinal rules, and the impartiality test. Outputs never hide
discretion points: tied winners are all returned, in declared option
order, and index tie-breaks are flagged, so an audit can see exactly
where a choice was made rather than forced.

Pareto filtering and lexicographic selection read utilities as rows, one
per principal, each with one entry per option in declared option order:
the scenario reader's rows as they are.

The ordinal rules (Borda, plurality, dictator) are positional scoring
rules, each written once as a ``points`` table over the ballots, which
the manipulation search reads. It scores blocks of profiles, and one
misreport per distinct score row in each, with one integer numpy kernel.
It enumerates only the counted voters' ballots, and for the anonymous
rules only non-decreasing profiles: both contain the first witness of
the full scan.
"""

from __future__ import annotations

import itertools
import math
from operator import ge, gt
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

import numpy as np


MANIPULATION_MAX_VOTERS = 4
MANIPULATION_MAX_OPTIONS = 4
# profiles per kernel block: the first blocks are small so an early witness
# costs little, later ones double up to a cap that keeps memory flat
_FIRST_BLOCK = 16
_MAX_BLOCK = 256


class ApprovalBallot(NamedTuple):
    voter: str
    approved: frozenset[str]


def approval_winners(ballots: Sequence[ApprovalBallot], options: Sequence[str]) -> SimpleNamespace:
    """Options with maximal approval count; ties returned, never broken.

    The result's attributes are ``winners`` (a tuple) and ``counts``
    (option -> approvals), both in ``options`` order, and ``tied``.
    """
    if not options:
        raise ValueError("option universe is empty")
    universe = set(options)
    counts = {o: 0 for o in options}
    for ballot in ballots:
        for o in ballot.approved:
            if o not in universe:
                raise ValueError(f"ballot from {ballot.voter!r} approves unknown option {o!r}")
            counts[o] += 1
    top = max(counts.values())
    winners = tuple(o for o, c in counts.items() if c == top)
    return SimpleNamespace(winners=winners, counts=counts, tied=len(winners) > 1)


def _check_rows(ids: Sequence[str], utilities: Sequence[Sequence[float]], what: str) -> None:
    """Raise unless ``ids`` (what they name: "option" or "outcome") are
    distinct and not empty, and each row of ``utilities`` holds one finite
    entry per id."""
    if not ids:
        raise ValueError(f"need at least one {what}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate {what} ids")
    for i, row in enumerate(utilities):
        if len(row) != len(ids):
            raise ValueError(f"utility row {i} has {len(row)} entries, expected one per {what} ({len(ids)})")
        for key, v in zip(ids, row):
            if not math.isfinite(v):
                raise ValueError(f"utility of row {i} for {what} {key!r} is not finite")


def pareto_front(options: Sequence[str], utilities: Sequence[Sequence[float]]) -> tuple[str, ...]:
    """Options not dominated in every principal's utility simultaneously,
    in ``options`` order.

    ``utilities`` holds one row per principal, in ``options`` order. o is
    dominated iff some o' is at least as good for every principal and
    strictly better for one; equal utility vectors never dominate each
    other, so duplicates survive together.
    """
    _check_rows(options, utilities, "option")
    vectors = [tuple(row[j] for row in utilities) for j in range(len(options))]
    return tuple(
        option
        for option, vec in zip(options, vectors)
        if not any(all(map(ge, other, vec)) and any(map(gt, other, vec)) for other in vectors)
    )


def lexicographic_select(options: Sequence[str], utilities: Sequence[Sequence[float]]) -> SimpleNamespace:
    """Maximize each principal's utility in priority order; flag any final
    index tie-break.

    ``utilities`` holds one row per principal, highest priority first, in
    ``options`` order. Each row only narrows the options the rows before
    it left tied, so the choice is invariant to a strictly increasing
    transform of any one row. The choice's attributes are ``option``,
    ``tie_break_applied`` and ``tied_options``, the options the rows left
    (the choice alone when no tie-break applied), in ``options`` order.
    """
    _check_rows(options, utilities, "option")
    surviving = list(range(len(options)))
    for row in utilities:
        best = max(row[j] for j in surviving)
        surviving = [j for j in surviving if row[j] == best]
        if len(surviving) == 1:
            break
    # final ties resolved by lowest option index, and flagged
    return SimpleNamespace(
        option=options[surviving[0]],
        tie_break_applied=len(surviving) > 1,
        tied_options=tuple(options[j] for j in surviving),
    )


# --- manipulation search ----------------------------------------------------


class VotingRule:
    """An ordinal rule: ``kind`` is "borda", "plurality" or "dictator"."""

    __slots__ = ("kind", "dictator_voter")

    def __init__(self, kind: str, dictator_voter: int = 0) -> None:
        if kind not in ("borda", "plurality", "dictator"):
            raise ValueError(f"unknown rule {kind!r}")
        self.kind, self.dictator_voter = kind, dictator_voter


def _scoring_tables(
    kind: str, n_options: int
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray, np.ndarray]:
    """(ballots, position, points, distinct): every ballot in
    ``itertools.permutations`` order, with the two tables that score a
    profile under rule ``kind`` and the first ballot of each score row.

    ``position[b, o]`` is the place of option ``o`` on ballot ``b`` and
    ``points[b, o]`` the score the rule gives it: ``n - 1 - position``
    for Borda, one point for the top place under plurality and dictator.
    ``distinct`` holds, in ascending order, the lowest index of each
    distinct ``points`` row: every Borda ballot, one ballot per top
    choice under plurality and dictator.
    """
    ballots = tuple(itertools.permutations(range(n_options)))
    places = [[ballot.index(option) for option in range(n_options)] for ballot in ballots]
    position = np.array(places, np.intp)
    points = n_options - 1 - position if kind == "borda" else (position == 0) * 1
    first = {}  # score row -> lowest ballot index with it, in ascending order
    for b, row in enumerate(map(tuple, points.tolist())):
        first.setdefault(row, b)
    distinct = np.fromiter(first.values(), np.intp)
    return ballots, position, points, distinct


def _scorers(rule: VotingRule, n_voters: int) -> tuple[int, ...]:
    """Voters whose ballots the rule counts."""
    return (rule.dictator_voter,) if rule.kind == "dictator" else tuple(range(n_voters))


class ManipulationInstance(NamedTuple):
    """A witnessed profitable misreport under the rule."""

    profile: tuple[tuple[int, ...], ...]
    voter: int
    insincere_ballot: tuple[int, ...]
    sincere_winner: int
    manipulated_winner: int


def find_manipulation(
    rule: VotingRule, n_voters: int, n_options: int
) -> ManipulationInstance | None:
    """First profitable misreport over all profiles, voters and ballots.

    Profiles, voters and insincere ballots are scanned in lexicographic
    order, so the witness is deterministic. An outcome counts as improved
    when the manipulating voter's sincere ranking strictly prefers the new
    winner. Returns None when the whole space is clean (e.g. dictatorial
    rules, or two-option majority voting).

    All three rules are positional scoring rules, so the search is one
    integer kernel over blocks of profiles: each profile's score is the
    sum of its counted ballots' ``points`` rows, and each voter's
    misreports are scored at once by swapping that voter's row for every
    other row. ``argmax`` takes the first maximum, so a score tie goes to
    the lowest option index. Two steps skip what cannot change the first
    witness:

    - Only counted voters can change the winner, so only they are tried
      and only their ballots are enumerated; the first witness has every
      uncounted ballot at index 0. The dictator rule draws the dictator's
      ballots alone. Borda and plurality count every voter and are
      anonymous: a permutation of a manipulable profile is manipulable
      too, and the sorted permutation comes first in lexicographic
      order, so only non-decreasing profiles are scanned.
    - Ballots with the same ``points`` row give the same trial winner,
      so one misreport per distinct row is scored and a hit maps back to
      the lowest-index ballot of its row: one per top choice under
      plurality and dictator, every ballot under Borda.
    """
    if n_voters < 1 or n_options < 1:
        raise ValueError("need at least one voter and one option")
    if n_voters > MANIPULATION_MAX_VOTERS or n_options > MANIPULATION_MAX_OPTIONS:
        raise ValueError(
            f"exhaustive search capped at {MANIPULATION_MAX_VOTERS} voters x "
            f"{MANIPULATION_MAX_OPTIONS} options"
        )
    if rule.kind == "dictator" and not 0 <= rule.dictator_voter < n_voters:
        raise ValueError("dictator voter out of range")

    ballots, position, points, distinct = _scoring_tables(rule.kind, n_options)
    scorers = _scorers(rule, n_voters)
    n_ballots = len(ballots)
    flat_position = position.ravel()
    rows = points[distinct]
    if rule.kind == "dictator":
        counted = itertools.product(range(n_ballots), repeat=len(scorers))
    else:
        counted = itertools.combinations_with_replacement(range(n_ballots), n_voters)
    size = _FIRST_BLOCK
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(counted, size))
        drawn = np.fromiter(chunk, np.intp).reshape(-1, len(scorers))
        if not len(drawn):
            return None
        block = np.zeros((len(drawn), n_voters), np.intp)  # ballot indices
        block[:, scorers] = drawn
        total = points[drawn].sum(axis=1)  # (profiles, options)
        sincere = total.argmax(axis=1)
        hits = np.zeros((len(block), n_voters, len(distinct)), dtype=bool)
        for voter in scorers:
            own = block[:, voter]
            trial = (total - points[own])[:, None, :] + rows  # (profiles, rows, options)
            # position[own, new] < position[own, sincere], read from the flat table
            base = own[:, None] * n_options
            new_place = flat_position[base + trial.argmax(axis=2)]
            hits[:, voter] = new_place < flat_position[base + sincere[:, None]]
        if hits.any():
            p, voter, k = np.unravel_index(hits.argmax(), hits.shape)
            b = distinct[k]
            return ManipulationInstance(
                profile=tuple(ballots[i] for i in block[p]),
                voter=int(voter),
                insincere_ballot=ballots[b],
                sincere_winner=int(sincere[p]),
                manipulated_winner=int((total[p] - points[block[p, voter]] + points[b]).argmax()),
            )
        size = min(2 * size, _MAX_BLOCK)


# --- impartiality -------------------------------------------------------------


def impartiality_check(
    weights: Mapping[str, float],
    agent: str,
    favored: str | None = None,
    cap: float | None = None,
) -> SimpleNamespace:
    """Self-interest must carry zero weight; favoritism only up to any cap.

    Unequal principal weights are permitted by design: the check fails
    only on agent self-weight, or on weights above the declared cap (all
    principals when a cap is given, with ``favored`` merely naming the one
    under scrutiny in the report). The verdict's attributes are
    ``passed`` and ``violations``, a tuple of (id, weight, reason).
    """
    for key, value in weights.items():
        if not value >= 0:
            raise ValueError(f"weight for {key!r} is negative or NaN: {value}")
    if cap is not None and not cap >= 0:
        raise ValueError(f"favoritism cap is negative or NaN: {cap}")
    violations: list[tuple[str, float, str]] = []
    agent_weight = weights.get(agent, 0.0)
    if agent_weight > 0:
        violations.append((agent, agent_weight, "agent self-interest must have zero weight"))
    if cap is not None:
        for key in sorted(weights):
            if key == agent:
                continue
            if weights[key] > cap:
                reason = "declared favoritism cap exceeded"
                if favored is not None and key == favored:
                    reason += f" (declared favored id {favored!r})"
                violations.append((key, weights[key], reason))
    return SimpleNamespace(passed=not violations, violations=tuple(violations))
