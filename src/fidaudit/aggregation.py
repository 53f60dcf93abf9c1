"""Aggregation of per-principal interests.

Approval counting, Pareto filtering over partially ordered utilities,
lexicographic selection across priority classes, exhaustive manipulation
search for small ordinal rules, and the impartiality test. Outputs never
hide discretion points: winner ties are returned as sets and index
tie-breaks are flagged, so an audit can see exactly where a choice was
made rather than forced.

The ordinal rules (Borda, plurality, dictator) are positional scoring
rules, each written once as a ``points`` table over the ballots; the
winner and the manipulation search both read it. The search scores
blocks of profiles and every misreport in each with one integer numpy
kernel, and for the anonymous rules it scans only non-decreasing
profiles, which contain the first witness of the full scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyClass,
    NegativeWeight,
    SearchSpaceTooLarge,
    UnknownOption,
)

MANIPULATION_MAX_VOTERS = 4
MANIPULATION_MAX_OPTIONS = 4
# profiles per kernel block: the first blocks are small so an early witness
# costs little, later ones double up to a cap that keeps memory flat
_FIRST_BLOCK = 16
_MAX_BLOCK = 256


@dataclass(frozen=True)
class ApprovalBallot:
    voter: str
    approved: frozenset[str]


@dataclass(frozen=True)
class ApprovalResult:
    winners: frozenset[str]
    counts: Mapping[str, int]
    tied: bool


def approval_winners(ballots: Sequence[ApprovalBallot], options: Sequence[str]) -> ApprovalResult:
    """Options with maximal approval count; ties returned, never broken."""
    if not options:
        raise ValueError("option universe is empty")
    universe = set(options)
    counts = {o: 0 for o in options}
    for ballot in ballots:
        for o in ballot.approved:
            if o not in universe:
                raise UnknownOption(f"ballot from {ballot.voter!r} approves unknown option {o!r}")
            counts[o] += 1
    top = max(counts.values())
    winners = frozenset(o for o, c in counts.items() if c == top)
    return ApprovalResult(winners=winners, counts=counts, tied=len(winners) > 1)


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Per-principal, per-option utilities; total and finite."""

    principals: tuple[str, ...]
    options: tuple[str, ...]
    values: Mapping[str, Mapping[str, float]]  # principal -> option -> utility

    def __post_init__(self) -> None:
        if len(set(self.principals)) != len(self.principals):
            raise ValueError("duplicate principal ids")
        if len(set(self.options)) != len(self.options):
            raise ValueError("duplicate option ids")
        for p in self.principals:
            if p not in self.values:
                raise ValueError(f"missing utilities for principal {p!r}")
            for o in self.options:
                if o not in self.values[p]:
                    raise ValueError(f"missing utility for ({p!r}, {o!r})")
                v = self.values[p][o]
                if v != v or v in (float("inf"), float("-inf")):
                    raise ValueError(f"utility for ({p!r}, {o!r}) is not finite")

    def vector(self, option: str) -> tuple[float, ...]:
        return tuple(self.values[p][option] for p in self.principals)


def pareto_front(matrix: UtilityMatrix) -> frozenset[str]:
    """Options not dominated in every principal's utility simultaneously.

    o is dominated iff some o' is at least as good for every principal and
    strictly better for one; equal utility vectors never dominate each
    other, so duplicates survive together.
    """
    if not matrix.options:
        raise ValueError("need at least one option")
    survivors = []
    for o in matrix.options:
        vec = matrix.vector(o)
        dominated = False
        for other in matrix.options:
            if other == o:
                continue
            ovec = matrix.vector(other)
            if all(x >= y for x, y in zip(ovec, vec)) and any(x > y for x, y in zip(ovec, vec)):
                dominated = True
                break
        if not dominated:
            survivors.append(o)
    return frozenset(survivors)


@dataclass(frozen=True)
class PriorityClasses:
    """Disjoint principal classes, highest priority first."""

    classes: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for i, cls in enumerate(self.classes):
            if not cls:
                raise EmptyClass(f"priority class {i} is empty")
            for p in cls:
                if p in seen:
                    raise ValueError(f"principal {p!r} appears in more than one class")
                seen.add(p)


@dataclass(frozen=True)
class LexicographicChoice:
    option: str
    tie_break_applied: bool
    tied_options: tuple[str, ...]


def lexicographic_select(
    matrix: UtilityMatrix, classes: PriorityClasses, class_score: str = "sum"
) -> LexicographicChoice:
    """Maximize class scores in priority order; flag any final index tie-break.

    ``class_score`` is "sum" or "min" over the class members' utilities.
    The argmax is invariant to a positive affine rescaling applied
    uniformly within one class, since such maps are monotone on scores.
    """
    if class_score not in ("sum", "min"):
        raise ValueError("class_score must be 'sum' or 'min'")
    covered = {p for cls in classes.classes for p in cls}
    if covered != set(matrix.principals):
        raise ValueError("priority classes must cover exactly the matrix principals")

    def score(cls: tuple[str, ...], option: str) -> float:
        utilities = [matrix.values[p][option] for p in cls]
        return sum(utilities) if class_score == "sum" else min(utilities)

    surviving = list(matrix.options)
    for cls in classes.classes:
        scores = [score(cls, o) for o in surviving]
        best = max(scores)
        surviving = [o for o, sc in zip(surviving, scores) if sc == best]
        if len(surviving) == 1:
            break
    tied = len(surviving) > 1
    # final ties resolved by lowest option index, and flagged
    chosen = min(surviving, key=matrix.options.index)
    return LexicographicChoice(
        option=chosen,
        tie_break_applied=tied,
        tied_options=tuple(surviving),
    )


# --- manipulation search ----------------------------------------------------


@dataclass(frozen=True)
class VotingRule:
    kind: str  # "borda" | "plurality" | "dictator"
    dictator_voter: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("borda", "plurality", "dictator"):
            raise ValueError(f"unknown rule {self.kind!r}")


def _scoring_tables(
    kind: str, n_options: int
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray, np.ndarray]:
    """(ballots, position, points): every ballot in ``itertools.permutations``
    order, with the two tables that score a profile under rule ``kind``.

    ``position[b, o]`` is the place of option ``o`` on ballot ``b`` and
    ``points[b, o]`` the score the rule gives it: ``n - 1 - position``
    for Borda, one point for the top place under plurality and dictator.
    """
    ballots = tuple(itertools.permutations(range(n_options)))
    places = [[ballot.index(option) for option in range(n_options)] for ballot in ballots]
    position = np.array(places, np.intp)
    points = n_options - 1 - position if kind == "borda" else (position == 0) * 1
    return ballots, position, points


def _scorers(rule: VotingRule, n_voters: int) -> tuple[int, ...]:
    """Voters whose ballots the rule counts."""
    return (rule.dictator_voter,) if rule.kind == "dictator" else tuple(range(n_voters))


def _winner(rule: VotingRule, profile: tuple[tuple[int, ...], ...], n_options: int) -> int:
    """Single winner; score ties break to the lowest option index."""
    ballots, _, points = _scoring_tables(rule.kind, n_options)
    rows = [ballots.index(profile[voter]) for voter in _scorers(rule, len(profile))]
    return int(points[rows].sum(axis=0).argmax())


@dataclass(frozen=True)
class ManipulationInstance:
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
    sum of its counted ballots' ``points`` rows, and each voter's every
    misreport is scored at once by swapping that voter's row for every
    ballot's. ``argmax`` takes the first maximum, which is the
    lowest-index tie-break of ``_winner``. Only counted voters can change
    the winner, so under the dictator rule only the dictator is tried.
    Borda and plurality are anonymous: a permutation of a manipulable
    profile is manipulable too, and the sorted permutation comes first in
    lexicographic order, so the first manipulable profile is
    non-decreasing and only those are scanned. The dictator rule is not
    anonymous and scans every profile.
    """
    if n_voters < 1 or n_options < 1:
        raise ValueError("need at least one voter and one option")
    if n_voters > MANIPULATION_MAX_VOTERS or n_options > MANIPULATION_MAX_OPTIONS:
        raise SearchSpaceTooLarge(
            f"exhaustive search capped at {MANIPULATION_MAX_VOTERS} voters x "
            f"{MANIPULATION_MAX_OPTIONS} options"
        )
    if rule.kind == "dictator" and not 0 <= rule.dictator_voter < n_voters:
        raise ValueError("dictator voter out of range")

    ballots, position, points = _scoring_tables(rule.kind, n_options)
    scorers = _scorers(rule, n_voters)
    n_ballots = len(ballots)
    flat_position = position.ravel()
    if rule.kind == "dictator":
        profiles = itertools.product(range(n_ballots), repeat=n_voters)
    else:
        profiles = itertools.combinations_with_replacement(range(n_ballots), n_voters)
    size = _FIRST_BLOCK
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(profiles, size))
        block = np.fromiter(chunk, np.intp).reshape(-1, n_voters)  # ballot indices
        if not len(block):
            return None
        total = points[block[:, scorers]].sum(axis=1)  # (profiles, options)
        sincere = total.argmax(axis=1)
        hits = np.zeros((len(block), n_voters, n_ballots), dtype=bool)
        for voter in scorers:
            own = block[:, voter]
            trial = (total - points[own])[:, None, :] + points  # (profiles, ballots, options)
            # position[own, new] < position[own, sincere], read from the flat table
            base = own[:, None] * n_options
            new_place = flat_position[base + trial.argmax(axis=2)]
            hits[:, voter] = new_place < flat_position[base + sincere[:, None]]
        if hits.any():
            p, voter, b = np.unravel_index(hits.argmax(), hits.shape)
            profile = tuple(ballots[i] for i in block[p])
            trial_profile = profile[:voter] + (ballots[b],) + profile[voter + 1 :]
            return ManipulationInstance(
                profile=profile,
                voter=int(voter),
                insincere_ballot=ballots[b],
                sincere_winner=int(sincere[p]),
                manipulated_winner=_winner(rule, trial_profile, n_options),
            )
        size = min(2 * size, _MAX_BLOCK)


# --- impartiality -------------------------------------------------------------


@dataclass(frozen=True)
class ImpartialityVerdict:
    passed: bool
    violations: tuple[tuple[str, float, str], ...]  # (id, weight, reason)


def impartiality_check(
    weights: Mapping[str, float],
    agent: str,
    favored: str | None = None,
    cap: float | None = None,
) -> ImpartialityVerdict:
    """Self-interest must carry zero weight; favoritism only up to any cap.

    Unequal principal weights are permitted by design: the check fails
    only on agent self-weight, or on weights above the declared cap (all
    principals when a cap is given, with ``favored`` merely naming the one
    under scrutiny in the report).
    """
    for key, value in weights.items():
        if value < 0:
            raise NegativeWeight(f"weight for {key!r} is negative")
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
    return ImpartialityVerdict(passed=not violations, violations=tuple(violations))
