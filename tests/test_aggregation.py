import itertools
import math
from collections import Counter

import pytest

from fidaudit.aggregation import (
    ApprovalBallot,
    ManipulationInstance,
    VotingRule,
    approval_winners,
    find_manipulation,
    impartiality_check,
    lexicographic_select,
    pareto_front,
    _winner,
)


# --- approval_winners -------------------------------------------------------


def test_unanimous_approval():
    ballots = [ApprovalBallot(f"v{i}", frozenset({"A"})) for i in range(3)]
    result = approval_winners(ballots, ["A", "B"])
    assert result.winners == frozenset({"A"})
    assert result.counts == {"A": 3, "B": 0}


def test_tie_returned_as_set():
    ballots = [
        ApprovalBallot("v0", frozenset({"A", "B"})),
        ApprovalBallot("v1", frozenset({"A"})),
        ApprovalBallot("v2", frozenset({"B"})),
    ]
    result = approval_winners(ballots, ["A", "B"])
    assert result.winners == frozenset({"A", "B"})
    assert result.tied


def test_simple_counting():
    ballots = [
        ApprovalBallot("v0", frozenset({"A", "B"})),
        ApprovalBallot("v1", frozenset({"A"})),
        ApprovalBallot("v2", frozenset({"C"})),
    ]
    result = approval_winners(ballots, ["A", "B", "C"])
    assert result.winners == frozenset({"A"})
    assert result.counts == {"A": 2, "B": 1, "C": 1}


def test_unknown_option_rejected():
    with pytest.raises(ValueError, match="ballot from 'v' approves unknown option 'Z'"):
        approval_winners([ApprovalBallot("v", frozenset({"Z"}))], ["A"])


def test_approval_anonymous_and_monotone(rng):
    options = ["A", "B", "C"]
    for _ in range(50):
        ballots = [
            ApprovalBallot(f"v{i}", frozenset(o for o in options if rng.random() < 0.5))
            for i in range(4)
        ]
        base = approval_winners(ballots, options)
        shuffled = list(ballots)
        rng.shuffle(shuffled)
        relabeled = [ApprovalBallot(f"w{i}", b.approved) for i, b in enumerate(shuffled)]
        assert approval_winners(relabeled, options).winners == base.winners
        # monotonicity: adding an approval for a winner keeps it winning
        winner = sorted(base.winners)[0]
        boosted = None
        for i, b in enumerate(ballots):
            if winner not in b.approved:
                boosted = ballots[:i] + [ApprovalBallot(b.voter, b.approved | {winner})] + ballots[i + 1 :]
                break
        if boosted is not None:
            assert winner in approval_winners(boosted, options).winners


# --- pareto_front --------------------------------------------------------------


def test_front_by_inspection():
    assert pareto_front(["x", "y", "z"], [[1, 2, 0], [2, 1, 0]]) == frozenset({"x", "y"})


def test_single_option_front():
    assert pareto_front(["only"], [[5.0]]) == frozenset({"only"})


def test_equal_vectors_both_survive():
    assert pareto_front(["x", "y"], [[1, 1], [1, 1]]) == frozenset({"x", "y"})


def brute_force_front(options, rows):
    def vector(j):
        return [row[j] for row in rows]

    out = set()
    for j, o in enumerate(options):
        vec = vector(j)
        if not any(
            all(a >= b for a, b in zip(vector(k), vec))
            and any(a > b for a, b in zip(vector(k), vec))
            for k in range(len(options))
            if k != j
        ):
            out.add(o)
    return frozenset(out)


def test_front_matches_quadratic_oracle(rng):
    for _ in range(200):
        options = [f"o{i}" for i in range(8)]
        rows = rng.integers(0, 5, size=(3, 8)).astype(float).tolist()
        assert pareto_front(options, rows) == brute_force_front(options, rows)


@pytest.mark.parametrize("select", [pareto_front, lexicographic_select])
def test_row_checks(select):
    with pytest.raises(ValueError, match="need at least one option"):
        select([], [[]])
    with pytest.raises(ValueError, match="duplicate option ids"):
        select(["x", "x"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"utility row 1 has 1 entries, expected one per option \(2\)"):
        select(["x", "y"], [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="utility of row 0 for option 'y' is not finite"):
        select(["x", "y"], [[1.0, math.nan]])


# --- lexicographic_select ---------------------------------------------------------


def test_priority_dominance():
    choice = lexicographic_select(["X", "Y"], [[3, 1], [0, 9]])
    assert choice.option == "X"
    assert not choice.tie_break_applied


def test_second_class_breaks_first_class_tie():
    choice = lexicographic_select(["X", "Y"], [[2, 2], [1, 5]])
    assert choice.option == "Y"


def test_full_tie_flags_index_break():
    choice = lexicographic_select(["X", "Y"], [[1, 1], [1, 1]])
    assert choice.option == "X"
    assert choice.tie_break_applied
    assert choice.tied_options == ("X", "Y")


def test_affine_rescaling_invariance(rng):
    options = [f"o{i}" for i in range(5)]
    # a positive affine rescaling and two other strictly increasing maps
    transforms = [lambda v: 2.5 * v - 1.0, lambda v: v**3, math.exp]
    for _ in range(30):
        # integer draws, so that rows tie and later rows decide
        rows = rng.integers(-2, 3, size=(3, 5)).astype(float).tolist()
        base = lexicographic_select(options, rows)
        for i in range(3):
            for transform in transforms:
                moved = [[transform(v) for v in row] if k == i else row for k, row in enumerate(rows)]
                assert lexicographic_select(options, moved) == base


# --- find_manipulation --------------------------------------------------------------


def test_dictator_never_manipulable():
    for n_voters, n_options in [(2, 2), (3, 3), (2, 3), (3, 2), (4, 2), (2, 4)]:
        for dictator in range(n_voters):
            rule = VotingRule("dictator", dictator_voter=dictator)
            assert find_manipulation(rule, n_voters, n_options) is None


def test_borda_three_by_three_manipulable():
    instance = find_manipulation(VotingRule("borda"), 3, 3)
    assert instance is not None
    # verify the witness end to end
    sincere_winner = _winner(VotingRule("borda"), instance.profile, 3)
    assert sincere_winner == instance.sincere_winner
    trial = (
        instance.profile[: instance.voter]
        + (instance.insincere_ballot,)
        + instance.profile[instance.voter + 1 :]
    )
    new_winner = _winner(VotingRule("borda"), trial, 3)
    assert new_winner == instance.manipulated_winner
    sincere_rank = {o: i for i, o in enumerate(instance.profile[instance.voter])}
    assert sincere_rank[new_winner] < sincere_rank[sincere_winner]


def _reference_winner(rule, profile, n_options):
    # reference: the scalar scoring loop, ties to the lowest option index
    if rule.kind == "dictator":
        return profile[rule.dictator_voter][0]
    scores = [0] * n_options
    for ballot in profile:
        if rule.kind == "borda":
            for position, option in enumerate(ballot):
                scores[option] += n_options - 1 - position
        else:
            scores[ballot[0]] += 1
    return scores.index(max(scores))


def _reference_manipulation(rule, n_voters, n_options, sorted_profiles=False):
    # reference: every (profile, voter, ballot) in order, each voter trying
    # every ballot; profiles from the full product, or only the sorted ones
    ballots = list(itertools.permutations(range(n_options)))
    if sorted_profiles:
        profiles = itertools.combinations_with_replacement(ballots, n_voters)
    else:
        profiles = itertools.product(ballots, repeat=n_voters)
    for profile in profiles:
        sincere_winner = _reference_winner(rule, profile, n_options)
        for voter in range(n_voters):
            rank = {option: position for position, option in enumerate(profile[voter])}
            for insincere in ballots:
                trial = profile[:voter] + (insincere,) + profile[voter + 1 :]
                new_winner = _reference_winner(rule, trial, n_options)
                if rank[new_winner] < rank[sincere_winner]:
                    return ManipulationInstance(profile, voter, insincere, sincere_winner, new_winner)
    return None


def _count_profiles(monkeypatch):
    # profiles drawn from each itertools enumeration the search may use
    drawn = Counter()

    def counting(name):
        original = getattr(itertools, name)

        def enumerate_and_count(*args, **kwargs):
            for item in original(*args, **kwargs):
                drawn[name] += 1
                yield item

        return enumerate_and_count

    for name in ("product", "combinations_with_replacement"):
        monkeypatch.setattr(itertools, name, counting(name))
    return drawn


def test_manipulation_search_matches_the_scalar_reference(monkeypatch):
    # every anonymous size up to the cap; the dictator cases stop short of
    # 3x4, where the reference alone takes about half a second per dictator
    every = [(v, o) for v in range(1, 5) for o in range(1, 5)]
    cases = [(VotingRule(kind), v, o) for kind in ("borda", "plurality") for v, o in every]
    cases += [(VotingRule("dictator", d), v, o) for v, o in every if v < 3 or o < 4 for d in range(v)]
    expected = [_reference_manipulation(*case) for case in cases]
    drawn = _count_profiles(monkeypatch)
    for (rule, n_voters, n_options), want in zip(cases, expected):
        drawn.clear()
        assert find_manipulation(rule, n_voters, n_options) == want, (rule, n_voters, n_options)
        if rule.kind == "dictator":
            # the clean scan draws the dictator's ballots alone
            n_ballots = len(list(itertools.permutations(range(n_options))))
            assert drawn == {"product": n_ballots}
    assert sum(want is not None for want in expected) > 0


def test_dictator_scans_only_the_dictators_ballots(monkeypatch):
    drawn = _count_profiles(monkeypatch)
    for n_voters in range(1, 5):
        for n_options in range(1, 5):
            n_ballots = len(list(itertools.permutations(range(n_options))))
            for dictator in range(n_voters):
                drawn.clear()
                assert find_manipulation(VotingRule("dictator", dictator), n_voters, n_options) is None
                assert drawn == {"product": n_ballots}, (dictator, n_voters, n_options)


def test_one_trial_per_score_row_finds_the_all_ballots_witness():
    for kind in ("borda", "plurality"):
        for n_voters in range(1, 5):
            for n_options in range(1, 5):
                # the search tries one ballot per score row; the reference every ballot
                want = _reference_manipulation(VotingRule(kind), n_voters, n_options, sorted_profiles=True)
                assert find_manipulation(VotingRule(kind), n_voters, n_options) == want, (kind, n_voters, n_options)


def test_anonymous_witnesses_are_sorted_profiles():
    for kind in ("borda", "plurality"):
        for n_voters in range(1, 5):
            for n_options in range(1, 5):
                instance = find_manipulation(VotingRule(kind), n_voters, n_options)
                if instance is None:
                    continue
                ballots = list(itertools.permutations(range(n_options)))
                ranks = [ballots.index(ballot) for ballot in instance.profile]
                assert ranks == sorted(ranks), (kind, n_voters, n_options)
    assert find_manipulation(VotingRule("dictator", 3), 4, 4) is None


def test_two_option_plurality_strategy_proof():
    assert find_manipulation(VotingRule("plurality"), 3, 2) is None
    assert find_manipulation(VotingRule("plurality"), 4, 2) is None


def test_search_bounds_enforced():
    with pytest.raises(ValueError, match="exhaustive search capped at 4 voters x 4 options"):
        find_manipulation(VotingRule("borda"), 5, 3)
    with pytest.raises(ValueError, match="exhaustive search capped at 4 voters x 4 options"):
        find_manipulation(VotingRule("borda"), 3, 5)


# --- impartiality_check ---------------------------------------------------------------


def test_zero_agent_weight_passes():
    verdict = impartiality_check({"p1": 0.5, "p2": 0.5, "agent": 0.0}, agent="agent")
    assert verdict.passed


def test_unequal_weights_permitted():
    verdict = impartiality_check({"p1": 0.9, "p2": 0.1, "agent": 0.0}, agent="agent")
    assert verdict.passed


def test_agent_self_interest_fails():
    verdict = impartiality_check({"p1": 0.5, "agent": 0.5}, agent="agent")
    assert not verdict.passed
    assert verdict.violations[0][0] == "agent"


def test_favoritism_cap():
    verdict = impartiality_check(
        {"p1": 0.9, "p2": 0.1, "agent": 0.0}, agent="agent", favored="p1", cap=0.8
    )
    assert not verdict.passed
    assert verdict.violations[0][0] == "p1"


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="weight for 'p1' is negative"):
        impartiality_check({"p1": -0.1, "agent": 0.0}, agent="agent")
    with pytest.raises(ValueError, match="weight for 'x' is negative or NaN: nan"):
        impartiality_check({"x": math.nan}, agent="x")
