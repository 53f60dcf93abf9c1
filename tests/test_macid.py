import itertools
import math

import numpy as np
import pytest

from fidaudit import macid
from fidaudit.errors import NoConvergence
from fidaudit.loyalty import materiality_value
from fidaudit.macid import (
    Macid,
    Node,
    NodeKind,
    best_response,
    deterministic_rule,
    enumerate_deterministic_rules,
    expected_utility,
    is_equilibrium,
    joint_distribution,
    marginal,
    mutual_information,
    solve_equilibrium,
    value_of_information,
)

from helpers import (
    coin_model,
    copy_chain_model,
    disclosure_model,
    disclosure_profile,
    guess_model,
    matching_pennies_model,
    relay_chain_model,
    xor_model,
)


# --- joint_distribution -------------------------------------------------


def test_joint_single_coin():
    joint = joint_distribution(coin_model(), {})
    assert joint == {("H",): 0.5, ("T",): 0.5}


def test_joint_deterministic_copy_chain():
    joint = joint_distribution(copy_chain_model(), {})
    assert joint[("0", "0")] == 0.5
    assert joint[("1", "1")] == 0.5
    assert joint[("0", "1")] == 0.0
    assert joint[("1", "0")] == 0.0


def test_joint_disclosure_shape_report_transmits():
    model = disclosure_model()
    profile = disclosure_profile(model)
    # hand enumeration: only (C=0,R=0,B=0) and (C=1,R=1,B=1) carry mass
    pair = marginal(model, profile, ("C", "B_b"))
    assert pair[("0", "0")] == pytest.approx(0.5)
    assert pair[("1", "1")] == pytest.approx(0.5)
    assert pair[("0", "1")] == 0.0
    assert pair[("1", "0")] == 0.0


def test_joint_requires_complete_profile():
    model = disclosure_model()
    profile = disclosure_profile(model)
    del profile["B_b"]
    with pytest.raises(ValueError, match="no rule for decision node 'B_b'"):
        joint_distribution(model, profile)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([0.7, 0.7], r"row \(\) for 'B' sums to 1\.4, not 1"),
        ([[1.0, 0.0]], r"table for 'B' has shape \(1, 2\), expected \(2,\)"),
        ([1.0, 0.0, 0.0], r"table for 'B' has shape \(3,\), expected \(2,\)"),
        ([math.nan, 1.0], r"row \(\) for 'B' has entry nan outside \[0, 1\]"),
        ([1.0 + 1e-12, math.nan], r"row \(\) for 'B' has entry nan outside \[0, 1\]"),
    ],
    ids=["sum", "extra-axis", "wide", "nan", "nan-after-tolerated"],
)
def test_joint_rejects_malformed_rule(bad, message):
    model = guess_model()
    with pytest.raises(ValueError, match=message):
        joint_distribution(model, {"B": np.array(bad)})


QUERIES = {
    "joint_distribution": joint_distribution,
    "marginal": lambda model, profile: marginal(model, profile, ("C", "B_b")),
    "expected_utility": lambda model, profile: expected_utility(model, profile, "bob"),
}


@pytest.mark.parametrize("query", QUERIES.values(), ids=QUERIES)
def test_only_a_profile_checked_for_the_model_skips_the_check(query):
    model = disclosure_model()
    solved = solve_equilibrium(model)
    with pytest.raises(TypeError):
        solved["B_b"] = solved["R_a"]
    with pytest.raises(ValueError):
        solved["B_b"][...] = 0.0
    # an equal plain dict is checked, and answers as the solved profile does
    plain = dict(solved)
    assert repr(query(model, plain)) == repr(query(model, solved))
    with pytest.raises(ValueError, match=r"row \('1',\) for 'R_a' sums to 1\.4, not 1"):
        query(model, {**plain, "R_a": np.array([[1.0, 0.0], [0.7, 0.7]])})
    with pytest.raises(ValueError, match="no rule for decision node 'B_b'"):
        query(model, {"R_a": solved["R_a"]})
    # a model derived from the one it was solved on checks it again
    extended = model.with_edge("C", "B_b")
    for profile in (solved, plain):
        with pytest.raises(ValueError, match=r"table for 'B_b' has shape \(2, 2\), expected \(2, 2, 2\)"):
            query(extended, profile)


def test_joint_sums_to_one_under_stochastic_rules():
    model = disclosure_model()
    profile = {"R_a": np.array([[0.3, 0.7], [0.9, 0.1]]), "B_b": np.array([[0.5, 0.5], [0.2, 0.8]])}
    joint = joint_distribution(model, profile)
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-9)


# --- expected_utility -----------------------------------------------------


def test_eu_constant_utility():
    model = guess_model()
    constant = Macid(
        nodes=model.nodes,
        edges=model.edges,
        cpds=model.cpds,
        utilities={"U": np.full((2, 2), 3.0)},
        agents=model.agents,
    )
    rule = deterministic_rule(constant, "B", 0)
    assert expected_utility(constant, {"B": rule}, "bob") == pytest.approx(3.0)


def test_eu_copy_chain_profile_matches():
    model = disclosure_model()
    assert expected_utility(model, disclosure_profile(model), "bob") == pytest.approx(1.0)


def test_eu_muted_report_halves_payoff():
    # four-outcome enumeration: C in {0,1} x fixed action from the muted report
    model = disclosure_model()
    assert expected_utility(model, disclosure_profile(model, copying=False), "bob") == pytest.approx(0.5)


def test_eu_unknown_agent():
    model = guess_model()
    with pytest.raises(ValueError, match="unknown agent 'eve'"):
        expected_utility(model, {"B": deterministic_rule(model, "B", 0)}, "eve")


# --- solve_equilibrium ----------------------------------------------------


def test_equilibrium_dominant_action():
    model = Macid(
        nodes=(
            Node("D", NodeKind.DECISION, owner="a", domain=("x", "y")),
            Node("U", NodeKind.UTILITY, owner="a"),
        ),
        edges={"D": (), "U": ("D",)},
        cpds={},
        utilities={"U": [0.0, 1.0]},
        agents=("a",),
    )
    profile = solve_equilibrium(model)
    assert profile["D"].tolist() == [0.0, 1.0]


def test_equilibrium_disclosure_reaches_informative_profile():
    model = disclosure_model(aligned=True)
    profile = solve_equilibrium(model)
    assert expected_utility(model, profile, "bob") == pytest.approx(1.0)
    # report covaries with C and the principal matches C
    pair = marginal(model, profile, ("C", "B_b"))
    assert pair[("0", "0")] + pair[("1", "1")] == pytest.approx(1.0)


def test_equilibrium_disclosure_matches_exhaustive_search():
    # oracle: scan all 16 deterministic rule pairs for Nash profiles
    model = disclosure_model(aligned=True)
    best_nash_eu = -math.inf
    for r_rule in enumerate_deterministic_rules(model, "R_a"):
        for b_rule in enumerate_deterministic_rules(model, "B_b"):
            profile = {"R_a": r_rule, "B_b": b_rule}
            if is_equilibrium(model, profile):
                best_nash_eu = max(best_nash_eu, expected_utility(model, profile, "bob"))
    assert best_nash_eu == pytest.approx(1.0)
    solved = solve_equilibrium(model)
    assert is_equilibrium(model, solved)
    assert expected_utility(model, solved, "bob") == pytest.approx(best_nash_eu)


def test_equilibrium_matching_pennies_reports_cycle(monkeypatch):
    model = matching_pennies_model()
    # oracle: no deterministic profile survives the deviation check
    for a_rule in enumerate_deterministic_rules(model, "A"):
        for b_rule in enumerate_deterministic_rules(model, "B"):
            assert not is_equilibrium(model, {"A": a_rule, "B": b_rule})
    monkeypatch.setattr(macid, "MAX_ROUNDS", 20)
    with pytest.raises(NoConvergence) as exc:
        solve_equilibrium(model)
    assert exc.value.period >= 2


def test_best_response_loop_from_a_stochastic_start():
    model = matching_pennies_model()
    half = np.array([0.5, 0.5])
    # the mixed equilibrium is a fixed point: no deterministic rule gains
    fixed = macid._iterate(model, {"A": half, "B": half}, ("A", "B"))
    assert fixed["A"] is half and fixed["B"] is half
    # off it, every best response is a 0/1 rule, so the cycle the sweeps enter holds only those
    start = {"A": np.array([0.7, 0.3]), "B": half}
    for nid in ("A", "B"):
        actions = macid._best_response_detail(model, start, nid)[0]
        assert sorted(deterministic_rule(model, nid, actions).tolist()) == [0.0, 1.0]
    with pytest.raises(NoConvergence, match="period 2") as exc:
        macid._iterate(model, start, ("A", "B"))
    assert exc.value.period == 2


def test_equilibrium_deviation_check_on_random_common_interest_models(rng):
    # all agents share the utility table, so a pure equilibrium exists;
    # sizes range up to 4 decision nodes with up to 3 actions each
    for trial in range(24):
        n_actions = 2 if trial % 2 == 0 else 3
        n_decisions = int(rng.integers(1, 5))
        domain = tuple(str(k) for k in range(n_actions))
        nodes = [Node("c0", NodeKind.CHANCE, domain=("0", "1"))]
        p = float(rng.uniform(0.2, 0.8))
        edges = {"c0": ()}
        cpds = {"c0": [p, 1.0 - p]}
        previous = "c0"
        for i in range(n_decisions):
            did = f"d{i}"
            owner = "a" if i % 2 == 0 else "b"
            nodes.append(Node(did, NodeKind.DECISION, owner=owner, domain=domain))
            # chain observation structure keeps rule spaces small
            edges[did] = (previous,)
            previous = did
        parents = ("c0", previous)
        parent_domains = [("0", "1"), domain if n_decisions else ("0", "1")]
        table = np.array([float(rng.uniform(-1, 1)) for _ in itertools.product(*parent_domains)])
        table = table.reshape([len(d) for d in parent_domains])
        nodes.append(Node("u_a", NodeKind.UTILITY, owner="a"))
        nodes.append(Node("u_b", NodeKind.UTILITY, owner="b"))
        edges["u_a"] = parents
        edges["u_b"] = parents
        model = Macid(
            nodes=tuple(nodes),
            edges=edges,
            cpds=cpds,
            utilities={"u_a": table, "u_b": table.copy()},
            agents=("a", "b"),
        )
        profile = solve_equilibrium(model)
        assert is_equilibrium(model, profile)


def test_equilibrium_is_deterministic():
    model = disclosure_model()
    first = solve_equilibrium(model)
    second = solve_equilibrium(model)
    assert _tables(first) == _tables(second)


# --- best_response ----------------------------------------------------------


def _random_rows(rng, shape, zero_share=0.0):
    """A stochastic table of ``shape`` (parent sizes, then width); with
    probability ``zero_share`` a row is a point mass."""
    width = shape[-1]
    rows = []
    for _ in range(math.prod(shape[:-1])):
        if rng.uniform() < zero_share:
            row = [0.0] * width
            row[int(rng.integers(width))] = 1.0
        else:
            weights = rng.uniform(0.05, 1.0, size=width)
            row = list(weights / weights.sum())
        rows.append([float(x) for x in row])
    return np.array(rows).reshape(shape)


def _random_game(rng):
    """Two chance nodes, three decisions owned by two agents, and one
    utility node per agent; point-mass CPD rows give zero-probability cells.
    Every decision has at most 64 deterministic rules."""
    sizes = {"c0": rng.integers(2, 4), "c1": rng.integers(2, 4), "d0": 2, "d1": rng.integers(2, 4), "d2": 2}
    doms = {nid: tuple(str(k) for k in range(int(n))) for nid, n in sizes.items()}
    edges = {
        "c0": (), "d0": ("c0",), "c1": ("c0", "d0"), "d1": ("c1",), "d2": ("d0", "d1"),
        "u_a": ("c1", "d2"), "u_b": ("c0", "d1", "d2"),
    }
    nodes = [
        Node("c0", NodeKind.CHANCE, domain=doms["c0"]),
        Node("c1", NodeKind.CHANCE, domain=doms["c1"]),
        Node("d0", NodeKind.DECISION, owner="a", domain=doms["d0"]),
        Node("d1", NodeKind.DECISION, owner="b", domain=doms["d1"]),
        Node("d2", NodeKind.DECISION, owner="a", domain=doms["d2"]),
        Node("u_a", NodeKind.UTILITY, owner="a"),
        Node("u_b", NodeKind.UTILITY, owner="b"),
    ]

    def shape(nid):
        return tuple(len(doms[n]) for n in edges[nid]) + ((len(doms[nid]),) if nid in doms else ())

    cpds = {c: _random_rows(rng, shape(c), zero_share=0.3) for c in ("c0", "c1")}
    utilities = {u: rng.uniform(-1, 1, size=shape(u)) for u in ("u_a", "u_b")}
    model = Macid(tuple(nodes), edges, cpds, utilities, agents=("a", "b"))
    profile = {d: _random_rows(rng, shape(d)) for d in ("d0", "d1", "d2")}
    return model, profile


def test_best_response_matches_exhaustive_search_under_stochastic_rules(rng):
    for _ in range(12):
        model, profile = _random_game(rng)
        for nid in model.decision_nodes():
            owner = model.node_map[nid].owner
            rule, value = best_response(model, profile, nid)
            scored = [
                (expected_utility(model, {**profile, nid: r}, owner), r)
                for r in enumerate_deterministic_rules(model, nid)
            ]
            best = max(v for v, _ in scored)
            smallest = next(r for v, r in scored if v >= best - 1e-12)
            assert abs(value - best) <= 1e-12
            assert rule.tolist() == smallest.tolist()


def test_best_response_rejects_an_incomplete_profile_and_a_bad_node():
    model = disclosure_model()
    with pytest.raises(ValueError, match="no rule for decision node 'R_a'"):
        best_response(model, {}, "B_b")
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        best_response(model, disclosure_profile(model), "ghost")
    with pytest.raises(ValueError, match="'C' is not a decision node"):
        best_response(model, disclosure_profile(model), "C")


@pytest.mark.parametrize(
    "call",
    [
        lambda model: list(enumerate_deterministic_rules(model, "ghost")),
        lambda model: deterministic_rule(model, "ghost", 0),
        lambda model: model.with_edge("C", "ghost"),
        lambda model: model.replace_decision_with_constant_chance("ghost", "0"),
        lambda model: materiality_value(model, "ghost", "C", "B_b"),
    ],
    ids=[
        "enumerate_deterministic_rules", "deterministic_rule", "with_edge", "replace_decision_with_constant_chance",
        "materiality_value",
    ],
)
def test_an_unknown_node_id_is_a_value_error(call):
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        call(disclosure_model())


def test_with_edge_keeps_the_structural_and_table_checks():
    # D -> C: C descends from the decision, so showing C to D is a cycle
    model = Macid(
        nodes=(
            Node("D", NodeKind.DECISION, owner="a", domain=("0", "1")),
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("E", NodeKind.CHANCE, domain=("0", "1")),
            Node("U", NodeKind.UTILITY, owner="a"),
        ),
        edges={"D": (), "C": ("D",), "E": (), "U": ("C",)},
        cpds={"C": np.eye(2), "E": [0.5, 0.5]},
        utilities={"U": [0.0, 1.0]},
        agents=("a",),
    )
    with pytest.raises(ValueError, match="edge structure contains a cycle"):
        model.with_edge("C", "D")
    # the tables of a chance or utility child do not gain the new axis
    with pytest.raises(ValueError, match=r"table for 'C' has shape \(2, 2\), expected \(2, 2, 2\)"):
        model.with_edge("E", "C")
    with pytest.raises(ValueError, match=r"table for 'U' has shape \(2,\), expected \(2, 2\)"):
        model.with_edge("E", "U")
    with pytest.raises(ValueError, match="utility node 'U' has children"):
        model.with_edge("U", "D")
    with pytest.raises(ValueError, match="unknown parent 'ghost' of 'D'"):
        model.with_edge("ghost", "D")


# --- value_of_information ---------------------------------------------------


def test_voi_irrelevant_chance_node_is_zero():
    model = guess_model()
    extra = Macid(
        nodes=model.nodes + (Node("N", NodeKind.CHANCE, domain=("0", "1")),),
        edges={**model.edges, "N": ()},
        cpds={**model.cpds, "N": [0.5, 0.5]},
        utilities=model.utilities,
        agents=model.agents,
    )
    assert value_of_information(extra, "B", "N") == pytest.approx(0.0, abs=1e-12)


def test_voi_uniform_binary_secret_is_half():
    # oracle: brute force over rules gives EU 1.0 observed vs 0.5 unobserved
    model = guess_model()
    base_best = max(
        expected_utility(model, {"B": rule}, "bob")
        for rule in enumerate_deterministic_rules(model, "B")
    )
    extended = model.with_edge("C", "B")
    informed_best = max(
        expected_utility(extended, {"B": rule}, "bob")
        for rule in enumerate_deterministic_rules(extended, "B")
    )
    assert informed_best - base_best == pytest.approx(0.5)
    assert value_of_information(model, "B", "C") == pytest.approx(0.5, abs=1e-9)


def test_voi_zero_when_determined_by_observed_parent():
    model = Macid(
        nodes=(
            Node("Z", NodeKind.CHANCE, domain=("0", "1")),
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("D", NodeKind.DECISION, owner="bob", domain=("0", "1")),
            Node("U", NodeKind.UTILITY, owner="bob"),
        ),
        edges={"Z": (), "C": ("Z",), "D": ("Z",), "U": ("C", "D")},
        cpds={"Z": [0.5, 0.5], "C": [[1.0, 0.0], [0.0, 1.0]]},
        utilities={"U": np.eye(2)},
        agents=("bob",),
    )
    assert value_of_information(model, "D", "C") == pytest.approx(0.0, abs=1e-12)


def test_voi_guards():
    model = guess_model()
    observed = model.with_edge("C", "B")
    with pytest.raises(ValueError, match="'C' is already observed by 'B'"):
        value_of_information(observed, "B", "C")
    with pytest.raises(ValueError, match="'C' is not a decision node"):
        value_of_information(model, "C", "B")


def test_voi_nonnegative_on_random_single_decision_models(rng):
    for _ in range(25):
        p0 = float(rng.uniform(0.1, 0.9))
        rows = [_rand_dist(rng), _rand_dist(rng)]
        utable = [[float(rng.uniform(-2, 2)) for d in "01"] for c1 in "01"]
        model = Macid(
            nodes=(
                Node("c0", NodeKind.CHANCE, domain=("0", "1")),
                Node("c1", NodeKind.CHANCE, domain=("0", "1")),
                Node("d", NodeKind.DECISION, owner="a", domain=("0", "1")),
                Node("u", NodeKind.UTILITY, owner="a"),
            ),
            edges={"c0": (), "c1": ("c0",), "d": ("c0",), "u": ("c1", "d")},
            cpds={"c0": [p0, 1.0 - p0], "c1": rows},
            utilities={"u": utable},
            agents=("a",),
        )
        voi = value_of_information(model, "d", "c1")
        assert voi >= -1e-12
        # oracle: exhaustive rule search on both models
        base = max(
            expected_utility(model, {"d": r}, "a")
            for r in enumerate_deterministic_rules(model, "d")
        )
        ext = model.with_edge("c1", "d")
        informed = max(
            expected_utility(ext, {"d": r}, "a")
            for r in enumerate_deterministic_rules(ext, "d")
        )
        assert voi == pytest.approx(informed - base, abs=1e-9)


def _rand_dist(rng):
    p = float(rng.uniform(0.05, 0.95))
    return (p, 1.0 - p)


# --- mutual_information -------------------------------------------------------


def test_mi_independent_uniform_bits():
    joint = {(x, y): 0.25 for x in "01" for y in "01"}
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)


def test_mi_identity_channel_is_one_bit():
    joint = {("0", "0"): 0.5, ("1", "1"): 0.5, ("0", "1"): 0.0, ("1", "0"): 0.0}
    assert mutual_information(joint) == pytest.approx(1.0)


def test_mi_xor_channel_leaks_nothing():
    # enumerate the 8-entry joint over (R, S) from the xor model
    model = xor_model()
    joint = joint_distribution(model, {})
    pair: dict[tuple[str, str], float] = {}
    order = model.outcome_order
    r_i, s_i = order.index("R"), order.index("S")
    for assignment, p in joint.items():
        key = (assignment[r_i], assignment[s_i])
        pair[key] = pair.get(key, 0.0) + p
    assert mutual_information(pair) == pytest.approx(0.0, abs=1e-12)


def test_mi_invalid_distribution():
    with pytest.raises(ValueError, match=r"joint sums to 0\.7, not 1"):
        mutual_information({("0", "0"): 0.7})
    with pytest.raises(ValueError, match="joint has negative entries"):
        mutual_information({("0", "0"): 1.5, ("0", "1"): -0.5})
    with pytest.raises(ValueError, match="joint sums to nan, not 1"):
        mutual_information({("a", "b"): math.nan, ("a", "c"): 1.0})


def test_mi_counts_admitted_negative_cells_as_zero_mass():
    # the marginal of R = 1 would be negative if the -5e-10 cell counted
    joint = {("0", "0"): 1 + 5e-10 - 1e-12, ("1", "0"): -5e-10, ("0", "1"): 5e-13, ("1", "1"): 5e-13}
    assert abs(mutual_information(joint)) < 1e-9


def test_mi_nonnegative_and_zero_iff_factorized(rng):
    for _ in range(200):
        raw = rng.uniform(0.01, 1.0, size=4)
        raw = raw / raw.sum()
        joint = {
            ("0", "0"): float(raw[0]),
            ("0", "1"): float(raw[1]),
            ("1", "0"): float(raw[2]),
            ("1", "1"): float(raw[3]),
        }
        info = mutual_information(joint)
        assert info >= -1e-12
        px0 = raw[0] + raw[1]
        py0 = raw[0] + raw[2]
        factorized = abs(raw[0] - px0 * py0) < 1e-9
        if factorized:
            assert info <= 1e-9
        else:
            assert info > 0.0


# --- model validation ----------------------------------------------------------


def test_model_rejects_cycle():
    with pytest.raises(ValueError, match="edge structure contains a cycle"):
        Macid(
            nodes=(
                Node("A", NodeKind.CHANCE, domain=("0",)),
                Node("B", NodeKind.CHANCE, domain=("0",)),
            ),
            edges={"A": ("B",), "B": ("A",)},
            cpds={"A": [[1.0]], "B": [[1.0]]},
            utilities={},
            agents=(),
        )


def test_model_rejects_a_parent_listed_twice():
    # not a cycle: the parent is named once the repeat is seen
    for edges, message in [
        ({"C": (), "R_a": ("C", "C"), "B_b": ("R_a",), "U_a": ("C", "B_b"), "U_b": ("C", "B_b")}, "'C' of 'R_a'"),
        ({"C": (), "R_a": ("C",), "B_b": ("R_a", "R_a"), "U_a": ("C", "B_b"), "U_b": ("C", "B_b")}, "'R_a' of 'B_b'"),
        ({"C": (), "R_a": ("C",), "B_b": ("R_a",), "U_a": ("C", "B_b", "C"), "U_b": ("C", "B_b")}, "'C' of 'U_a'"),
    ]:
        model = disclosure_model()
        with pytest.raises(ValueError, match=f"^duplicate parent {message}$"):
            Macid(nodes=model.nodes, edges=edges, cpds=model.cpds, utilities=model.utilities, agents=model.agents)


def test_model_rejects_utility_with_children():
    with pytest.raises(ValueError, match=r"utility node 'U' has children \['C'\]"):
        Macid(
            nodes=(
                Node("U", NodeKind.UTILITY, owner="a"),
                Node("C", NodeKind.CHANCE, domain=("0",)),
            ),
            edges={"U": (), "C": ("U",)},
            cpds={"C": [[1.0]]},
            utilities={"U": 1.0},
            agents=("a",),
        )


def test_model_rejects_agent_without_utility():
    with pytest.raises(ValueError, match="agent 'a' owns no utility node"):
        Macid(
            nodes=(Node("D", NodeKind.DECISION, owner="a", domain=("0", "1")),),
            edges={"D": ()},
            cpds={},
            utilities={},
            agents=("a",),
        )


@pytest.mark.parametrize(
    "cpd, message",
    [
        ([0.6, 0.6], r"row \(\) for 'C' sums to 1\.2, not 1"),
        ([[0.5, 0.5]], r"table for 'C' has shape \(1, 2\), expected \(2,\)"),
        ([math.nan, 1.0], r"row \(\) for 'C' has entry nan outside \[0, 1\]"),
        ([1.5, -0.5], r"row \(\) for 'C' has entry 1\.5 outside \[0, 1\]"),
    ],
    ids=["sum", "extra-axis", "nan", "outside"],
)
def test_model_rejects_non_stochastic_cpd(cpd, message):
    with pytest.raises(ValueError, match=message):
        Macid(
            nodes=(Node("C", NodeKind.CHANCE, domain=("0", "1")),),
            edges={"C": ()},
            cpds={"C": cpd},
            utilities={},
            agents=(),
        )


def test_joint_reruns_bit_identical(rng):
    model = disclosure_model()
    profile = disclosure_profile(model)
    assert joint_distribution(model, profile) == joint_distribution(model, profile)


# --- bit-identity with the scalar reference -------------------------------------
#
# The per-cell Python loops below are the reference the array kernel must
# match bit for bit: the same products in outcome order, and every sum a
# left-to-right fold from 0.0 in the joint's cell order. They read each
# table one cell at a time, by the value indices of its scope.


def _cell(table, model, nid, assignment, positions):
    """The entry of ``nid``'s table at the values ``assignment`` gives its scope."""
    scope = model.parents(nid) + ((nid,) if model.node_map[nid].domain else ())
    index = tuple(model.node_map[n].domain.index(assignment[positions[n]]) for n in scope)
    return float(table[index])


def _ref_chain_products(model, profile, skip=None):
    order = model.outcome_order
    positions = {nid: i for i, nid in enumerate(order)}
    domains = [model.node_map[nid].domain for nid in order]
    factors = []
    for nid in order:
        if nid != skip:
            factors.append((nid, model.cpds[nid] if model.node_map[nid].kind is NodeKind.CHANCE else profile[nid]))
    for assignment in itertools.product(*domains):
        p = 1.0
        for nid, table in factors:
            p *= _cell(table, model, nid, assignment, positions)
            if p == 0.0:
                break
        yield assignment, p


def _ref_payoff(model, agent):
    positions = {nid: i for i, nid in enumerate(model.outcome_order)}
    units = model.utility_nodes_of(agent)
    return lambda cell: sum(_cell(model.utilities[u], model, u, cell, positions) for u in units)


def _ref_utility_under(model, joint, agent):
    payoff = _ref_payoff(model, agent)
    total = 0.0
    for assignment, p in joint.items():
        if p != 0.0:
            total += p * payoff(assignment)
    return total


def _ref_marginal(model, joint, node_ids):
    idx = [model.outcome_order.index(nid) for nid in node_ids]
    out = {}
    for assignment, p in joint.items():
        key = tuple(assignment[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def _ref_row_values(model, profile, node_id, agent):
    positions = {nid: i for i, nid in enumerate(model.outcome_order)}
    target = positions[node_id]
    target_parents = tuple(positions[p] for p in model.parents(node_id))
    actions = {v: k for k, v in enumerate(model.node_map[node_id].domain)}
    payoff = _ref_payoff(model, agent)
    w = {pa: [0.0] * len(actions) for pa in model.parent_assignments(node_id)}
    for assignment, q in _ref_chain_products(model, profile, skip=node_id):
        if q != 0.0:
            pa = tuple(assignment[j] for j in target_parents)
            w[pa][actions[assignment[target]]] += q * payoff(assignment)
    return w


def _ref_best_response(model, profile, node_id):
    """(rule array, best value, value of the current rule); the sums run
    over the parent assignments in declared order."""
    w = _ref_row_values(model, profile, node_id, model.node_map[node_id].owner)
    width = len(model.node_map[node_id].domain)
    current = np.reshape(profile[node_id], (len(w), width)).tolist()
    rows, best_value, current_value = [], 0.0, 0.0
    for scores, played in zip(w.values(), current):
        best = max(scores)
        rows.append([1.0 if a == scores.index(best) else 0.0 for a in range(width)])
        best_value += best
        current_value += sum(p * s for p, s in zip(played, scores))
    rule = np.array(rows).reshape(np.shape(profile[node_id]))
    return rule, best_value, current_value


def _ref_warm_start(model, budget=macid._WARM_START_BUDGET):
    decisions = model.decision_nodes()
    n_profiles = math.prod(
        len(model.node_map[nid].domain) ** len(list(model.parent_assignments(nid))) for nid in decisions
    )
    n_outcomes = math.prod(len(model.node_map[nid].domain) for nid in model.outcome_order)
    rule_lists = [list(enumerate_deterministic_rules(model, nid)) for nid in decisions]
    if not decisions or n_profiles * n_outcomes > budget:
        return {nid: rules[0] for nid, rules in zip(decisions, rule_lists)}
    best_profile, best_welfare = None, -math.inf
    for combo in itertools.product(*rule_lists):
        profile = dict(zip(decisions, combo))
        joint = dict(_ref_chain_products(model, profile))
        welfare = sum(_ref_utility_under(model, joint, a) for a in model.agents)
        if welfare > best_welfare + 1e-12:
            best_welfare, best_profile = welfare, profile
    return best_profile


def _ref_solve(model, start):
    """Best-response iteration from the profile ``start``, at most
    ``macid.MAX_ROUNDS`` sweeps; returns the equilibrium's rules as lists
    or ("cycle", message, period), the period None at the round cap."""
    decisions = model.decision_nodes()
    profile = dict(start)
    key = lambda: tuple(tuple(profile[n].ravel().tolist()) for n in decisions)  # noqa: E731
    seen = {key(): 0}
    for sweep in range(1, macid.MAX_ROUNDS + 1):
        changed = False
        for nid in decisions:
            rule, best_value, current_value = _ref_best_response(model, profile, nid)
            if best_value > current_value + 1e-12:
                profile[nid], changed = rule, True
        if not changed:
            return _tables(profile)
        if key() in seen:
            period = sweep - seen[key()]
            return ("cycle", f"best-response iteration cycles with period {period}", period)
        seen[key()] = sweep
    return ("cycle", f"no equilibrium after {macid.MAX_ROUNDS} rounds", None)


_DOMAINS = (("v0", "v1"), ("v10", "v2"), ("v0", "v1", "v2"), ("v2", "v10", "v1"))


def _random_tables(rng, shape):
    """Stochastic rows of a table of ``shape`` (parent sizes, then width):
    point masses, rows with an exact zero, and dense rows."""
    width = shape[-1]
    rows = []
    for _ in range(math.prod(shape[:-1])):
        kind = rng.uniform()
        weights = rng.uniform(0.05, 1.0, size=width)
        if kind < 0.25:
            weights = np.eye(width)[int(rng.integers(width))]
        elif kind < 0.5:
            weights[int(rng.integers(width))] = 0.0
        rows.append([float(x) for x in weights / weights.sum()])
    return np.array(rows).reshape(shape)


def _random_influence_model(rng, max_cells=1500):
    """Up to four chance and decision nodes with up to two parents each in
    shuffled declared order, one or two agents with one or two utility
    nodes each, and a stochastic profile. Redrawn until the warm start's
    profiles times outcomes stay within ``max_cells``."""
    while True:
        agents = ("a", "b") if rng.uniform() < 0.7 else ("a",)
        names = [f"{'cd'[int(rng.integers(2))]}{k}" for k in rng.permutation(9)[: int(rng.integers(0, 5))]]
        doms, edges, nodes = {}, {}, []
        for i, nid in enumerate(names):
            doms[nid] = _DOMAINS[int(rng.integers(len(_DOMAINS)))]
            earlier = list(rng.permutation(names[:i]))
            edges[nid] = tuple(str(p) for p in earlier[: int(rng.integers(0, 3))])
            if nid[0] == "c":
                nodes.append(Node(nid, NodeKind.CHANCE, domain=doms[nid]))
            else:
                nodes.append(Node(nid, NodeKind.DECISION, owner=agents[i % len(agents)], domain=doms[nid]))
        parent_sizes = lambda nid: tuple(len(doms[p]) for p in edges[nid])  # noqa: E731
        utilities = {}
        for j in range(int(rng.integers(1, 3))):
            uid = f"u_a{j}"
            edges[uid] = tuple(str(p) for p in rng.permutation(names)[: int(rng.integers(0, 4))])
            n_cells = math.prod(parent_sizes(uid))
            cells = [float(rng.choice([0.0, -0.0, 1.0, rng.uniform(-2, 2)])) for _ in range(n_cells)]
            utilities[uid] = np.array(cells).reshape(parent_sizes(uid))
            if len(agents) == 2:
                # a zero-sum half of the games makes best-response cycles common
                edges[f"u_b{j}"] = edges[uid] if rng.uniform() < 0.5 else tuple(rng.permutation(names)[:2])
                if edges[f"u_b{j}"] == edges[uid]:
                    utilities[f"u_b{j}"] = -utilities[uid]
                else:
                    cells = [float(rng.uniform(-2, 2)) for _ in range(math.prod(parent_sizes(f"u_b{j}")))]
                    utilities[f"u_b{j}"] = np.array(cells).reshape(parent_sizes(f"u_b{j}"))
        nodes += [Node(uid, NodeKind.UTILITY, owner=uid[2]) for uid in utilities]
        decisions = [n for n in names if n[0] == "d"]
        n_profiles = math.prod(len(doms[d]) ** math.prod(parent_sizes(d)) for d in decisions)
        if n_profiles * math.prod(len(doms[n]) for n in names) > max_cells:
            continue
        cpds = {c: _random_tables(rng, parent_sizes(c) + (len(doms[c]),)) for c in names if c[0] == "c"}
        model = Macid(tuple(nodes), edges, cpds, utilities, agents)
        profile = {d: _random_tables(rng, parent_sizes(d) + (len(doms[d]),)) for d in decisions}
        return model, profile


def _tables(profile):
    """The profile's rules as nested lists: their repr shows every bit of
    every entry, where an array's rounds."""
    return {nid: rule.tolist() for nid, rule in profile.items()}


def _same(new, ref):
    """Equal, key order and zero signs included: repr shows every bit of a float."""
    assert repr(new) == repr(ref)


def _matches_reference(model, profile, monkeypatch):
    """Check the kernel's joint, marginals, expected utilities, best
    responses, warm start and equilibrium search on ``model`` under
    ``profile`` against the scalar reference; True if the search cycled."""
    joint = dict(_ref_chain_products(model, profile))
    _same(list(joint_distribution(model, profile).items()), list(joint.items()))
    order = model.outcome_order
    for ids in (order[-2:], order[-2:][::-1], order[:1], ()):
        _same(list(marginal(model, profile, ids).items()), list(_ref_marginal(model, joint, ids).items()))
    for agent in model.agents:
        _same(expected_utility(model, profile, agent), _ref_utility_under(model, joint, agent))
    for nid in model.decision_nodes():
        rule, value = best_response(model, profile, nid)
        ref_rule, best_value, _current = _ref_best_response(model, profile, nid)
        _same((rule.tolist(), value), (ref_rule.tolist(), best_value))
    # small blocks put block boundaries inside most profile spaces
    with monkeypatch.context() as patch:
        patch.setattr(macid, "_BLOCK_CELLS", 64)
        start = _ref_warm_start(model)
        _same(_tables(macid._welfare_warm_start(model)), _tables(start))
    try:
        solved = _tables(solve_equilibrium(model))
    except NoConvergence as exc:
        solved = ("cycle", str(exc), exc.period)
    _same(solved, _ref_solve(model, start))
    return isinstance(solved, tuple)


def _same_bytes(tables, ref):
    """Two dicts of arrays with the same keys in the same order, and arrays
    of the same dtype, shape and bytes."""
    assert list(tables) == list(ref)
    for key, arr in tables.items():
        assert (arr.dtype, arr.shape, arr.tobytes()) == (ref[key].dtype, ref[key].shape, ref[key].tobytes())


def _derived_models(model, profile, rng, max_cells=1500):
    """(kind, derived model, its profile) for the model restricted to a
    random target (``ancestral``), each decision made a constant
    (``replace_decision_with_constant_chance``) and each decision shown
    one more node where that stays acyclic (``with_edge``, with a random
    rule on the new scope); each also within ``max_cells`` warm-start cells."""
    derived = []
    if model.outcome_order:
        kept = model.ancestral((str(rng.choice(model.outcome_order)),))
        derived.append(("ancestral", kept, {d: profile[d] for d in kept.decision_nodes()}))
    for d in model.decision_nodes():
        value = model.node_map[d].domain[int(rng.integers(len(model.node_map[d].domain)))]
        silenced = model.replace_decision_with_constant_chance(d, value)
        derived.append(("constant", silenced, {n: rule for n, rule in profile.items() if n != d}))
        shown = [n for n in model.outcome_order if n != d and n not in model.parents(d)]
        if shown:
            try:
                extended = model.with_edge(shown[int(rng.integers(len(shown)))], d)
            except ValueError as exc:
                assert str(exc) == "edge structure contains a cycle"
                continue
            scope = tuple(len(extended.node_map[n].domain) for n in (*extended.parents(d), d))
            derived.append(("with_edge", extended, {**profile, d: _random_tables(rng, scope)}))
    return [
        (kind, m, p) for kind, m, p in derived
        if math.prod(len(m.node_map[n].domain) ** len(list(m.parent_assignments(n))) for n in m.decision_nodes())
        * math.prod(m.outcome_shape) <= max_cells
    ]


def test_kernel_matches_scalar_reference_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(6)
    monkeypatch.setattr(macid, "MAX_ROUNDS", 8)
    unsorted = cycles = 0
    kinds = set()
    for _ in range(300):
        model, profile = _random_influence_model(rng)
        # declared out of topological order, so that a derived model can
        # change its outcome order
        order = rng.permutation(len(model.nodes))
        model = Macid(tuple(model.nodes[i] for i in order), model.edges, model.cpds, model.utilities, model.agents)
        unsorted += any(list(n.domain) != sorted(n.domain) for n in model.nodes)
        cycles += _matches_reference(model, profile, monkeypatch)
        for kind, derived, derived_profile in _derived_models(model, profile, rng):
            # the shortcuts of a derived model build what the constructor builds
            built = Macid(derived.nodes, derived.edges, derived.cpds, derived.utilities, derived.agents)
            assert derived.outcome_order == built.outcome_order and derived._plans == built._plans
            _same_bytes(derived.cpd_factors, built.cpd_factors)
            _same_bytes(derived.utility_arrays, built.utility_arrays)
            assert derived._lead[0] == built._lead[0]
            _same_bytes({"lead": derived._lead[1]}, {"lead": built._lead[1]})
            cycles += _matches_reference(derived, derived_profile, monkeypatch)
            kinds.add((kind, derived.outcome_order == model.outcome_order))
    assert unsorted > 0 and cycles > 0
    # both with the parent's outcome order, whose plans and factors are
    # shared, and with a new one
    assert kinds == {(kind, kept) for kind in ("ancestral", "constant", "with_edge") for kept in (True, False)}


# --- warm-start edges ------------------------------------------------------------


def _single_decision_model(payoffs):
    """One parentless decision whose owner is paid ``payoffs[k]`` for action k."""
    domain = tuple(f"x{k}" for k in range(len(payoffs)))
    return Macid(
        nodes=(Node("D", NodeKind.DECISION, owner="a", domain=domain), Node("U", NodeKind.UTILITY, owner="a")),
        edges={"D": (), "U": ("D",)},
        cpds={},
        utilities={"U": payoffs},
        agents=("a",),
    )


def test_warm_start_keeps_the_earlier_profile_within_tolerance():
    # argmax would take the later, higher profile
    start = macid._welfare_warm_start(_single_decision_model([1.0, 1.0 + 5e-13]))
    assert start["D"].tolist() == [1.0, 0.0]
    # a gain counts against the best kept so far, not against the last seen
    start = macid._welfare_warm_start(_single_decision_model([1.0, 1.0 + 6e-13, 1.0 + 1.2e-12]))
    assert start["D"].tolist() == [0.0, 0.0, 1.0]


def test_warm_start_budget_is_inclusive(monkeypatch):
    model = _single_decision_model([0.0, 1.0])  # 2 profiles x 2 outcomes
    monkeypatch.setattr(macid, "_WARM_START_BUDGET", 4)
    assert macid._welfare_warm_start(model)["D"].tolist() == [0.0, 1.0]
    monkeypatch.setattr(macid, "_WARM_START_BUDGET", 3)
    assert macid._welfare_warm_start(model)["D"].tolist() == [1.0, 0.0]


def test_warm_start_across_blocks_matches_reference(monkeypatch):
    # C -> R -> B over three values: the warm start enumerates the 27 rules
    # of R and picks B, the last decision, row by row, over 27 outcomes
    # each; 64-cell blocks hold 2 of those profiles, so the scan crosses
    # block boundaries. Six best profiles tie (R a bijection, B its
    # inverse), and the first in product order must win.
    monkeypatch.setattr(macid, "_BLOCK_CELLS", 64)
    values = ("v2", "v0", "v1")
    model = Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=values),
            Node("R", NodeKind.DECISION, owner="a", domain=values),
            Node("B", NodeKind.DECISION, owner="b", domain=values),
            Node("U_a", NodeKind.UTILITY, owner="a"),
            Node("U_b", NodeKind.UTILITY, owner="b"),
        ),
        edges={"C": (), "R": ("C",), "B": ("R",), "U_a": ("C", "B"), "U_b": ("B", "C")},
        cpds={"C": [0.2, 0.3, 0.5]},
        utilities={
            "U_a": [[float(c == b) for b in values] for c in values],
            "U_b": [[2.0 * (c == b) - 0.5 for c in values] for b in values],
        },
        agents=("a", "b"),
    )
    *outer, last = model.decision_nodes()
    n_outer = math.prod(len(model.node_map[n].domain) ** len(list(model.parent_assignments(n))) for n in outer)
    n_outcomes = math.prod(len(model.node_map[n].domain) for n in model.outcome_order)
    assert (outer, last, n_outer, n_outcomes) == (["R"], "B", 27, 27)
    assert n_outer > 2 * (macid._BLOCK_CELLS // n_outcomes)  # three blocks or more
    _same(_tables(macid._welfare_warm_start(model)), _tables(_ref_warm_start(model)))


def _relay_variants(hops, arity, rng):
    """A relay chain as the disclosure audit solves it: whole, with the
    first link silenced, and silenced with C shown to the client."""
    model = relay_chain_model(hops, arity, rng)
    silenced = model.replace_decision_with_constant_chance("R1", "v0")
    return model, silenced, silenced.with_edge("C", "B_b")


def test_warm_start_on_relay_chains_matches_reference(monkeypatch):
    monkeypatch.setattr(macid, "_BLOCK_CELLS", 64)
    rng = np.random.default_rng(23)
    compared = 0
    for hops, arity in itertools.product((1, 2, 3), (2, 3, 4)):
        for model in _relay_variants(hops, arity, rng):
            decisions = model.decision_nodes()
            n_profiles = math.prod(
                len(model.node_map[d].domain) ** len(list(model.parent_assignments(d))) for d in decisions
            )
            cells = n_profiles * math.prod(len(model.node_map[n].domain) for n in model.outcome_order)
            start = _tables(macid._welfare_warm_start(model))
            if cells > macid._WARM_START_BUDGET:
                # the reference's fallback, without listing its rules
                _same(start, {d: deterministic_rule(model, d, 0).tolist() for d in decisions})
            elif cells <= 60_000:  # beyond this the per-cell reference takes seconds per model
                _same(start, _tables(_ref_warm_start(model)))
                compared += 1
    assert compared == 13


def test_warm_start_enumerates_only_the_other_decisions_rules(monkeypatch):
    # the silenced (2,3) chain: B_b and R2 have 27 rules each, 729 profiles
    model = relay_chain_model(2, 3, np.random.default_rng(1)).replace_decision_with_constant_chance("R1", "v0")
    assert model.decision_nodes() == ("R2", "B_b")
    stacked = {}
    rule = macid.deterministic_rule

    def counting(m, nid, actions):
        if np.ndim(actions) == 2:
            stacked[nid] = stacked.get(nid, 0) + len(actions)
        return rule(m, nid, actions)

    monkeypatch.setattr(macid, "deterministic_rule", counting)
    start = macid._welfare_warm_start(model)
    # R2's rules are enumerated once; B_b, the last decision, is chosen row by row
    assert stacked == {"R2": 27}
    _same(_tables(start), _tables(_ref_warm_start(model)))


def test_warm_start_keeps_the_earlier_outer_profile_within_tolerance():
    # A's rules are enumerated and B's, the last decision's, chosen row by
    # row; only A is paid for
    for gain, played in ((5e-13, [1.0, 0.0]), (1.2e-12, [0.0, 1.0])):
        model = Macid(
            nodes=(
                Node("A", NodeKind.DECISION, owner="a", domain=("x0", "x1")),
                Node("B", NodeKind.DECISION, owner="a", domain=("x0", "x1")),
                Node("U", NodeKind.UTILITY, owner="a"),
            ),
            edges={"A": (), "B": (), "U": ("A",)},
            cpds={},
            utilities={"U": [1.0, 1.0 + gain]},
            agents=("a",),
        )
        start = _tables(macid._welfare_warm_start(model))
        assert start == {"A": played, "B": [1.0, 0.0]}
        _same(start, _tables(_ref_warm_start(model)))


def test_warm_start_margin_applies_per_row():
    # in each row x1 pays 1.2e-12 more: 0.6e-12 of welfare per row, under
    # the margin, and 1.2e-12 over both rows, above it
    model = Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=("0", "1")),
            Node("D", NodeKind.DECISION, owner="a", domain=("x0", "x1")),
            Node("U", NodeKind.UTILITY, owner="a"),
        ),
        edges={"C": (), "D": ("C",), "U": ("C", "D")},
        cpds={"C": [0.5, 0.5]},
        utilities={"U": [[2.0, 2.0 + 1.2e-12], [2.0, 2.0 + 1.2e-12]]},
        agents=("a",),
    )
    assert _tables(macid._welfare_warm_start(model)) == {"D": [[1.0, 0.0], [1.0, 0.0]]}
    # whole profiles under one margin would take x1 in both rows
    assert _tables(_ref_warm_start(model)) == {"D": [[0.0, 1.0], [0.0, 1.0]]}


def test_rules_follow_the_declared_parent_assignments():
    # Every domain is declared as ("v2", "v10"), the reverse of its sorted
    # order. R reports C and B guesses C from R; both are paid for a right
    # guess, so the truthful profile and the swapped one tie on welfare.
    domain = ("v2", "v10")
    model = Macid(
        nodes=(
            Node("C", NodeKind.CHANCE, domain=domain),
            Node("R", NodeKind.DECISION, owner="a", domain=domain),
            Node("B", NodeKind.DECISION, owner="b", domain=domain),
            Node("U_a", NodeKind.UTILITY, owner="a"),
            Node("U_b", NodeKind.UTILITY, owner="b"),
        ),
        edges={"C": (), "R": ("C",), "B": ("R",), "U_a": ("C", "B"), "U_b": ("C", "B")},
        cpds={"C": [0.5, 0.5]},
        utilities={"U_a": np.eye(2), "U_b": np.eye(2)},
        agents=("a", "b"),
    )
    # the last declared row changes fastest
    rules = [rule.tolist() for rule in enumerate_deterministic_rules(model, "R")]
    assert rules == [
        [[1.0, 0.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, 1.0], [0.0, 1.0]],
    ]
    assert deterministic_rule(model, "R", [1, 0]).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert deterministic_rule(model, "R", 1).tolist() == [[0.0, 1.0], [0.0, 1.0]]
    # the tie goes to the lowest declared indices: truthful, not swapped
    solved = solve_equilibrium(model)
    assert _tables(solved) == {"B": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0, 0.0], [0.0, 1.0]]}
    assert expected_utility(model, solved, "b") == 1.0


def test_cpd_and_utility_arrays_are_built_once_per_model(monkeypatch):
    placed, checked = [], []
    place, check = macid._place, macid._check_table
    monkeypatch.setattr(macid, "_place", lambda m, nid, local: placed.append((nid, local)) or place(m, nid, local))
    monkeypatch.setattr(macid, "_check_table", lambda m, nid, table: checked.append((nid, table)) or check(m, nid, table))
    model = disclosure_model()
    # construction places the CPDs alone; each agent's utility array and the
    # leading chance product are built on first use, once
    assert sorted(nid for nid, _ in placed) == sorted(model.cpds)
    placed.clear()
    tables = (model.cpds, model.utilities, model.cpd_factors, model.utility_arrays)
    lead = model._lead
    assert sorted(nid for nid, _ in placed) == sorted(model.utilities)
    assert model.utility_arrays is tables[-1] and model._lead is lead
    for arr in (*(arr for table in tables for arr in table.values()), lead[1]):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    assert model.cpds["C"].shape == (2,) and model.utilities["U_b"].shape == (2, 2)
    placed.clear()
    checked.clear()

    profile = solve_equilibrium(model)
    for agent in model.agents:
        expected_utility(model, profile, agent)
    # only the decision rules are placed on the outcome axes during the queries
    assert placed and {nid for nid, _ in placed} <= set(model.decision_nodes())
    placed.clear()
    checked.clear()

    # a derived model that keeps the outcome order shares the parent's
    # tables, plans and placed factors, and places and checks only the
    # table it adds
    extended = model.with_edge("C", "B_b")
    assert extended.outcome_order == model.outcome_order
    assert (placed, checked) == ([], [])
    assert extended.cpds is model.cpds and extended.utilities is model.utilities
    assert extended.cpd_factors == model.cpd_factors and extended.utility_arrays is model.utility_arrays
    assert extended._lead[1] is model._lead[1]
    assert extended._plans["C"] is model._plans["C"] and extended._plans["B_b"] != model._plans["B_b"]
    silenced = model.replace_decision_with_constant_chance("R_a", "1")
    assert silenced.outcome_order == model.outcome_order
    point_mass = silenced.cpds["R_a"]
    assert point_mass.tolist() == [0.0, 1.0] and not point_mass.flags.writeable
    assert [(nid, table is point_mass) for nid, table in placed + checked] == [("R_a", True), ("R_a", True)]
    assert silenced.cpds["C"] is model.cpds["C"] and silenced.cpd_factors["C"] is model.cpd_factors["C"]
    assert silenced.utility_arrays is model.utility_arrays
    placed.clear()
    checked.clear()
    # its leading product goes on from the parent's, through the new CPD
    assert (model._lead[0], silenced._lead[0]) == (1, 2) and placed + checked == []

    # one that drops nodes places its CPDs again, its utility tables on
    # first use, once, and checks none
    wide = Macid(
        nodes=model.nodes + (Node("X", NodeKind.CHANCE, domain=("0", "1")),),
        edges={**model.edges, "X": ("C",)},
        cpds={**model.cpds, "X": [[0.5, 0.5], [0.25, 0.75]]},
        utilities=model.utilities,
        agents=model.agents,
    )
    placed.clear()
    checked.clear()
    kept = wide.ancestral(("B_b",))
    assert kept.outcome_order == model.outcome_order and checked == []
    assert sorted(nid for nid, _ in placed) == sorted(model.cpds)
    assert all(kept.cpds[nid] is wide.cpds[nid] for nid in kept.cpds)
    placed.clear()
    assert kept.utility_arrays is kept.utility_arrays
    assert sorted(nid for nid, _ in placed) == sorted(model.utilities)
