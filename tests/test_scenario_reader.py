"""The scenario reader: one walk decides what both ``validate`` and ``check`` accept."""

import copy
import functools
import hashlib
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
import numpy as np

from fidaudit import macid
from fidaudit.audit import emit_report, run_audit
from fidaudit.errors import SchemaError
from fidaudit.loyalty import confidentiality_check, disclosure_check
from fidaudit.mdp import MAX_ITERS_CAP
from fidaudit.scenario import parse_scenario, validate_scenario
from helpers import reference_machine_report, run_cli

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def raw_scenario(name):
    return json.loads((SCENARIOS / name).read_text())


def assert_rejected_at(raw, path):
    problems = validate_scenario(raw)
    assert problems and problems[0][0] == path, problems
    with pytest.raises(SchemaError) as exc:
        parse_scenario(raw)
    assert exc.value.path == path


# --- documents `validate` used to pass and `check` then rejected, crashed on or misread ---


def cpd_row_sum_above_one(raw):
    raw["world"]["macid"]["cpds"]["C"] = [[0.7, 0.7]]


def missing_utility_table(raw):
    del raw["world"]["macid"]["utilities"]["U_b"]


def mdp_row_sum_two(raw):
    raw["world"]["mdp"]["transition"][0][0] = [1, 1, 0, 0, 0]


def string_in_mdp_reward(raw):
    raw["world"]["mdp"]["reward"][0][0] = "high"


def string_cpd_entry(raw):
    raw["world"]["macid"]["cpds"]["C"] = [["half", 0.5]]


def wide_cpd_row(raw):
    raw["world"]["macid"]["cpds"]["C"] = [[0.5, 0.25, 0.25]]


def narrow_profile_row(raw):
    raw["world"]["macid"]["profile"]["R_a"][1] = [1.0]


def duplicate_option(raw):
    options = raw["aggregation"]["options"]
    options[1] = options[0]


def duplicate_loyalty_outcome(raw):
    # without the aggregation's options to match, "x" twice would collapse
    # into one outcome and drop the first x's values
    tables = raw["loyalty"]["tables"]
    del tables["aggregated_principal"]
    tables.update(outcomes=["x", "y", "x"], principal_true=[5.0, 2.0, 1.0])
    for role in ("system_objective", "agent_fiduciary", "agent_nonfiduciary"):
        tables[role] = [1.0, 2.0, 3.0]


def boolean_in_mdp_transition(raw):
    raw["world"]["mdp"]["transition"][0][0][1] = True  # was 1


def boolean_in_mdp_reward(raw):
    raw["world"]["mdp"]["reward"][0][0] = True  # was 1.0


def nan_in_loyalty_table(raw):
    raw["loyalty"]["tables"]["system_objective"][0] = math.nan


def infinity_in_utilities(raw):
    raw["aggregation"]["utilities"]["clients"][1] = math.inf


def huge_integer_weight(raw):
    raw["aggregation"]["weights"]["clients"] = 10**400


def partial_behavior(raw):
    del raw["assessment"]["methods"][1]["behavior"]["l3"]


def partial_policy(raw):
    del raw["assessment"]["methods"][4]["policy"]["c0"]


def unknown_behavior_action(raw):
    raw["assessment"]["methods"][1]["behavior"]["l3"] = "later"


def unknown_policy_action(raw):
    raw["assessment"]["methods"][4]["policy"]["c0"] = 1


def negative_probe_samples(raw):
    raw["assessment"]["methods"][4]["samples"] = -3


def negative_maxent_iters(raw):
    raw["assessment"]["methods"].append(
        {"kind": "maxent_irl", "demos": [[[0, 0], [1, 0]]], "learn_rate": 0.1, "iters": -7}
    )


def huge_preference_iters(raw):
    raw["assessment"]["methods"][0]["iters"] = 100_000_000


def huge_reversal_horizon(raw):
    # read unbounded, this horizon scans 1e8 epochs of the hyperbolic curve
    raw["assessment"]["methods"][3].update(early=[8, 100_000_000], late=[10, 100_000_001], horizon=100_000_000)


def hyperbolic_world_discount(raw):
    # without the probe's own beta, the world discount would have to give it
    raw["world"]["mdp"]["discount"] = {"kind": "hyperbolic", "k": 3.0}
    del raw["assessment"]["methods"][4]["beta"]


def declared_feature_fit(raw):
    """Append a maxent_irl method (methods[5]) with a declared 2-wide feature table."""
    n_rows = len(raw["world"]["mdp"]["states"]) * len(raw["world"]["mdp"]["actions"])
    table = [[1.0, i / n_rows] for i in range(n_rows)]
    method = {"kind": "maxent_irl", "features": {"dim": 2, "table": table}, "demos": [[[0, 0], [1, 1]]],
              "learn_rate": 0.1, "iters": 5}
    raw["assessment"]["methods"].append(method)
    return method


def boolean_in_feature_table(raw):
    declared_feature_fit(raw)["features"]["table"][1][0] = True


def infinite_feature_entry(raw):
    declared_feature_fit(raw)["features"]["table"][2][1] = 1e400  # inf once read back


def narrow_feature_row(raw):
    declared_feature_fit(raw)["features"]["table"][3] = [1.0]


def unequal_feature_rows(raw):
    raw["assessment"]["methods"][0]["feature_rows"][2] = [1.0, 1.0, 0.0]


def demo_state_out_of_range(raw):
    declared_feature_fit(raw)["demos"][0][1] = [len(raw["world"]["mdp"]["states"]), 0]


def zero_width_feature_rows(raw):
    raw["assessment"]["methods"][0]["feature_rows"] = [[], [], []]


def zero_dim_feature_table(raw):
    features = declared_feature_fit(raw)["features"]
    features.update(dim=0, table=[[] for _ in features["table"]])


def unknown_loyalty_role(raw):
    raw["loyalty"]["tables"]["regulator"] = [0.0, 1.0]


def undeclared_principal_role(raw):
    raw["principals"][0]["role"] = "nobody"


def empty_utilities(raw):
    raw["aggregation"]["utilities"] = {}


def short_profile_row(raw):
    raw["world"]["macid"]["profile"]["R_a"][0] = [0.25, 0.25]  # sums to 0.5


def profile_without_receiver(raw):
    del raw["world"]["macid"]["profile"]["B_b"]


def rule_for_chance_node(raw):
    raw["world"]["macid"]["profile"]["C"] = [[0.5, 0.5]]


def check_name_repeated(raw):
    # a refused attestation ahead of the distribution-shift check of its name
    refused = {"name": "shift-review", "kind": "attestation", "attested": False, "note": "not reviewed"}
    raw["care"]["checks"].insert(0, refused)


def check_named_after_a_duty(raw):
    # a refused attestation under the name the care step gives a declared duty's finding
    name = "duty:trusts/prudent-investor-rule"
    raw["care"]["checks"].append({"name": name, "kind": "attestation", "attested": False, "note": "refused"})
    raw["care"]["declared_checks"].append(name)


def check_named_standard(raw):
    raw["care"]["checks"][0]["name"] = "standard"


def attestation_duty_repeated(raw):
    attestations = raw["loyalty"]["attestations"]
    attestations.insert(0, dict(attestations[0], attested=False, note="refused"))


@pytest.mark.parametrize(
    "scenario, mutate, path",
    [
        ("disclosure_demo.json", cpd_row_sum_above_one, "world.macid"),
        ("disclosure_demo.json", missing_utility_table, "world.macid"),
        ("trust_portfolio.json", mdp_row_sum_two, "world.mdp"),
        ("trust_portfolio.json", string_in_mdp_reward, "world.mdp.reward"),
        ("disclosure_demo.json", string_cpd_entry, "world.macid.cpds.C[0][0]"),
        ("disclosure_demo.json", wide_cpd_row, "world.macid.cpds.C[0]"),
        ("disclosure_demo.json", narrow_profile_row, "world.macid.profile.R_a[1]"),
        ("disclosure_demo.json", duplicate_option, "aggregation.options"),
        ("care_skipped.json", duplicate_option, "aggregation.options"),
        ("disclosure_demo.json", duplicate_loyalty_outcome, "loyalty.tables.outcomes"),
        ("trust_portfolio.json", boolean_in_mdp_transition, "world.mdp.transition[0][0][1]"),
        ("trust_portfolio.json", boolean_in_mdp_reward, "world.mdp.reward[0][0]"),
        ("disclosure_demo.json", nan_in_loyalty_table, "loyalty.tables.system_objective[0]"),
        ("disclosure_demo.json", infinity_in_utilities, "aggregation.utilities.clients[1]"),
        ("disclosure_demo.json", huge_integer_weight, "aggregation.weights.clients"),
        ("trust_portfolio.json", partial_behavior, "assessment.methods[1].behavior.l3"),
        ("trust_portfolio.json", partial_policy, "assessment.methods[4].policy.c0"),
        ("trust_portfolio.json", unknown_behavior_action, "assessment.methods[1].behavior.l3"),
        ("trust_portfolio.json", unknown_policy_action, "assessment.methods[4].policy.c0"),
        ("trust_portfolio.json", negative_probe_samples, "assessment.methods[4].samples"),
        ("trust_portfolio.json", negative_maxent_iters, "assessment.methods[5].iters"),
        ("engagement_prior_warn.json", huge_preference_iters, "assessment.methods[0].iters"),
        ("trust_portfolio.json", huge_reversal_horizon, "assessment.methods[3].horizon"),
        ("trust_portfolio.json", hyperbolic_world_discount, "world.mdp.discount.kind"),
        ("trust_portfolio.json", boolean_in_feature_table, "assessment.methods[5].features.table[1][0]"),
        ("trust_portfolio.json", infinite_feature_entry, "assessment.methods[5].features.table[2][1]"),
        ("trust_portfolio.json", narrow_feature_row, "assessment.methods[5].features.table[3]"),
        ("engagement_prior_warn.json", unequal_feature_rows, "assessment.methods[0].feature_rows[2]"),
        ("trust_portfolio.json", demo_state_out_of_range, "assessment.methods[5].demos[0][1]"),
        ("engagement_prior_warn.json", zero_width_feature_rows, "assessment.methods[0].feature_rows"),
        ("trust_portfolio.json", zero_dim_feature_table, "assessment.methods[5].features.dim"),
        ("disclosure_demo.json", unknown_loyalty_role, "loyalty.tables.regulator"),
        ("disclosure_demo.json", undeclared_principal_role, "principals[0].role"),
        ("disclosure_demo.json", empty_utilities, "aggregation.utilities"),
        ("disclosure_demo.json", short_profile_row, "world.macid.profile"),
        ("disclosure_demo.json", profile_without_receiver, "world.macid.profile"),
        ("disclosure_demo.json", rule_for_chance_node, "world.macid.profile"),
        ("trust_portfolio.json", check_name_repeated, "care.checks[1].name"),
        ("trust_portfolio.json", check_named_after_a_duty, "care.checks[2].name"),
        ("trust_portfolio.json", check_named_standard, "care.checks[0].name"),
        ("engagement_prior_warn.json", attestation_duty_repeated, "loyalty.attestations[1].duty"),
    ],
)
def test_validate_and_check_reject_the_same_documents(tmp_path, scenario, mutate, path):
    raw = raw_scenario(scenario)
    mutate(raw)
    assert_rejected_at(raw, path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    validated = run_cli(["validate", str(bad)])
    assert validated.exit_code == 2
    assert validated.output.startswith(f"{path}: ")
    checked = run_cli(["check", str(bad)])
    assert checked.exit_code == 2
    assert checked.stderr.startswith(f"schema error: {path}: ")


def test_validate_and_check_name_a_parent_listed_twice(tmp_path):
    raw = raw_scenario("disclosure_demo.json")
    macid = raw["world"]["macid"]
    macid["edges"]["R_a"] = ["C", "C"]
    macid["profile"]["R_a"] = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]  # the rows of scope (C, C, R_a)
    message = "world.macid: duplicate parent 'C' of 'R_a'"
    assert [f"{path}: {text}" for path, text in validate_scenario(raw)] == [message]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    validated = run_cli(["validate", str(bad)])
    assert validated.exit_code == 2
    assert validated.output == message + "\n"
    checked = run_cli(["check", str(bad)])
    assert checked.exit_code == 2
    assert checked.stderr == f"schema error: {message}\n"


def test_policy_maps_reach_the_kernels_as_action_indices():
    raw = raw_scenario("trust_portfolio.json")
    shipped = parse_scenario(raw)
    # a map in another key order than the states, with both actions used
    raw["assessment"]["methods"][4]["policy"] = {"l3": "wait", "c0": "now", "l2": "wait", "e1": "now", "l1": "wait"}
    mixed = parse_scenario(raw)
    for scenario in (shipped, mixed):
        mdp = scenario.world.mdp
        for index, key in ((1, "behavior"), (4, "policy")):
            got = getattr(scenario.assessment[index], key)
            doc = raw_scenario("trust_portfolio.json") if scenario is shipped else raw
            want = [mdp.actions.index(doc["assessment"]["methods"][index][key][s]) for s in mdp.states]
            assert got.dtype.kind == "i" and got.tolist() == want
    assert mixed.assessment[4].policy.tolist() == [0, 0, 1, 1, 1]


def test_a_policy_map_names_each_unknown_or_missing_id():
    raw = raw_scenario("trust_portfolio.json")
    # l1 missing; an unknown state, an unknown action and a non-string action
    raw["assessment"]["methods"][4]["policy"] = {"c0": "now", "zz": "now", "e1": "later", "l2": 1, "l3": "wait"}
    path = "assessment.methods[4].policy"
    assert validate_scenario(raw) == [
        (f"{path}.zz", "unknown state 'zz'"),
        (f"{path}.e1", "unknown action 'later'"),
        (f"{path}.l2", "unknown action 1"),
        (f"{path}.l1", "required"),
    ]


def test_macid_tables_reach_the_kernels_as_arrays():
    raw = raw_scenario("disclosure_demo.json")
    # rows that tell the parent assignments apart, in declared order
    raw["world"]["macid"]["utilities"]["U_b"] = [1.0, -0.5, 0.25, 2.0]
    raw["world"]["macid"]["profile"]["R_a"] = [[0.75, 0.25], [0.0, 1.0]]
    world = parse_scenario(raw).world
    doc = raw["world"]["macid"]
    model = world.macid
    tables = [(model.cpds, "cpds"), (model.utilities, "utilities"), (world.profile, "profile")]
    assert [sorted(got) for got, _ in tables] == [sorted(doc[key]) for _, key in tables]
    for got, key in tables:
        for nid, rows in doc[key].items():
            scope = model.parents(nid) + ((nid,) if key != "utilities" else ())
            shape = tuple(len(model.node(n).domain) for n in scope)
            assert isinstance(got[nid], np.ndarray) and got[nid].dtype == float and got[nid].shape == shape
            width = shape[-1] if key != "utilities" else 1
            assert got[nid].reshape(-1, width).tolist() == np.reshape(rows, (-1, width)).tolist()
    assert model.cpds["C"].shape == (2,) and model.utilities["U_b"].tolist() == [[1.0, -0.5], [0.25, 2.0]]
    assert world.profile["R_a"].tolist() == [[0.75, 0.25], [0.0, 1.0]]


def test_the_declared_profile_is_checked_once(monkeypatch):
    scenario = parse_scenario(raw_scenario("disclosure_demo.json"))
    model, profile = scenario.world.macid, scenario.world.profile
    assert isinstance(profile, macid._Checked) and profile.model is model
    for rule in profile.values():
        with pytest.raises(ValueError):
            rule[...] = 0.0
    # the audit checks only the CPDs of the silenced models it builds
    checked, check = [], macid._check_table
    monkeypatch.setattr(
        macid, "_check_table", lambda m, nid, table: checked.append(m.node_map[nid].kind) or check(m, nid, table)
    )
    run_audit(scenario)
    assert checked and set(checked) == {macid.NodeKind.CHANCE}
    # a plain mapping is still checked, with the same messages
    for kernel, nodes in ((confidentiality_check, ("R_a", "C")), (disclosure_check, ("R_a", "C", "B_b"))):
        with pytest.raises(ValueError, match="no rule for decision node 'B_b'"):
            kernel(model, {"R_a": profile["R_a"]}, *nodes)
        with pytest.raises(ValueError, match=r"row \('lo',\) for 'R_a' sums to 2.0, not 1"):
            kernel(model, {**profile, "R_a": np.ones((2, 2))}, *nodes)


def test_validating_an_influence_model_costs_its_tables():
    # 20 independent binary nodes, each the only parent of its own client
    # utility node, make the joint 2**23 cells; loading builds only the
    # tables (numpy's buffers are traced too)
    raw = raw_scenario("disclosure_demo.json")
    doc = raw["world"]["macid"]
    for i in range(20):
        doc["nodes"] += [{"id": f"M_{i}", "kind": "chance", "domain": ["0", "1"]},
                         {"id": f"V_{i}", "kind": "utility", "owner": "client"}]
        doc["edges"].update({f"M_{i}": [], f"V_{i}": [f"M_{i}"]})
        doc["cpds"][f"M_{i}"] = [[0.5, 0.5]]
        doc["utilities"][f"V_{i}"] = [0.0, 1.0]
    tracemalloc.start()
    try:
        assert validate_scenario(raw) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- integers, booleans and paths ------------------------------------------------


def test_boolean_schema_version_rejected():
    raw = raw_scenario("disclosure_demo.json")
    raw["schema_version"] = True
    assert_rejected_at(raw, "schema_version")


def test_boolean_rank_rejected():
    raw = raw_scenario("disclosure_demo.json")
    raw["principals"][0]["rank"] = True
    assert_rejected_at(raw, "principals[0].rank")


@pytest.mark.parametrize("seed", ["seven", True, 1.5])
def test_metadata_seed_must_be_an_integer(seed):
    raw = raw_scenario("disclosure_demo.json")
    raw["metadata"]["seed"] = seed
    assert_rejected_at(raw, "metadata.seed")


@pytest.mark.parametrize("null", [False, True], ids=["absent", "null"])
def test_an_absent_or_null_metadata_gives_the_default_id_and_version(null):
    raw = raw_scenario("disclosure_demo.json")
    if null:
        raw["metadata"] = None
    else:
        del raw["metadata"]
    scenario = parse_scenario(raw)
    assert (scenario.scenario_id, scenario.version) == ("unnamed", "0")


@pytest.mark.parametrize("metadata", [[], 0, False, ""], ids=repr)
def test_a_falsy_metadata_that_is_not_an_object_is_a_problem(metadata):
    raw = raw_scenario("disclosure_demo.json")
    raw["metadata"] = metadata
    assert_rejected_at(raw, "metadata")


@pytest.mark.parametrize(
    "scenario, method, key",
    [
        ("trust_portfolio.json", 4, "samples"),
        ("engagement_prior_warn.json", 0, "iters"),
        ("trust_portfolio.json", 3, "horizon"),
    ],
)
def test_counts_lie_between_one_and_the_iteration_cap(scenario, method, key):
    raw = raw_scenario(scenario)
    for count in (1, MAX_ITERS_CAP):
        raw["assessment"]["methods"][method][key] = count
        assert validate_scenario(raw) == []
    for count in (0, MAX_ITERS_CAP + 1):
        raw["assessment"]["methods"][method][key] = count
        assert_rejected_at(raw, f"assessment.methods[{method}].{key}")


def test_schema_error_path_printed_once(tmp_path):
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["roles"] = [{"description": "no id"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    validated = run_cli(["validate", str(bad)])
    checked = run_cli(["check", str(bad)])
    for text in (validated.output, checked.stderr):
        assert "context.roles[0].id: required" in text
        assert text.count("context.roles[0].id") == 1


def test_loyalty_outcomes_must_be_the_aggregation_options():
    raw = raw_scenario("disclosure_demo.json")
    raw["loyalty"]["tables"]["outcomes"] = ["balanced", "aggressive"]
    assert_rejected_at(raw, "loyalty.tables.outcomes")


# --- the scenario digest ------------------------------------------------------------


def digest(raw):
    return parse_scenario(raw).digest


def canonical_sha256(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


def test_digest_of_a_document_without_tables_is_its_canonical_json():
    raw = raw_scenario("disclosure_demo.json")
    assert digest(raw) == "sha256-v2:" + canonical_sha256(raw)


def test_digest_hashes_each_dense_table_as_its_float64_bytes():
    raw = raw_scenario("trust_portfolio.json")
    expected = copy.deepcopy(raw)
    for key in ("transition", "reward"):
        table = np.array(raw["world"]["mdp"][key], dtype="<f8")
        expected["world"]["mdp"][key] = {
            "dtype": "<f8", "shape": list(table.shape), "sha256": hashlib.sha256(table.tobytes()).hexdigest()
        }
    before = copy.deepcopy(raw)
    assert digest(raw) == "sha256-v2:" + canonical_sha256(expected)
    assert raw == before


def _reversed_keys(doc):
    if isinstance(doc, dict):
        return {key: _reversed_keys(doc[key]) for key in reversed(list(doc))}
    if isinstance(doc, list):
        return [_reversed_keys(v) for v in doc]
    return doc


@pytest.mark.parametrize("scenario", ["disclosure_demo.json", "trust_portfolio.json"])
def test_digest_ignores_key_order_and_whitespace(scenario):
    raw = raw_scenario(scenario)
    rewritten = json.loads(json.dumps(_reversed_keys(raw), indent=3))
    assert list(rewritten) != list(raw)
    assert digest(rewritten) == digest(raw)


@pytest.mark.parametrize("key, at", [("transition", (0, 0, 1)), ("reward", (1, 0))])
def test_digest_changes_when_a_table_entry_moves_one_ulp(key, at):
    raw = raw_scenario("trust_portfolio.json")
    moved = copy.deepcopy(raw)
    *row, i = at
    entries = functools.reduce(lambda table, j: table[j], row, moved["world"]["mdp"][key])
    entries[i] = math.nextafter(entries[i], 0.0)
    assert validate_scenario(moved) == []
    assert digest(moved) != digest(raw)


def test_integer_and_float_table_entries_hash_alike():
    raw = raw_scenario("trust_portfolio.json")
    mdp = raw["world"]["mdp"]
    assert mdp["reward"][0][0] == 1.0 and isinstance(mdp["transition"][0][0][1], int)
    retyped = copy.deepcopy(raw)
    retyped["world"]["mdp"]["reward"][0][0] = 1
    retyped["world"]["mdp"]["transition"] = [[[float(p) for p in row] for row in rows] for rows in mdp["transition"]]
    assert digest(retyped) == digest(raw)


def test_only_a_document_without_problems_gets_a_digest(tmp_path):
    for path in sorted(SCENARIOS.glob("*.json")):
        assert run_cli(["validate", str(path)]).exit_code == 0
        report = json.loads(run_cli(["check", str(path), "--format", "machine"]).output)
        assert report["scenario"]["digest"] == digest(raw_scenario(path.name))
        assert report["scenario"]["digest"].startswith("sha256-v2:")
    raw = raw_scenario("trust_portfolio.json")
    string_in_mdp_reward(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli(["validate", str(bad)]).exit_code == 2
    checked = run_cli(["check", str(bad), "--format", "machine"])
    assert checked.exit_code == 2 and checked.stdout == ""


# --- the CLI never exits 1 on an error ------------------------------------------


@pytest.mark.parametrize("command", ["validate", "check"])
def test_latin1_file_is_a_schema_error(tmp_path, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"schema_version": 1, "metadata": {"scenario_id": "café"}}'.encode("latin-1"))
    result = run_cli([command, str(bad)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"schema error: {bad}: not valid UTF-8 JSON")


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("fidaudit.cli.run_audit", explode)
    result = run_cli(["check", str(SCENARIOS / "disclosure_demo.json")])
    assert result.exit_code == 2
    assert result.stderr == "internal error: RuntimeError: boom\n"


# --- seeded mutation of the shipped scenarios -------------------------------------


def _nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _retyped(value, rng):
    """The value as another JSON type (numbers also as numeric strings)."""
    choices = {
        dict: [[], "x", None],
        list: [{}, "x", None],
        str: [7, [value], {}, None],
        bool: ["true", 1, None],
    }.get(type(value), ["x", str(value), [value], None])
    return rng.choice(choices)


# operation -> (which values it may target, how it changes the one it picks;
# None deletes the key)
MUTATIONS = {
    "drop a key": (lambda path, value: isinstance(path[-1], str), None),
    "change a JSON type": (lambda path, value: True, _retyped),
    "string in a numeric table": (
        lambda path, value: isinstance(path[-1], int) and _is_number(value),
        lambda value, rng: "x",
    ),
    "bool for an int": (
        lambda path, value: _is_number(value) and isinstance(value, int),
        lambda value, rng: rng.choice([True, False]),
    ),
    "truncate a list": (
        lambda path, value: isinstance(value, list) and value,
        lambda value, rng: value[: rng.randrange(len(value))],
    ),
    "unknown id": (lambda path, value: isinstance(value, str), lambda value, rng: "ghost"),
    "non-finite number": (
        lambda path, value: _is_number(value),
        lambda value, rng: rng.choice([math.nan, math.inf, -math.inf, 10**400]),
    ),
}


def mutants(per_operation, seed=0):
    rng = random.Random(seed)
    for path in sorted(SCENARIOS.glob("*.json")):
        base = json.loads(path.read_text())
        for name, (targets, change) in MUTATIONS.items():
            for _ in range(per_operation):
                doc = copy.deepcopy(base)
                where = rng.choice([p for p, v in list(_nodes(doc))[1:] if targets(p, v)])
                parent = doc
                for key in where[:-1]:
                    parent = parent[key]
                if change is None:
                    del parent[where[-1]]
                else:
                    parent[where[-1]] = change(parent[where[-1]], rng)
                yield f"{path.stem}: {name} at {where}", doc


def test_mutated_scenarios_end_in_a_schema_error_or_a_clean_report():
    for label, doc in mutants(per_operation=15):
        problems = validate_scenario(doc)
        if problems:
            with pytest.raises(SchemaError) as exc:
                parse_scenario(doc)
            assert exc.value.path == problems[0][0], label
        else:
            report = run_audit(parse_scenario(doc))
            errors = [f for step in report.steps for f in step.findings if f.check == "step-error"]
            assert not errors, (label, errors)
            json.loads(emit_report(report, "machine"), parse_constant=functools.partial(_non_json_number, label))


def test_machine_reports_of_clean_mutants_match_the_standard_encoder():
    # evidence shapes the goldens do not hold: reports of mutated scenarios
    reports = [run_audit(parse_scenario(json.loads(path.read_text()))) for path in sorted(SCENARIOS.glob("*.json"))]
    reports += [
        run_audit(parse_scenario(doc)) for _, doc in mutants(per_operation=15) if not validate_scenario(doc)
    ]
    for report in reports:
        assert emit_report(report, "machine") == reference_machine_report(report), report.scenario_id


def _non_json_number(label, token):
    raise AssertionError(f"{label}: the machine report holds {token}")
