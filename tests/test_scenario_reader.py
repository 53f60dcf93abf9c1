"""The scenario reader: one walk decides what both ``validate`` and ``check`` accept."""

import copy
import json
import math
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from fidaudit.audit import run_audit
from fidaudit.cli import main
from fidaudit.errors import SchemaError
from fidaudit.mdp import MAX_ITERS_CAP
from fidaudit.scenario import parse_scenario, validate_scenario

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


def duplicate_option(raw):
    options = raw["aggregation"]["options"]
    options[1] = options[0]


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


def unknown_loyalty_role(raw):
    raw["loyalty"]["tables"]["regulator"] = [0.0, 1.0]


def empty_utilities(raw):
    raw["aggregation"]["utilities"] = {}


@pytest.mark.parametrize(
    "scenario, mutate, path",
    [
        ("disclosure_demo.json", cpd_row_sum_above_one, "world.macid"),
        ("disclosure_demo.json", missing_utility_table, "world.macid"),
        ("trust_portfolio.json", mdp_row_sum_two, "world.mdp"),
        ("trust_portfolio.json", string_in_mdp_reward, "world.mdp.reward"),
        ("disclosure_demo.json", string_cpd_entry, "world.macid.cpds.C[0][0]"),
        ("disclosure_demo.json", duplicate_option, "aggregation.options"),
        ("care_skipped.json", duplicate_option, "aggregation.options"),
        ("trust_portfolio.json", boolean_in_mdp_transition, "world.mdp.transition[0][0][1]"),
        ("trust_portfolio.json", boolean_in_mdp_reward, "world.mdp.reward[0][0]"),
        ("disclosure_demo.json", nan_in_loyalty_table, "loyalty.tables.system_objective[0]"),
        ("disclosure_demo.json", infinity_in_utilities, "aggregation.utilities.clients[1]"),
        ("disclosure_demo.json", huge_integer_weight, "aggregation.weights.clients"),
        ("trust_portfolio.json", partial_behavior, "assessment.methods[1].behavior.l3"),
        ("trust_portfolio.json", partial_policy, "assessment.methods[4].policy.c0"),
        ("trust_portfolio.json", negative_probe_samples, "assessment.methods[4].samples"),
        ("trust_portfolio.json", negative_maxent_iters, "assessment.methods[5].iters"),
        ("engagement_prior_warn.json", huge_preference_iters, "assessment.methods[0].iters"),
        ("trust_portfolio.json", huge_reversal_horizon, "assessment.methods[3].horizon"),
        ("trust_portfolio.json", hyperbolic_world_discount, "world.mdp.discount.kind"),
        ("disclosure_demo.json", unknown_loyalty_role, "loyalty.tables.regulator"),
        ("disclosure_demo.json", empty_utilities, "aggregation.utilities"),
    ],
)
def test_validate_and_check_reject_the_same_documents(tmp_path, scenario, mutate, path):
    raw = raw_scenario(scenario)
    mutate(raw)
    assert_rejected_at(raw, path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    runner = CliRunner()
    validated = runner.invoke(main, ["validate", str(bad)])
    assert validated.exit_code == 2
    assert validated.output.startswith(f"{path}: ")
    checked = runner.invoke(main, ["check", str(bad)])
    assert checked.exit_code == 2
    assert checked.stderr.startswith(f"schema error: {path}: ")


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
    runner = CliRunner()
    validated = runner.invoke(main, ["validate", str(bad)])
    checked = runner.invoke(main, ["check", str(bad)])
    for text in (validated.output, checked.stderr):
        assert "context.roles[0].id: required" in text
        assert text.count("context.roles[0].id") == 1


def test_loyalty_outcomes_must_be_the_aggregation_options():
    raw = raw_scenario("disclosure_demo.json")
    raw["loyalty"]["tables"]["outcomes"] = ["balanced", "aggressive"]
    assert_rejected_at(raw, "loyalty.tables.outcomes")


# --- the CLI never exits 1 on an error ------------------------------------------


@pytest.mark.parametrize("command", ["validate", "check"])
def test_latin1_file_is_a_schema_error(tmp_path, command):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"schema_version": 1, "metadata": {"scenario_id": "café"}}'.encode("latin-1"))
    result = CliRunner().invoke(main, [command, str(bad)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"schema error: {bad}: not valid UTF-8 JSON")


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("fidaudit.cli.run_audit", explode)
    result = CliRunner().invoke(main, ["check", str(SCENARIOS / "disclosure_demo.json")])
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
