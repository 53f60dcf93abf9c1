"""Whole-scenario metamorphic relations: a change to a scenario document
that cannot matter by the README's rules must leave its report as it was.

- A consistent rename of every node id of ``world.macid``, bindings
  included, gives the same machine report once the names are mapped back.
  The digest hashes the document, so it is left out.
- Reversing the key order of every JSON object gives byte-identical
  machine and text reports, digest included.

They run on the shipped scenarios and on those ``bench/gen.py`` writes at
seeds 1-3 (its influence models for the rename), and the rename also on
a two-equilibrium game whose verdict once followed the names.
"""

import copy
import json
import re

import pytest

from fidaudit.audit import emit_report, run_audit
from fidaudit.scenario import parse_scenario
from helpers import run_cli
from test_audit_cli import SCENARIOS, SRC, _bench_generator, raw_scenario


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """[(name, document)]: the shipped scenarios, then the generated ones."""
    docs = [(path.stem, json.loads(path.read_text())) for path in sorted(SCENARIOS.glob("*.json"))]
    gen = _bench_generator()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(SRC.parent)  # the generator reads scenarios/ from the working directory
        for workload in ("influence", "mdp", "manipulation"):
            for seed in (1, 2, 3):
                for entry in gen.generate(workload, seed, tmp_path_factory.mktemp(f"{workload}-{seed}")):
                    with open(entry["file"], encoding="utf-8") as f:
                        docs.append((f"{workload}-{seed}-{entry['name']}", json.load(f)))
    return docs


def _reports(doc) -> tuple[str, str]:
    report = run_audit(parse_scenario(doc))
    return emit_report(report, "machine"), emit_report(report, "text")


def _renamed(doc):
    """``doc`` with every node id renamed, and the new id -> old id map.
    The new ids sort in the reverse of declared order, and all have one
    length, so none is part of another."""
    doc = copy.deepcopy(doc)
    macid = doc["world"]["macid"]
    ids = [node["id"] for node in macid["nodes"]]
    new = {old: f"node{len(ids) - i:03d}" for i, old in enumerate(ids)}
    for node in macid["nodes"]:
        node["id"] = new[node["id"]]
    macid["edges"] = {new[nid]: [new[p] for p in parents] for nid, parents in macid["edges"].items()}
    for key in ("cpds", "utilities", "profile"):
        if macid.get(key) is not None:
            macid[key] = {new[nid]: table for nid, table in macid[key].items()}
    for norm in doc["context"]["norms"]:
        if norm.get("binding"):
            norm["binding"] = {key: new.get(nid, nid) for key, nid in norm["binding"].items()}
    return doc, {v: k for k, v in new.items()}


def _named_back(value, names):
    """A parsed report with every new node id, in keys and strings, put back."""
    if isinstance(value, dict):
        return {_named_back(k, names): _named_back(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_named_back(v, names) for v in value]
    if isinstance(value, str):
        return re.sub(r"node\d{3}", lambda m: names.get(m.group(), m.group()), value)
    return value


def _without_digest(machine: str) -> dict:
    report = json.loads(machine)
    del report["scenario"]["digest"]
    return report


def test_renaming_every_node_leaves_the_report(scenarios):
    influence = [(name, doc) for name, doc in scenarios if (doc.get("world") or {}).get("macid")]
    assert len(influence) == 2 + 3 * 21
    differ = []
    for name, doc in influence:
        renamed, names = _renamed(doc)
        got = _named_back(_without_digest(_reports(renamed)[0]), names)
        if got != _without_digest(_reports(doc)[0]):
            differ.append(name)
    assert differ == []


def _reversed_keys(value):
    if isinstance(value, dict):
        return {k: _reversed_keys(v) for k, v in reversed(value.items())}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def test_reversing_every_key_order_leaves_the_report_bytes(scenarios):
    assert len(scenarios) == 5 + 3 * 35
    differ = [name for name, doc in scenarios if _reports(_reversed_keys(doc)) != _reports(doc)]
    assert differ == []


def _two_equilibrium_game(c0, c1, d0, d1, d2):
    """``disclosure_demo.json`` with a game of two agents and three binary
    decisions whose equilibrium the names chose when decisions went in
    sorted-id order: with ``d0`` silenced, ``d1`` and ``d2`` each rely on
    the other. Its nodes are declared ``c0, d0, c1, d1, d2, u_a, u_b``."""
    raw = raw_scenario("disclosure_demo.json")
    binary = ["0", "1"]
    edges = {c0: [], d0: [c0], c1: [c0, d0], d1: [c1], d2: [d0, d1], "u_a": [c1, d2], "u_b": [c0, d1, d2]}
    raw["world"]["macid"] = {
        "agents": ["advisory_system", "client"],
        "nodes": [
            {"id": c0, "kind": "chance", "domain": binary},
            {"id": d0, "kind": "decision", "owner": "advisory_system", "domain": binary},
            {"id": c1, "kind": "chance", "domain": binary},
            {"id": d1, "kind": "decision", "owner": "client", "domain": binary},
            {"id": d2, "kind": "decision", "owner": "advisory_system", "domain": binary},
            {"id": "u_a", "kind": "utility", "owner": "advisory_system"},
            {"id": "u_b", "kind": "utility", "owner": "client"},
        ],
        "edges": edges,
        "cpds": {c0: [[0.502, 0.498]], c1: [[0.479, 0.521], [0.651, 0.349], [0.473, 0.527], [0.19, 0.81]]},
        "utilities": {
            "u_a": [-0.392, 0.025, -0.467, -0.436],
            "u_b": [0.753, 0.54, -0.875, 0.542, 0.85, 0.408, 0.385, -0.472],
        },
        # every rule plays the first value
        "profile": {d: [[1.0, 0.0]] * 2 ** len(edges[d]) for d in (d0, d1, d2)},
    }
    raw["context"]["norms"][0]["binding"] = {"report_node": d0, "material_node": c0, "principal_decision": d1}
    return raw


def test_renaming_the_decisions_of_a_game_with_two_equilibria_keeps_its_verdict(tmp_path):
    # with decisions in sorted-id order the second naming failed: the sweeps
    # and the warm start's last decision followed the names
    results = []
    for names in (("c0", "c1", "d0", "d1", "d2"), ("z4", "z3", "y9", "y5", "y1")):
        path = tmp_path / f"{names[0]}.json"
        path.write_text(json.dumps(_two_equilibrium_game(*names)))
        result = run_cli(["check", path])
        verdict = next(line for line in result.stdout.splitlines() if "disclosure:market-state" in line)
        results.append((result.exit_code, verdict.strip()))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1].startswith("- [pass] disclosure:market-state: vacuous")
