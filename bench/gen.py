"""Seeded scenario generators for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes every scenario of one workload
as a JSON file under ``out_dir`` and returns the manifest: one entry per
scenario with its file, its family and the reference its report is checked
against (see ``check.py``). The same seed gives the same files. The
program under test only ever sees the written files.

Generated scenarios reuse the sections of a shipped scenario and replace
the world model and the section that the family exercises, so the context,
identification, aggregation, loyalty and care steps do the same small
amount of work on every workload.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("corpus", "influence", "mdp", "manipulation")

CORPUS = (
    "care_skipped",
    "disclosure_demo",
    "disclosure_demo_muted",
    "engagement_prior_warn",
    "trust_portfolio",
)

# Sizes per family; TINY holds the self-test's smallest instance of each.
FULL = {
    "wide_disclosure_k": (1, 3, 5, 7),
    # (hops, arity, muted). Without a muted (2, 3) chain the workload holds
    # 21 scenarios. An odd count puts the median audit inside one scenario's
    # times rather than between two scenarios of different cost, where noise
    # moves it most.
    "chains": ((2, 2, False), (2, 2, True), (3, 2, False), (3, 2, True), (1, 4, False), (1, 4, True),
               (2, 3, False)),
    "wide_confidentiality_k": (6, 9, 12),
    # (states, beta). beta = 0.999 makes value-iteration sweeps dominate and
    # large S makes max-entropy IRL and parsing dominate; (50, 0.999) and
    # (100, 0.999) are left out so that a run holds at least 100 audits.
    "mdp_cases": ((20, 0.9), (20, 0.99), (20, 0.999), (50, 0.9), (50, 0.99), (100, 0.9), (100, 0.99)),
    # (rule, voters, options); the first three scan the whole profile space,
    # the rest stop at their first witness.
    "probes": (
        ("dictator", 3, 4),
        ("dictator", 4, 3),
        ("plurality", 4, 2),
        ("plurality", 4, 4),
        ("plurality", 3, 4),
        ("borda", 4, 4),
        ("borda", 3, 4),
    ),
}
TINY = {
    "wide_disclosure_k": (1,),
    "chains": ((1, 2, False), (1, 2, True)),
    "wide_confidentiality_k": (2,),
    "mdp_cases": ((5, 0.9),),
    "probes": (("dictator", 2, 3), ("plurality", 2, 2), ("borda", 3, 3)),
}


def _shipped(name: str) -> dict:
    return json.loads(Path("scenarios", f"{name}.json").read_text("utf-8"))


def _prob(rng: random.Random) -> list[float]:
    p = rng.uniform(0.1, 0.9)
    return [p, 1.0 - p]


def _dist(rng: random.Random, n: int) -> list[float]:
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def _onehot(n: int, k: int) -> list[float]:
    return [1.0 if i == k else 0.0 for i in range(n)]


def _identity_utility(n: int) -> list[float]:
    return [1.0 if c == b else 0.0 for c, b in itertools.product(range(n), repeat=2)]


# --- influence ---------------------------------------------------------------


def wide_disclosure(k: int, muted: bool, rng: random.Random) -> dict:
    """disclosure_demo(_muted) plus k independent binary chance nodes."""
    base = "disclosure_demo_muted" if muted else "disclosure_demo"
    doc = _shipped(base)
    doc["metadata"]["scenario_id"] = f"wide-disclosure-k{k}-{'muted' if muted else 'copying'}"
    world = doc["world"]["macid"]
    for i in range(1, k + 1):
        nid = f"X{i}"
        world["nodes"].append({"id": nid, "kind": "chance", "domain": ["0", "1"]})
        world["edges"][nid] = []
        world["cpds"][nid] = [_prob(rng)]
    return doc


def _macid_base(scenario_id: str, norm: dict) -> dict:
    doc = _shipped("disclosure_demo")
    doc["metadata"]["scenario_id"] = scenario_id
    doc["context"]["norms"] = [dict(doc["context"]["norms"][0], **norm)]
    return doc


def chain_disclosure(hops: int, arity: int, muted: bool, rng: random.Random) -> dict:
    """C -> R1 -> ... -> R<hops> -> B_b: a report relayed over ``hops``
    decisions, each copying its input; a muted chain's first link always
    sends the first value."""
    values = [f"v{i}" for i in range(arity)]
    links = [f"R{i}" for i in range(1, hops + 1)]
    doc = _macid_base(
        f"chain-disclosure-h{hops}-a{arity}-{'muted' if muted else 'copying'}",
        {"binding": {"report_node": "R1", "material_node": "C", "principal_decision": "B_b"}},
    )
    identity = [_onehot(arity, i) for i in range(arity)]
    nodes = [{"id": "C", "kind": "chance", "domain": values}]
    edges = {"C": []}
    profile = {}
    parent = "C"
    for nid in links:
        nodes.append({"id": nid, "kind": "decision", "owner": "advisory_system", "domain": values})
        edges[nid] = [parent]
        profile[nid] = copy.deepcopy(identity)
        parent = nid
    if muted:
        profile["R1"] = [_onehot(arity, 0) for _ in range(arity)]
    nodes += [
        {"id": "B_b", "kind": "decision", "owner": "client", "domain": values},
        {"id": "U_a", "kind": "utility", "owner": "advisory_system"},
        {"id": "U_b", "kind": "utility", "owner": "client"},
    ]
    edges.update({"B_b": [parent], "U_a": ["C", "B_b"], "U_b": ["C", "B_b"]})
    profile["B_b"] = identity
    doc["world"]["macid"] = {
        "agents": ["advisory_system", "client"],
        "nodes": nodes,
        "edges": edges,
        "cpds": {"C": [_dist(rng, arity)]},
        "utilities": {"U_a": _identity_utility(arity), "U_b": _identity_utility(arity)},
        "profile": profile,
    }
    return doc


def wide_confidentiality(k: int, leaking: bool, rng: random.Random) -> dict:
    """Secret S, k independent binary chance nodes, and a report R that
    copies S (leaking) or copies the first independent node (sealed)."""
    doc = _macid_base(
        f"wide-confidentiality-k{k}-{'leaking' if leaking else 'sealed'}",
        {
            "attribute": "client-holdings",
            "transmission_principle": "confidentiality",
            "binding": {"report_node": "R", "secret_node": "S"},
        },
    )
    extra = [f"N{i}" for i in range(1, k + 1)]
    nodes = [{"id": "S", "kind": "chance", "domain": ["0", "1"]}]
    nodes += [{"id": nid, "kind": "chance", "domain": ["0", "1"]} for nid in extra]
    nodes += [
        {"id": "R", "kind": "decision", "owner": "advisory_system", "domain": ["0", "1"]},
        {"id": "B_b", "kind": "decision", "owner": "client", "domain": ["0", "1"]},
        {"id": "U_a", "kind": "utility", "owner": "advisory_system"},
        {"id": "U_b", "kind": "utility", "owner": "client"},
    ]
    edges = {nid: [] for nid in ["S"] + extra}
    edges.update({"R": ["S" if leaking else "N1"], "B_b": ["R"], "U_a": ["B_b"], "U_b": ["S", "B_b"]})
    identity = [_onehot(2, 0), _onehot(2, 1)]
    doc["world"]["macid"] = {
        "agents": ["advisory_system", "client"],
        "nodes": nodes,
        "edges": edges,
        "cpds": {nid: [_prob(rng)] for nid in ["S"] + extra},
        "utilities": {"U_a": [0.0, 1.0], "U_b": _identity_utility(2)},
        "profile": {"R": identity, "B_b": copy.deepcopy(identity)},
    }
    return doc


# --- mdp ---------------------------------------------------------------------


def random_mdp(n_states: int, beta: float, rng: random.Random) -> dict:
    """Dense random MDP with two actions and the five MDP-backed methods."""
    doc = _shipped("trust_portfolio")
    doc["metadata"]["scenario_id"] = f"mdp-s{n_states}-b{beta}"
    states = [f"s{i}" for i in range(n_states)]
    actions = ["a0", "a1"]
    transition = [[_dist(rng, n_states) for _ in actions] for _ in states]
    reward = [[rng.random() for _ in actions] for _ in states]
    # myopic behaviour: the action with the larger immediate reward
    behavior_idx = [0 if row[0] >= row[1] else 1 for row in reward]
    behavior = {s: actions[a] for s, a in zip(states, behavior_idx)}
    demos = []
    for _ in range(5):
        s = rng.randrange(n_states)
        steps = []
        for _ in range(10):
            a = behavior_idx[s]
            steps.append([s, a])
            s = rng.choices(range(n_states), weights=transition[s][a])[0]
        demos.append(steps)
    doc["world"]["mdp"] = {
        "states": states,
        "actions": actions,
        "transition": transition,
        "reward": reward,
        "discount": {"kind": "exponential", "beta": beta},
    }
    prudent = doc["assessment"]["methods"][0]
    doc["assessment"]["methods"] = [
        prudent,
        {"kind": "discount_inference", "beta_grid": [0.5, 0.75, beta], "prior": "uniform",
         "temperature": 0.01, "behavior": behavior},
        {"kind": "patient_advice", "beta_fit": 0.5, "beta_advice": beta},
        {"kind": "feasibility_probe", "policy": behavior, "beta": beta, "bound": 1.0, "samples": 3},
        {"kind": "maxent_irl", "features": "one_hot_states", "demos": demos, "beta": beta,
         "learn_rate": 0.01, "iters": 20},
    ]
    return doc


# --- manipulation ------------------------------------------------------------


def manipulation(rule: str, voters: int, options: int, rng: random.Random) -> dict:
    doc = _shipped("engagement_prior_warn")
    doc["metadata"]["scenario_id"] = f"manipulation-{rule}-{voters}x{options}"
    probe = {"rule": rule, "voters": voters, "options": options}
    if rule == "dictator":
        probe["dictator_voter"] = rng.randrange(voters)
    doc["aggregation"]["manipulation_probe"] = probe
    return doc


# --- manifest ----------------------------------------------------------------


def _families(workload: str, tiny: bool, rng: random.Random):
    """Yield (family, scenario document, reference check) for a workload."""
    size = TINY if tiny else FULL
    if workload == "influence":
        for k in size["wide_disclosure_k"]:
            for muted in (False, True):
                golden = "disclosure_demo_muted" if muted else "disclosure_demo"
                yield "wide-disclosure", wide_disclosure(k, muted, rng), {
                    "kind": "same_loyalty", "golden": f"tests/golden/{golden}.report.json"}
        for hops, arity, muted in size["chains"]:
            yield "chain-disclosure", chain_disclosure(hops, arity, muted, rng), {
                "kind": "disclosure", "passes": not muted}
        for k in size["wide_confidentiality_k"]:
            for leaking in (True, False):
                yield "wide-confidentiality", wide_confidentiality(k, leaking, rng), {
                    "kind": "confidentiality", "passes": not leaking}
    elif workload == "mdp":
        for n, beta in size["mdp_cases"]:
            yield "mdp", random_mdp(n, beta, rng), {"kind": "mdp"}
    elif workload == "manipulation":
        for rule, voters, options in size["probes"]:
            yield "manipulation", manipulation(rule, voters, options, rng), {
                "kind": "manipulation", "rule": rule, "voters": voters, "options": options}
    else:
        raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[dict]:
    """Write the workload's scenario files; return the manifest entries."""
    if workload == "corpus":
        return [
            {"name": name, "family": name, "file": f"scenarios/{name}.json",
             "check": {"kind": "golden", "golden": f"tests/golden/{name}.report.json"}}
            for name in CORPUS
        ]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for family, doc, check in _families(workload, tiny, rng):
        name = doc["metadata"]["scenario_id"]
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        manifest.append({"name": name, "family": family, "file": str(path), "check": check})
    return manifest
