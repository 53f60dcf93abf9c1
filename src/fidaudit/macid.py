"""Finite multi-agent causal influence models.

A model is a DAG of chance, decision and utility nodes. Chance nodes carry
conditional probability tables, decision nodes carry (externally supplied)
decision rules, and utility nodes carry real-valued tables over their
parents. Everything is finite and enumerated exactly, so every query below
is an exact computation rather than an estimate.

One order rules the nodes: the declared one (``Macid.nodes``). Decisions
are swept, enumerated and checked in it, each agent's utility nodes are
summed in it, and the outcome order is it with each node moved after its
parents (``_topological_order``). So a rename changes no result, though
the declared order can still choose between equilibria.

Every table is a float array on its node's scope: one axis per parent in
declared order, then, for a CPD or a decision rule, one axis for the
node's own values. A policy profile maps each decision node to such a
rule array; a deterministic rule is a read-only 0/1 array
(``deterministic_rule``). Construction costs what the tables cost: it
works out the outcome shape, each node's plan (``_Plan``: how ``_place``
moves a table on its scope onto the axes of ``outcome_order``) and the
CPD factors so placed. Each agent's total utility so placed and the
product of the chance factors that lead the outcome order can span the
joint, so they are built on first use. A derived model (``ancestral``,
``with_edge``, ``replace_decision_with_constant_chance``) takes its
parent's checked read-only tables as they are and checks only those it
adds; if its outcome order is the parent's, it shares the parent's plans,
placed factors and utility arrays, goes on from its leading product and
places only its new table. The joint is the factors' broadcast product,
taken in outcome order from the leading chance product (``_chain``); an
expected utility folds it times the agent's utility array directly, and
best-response payoffs are that product less the node's own factor, times
the owner's utility array. A profile is checked once per model: queries
take as it is a profile ``_Checked`` for the model, which the scenario
reader, the loyalty checks' restriction and the equilibrium search
return. Every sum is a left-to-right fold from 0.0 (``_fold``), so each
result has the bits a per-cell Python loop gives.
Deterministic rules are enumerated, and sums over a rule's rows taken, in
the rows' declared order (``parent_assignments``); ties go to the lowest
index. The equilibrium warm start enumerates, in blocks, the deterministic
profiles of every decision but the last declared, a profile's joint being
the chance factors' product times its rules' 0/1 arrays, and picks the last
one's rule row by row against each. Every best-response search runs
one loop of sweeps (``_iterate``), from the warm start or from any other
profile.

Every query is exact on the model it is given, barren nodes included.
``Macid.ancestral(targets)`` restricts a model to the targets, every
utility node and all of their ancestors; the nodes it drops are barren (no
kept node depends on them), so the law of the kept nodes and every agent's
utility are unchanged, and a query that reads only kept nodes can run on
the smaller joint (Shachter 1986).

A model never changes and every operation is a pure function, so
concurrent use needs no locking: what a model builds on first use is kept
read-only, and a race there only computes the same bits twice.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import NoConvergence
from .readonly import ReadOnly

PROB_TOL = 1e-9
# Best-response sweeps a search runs before it gives up (``_iterate``).
MAX_ROUNDS = 64
# A rule or warm-start profile is replaced only by one that gains more.
_GAIN_MARGIN = 1e-12

# The equilibrium warm start runs only while (number of deterministic
# profiles) * (number of joint outcomes) is at most this.
_WARM_START_BUDGET = 2_000_000
# Profiles of every decision but the last, times outcomes, scored together
# in one warm-start block; it bounds the block's temporaries, so peak
# memory stays flat.
_BLOCK_CELLS = 4096


class NodeKind(Enum):
    CHANCE = "chance"
    DECISION = "decision"
    UTILITY = "utility"


class Node(ReadOnly):
    """A single model variable.

    Chance and decision nodes have a finite ordered ``domain``; utility
    nodes have none (their payoff table lives on the model). Decision and
    utility nodes belong to exactly one agent; chance nodes to none.
    """

    __slots__ = ("id", "kind", "owner", "domain")

    def __init__(self, id: str, kind: NodeKind, owner: str | None = None, domain: tuple[str, ...] = ()) -> None:
        if kind is NodeKind.CHANCE and owner is not None:
            raise ValueError(f"chance node {id!r} must not have an owner")
        if kind in (NodeKind.DECISION, NodeKind.UTILITY) and not owner:
            raise ValueError(f"{kind.value} node {id!r} needs an owner")
        if kind is NodeKind.UTILITY:
            if domain:
                raise ValueError(f"utility node {id!r} must not declare a domain")
        else:
            if not domain:
                raise ValueError(f"node {id!r} has an empty domain")
            if len(set(domain)) != len(domain):
                raise ValueError(f"node {id!r} has duplicate domain values")
        self._set(id=id, kind=kind, owner=owner, domain=domain)


Assignment = tuple[str, ...]
# decision node id -> rule array on the node's scope
PolicyProfile = Mapping[str, np.ndarray]


class _Plan(NamedTuple):
    """Where a node's tables go on the outcome axes: ``sizes``, a table's
    shape; ``pos``, each scope node's outcome axis; ``axes``, the transpose
    that puts them in outcome order; ``placed``, the shape then, 1 elsewhere."""

    sizes: tuple[int, ...]
    pos: tuple[int, ...]
    axes: tuple[int, ...]
    placed: tuple[int, ...]


class Macid(ReadOnly):
    """A validated multi-agent causal influence model.

    ``edges`` lists each node's parents (order matters: it fixes the axes
    of every table). ``cpds`` and ``utilities`` map each chance and utility
    node to its table on the node's scope; construction checks
    them and keeps read-only float copies. Derived at construction:
    ``node_map`` (id -> node), ``outcome_order`` and ``outcome_shape``,
    each node's ``_Plan`` and ``cpd_factors`` (each chance node's CPD
    factor on the outcome axes); on first use, read-only,
    ``utility_arrays`` (each agent's total utility so placed) and ``_lead``.
    """

    __slots__ = (
        "nodes", "edges", "cpds", "utilities", "agents", "node_map", "outcome_order", "outcome_shape", "cpd_factors",
        "_plans", "_decisions", "_base", "_memo",
    )

    def __init__(
        self, nodes: tuple[Node, ...], edges: Mapping[str, tuple[str, ...]], cpds: Mapping[str, np.ndarray],
        utilities: Mapping[str, np.ndarray], agents: tuple[str, ...],
    ) -> None:
        self._build(nodes, edges, cpds, utilities, agents, None, ())

    def _build(self, nodes, edges, cpds, utilities, agents, base: "Macid | None", checked: tuple[str, ...]) -> None:
        """Check the model and work out what its queries read. Without
        ``base`` every table is copied and checked; else only those of
        ``checked``, the nodes with a new table or scope (``_derive``)."""
        node_map = {n.id: n for n in nodes}
        if len(node_map) != len(nodes):
            raise ValueError("duplicate node ids")
        if len(set(agents)) != len(agents):
            raise ValueError("duplicate agent ids")
        for nid, parents in edges.items():
            if nid not in node_map:
                raise ValueError(f"edge list references unknown node {nid!r}")
            for i, p in enumerate(parents):
                if p not in node_map:
                    raise ValueError(f"unknown parent {p!r} of {nid!r}")
                if p in parents[:i]:
                    raise ValueError(f"duplicate parent {p!r} of {nid!r}")
        for n in nodes:
            if n.id not in edges:
                raise ValueError(f"node {n.id!r} missing from the edge map")
            if n.owner is not None and n.owner not in agents:
                raise ValueError(f"node {n.id!r} owned by undeclared agent {n.owner!r}")

        children: dict[str, list[str]] = {n.id: [] for n in nodes}
        for nid, parents in edges.items():
            for p in parents:
                children[p].append(nid)
        for n in nodes:
            if n.kind is NodeKind.UTILITY and children[n.id]:
                raise ValueError(f"utility node {n.id!r} has children {children[n.id]}")

        order = _topological_order(nodes, edges)

        for n in nodes:
            if n.kind is NodeKind.CHANCE:
                if n.id not in cpds:
                    raise ValueError(f"chance node {n.id!r} has no CPD")
            elif n.id in cpds:
                raise ValueError(f"non-chance node {n.id!r} has a CPD")
            if n.kind is NodeKind.UTILITY:
                if n.id not in utilities:
                    raise ValueError(f"utility node {n.id!r} has no utility table")
            elif n.id in utilities:
                raise ValueError(f"non-utility node {n.id!r} has a utility table")

        outcome_order = tuple(nid for nid in order if node_map[nid].kind is not NodeKind.UTILITY)
        same = base is not None and base.outcome_order == outcome_order
        shape = tuple(len(node_map[nid].domain) for nid in outcome_order)
        plans = {nid: base._plans[nid] for nid in node_map if nid not in checked} if same else {}
        positions = {nid: i for i, nid in enumerate(outcome_order)}
        for n in nodes:
            if n.id not in plans:
                pos = tuple(map(positions.__getitem__, edges[n.id] + ((n.id,) if n.domain else ())))
                placed = [1] * len(shape)
                for p in pos:
                    placed[p] = shape[p]
                axes = tuple(sorted(range(len(pos)), key=pos.__getitem__))
                plans[n.id] = _Plan(tuple(map(shape.__getitem__, pos)), pos, axes, tuple(placed))
        self._set(
            nodes=nodes, edges=edges, agents=agents, node_map=node_map, outcome_order=outcome_order,
            outcome_shape=shape, _plans=plans,
        )
        for name, tables in (("cpds", cpds), ("utilities", utilities)):
            if base is None:
                tables = {nid: np.array(table, dtype=float) for nid, table in tables.items()}
            for nid in checked if base is not None else tables:
                if nid in tables:
                    _check_table(self, nid, tables[nid])
                    tables[nid].flags.writeable = False
            self._set(**{name: tables})

        owners = {n.owner for n in nodes if n.kind is NodeKind.UTILITY}
        for agent in agents:
            if agent not in owners:
                raise ValueError(f"agent {agent!r} owns no utility node")

        # a parent's table on a new scope has failed its check above
        shared = base.cpd_factors if same else {}
        cpd_factors = {
            nid: shared[nid] if nid in shared else _frozen(_place(self, nid, cpd)) for nid, cpd in self.cpds.items()
        }
        decisions = tuple(n.id for n in nodes if n.kind is NodeKind.DECISION)
        self._set(cpd_factors=cpd_factors, _decisions=decisions, _base=base if same else None, _memo={})

    @property
    def utility_arrays(self) -> dict[str, np.ndarray]:
        """Each agent's utility nodes, in declared order, summed on the outcome axes."""
        if "utility" not in self._memo:
            self._memo["utility"] = self._base.utility_arrays if self._base is not None else {
                a: _frozen(np.asarray(sum(_place(self, u, self.utilities[u]) for u in self.utility_nodes_of(a))))
                for a in self.agents
            }
        return self._memo["utility"]

    @property
    def _lead(self) -> tuple[int, np.ndarray]:
        """The count and product of the chance factors that lead the outcome order."""
        if "lead" not in self._memo:
            k, prod = self._base._lead if self._base is not None else (0, np.ones((1,) * len(self.outcome_shape)))
            while k < len(self.outcome_order) and self.outcome_order[k] in self.cpd_factors:
                prod = np.where(prod == 0.0, prod, prod * self.cpd_factors[self.outcome_order[k]])
                k += 1
            self._memo["lead"] = (k, _frozen(prod))
        return self._memo["lead"]

    def _derive(self, nodes, edges, cpds, checked: tuple[str, ...]) -> "Macid":
        """``Macid(nodes, edges, cpds, self.utilities, self.agents)``, taking
        this model's tables as they are but those of ``checked``."""
        model = object.__new__(Macid)
        model._build(nodes, edges, cpds, self.utilities, self.agents, self, checked)
        return model

    # -- structure helpers -------------------------------------------------

    def node(self, node_id: str) -> Node:
        """The node ``node_id``; an id the model does not declare is a ValueError."""
        node = self.node_map.get(node_id)
        if node is None:
            raise ValueError(f"unknown node {node_id!r}")
        return node

    def parents(self, node_id: str) -> tuple[str, ...]:
        return self.edges[self.node(node_id).id]

    def parent_assignments(self, node_id: str) -> Iterator[Assignment]:
        """Joint parent assignments in row-major declared-domain order: the
        rows of the node's table."""
        domains = [self.node_map[p].domain for p in self.parents(node_id)]
        return itertools.product(*domains)

    def decision_nodes(self) -> tuple[str, ...]:
        return self._decisions

    def utility_nodes_of(self, agent: str) -> tuple[str, ...]:
        if agent not in self.agents:
            raise ValueError(f"unknown agent {agent!r}")
        return tuple(n.id for n in self.nodes if n.kind is NodeKind.UTILITY and n.owner == agent)

    def with_edge(self, parent: str, child: str) -> "Macid":
        """Copy of the model with ``parent`` appended to ``child``'s parents.

        ``child`` must be a decision node (the only supported target): the
        table of a chance or utility node has no axis for ``parent``.
        """
        if parent in self.parents(child):
            raise ValueError(f"{parent!r} is already a parent of {child!r}")
        edges = dict(self.edges)
        edges[child] = edges[child] + (parent,)
        return self._derive(self.nodes, edges, self.cpds, (child,))

    def ancestral(self, targets) -> "Macid":
        """The model restricted to ``targets``, every utility node and all of
        their ancestors; ``self`` when that is every node.

        The other nodes are barren: no kept node depends on them, so summing
        them out of the joint leaves the law of the kept nodes unchanged and
        no agent's utility or decision rule can see them (Shachter 1986).
        """
        for nid in targets:
            self.node(nid)
        kept: set[str] = set()
        stack = [*targets, *self.utilities]
        while stack:
            nid = stack.pop()
            if nid not in kept:
                kept.add(nid)
                stack.extend(self.edges[nid])
        if len(kept) == len(self.nodes):
            return self
        return self._derive(
            tuple(n for n in self.nodes if n.id in kept),
            {nid: ps for nid, ps in self.edges.items() if nid in kept},
            {nid: cpd for nid, cpd in self.cpds.items() if nid in kept},
            (),
        )

    def replace_decision_with_constant_chance(self, node_id: str, value: str) -> "Macid":
        """Copy where decision ``node_id`` becomes a parentless point-mass chance node.

        Used to model a silenced communication channel: the variable still
        exists (so downstream tables keep their shape) but carries no
        information and offers no strategic choice.
        """
        node = self.node(node_id)
        if node.kind is not NodeKind.DECISION:
            raise ValueError(f"{node_id!r} is not a decision node")
        nodes = tuple(
            Node(n.id, NodeKind.CHANCE, None, n.domain) if n.id == node_id else n
            for n in self.nodes
        )
        edges = dict(self.edges)
        edges[node_id] = ()
        cpds = dict(self.cpds)
        cpds[node_id] = np.eye(len(node.domain))[node.domain.index(value)]
        return self._derive(nodes, edges, cpds, (node_id,))


def _topological_order(nodes: tuple[Node, ...], edges: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    """The node ids, each after its parents: every step places the
    earliest-declared node whose parents are all placed, so a declared
    order that is already topological is kept. Raises on cycles."""
    left, placed, order = [n.id for n in nodes], set(), []
    while left:
        nid = next((nid for nid in left if placed.issuperset(edges[nid])), None)
        if nid is None:
            raise ValueError("edge structure contains a cycle")
        left.remove(nid)
        placed.add(nid)
        order.append(nid)
    return tuple(order)


# -- table validation ----------------------------------------------------------


def _check_table(model: Macid, nid: str, table) -> None:
    """Raise unless ``table`` is a valid table of ``nid``: an array on the
    node's scope whose entries are finite for a utility node, and whose
    rows each lie in [-PROB_TOL, 1 + PROB_TOL] and sum to 1 within
    PROB_TOL for a CPD or rule. Every bound is written so that NaN fails it."""
    table = np.asarray(table, dtype=float)
    shape = model._plans[nid].sizes
    if table.shape != shape:
        raise ValueError(f"table for {nid!r} has shape {table.shape}, expected {shape}")
    if not model.node_map[nid].domain:
        if not np.isfinite(table).all():
            raise ValueError(f"utility table for {nid!r} has a non-finite entry")
        return
    for i, row in enumerate(table.reshape(-1, shape[-1]).tolist()):
        outside = [p for p in row if not -PROB_TOL <= p <= 1 + PROB_TOL]
        total = sum(row)
        if outside or not abs(total - 1.0) <= PROB_TOL:
            key = next(itertools.islice(model.parent_assignments(nid), i, None))
            problem = f"has entry {outside[0]} outside [0, 1]" if outside else f"sums to {total}, not 1"
            raise ValueError(f"row {key} for {nid!r} {problem}")


class _Checked(ReadOnly, Mapping):
    """A read-only profile that ``_check_profile`` passes on ``model``
    unchecked: one checked for it, or built from such rules."""

    __slots__ = ("model", "_rules")

    def __init__(self, model: Macid, rules: dict[str, np.ndarray]) -> None:
        self._set(model=model, _rules=rules)

    def __getitem__(self, nid: str) -> np.ndarray:
        return self._rules[nid]

    def __iter__(self) -> Iterator[str]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)


def _check_profile(model: Macid, profile: PolicyProfile) -> None:
    """Raise unless ``profile``, if not ``_Checked`` for ``model``, gives a
    valid rule to each decision node of ``model`` and to no other node."""
    if isinstance(profile, _Checked) and profile.model is model:
        return
    for nid in profile:
        if model.node(nid).kind is not NodeKind.DECISION:
            raise ValueError(f"rule for non-decision node {nid!r}")
    for nid in model.decision_nodes():
        if nid not in profile:
            raise ValueError(f"no rule for decision node {nid!r}")
        _check_table(model, nid, profile[nid])


# -- core queries -------------------------------------------------------------


def _fold(values: np.ndarray, keep: tuple[int, ...] | list[int] = ()) -> np.ndarray:
    """For each cell of the ``keep`` axes (in that order), the sum over the
    other axes in C order, as a left-to-right fold from 0.0: the order a
    Python loop adds in. ``np.add.accumulate`` is sequential where
    ``np.sum`` is pairwise, and adding 0.0 turns a -0.0 into +0.0."""
    if not keep:
        return np.add.accumulate(values.reshape(-1))[-1] + 0.0
    rest = [i for i in range(values.ndim) if i not in keep]
    flat = values.transpose([*keep, *rest]).reshape([*(values.shape[i] for i in keep), -1])
    return np.cumsum(flat, axis=-1)[..., -1] + 0.0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _place(model: Macid, nid: str, local: np.ndarray) -> np.ndarray:
    """``local``'s trailing axes, one per node of ``nid``'s scope, moved
    onto the axes of ``model.outcome_order`` (size 1 off the scope) by the
    node's plan; leading axes stay in front."""
    plan = model._plans[nid]
    local = np.asarray(local, dtype=float)
    lead = local.ndim - len(plan.axes)
    axes = [*range(lead), *(lead + axis for axis in plan.axes)]
    return local.transpose(axes).reshape([*local.shape[:lead], *plan.placed])


def _chain(model: Macid, profile: PolicyProfile, skip=()) -> np.ndarray:
    """Chain-rule product of the factors of every node not in ``skip``, one
    axis per entry of ``model.outcome_order``, multiplied in that order. A
    cell keeps the first zero its product reaches, sign included, like a
    per-cell loop that stops there. ``skip`` holds decisions only, so the
    product continues from the model's leading chance factors (``_lead``)."""
    k, prod = model._lead
    for nid in model.outcome_order[k:]:
        if nid not in skip:
            factor = model.cpd_factors[nid] if nid in model.cpds else _place(model, nid, profile[nid])
            prod = np.where(prod == 0.0, prod, prod * factor)
    return np.broadcast_to(prod, model.outcome_shape)


def joint_distribution(model: Macid, profile: PolicyProfile) -> dict[Assignment, float]:
    """Exact joint over chance and decision nodes under ``profile``.

    Keys are value tuples ordered by ``model.outcome_order``; every cell of
    the Cartesian product appears, including zero-probability ones. The
    probabilities sum to 1 up to accumulation error.
    """
    _check_profile(model, profile)
    domains = [model.node_map[nid].domain for nid in model.outcome_order]
    return dict(zip(itertools.product(*domains), _chain(model, profile).ravel().tolist()))


def marginal(
    model: Macid, profile: PolicyProfile, node_ids: tuple[str, ...]
) -> dict[Assignment, float]:
    """Marginal distribution of ``node_ids`` (in the given order).

    Keys come in the order they first occur in the joint, and each value
    sums its cells in the joint's order.
    """
    positions = {nid: i for i, nid in enumerate(model.outcome_order)}
    for nid in node_ids:
        if nid not in positions:
            raise ValueError(f"{nid!r} is not a chance or decision node of the model")
    joint = np.fromiter(joint_distribution(model, profile).values(), float).reshape(model.outcome_shape)
    kept = sorted({positions[nid] for nid in node_ids})
    sums = _fold(joint, kept).ravel()
    slots = [kept.index(positions[nid]) for nid in node_ids]
    keys = itertools.product(*(model.node_map[model.outcome_order[i]].domain for i in kept))
    return {tuple(key[s] for s in slots): p for key, p in zip(keys, sums.tolist())}


def expected_utility(model: Macid, profile: PolicyProfile, agent: str) -> float:
    """The chain-rule product (``_chain``) times the agent's utility array, folded."""
    if agent not in model.agents:
        raise ValueError(f"unknown agent {agent!r}")
    _check_profile(model, profile)
    return float(_fold(_chain(model, profile) * model.utility_arrays[agent]))


# -- deterministic rules and equilibrium --------------------------------------


def deterministic_rule(model: Macid, node_id: str, actions) -> np.ndarray:
    """The 0/1 rule array of ``node_id`` that plays action index
    ``actions[r]`` at the node's r-th parent assignment (declared order).
    A scalar plays one action everywhere; leading axes of ``actions`` give
    a stack of rules, one per entry. The array is read-only."""
    sizes = model._plans[model.node(node_id).id].sizes
    actions = np.asarray(actions)
    if actions.ndim == 0:
        actions = np.full(math.prod(sizes[:-1]), actions)
    return _frozen(np.eye(sizes[-1])[actions].reshape(*actions.shape[:-1], *sizes))


def enumerate_deterministic_rules(model: Macid, node_id: str) -> Iterator[np.ndarray]:
    """All deterministic rules for ``node_id``, in lexicographic order of
    the actions they play at the rows in declared order."""
    node = model.node(node_id)
    if node.kind is not NodeKind.DECISION:
        raise ValueError(f"{node_id!r} is not a decision node")
    for idx in itertools.product(range(len(node.domain)), repeat=math.prod(model._plans[node_id].sizes[:-1])):
        yield deterministic_rule(model, node_id, np.array(idx))


def best_response(
    model: Macid, profile: PolicyProfile, node_id: str
) -> tuple[np.ndarray, float]:
    """Lexicographically smallest deterministic best response at one node.

    Returns the rule together with the owner's expected utility under it.
    Equivalent to an exhaustive search over all deterministic rules for the
    node (the rowwise argmax is exact because payoffs decompose by row).
    """
    if model.node(node_id).kind is not NodeKind.DECISION:
        raise ValueError(f"{node_id!r} is not a decision node")
    _check_profile(model, profile)
    actions, best_value, _ = _best_response_detail(model, profile, node_id)
    return deterministic_rule(model, node_id, actions), best_value


def _best_response_detail(
    model: Macid, profile: PolicyProfile, node_id: str
) -> tuple[np.ndarray, float, float]:
    """Best response (an action index per row) plus the owner's value of the node's current rule.

    Row payoffs W[r][a] are the owner's expected utility mass routed
    through parent assignment r when the node plays action ``a`` there,
    all other factors held at ``profile``. Because the joint factorizes,
    the owner's expected utility of any rule is the sum over rows of
    W[r][rule(r)], so best responses decompose row by row; ties go to the
    lowest action index, and the sums run over rows in declared order.
    """
    node = model.node_map[node_id]
    mass = _chain(model, profile, skip=(node_id,)) * model.utility_arrays[node.owner]
    w = _fold(mass, model._plans[node_id].pos).reshape(-1, len(node.domain))
    best_value = float(_fold(w.max(axis=1)))
    current_value = float(_fold(_fold(np.reshape(profile[node_id], w.shape) * w, (0,))))
    return w.argmax(axis=1), best_value, current_value


def _iterate(model: Macid, start: PolicyProfile, nodes) -> _Checked:
    """The fixed point that best-response sweeps over ``nodes`` reach from
    ``start``, a valid profile: in a sweep, each node not playing a best
    response switches to the lexicographically smallest one, and a sweep
    with no switch returns the profile, as checked (``_Checked``). A
    revisited profile raises ``NoConvergence`` with the cycle's period, and
    ``MAX_ROUNDS`` sweeps without a fixed point raise it with none."""
    profile = dict(start)

    def key() -> bytes:  # rules hold no NaN, so equal bytes mean equal rules, stochastic ones too
        return b"".join(profile[nid].tobytes() for nid in nodes)

    seen = {key(): 0}  # each visited profile -> the sweeps run before it
    for sweep in range(1, MAX_ROUNDS + 1):
        changed = False
        for nid in nodes:
            actions, best_value, current_value = _best_response_detail(model, profile, nid)
            if best_value > current_value + _GAIN_MARGIN:
                profile[nid] = deterministic_rule(model, nid, actions)
                changed = True
        if not changed:
            return _Checked(model, profile)
        period = sweep - seen.setdefault(key(), sweep)  # 0 for a profile not seen before
        if period:
            raise NoConvergence(f"best-response iteration cycles with period {period}", period=period)
    raise NoConvergence(f"no equilibrium after {MAX_ROUNDS} rounds")


def _welfare_warm_start(model: Macid) -> dict[str, np.ndarray]:
    """Deterministic starting profile for best-response iteration.

    When the profile space is small enough to enumerate, start from the
    profile maximizing total (all-agent) expected utility, with ties broken
    by lexicographic rule order. This favors payoff-efficient equilibria
    when several exist, e.g. the informative one in communication models
    where a babbling equilibrium also satisfies the deviation check.
    Beyond the enumeration budget (all profiles times all outcomes), fall
    back to the lexicographically smallest profile.

    Welfare is linear in the last declared decision's rule, row by row, so
    only the other decisions' profiles are enumerated (single policy
    updating, Lauritzen & Nilsson 2001): for each, the last one's row payoffs
    ``w[r][a]`` are the agents' utility mass routed through parent
    assignment r and action a, as in ``_best_response_detail``, and its
    rule takes in each row the first action, unless a later one beats the
    row's leader so far by more than ``_GAIN_MARGIN``. A profile's welfare
    is the fold of its chosen row payoffs in row order. Profiles are scored
    in blocks of about ``_BLOCK_CELLS`` cells and scanned in
    ``itertools.product`` order; one wins only by beating the best so far
    by more than ``_GAIN_MARGIN``. The margin thus applies per row: a rule
    whose rows each gain less than it is not taken, however much the rows
    gain together.
    """
    decisions = model.decision_nodes()
    rows = [math.prod(model._plans[nid].sizes[:-1]) for nid in decisions]
    # A profile's number in that order has one mixed-radix digit per
    # decision and row in declared order: the action index played there.
    radix = [len(model.node_map[nid].domain) for nid, n in zip(decisions, rows) for _ in range(n)]
    cuts = list(itertools.accumulate(rows))[:-1]
    n_outcomes = math.prod(model.outcome_shape)
    picked = np.zeros(len(radix), dtype=int)
    if decisions and math.prod(radix) * n_outcomes <= _WARM_START_BUDGET:
        *outer, last = decisions
        outer_radix = radix[: len(radix) - rows[-1]]
        n_outer = math.prod(outer_radix)
        # integer arrays, so that a lone decision's empty digits are integers too
        strides = np.array([math.prod(outer_radix[j + 1:]) for j in range(len(outer_radix))], dtype=int)
        outer_radix = np.array(outer_radix, dtype=int)
        chance = _chain(model, {}, skip=decisions)[None]
        utilities = list(model.utility_arrays.values())
        # the last decision's scope, after the block's leading axis
        scope = [1 + p for p in model._plans[last].pos]
        width = len(model.node_map[last].domain)
        block = max(1, _BLOCK_CELLS // n_outcomes)
        best_welfare = -math.inf
        for start in range(0, n_outer, block):
            digits = np.arange(start, min(start + block, n_outer))[:, None] // strides % outer_radix
            joint = chance
            for nid, part in zip(outer, np.split(digits, cuts[:-1], axis=1)):
                joint = joint * _place(model, nid, deterministic_rule(model, nid, part))
            w = sum(_fold(joint * u, (0, *scope)) for u in utilities).reshape(len(digits), -1, width)
            choice = np.zeros(w.shape[:2], dtype=int)
            lead = w[..., 0]
            for a in range(1, width):
                gains = w[..., a] > lead + _GAIN_MARGIN
                choice[gains] = a
                lead = np.where(gains, w[..., a], lead)
            welfare = _fold(lead, (0,))
            # Only a profile that beats the block's starting best can switch.
            values = welfare.tolist()
            for i in np.flatnonzero(welfare > best_welfare + _GAIN_MARGIN).tolist():
                if values[i] > best_welfare + _GAIN_MARGIN:
                    picked, best_welfare = np.concatenate((digits[i], choice[i])), values[i]
    parts = zip(decisions, np.split(picked, cuts))
    return {nid: deterministic_rule(model, nid, part) for nid, part in parts}


def solve_equilibrium(model: Macid) -> PolicyProfile:
    """Pure-strategy Nash equilibrium in deterministic rules, ``_Checked`` for ``model``.

    Best-response iteration (``_iterate``) over the decision nodes in
    declared order, from the welfare warm start (``_welfare_warm_start``).
    A full sweep with no change is a fixed point and hence a Nash
    equilibrium (no unilateral deviation at any single decision node raises
    its owner's expected utility). A revisited profile raises
    ``NoConvergence`` with the cycle's period, and ``MAX_ROUNDS`` sweeps
    without a fixed point raise it with none.
    """
    return _iterate(model, _welfare_warm_start(model), model.decision_nodes())


def is_equilibrium(model: Macid, profile: PolicyProfile) -> bool:
    """Exhaustive single-node-deviation check over deterministic rules."""
    _check_profile(model, profile)
    for nid in model.decision_nodes():
        agent = model.node_map[nid].owner
        current = expected_utility(model, profile, agent)
        for rule in enumerate_deterministic_rules(model, nid):
            if expected_utility(model, {**profile, nid: rule}, agent) > current + 1e-9:
                return False
    return True


# -- information queries -------------------------------------------------------


def value_of_information(model: Macid, decision: str, chance: str) -> float:
    """Equilibrium gain to the decision's owner from observing ``chance``.

    Difference between the owner's equilibrium expected utility with the
    edge ``chance -> decision`` added and without it. A strictly positive
    value certifies the chance variable is material to the decision. The
    observation can always be ignored, so for models solved to the owner's
    optimum (in particular any model where this is the only decision) the
    value is non-negative.
    """
    if model.node(decision).kind is not NodeKind.DECISION:
        raise ValueError(f"{decision!r} is not a decision node")
    if model.node(chance).kind is not NodeKind.CHANCE:
        raise ValueError(f"{chance!r} is not a chance node")
    if chance in model.parents(decision):
        raise ValueError(f"{chance!r} is already observed by {decision!r}")

    owner = model.node_map[decision].owner
    base = expected_utility(model, solve_equilibrium(model), owner)
    extended = model.with_edge(chance, decision)
    informed = expected_utility(extended, solve_equilibrium(extended), owner)
    return informed - base


def mutual_information(joint: Mapping[tuple[str, str], float]) -> float:
    """Mutual information in bits of a finite joint distribution.

    ``joint`` maps (x, y) pairs to probabilities summing to 1. Cells at or
    below zero (``PROB_TOL`` admits down to -PROB_TOL) carry no mass. The
    result is mathematically non-negative; rounding, and the mass the
    tolerance admits, may leave a residue of order -PROB_TOL.
    """
    total = sum(joint.values())
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"joint sums to {total}, not 1")
    if any(p < -PROB_TOL for p in joint.values()):
        raise ValueError("joint has negative entries")
    px: dict[str, float] = {}
    py: dict[str, float] = {}
    for (x, y), p in joint.items():
        p = max(p, 0.0)
        px[x] = px.get(x, 0.0) + p
        py[y] = py.get(y, 0.0) + p
    info = 0.0
    for (x, y), p in joint.items():
        if p > 0.0:
            product = px[x] * py[y]
            if product > 0.0:
                info += p * math.log2(p / product)
            else:  # two tiny marginals whose product underflows
                info += p * (math.log2(p) - math.log2(px[x]) - math.log2(py[y]))
    return info
