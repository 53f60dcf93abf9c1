"""Scenario documents: the unit of audit.

A scenario is a single JSON document with top-level sections ``context``,
``principals``, ``world``, ``assessment``, ``aggregation``, ``loyalty``,
``care`` and ``metadata``; ``schema_version`` is mandatory. All tables are
nested arrays ordered by the declared id lists (states, actions, domains,
outcomes), and demos/comparisons reference states and actions by index.
A ``world.macid`` CPD, utility table or profile rule lists one row per
parent assignment in declared order and becomes one float array on the
node's scope, one axis per parent in declared order and, for a CPD or
rule, one for the node's values; a CPD or rule row must hold one entry per
value of its node. A declared profile must give a valid rule to each
decision node and to no other node; it is checked here, once, and reaches
the audit read-only, as ``macid._Checked`` for ``world.macid``. Each
``aggregation.utilities`` class and each ``loyalty.tables`` role is one
row of floats in declared ``options`` or ``outcomes`` order, and reaches
the kernels as it was read. ``aggregation.class_score`` is not read: every
priority class holds one principal class, so a sum and a min agree. Care
check names and attestation duties must be distinct, and a care check may
not take a name the audit gives its own care findings: ``standard``,
``section``, ``step-error`` or one that starts with ``duty:``. A
principal class's ``role`` must be a role of the context, if there is one.

Each entry of a kind-tagged list, an assessment method or a care check,
is a ``types.SimpleNamespace``: its ``kind`` and the typed fields that the
reader method named by ``kind`` builds. Demos are tuples of (state index,
action index) steps. ``features`` is a (rows, d) array: a declared table,
one row per (state, action) in MDP order, so that step (s, a) is row
s * A + a, or the free-standing ``feature_rows``; None stands for one-hot
state features. A ``preference_fit`` trajectory is the tuple of its rows.
A ``distribution_shift`` check's ``train`` and ``deploy`` are rows of
floats in ``support`` order.

One reader walks a document once: it checks each field and builds its
value in the same pass, recording every problem with its path. The
scenario, its world and its aggregation, loyalty and care sections are
namespaces the reader builds and the audit only reads
(``parse_scenario`` lists their attributes); the context, principals and
world models are their library types. ``validate_scenario`` returns
those problems and ``parse_scenario`` raises SchemaError at the first,
so both accept exactly the same
documents. A wrong JSON type, shape, length or id is a problem, and so are
a number that is not finite or not in float range, an ``iters``,
``samples`` or ``horizon`` count outside 1..``MAX_ITERS_CAP``, a
``policy`` or ``behavior`` map that leaves out an MDP state, a world
model its constructor rejects, and a ``world.mdp.discount`` that is not
exponential: its beta is the default of ``maxent_irl`` and
``feasibility_probe`` (0.9 without one). A method, table or check value
that a library call rejects (an asymmetric covariance, a discount outside
(0, 1)) is left to its audit step, which reports a Fail finding. A field
given as null counts as absent.

The scenario digest (``canonical_digest``) names the document a report
judged. It is ``sha256-v2:`` and the sha256 of the document's canonical
JSON: sorted keys, no whitespace. Each dense table the reader converts to
an array (``world.mdp.transition`` and ``world.mdp.reward``) stands in that
JSON as ``{"dtype": "<f8", "shape": [...], "sha256": ...}``, the hex sha256
of the table's little-endian float64 bytes, so a large world is hashed
from the arrays the reader built rather than serialized again. Reordering
keys or changing whitespace changes nothing; an entry written ``1`` or
``1.0`` in one of those tables hashes alike, and one moved by a single ulp
does not. A document with problems gets no digest.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from .aggregation import ApprovalBallot
from .assessment import DEFAULT_TEMPERATURE
from .care import DOMINANCE_THRESHOLD
from .context import ContextSpec, Norm, PrincipalClassSpec, Role, validate_context
from .errors import SchemaError
from .macid import Macid, Node, NodeKind, _check_profile, _Checked
from .mdp import MAX_ITERS_CAP, DiscountSpec, Mdp, RewardOption

SUPPORTED_SCHEMA_VERSIONS = (1,)

SECTIONS = ("context", "principals", "assessment", "aggregation", "loyalty", "care")
KNOWN_SECTIONS = set(SECTIONS) | {"schema_version", "metadata", "world"}

AGGREGATION_METHODS = ("approval", "pareto", "lexicographic")
LOYALTY_TABLES = ("principal_true", "agent_fiduciary", "agent_nonfiduciary", "system_objective")
_NEEDS_MDP = ("discount_inference", "maxent_irl", "feasibility_probe", "patient_advice")
# care step findings the audit names itself, besides ``duty:<key>``: a care
# check may not carry one of these names
RESERVED_CHECK_NAMES = ("standard", "section", "step-error")


DIGEST_PREFIX = "sha256-v2:"


def canonical_digest(raw: Mapping[str, Any], tables: Mapping[str, np.ndarray]) -> str:
    """``DIGEST_PREFIX`` and the sha256 of ``raw``'s canonical JSON (sorted
    keys, no whitespace), in which the value at each dotted path of
    ``tables`` is replaced by ``{"dtype": "<f8", "shape": [...], "sha256":
    hex}`` over that array's little-endian float64 bytes. ``tables`` holds
    every dense table the reader built, by path; only the objects on those
    paths are copied, and ``raw`` is left as it is."""
    doc = dict(raw)
    for path, table in tables.items():
        *parents, leaf = path.split(".")
        node = doc
        for key in parents:
            node[key] = node = dict(node[key])
        data = np.ascontiguousarray(table, dtype="<f8")
        node[leaf] = {"dtype": "<f8", "shape": list(data.shape), "sha256": hashlib.sha256(data).hexdigest()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return DIGEST_PREFIX + hashlib.sha256(blob).hexdigest()


# --- the reader ------------------------------------------------------------------

_REQUIRED = object()


def _object(read):
    """A read method for one JSON object: any other value is a problem."""

    @functools.wraps(read)
    def checked(self: _Reader, value: Any, path: str, **options):
        if isinstance(value, dict):
            return read(self, value, path, **options)
        self.fail(path, "must be an object")

    return checked


class _Reader:
    """One walk over a scenario document.

    Each read method takes a JSON value and its path and returns the typed
    value, or None after recording what is wrong. The walk goes on past a
    problem, so one pass finds every problem; a typed value built from a
    document with problems is never returned to a caller. The world is read
    first: later sections check their ids against its node, state and
    action ids, and loyalty checks its outcomes against the aggregation
    options.
    """

    def __init__(self) -> None:
        self.problems: list[tuple[str, str]] = []
        self.node_ids: set[str] = set()
        self.has_mdp = False
        self.states: tuple[str, ...] = ()
        self.actions: tuple[str, ...] = ()
        self.state_index: dict[str, int] = {}  # id -> index, so a policy map reads in O(S)
        self.action_index: dict[str, int] = {}
        self.default_beta = 0.9
        self.options: tuple[str, ...] | None = None  # the aggregation's, once it declares a method
        self.role_ids: set[str] | None = None  # the context's, once one is read
        self.tables: dict[str, np.ndarray] = {}  # every dense table read, by path: the digest hashes these

    def fail(self, path: str, message: str) -> None:
        self.problems.append((path, message))

    def field(self, doc: Mapping[str, Any], key: str, path: str, read, default=_REQUIRED, **options):
        """``doc[key]`` through ``read``; an absent or null field gives ``default``."""
        path = f"{path}.{key}" if path else key
        value = doc.get(key)
        if value is not None:
            return read(value, path, **options)
        if default is _REQUIRED:
            self.fail(path, "required")
            return None
        return default

    def record(self, doc: Mapping[str, Any], path: str, **reads) -> dict:
        """The named fields of ``doc``; a read given as ``(read, default)`` makes
        its field optional."""
        values = {}
        for key, read in reads.items():
            read, default = read if isinstance(read, tuple) else (read, _REQUIRED)
            values[key] = self.field(doc, key, path, read, default)
        return values

    # scalars, lists, objects and ids

    def str_(self, value: Any, path: str) -> str | None:
        if isinstance(value, str):
            return value
        self.fail(path, "string required")

    def num(self, value: Any, path: str) -> float | None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value) if self.finite(value, path) else None
        self.fail(path, "number required")

    def int_(self, value: Any, path: str) -> int | None:
        if isinstance(value, int) and not isinstance(value, bool):
            return value if self.finite(value, path) else None
        self.fail(path, "integer required")

    def count(self, value: Any, path: str) -> int | None:
        """An iteration, sample or horizon count: an integer in 1..MAX_ITERS_CAP."""
        n = self.int_(value, path)
        if n is None or 1 <= n <= MAX_ITERS_CAP:
            return n
        self.fail(path, f"count {n} outside 1..{MAX_ITERS_CAP}")

    def finite(self, value: int | float, path: str) -> bool:
        """Whether a number is finite and in float range; JSON as Python
        reads it admits NaN, Infinity and integers of any size."""
        if -sys.float_info.max <= value <= sys.float_info.max:
            return True
        self.fail(path, "finite number required")
        return False

    def bool_(self, value: Any, path: str) -> bool | None:
        if isinstance(value, bool):
            return value
        self.fail(path, "boolean required")

    @_object
    def obj(self, doc: dict, path: str) -> dict:
        return doc

    def choice(self, value: Any, path: str, options) -> str | None:
        if isinstance(value, str) and value in options:
            return value
        self.fail(path, f"must be one of {', '.join(options)}")

    def id_(self, value: Any, path: str, ids, what: str) -> str | None:
        if isinstance(value, str) and value in ids:
            return value
        self.fail(path, f"unknown {what} {value!r}")

    def index(self, value: Any, path: str, n: int) -> int | None:
        i = self.int_(value, path)
        if i is None or 0 <= i < n:
            return i
        self.fail(path, f"index {i} outside 0..{n - 1}")

    def list_(self, value: Any, path: str, item=None, length=None, nonempty=False) -> tuple | None:
        if not isinstance(value, list):
            return self.fail(path, "list required")
        if nonempty and not value:
            return self.fail(path, "non-empty list required")
        if length is not None and len(value) != length:
            return self.fail(path, f"{length} entries required, got {len(value)}")
        if item is None:
            return tuple(value)
        out = tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))
        return None if any(v is None for v in out) else out

    def strs(self, value: Any, path: str, nonempty=False, distinct=None) -> tuple[str, ...] | None:
        """Strings; with ``distinct`` (what they name), a repeat is a problem."""
        out = self.list_(value, path, self.str_, nonempty=nonempty)
        if distinct and out is not None and len(set(out)) != len(out):
            self.fail(path, f"duplicate {distinct} ids")
        return out

    def unique(self, items: tuple | None, path: str, key: str) -> None:
        """A problem at each item of the list at ``path`` whose ``key`` field
        repeats an earlier item's."""
        seen = set()
        for i, item in enumerate(items or ()):
            value = getattr(item, key)
            if value is not None and value in seen:
                self.fail(f"{path}[{i}].{key}", f"duplicate {key} {value!r}")
            seen.add(value)

    def nums(self, value: Any, path: str, length=None, nonempty=False) -> tuple[float, ...] | None:
        return self.list_(value, path, self.num, length=length, nonempty=nonempty)

    @_object
    def mapping(self, doc: dict, path: str, item) -> dict | None:
        out = {key: item(v, f"{path}.{key}") for key, v in doc.items()}
        return None if any(v is None for v in out.values()) else out

    def array(self, value: Any, path: str, shape: tuple[int, ...]) -> np.ndarray | None:
        """A dense numeric table, converted in one numpy call; a boolean
        entry is a problem, as in every other numeric field."""
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = None
        if arr is None or arr.shape != shape or arr.dtype.kind not in "iuf":
            return self.fail(path, f"dense {'x'.join(map(str, shape))} numeric table required")
        entries = value
        for _ in shape[1:]:
            entries = itertools.chain.from_iterable(entries)
        types = list(map(type, entries))  # numpy reads a boolean as 0 or 1
        if bool in types:
            at = np.unravel_index(types.index(bool), shape)
            return self.fail(path + "".join(f"[{i}]" for i in at), "number required")
        self.tables[path] = arr = arr.astype(float, copy=False)
        return arr

    # the document

    def scenario(self, raw: Any) -> SimpleNamespace | None:
        if not isinstance(raw, dict):
            self.fail("", "scenario document must be a JSON object")
            return None
        version = self.field(raw, "schema_version", "", self.int_)
        if version is not None and version not in SUPPORTED_SCHEMA_VERSIONS:
            self.fail("schema_version", f"supported versions: {SUPPORTED_SCHEMA_VERSIONS}, got {version!r}")
        for key in raw:
            if key not in KNOWN_SECTIONS:
                self.fail(key, "unknown top-level section")
        # an absent or null metadata or world reads as an empty object, so
        # their defaults are coded once, in their read methods
        meta = self.metadata({} if raw.get("metadata") is None else raw["metadata"], "metadata")
        world = self.world({} if raw.get("world") is None else raw["world"], "world")
        sections = {key: self.field(raw, key, "", getattr(self, key), default=None) for key in SECTIONS}
        if self.problems:
            return None
        return SimpleNamespace(**meta, digest=canonical_digest(raw, self.tables), world=world, **sections)

    @_object
    def metadata(self, doc: dict, path: str) -> dict:
        # metadata.seed is informational: checked to be an integer, read by no audit
        self.field(doc, "seed", path, self.int_, default=0)
        return self.record(doc, path, scenario_id=(self.str_, "unnamed"), version=(self.str_, "0"))

    # world models

    @_object
    def world(self, doc: dict, path: str) -> SimpleNamespace:
        macid, profile = self.field(doc, "macid", path, self.macid, default=None) or (None, None)
        self.has_mdp = doc.get("mdp") is not None
        mdp = self.field(doc, "mdp", path, self.mdp, default=None)
        return SimpleNamespace(macid=macid, profile=profile, mdp=mdp)

    @_object
    def node(self, doc: dict, path: str) -> Node | None:
        nid = self.field(doc, "id", path, self.str_)
        kind = self.field(doc, "kind", path, self.choice, options=("chance", "decision", "utility"))
        owner = self.field(doc, "owner", path, self.str_, default=None)
        domain = self.field(doc, "domain", path, self.strs, default=())
        if nid is not None:
            self.node_ids.add(nid)
        if nid is None or kind is None or domain is None:
            return None
        try:
            return Node(id=nid, kind=NodeKind(kind), owner=owner, domain=domain)
        except ValueError as exc:
            self.fail(path, str(exc))

    def node_tables(self, doc: Mapping[str, Any], key: str, path: str, shape, rows: bool) -> dict:
        """``{node id: array}`` for one per-node table field: the document's
        rows, one per parent assignment in declared order, reshaped onto
        ``shape(nid)``; a CPD or rule row (``rows``) is a list with one
        entry per value of the node, a utility row a number."""
        out = {}
        for nid, table in (self.field(doc, key, path, self.obj, default={}) or {}).items():
            tpath = f"{path}.{key}.{nid}"
            if self.id_(nid, tpath, self.node_ids, "node") is None:
                continue
            dims = shape(nid, rows)
            known = dims is not None
            read_row = partial(self.nums, length=dims[-1] if known else None) if rows else self.num
            table = self.list_(table, tpath, read_row, length=math.prod(dims[:-1] if rows else dims) if known else None)
            if table is not None and known:
                out[nid] = np.array(table, dtype=float).reshape(dims)
        return out

    @_object
    def macid(self, doc: dict, path: str) -> tuple[Macid, _Checked | None] | None:
        start = len(self.problems)
        nodes = self.field(doc, "nodes", path, self.list_, item=self.node, nonempty=True) or ()
        edges = {}
        for nid, parents in (self.field(doc, "edges", path, self.obj, default={}) or {}).items():
            epath = f"{path}.edges.{nid}"
            self.id_(nid, epath, self.node_ids, "node")
            edges[nid] = self.list_(parents, epath, partial(self.id_, ids=self.node_ids, what="parent"))
        sizes = {n.id: len(n.domain) for n in nodes}

        def shape(nid: str, rows: bool) -> tuple[int, ...] | None:
            """The sizes of a table of ``nid``, one per parent and, for a
            CPD or rule (``rows``), one for the node: when all are known."""
            parents = edges.get(nid, ())
            if parents is None or any(n not in sizes for n in (*parents, nid)):
                return None
            return tuple(sizes[p] for p in parents) + ((sizes[nid],) if rows else ())

        cpds = self.node_tables(doc, "cpds", path, shape, rows=True)
        utilities = self.node_tables(doc, "utilities", path, shape, rows=False)
        profile = self.node_tables(doc, "profile", path, shape, rows=True)
        agents = self.field(doc, "agents", path, self.strs)
        if len(self.problems) > start:
            return None
        try:
            model = Macid(
                nodes=nodes,
                edges={n.id: edges.get(n.id, ()) for n in nodes},
                cpds=cpds,
                utilities=utilities,
                agents=agents,
            )
        except ValueError as exc:
            self.fail(path, str(exc))
            return None
        if doc.get("profile") is None:
            return model, None
        try:
            _check_profile(model, profile)
        except ValueError as exc:
            self.fail(f"{path}.profile", str(exc))
            return None
        for rule in profile.values():
            rule.flags.writeable = False
        return model, _Checked(model, profile)

    @_object
    def mdp(self, doc: dict, path: str) -> Mdp | None:
        start = len(self.problems)
        states = self.field(doc, "states", path, self.strs, nonempty=True)
        actions = self.field(doc, "actions", path, self.strs, nonempty=True)
        if states is None or actions is None:
            return None
        self.states, self.actions = states, actions
        self.state_index = {s: i for i, s in enumerate(states)}
        self.action_index = {a: i for i, a in enumerate(actions)}
        n_s, n_a = len(states), len(actions)
        transition = self.field(doc, "transition", path, self.array, shape=(n_s, n_a, n_s))
        reward = self.field(doc, "reward", path, self.array, shape=(n_s, n_a))
        discount = self.field(doc, "discount", path, self.discount, default=None)
        if discount is not None and discount["kind"] != "exponential":
            self.fail(f"{path}.discount.kind", "must be exponential: it gives the default beta")
        if len(self.problems) > start:
            return None
        try:
            mdp = Mdp(states=states, actions=actions, transition=transition, reward=reward)
        except ValueError as exc:
            self.fail(path, str(exc))
            return None
        if discount is not None:
            try:
                self.default_beta = DiscountSpec(**discount).beta
            except ValueError as exc:
                self.fail(f"{path}.discount", str(exc))
                return None
        return mdp

    @_object
    def discount(self, doc: dict, path: str) -> dict | None:
        """DiscountSpec's keyword fields: the kind and its beta or k. DiscountSpec checks the value."""
        kind = self.field(doc, "kind", path, self.choice, options=("exponential", "hyperbolic"))
        if kind is None:
            return None
        key = "beta" if kind == "exponential" else "k"
        param = self.field(doc, key, path, self.num)
        return None if param is None else {"kind": kind, key: param}

    # context and principals

    @_object
    def context(self, doc: dict, path: str) -> ContextSpec | None:
        start = len(self.problems)
        spec = ContextSpec(
            **self.record(
                doc, path,
                name=(self.str_, ""),
                purposes=(self.strs, ()),
                roles=(partial(self.list_, item=self.role), ()),
                norms=(partial(self.list_, item=self.norm), ()),
                care_standard=(self.str_, ""),
                subsidiary_duties=(self.strs, ()),
            )
        )
        if len(self.problems) > start:
            return None
        self.role_ids = {role.id for role in spec.roles}
        for vpath, message in validate_context(spec):
            self.fail(f"{path}.{vpath}", message)
        # bound node ids must exist in the declared influence model
        for i, norm in enumerate(spec.norms):
            for key in norm.required_binding_keys():
                nid = norm.binding.get(key)
                if nid is not None and nid not in self.node_ids:
                    self.fail(f"{path}.norms[{i}].binding.{key}", f"node {nid!r} not declared in world.macid")
        return spec

    @_object
    def role(self, doc: dict, path: str) -> Role:
        return Role(**self.record(doc, path, id=self.str_, description=(self.str_, "")))

    @_object
    def norm(self, doc: dict, path: str) -> Norm:
        return Norm(
            **self.record(
                doc, path,
                sender=self.str_, receiver=self.str_, subject=self.str_, attribute=(self.str_, ""),
                transmission_principle=self.str_, binding=(partial(self.mapping, item=self.str_), {}),
            )
        )

    def principals(self, value: Any, path: str) -> tuple[PrincipalClassSpec, ...] | None:
        return self.list_(value, path, self.principal)

    @_object
    def principal(self, doc: dict, path: str) -> PrincipalClassSpec | None:
        fields = self.record(
            doc, path,
            class_id=self.str_, role=self.str_, rank=self.int_,
            relationship=partial(self.choice, options=("best_interests", "obedience")),
        )
        role = fields["role"]
        if self.role_ids is not None and role is not None and role not in self.role_ids:
            self.fail(f"{path}.role", f"undeclared role {role!r}")
        return None if fields["relationship"] is None else PrincipalClassSpec(**fields)

    # assessment

    @_object
    def assessment(self, doc: dict, path: str) -> tuple[SimpleNamespace, ...] | None:
        return self.field(doc, "methods", path, self.list_, item=self.method, nonempty=True)

    @_object
    def method(self, doc: dict, path: str) -> SimpleNamespace | None:
        options = ("prudent_investor", "preference_fit", "preference_reversal") + _NEEDS_MDP
        kind = self.field(doc, "kind", path, self.choice, options=options)
        if kind in _NEEDS_MDP and not self.has_mdp:
            self.fail(path, f"{kind} requires world.mdp")
        elif kind is not None:
            return SimpleNamespace(kind=kind, **getattr(self, kind)(doc, path))

    def trajectories(self, value: Any, path: str, step) -> tuple[tuple, ...] | None:
        """A list of trajectories, each a list of steps that ``step`` reads."""
        return self.list_(value, path, partial(self.list_, item=step))

    def step(self, value: Any, path: str) -> tuple[int, int] | None:
        """[state_index, action_index] as an index pair."""
        pair = self.list_(value, path, length=2)
        if pair is None:
            return None
        s, a = self.index(pair[0], path, len(self.states)), self.index(pair[1], path, len(self.actions))
        return None if s is None or a is None else (s, a)

    def row(self, value: Any, path: str) -> int | None:
        """[state_index, action_index] as its feature row s * A + a."""
        step = self.step(value, path)
        return None if step is None else step[0] * len(self.actions) + step[1]

    @_object
    def policy(self, doc: dict, path: str) -> np.ndarray | None:
        """A state id -> action id map naming every state, as the (S,)
        array of the action index it picks in each state."""
        start = len(self.problems)
        for s, a in doc.items():
            self.id_(s, f"{path}.{s}", self.state_index, "state")
            self.id_(a, f"{path}.{s}", self.action_index, "action")
        for s in self.states:
            if s not in doc:
                self.fail(f"{path}.{s}", "required")
        if len(self.problems) > start:
            return None
        return np.array([self.action_index[doc[s]] for s in self.states])

    def features(self, value: Any, path: str) -> np.ndarray | None:
        """A declared table as (S * A, dim) rows in MDP order, or None for
        one-hot state features."""
        if value == "one_hot_states":
            return None
        doc = self.obj(value, path)
        if doc is None:
            return None
        dim = self.field(doc, "dim", path, self.int_)
        if dim is not None and dim < 1:
            self.fail(f"{path}.dim", "at least 1 required")
        return self.field(doc, "table", path, self.table, length=len(self.states) * len(self.actions), width=dim)

    def table(self, value: Any, path: str, length=None, width=None) -> np.ndarray | None:
        """Rows of numbers, all ``width`` long (by default as long as the
        first, which must hold a number), as a (rows, width) float array."""
        if width is None and isinstance(value, list) and value and isinstance(value[0], list):
            width = len(value[0])
            if not width:
                return self.fail(path, "rows of at least one number required")
        rows = self.list_(value, path, partial(self.nums, length=width), length=length, nonempty=length is None)
        return None if rows is None else np.array(rows, dtype=float).reshape(len(rows), width)

    def prudent_investor(self, doc: Mapping[str, Any], path: str) -> dict:
        mu = self.field(doc, "mu", path, self.nums)
        n = None if mu is None else len(mu)
        sigma = self.field(doc, "sigma", path, self.list_, length=n, item=partial(self.nums, length=n))
        return {"mu": mu, "sigma": sigma, "risk_aversion": self.field(doc, "risk_aversion", path, self.num)}

    def discount_inference(self, doc: Mapping[str, Any], path: str) -> dict:
        grid = self.field(doc, "beta_grid", path, self.nums, nonempty=True) or ()
        prior = (1.0 / len(grid),) * len(grid) if grid else None
        if doc.get("prior") not in (None, "uniform"):
            prior = self.nums(doc["prior"], f"{path}.prior", length=len(grid))
        fields = self.record(doc, path, behavior=self.policy, temperature=(self.num, DEFAULT_TEMPERATURE))
        return dict(fields, beta_grid=grid, prior=prior)

    def maxent_irl(self, doc: Mapping[str, Any], path: str) -> dict:
        return self.record(
            doc, path,
            features=(self.features, None), demos=partial(self.trajectories, step=self.step),
            beta=(self.num, self.default_beta), learn_rate=self.num, iters=self.count,
        )

    def preference_fit(self, doc: Mapping[str, Any], path: str) -> dict:
        if self.has_mdp:
            fields = self.record(
                doc, path, features=(self.features, None), trajectories=partial(self.trajectories, step=self.row)
            )
        else:
            # a free-standing universe: trajectories index the feature rows
            features = self.field(doc, "feature_rows", path, self.table)
            row = self.int_ if features is None else partial(self.index, n=len(features))
            trajectories = self.field(doc, "trajectories", path, self.trajectories, step=row)
            fields = {"features": features, "trajectories": trajectories}
        n = None if fields["trajectories"] is None else len(fields["trajectories"])
        return dict(
            fields,
            **self.record(
                doc, path,
                comparisons=partial(self.list_, item=partial(self.comparison, n=n)),
                learn_rate=self.num, iters=self.count,
            ),
        )

    @_object
    def comparison(self, doc: dict, path: str, n: int | None) -> tuple[int, int, str]:
        """(left, right, preferred side); the sides index the trajectories."""
        side = self.int_ if n is None else partial(self.index, n=n)
        fields = self.record(doc, path, left=side, right=side, preferred=partial(self.choice, options=("left", "right")))
        return tuple(fields.values())

    def feasibility_probe(self, doc: Mapping[str, Any], path: str) -> dict:
        return self.record(
            doc, path,
            policy=self.policy, beta=(self.num, self.default_beta), bound=(self.num, 1.0), samples=(self.count, 3),
        )

    def patient_advice(self, doc: Mapping[str, Any], path: str) -> dict:
        return self.record(doc, path, beta_fit=self.num, beta_advice=self.num)

    def preference_reversal(self, doc: Mapping[str, Any], path: str) -> dict:
        return self.record(
            doc, path, discount=self.discount, early=self.dated_reward, late=self.dated_reward, horizon=(self.count, 10)
        )

    def dated_reward(self, value: Any, path: str) -> RewardOption | None:
        pair = self.list_(value, path, length=2)
        if pair is None:
            return None
        reward, delay = self.num(pair[0], f"{path}[0]"), self.int_(pair[1], f"{path}[1]")
        return None if reward is None or delay is None else RewardOption(reward, delay)

    # aggregation

    @_object
    def aggregation(self, doc: dict, path: str) -> SimpleNamespace:
        method = self.field(doc, "method", path, self.choice, default=None, options=AGGREGATION_METHODS)
        options = ballots = None
        utilities = {}
        if doc.get("method") is not None:
            options = self.options = self.field(doc, "options", path, self.strs, nonempty=True, distinct="option")
        if method == "approval":
            ballots = self.field(doc, "ballots", path, self.list_, item=partial(self.ballot, options=options or ()))
        elif method is not None:
            values = partial(self.nums, length=None if options is None else len(options))
            utilities = self.field(doc, "utilities", path, self.mapping, item=values)
            if utilities is not None and not utilities:
                self.fail(f"{path}.utilities", "class->values map required")
        weights = self.field(doc, "weights", path, self.mapping, default=None, item=self.num)
        agent_id = favored = cap = None
        if doc.get("weights") is not None:
            agent_id = self.field(doc, "agent_id", path, self.str_)
            favored = self.field(doc, "favored", path, self.str_, default=None)
            cap = self.field(doc, "favoritism_cap", path, self.num, default=None)
        return SimpleNamespace(
            method=method,
            options=options or (),
            ballots=ballots or (),
            utilities=utilities,
            weights=weights,
            agent_id=agent_id,
            favored=favored,
            favoritism_cap=cap,
            probe=self.field(doc, "manipulation_probe", path, self.probe, default=None),
        )

    @_object
    def ballot(self, doc: dict, path: str, options: tuple[str, ...]) -> ApprovalBallot:
        option = partial(self.id_, ids=options, what="option")
        fields = self.record(doc, path, voter=self.str_, approved=partial(self.list_, item=option))
        return ApprovalBallot(fields["voter"], frozenset(fields["approved"] or ()))

    @_object
    def probe(self, doc: dict, path: str) -> SimpleNamespace:
        rule = partial(self.choice, options=("borda", "plurality", "dictator"))
        return SimpleNamespace(
            **self.record(doc, path, rule=rule, voters=self.int_, options=self.int_, dictator_voter=(self.int_, 0))
        )

    # loyalty and care

    @_object
    def loyalty(self, doc: dict, path: str) -> SimpleNamespace:
        tpath = f"{path}.tables"
        tables = self.field(doc, "tables", path, self.obj, default={}) or {}
        from_aggregation = tables.get("aggregated_principal") == "from_aggregation"
        declared = [key for key in tables if key != "outcomes" and not (key == "aggregated_principal" and from_aggregation)]
        outcomes = self.field(
            tables, "outcomes", tpath, self.strs, default=_REQUIRED if declared else (), nonempty=True, distinct="outcome"
        )
        values = {}
        for key in declared:
            if key not in LOYALTY_TABLES + ("aggregated_principal",):
                self.fail(f"{tpath}.{key}", "unknown table role")
                continue
            values[key] = self.nums(tables[key], f"{tpath}.{key}", length=None if outcomes is None else len(outcomes))
        if from_aggregation and self.options and outcomes is not None:
            options = sorted(set(self.options))
            if sorted(outcomes) != options:
                self.fail(f"{tpath}.outcomes", f"the aggregation options {options} required")
        attestations = self.field(doc, "attestations", path, self.list_, default=(), item=self.attestation)
        self.unique(attestations, f"{path}.attestations", "duty")
        return SimpleNamespace(
            outcomes=outcomes or (),
            tables=values,
            from_aggregation=from_aggregation,
            attestations={a.duty: a for a in attestations or ()},
        )

    @_object
    def attestation(self, doc: dict, path: str) -> SimpleNamespace:
        return SimpleNamespace(**self.record(doc, path, duty=self.str_, attested=self.bool_, note=(self.str_, "")))

    @_object
    def care(self, doc: dict, path: str) -> SimpleNamespace:
        fields = self.record(
            doc, path,
            standard=self.str_, declared_checks=(self.strs, ()), checks=(partial(self.list_, item=self.care_check), ()),
        )
        self.unique(fields["checks"], f"{path}.checks", "name")
        return SimpleNamespace(**fields)

    @_object
    def care_check(self, doc: dict, path: str) -> SimpleNamespace | None:
        kinds = ("inductive_bias", "distribution_shift", "attestation")
        kind = self.field(doc, "kind", path, self.choice, options=kinds)
        fields = self.record(doc, path, name=self.str_)
        name = fields["name"]
        if name is not None and (name.startswith("duty:") or name in RESERVED_CHECK_NAMES):
            self.fail(f"{path}.name", f"name {name!r} is reserved for the audit's own findings")
        if kind == "inductive_bias":
            fields.update(
                self.record(
                    doc, path, prior=self.num, likelihood1=self.num, likelihood0=self.num,
                    dominance_threshold=(self.num, DOMINANCE_THRESHOLD),
                )
            )
        elif kind == "distribution_shift":
            support = fields["support"] = self.field(doc, "support", path, self.strs, nonempty=True) or ()
            for key in ("train", "deploy"):
                fields[key] = self.field(doc, key, path, self.nums, length=len(support))
        elif kind == "attestation":
            fields.update(self.record(doc, path, attested=self.bool_, note=(self.str_, "")))
        return None if kind is None else SimpleNamespace(kind=kind, **fields)


def validate_scenario(raw: Any) -> list[tuple[str, str]]:
    """Every schema problem as (path, message); empty means loadable."""
    reader = _Reader()
    reader.scenario(raw)
    return reader.problems


def parse_scenario(raw: Any) -> SimpleNamespace:
    """The scenario in a document; raises SchemaError at the first problem.

    Its attributes are ``scenario_id`` and ``version`` (from ``metadata``;
    "unnamed" and "0" by default), ``digest``, ``world`` and one per entry
    of ``SECTIONS``, None for an omitted section:

    - ``world``: ``macid``, ``profile`` (decision node id -> rule array,
      ``macid._Checked``) and ``mdp``, each None when not declared;
    - ``context``, a ContextSpec; ``principals``, a tuple of
      PrincipalClassSpec; ``assessment``, a tuple of methods;
    - ``aggregation``: ``method``, ``options``, ``ballots`` (a tuple of
      ApprovalBallot), ``utilities`` (class id -> row in ``options``
      order), ``weights``, ``agent_id``, ``favored``, ``favoritism_cap``
      and ``probe`` (``rule``, ``voters``, ``options``, ``dictator_voter``);
    - ``loyalty``: ``outcomes``, ``tables`` (role or
      "aggregated_principal" -> row in ``outcomes`` order),
      ``from_aggregation`` and ``attestations`` (duty key -> its
      ``duty``, ``attested`` and ``note``);
    - ``care``: ``standard``, ``declared_checks`` and ``checks``.
    """
    reader = _Reader()
    scenario = reader.scenario(raw)
    if scenario is None:
        path, message = reader.problems[0]
        more = len(reader.problems) - 1
        raise SchemaError(f"{message} (+{more} more)" if more else message, path=path)
    return scenario


def read_document(path: str | Path) -> Any:
    """The JSON document in a file; invalid UTF-8 or JSON is a SchemaError."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise SchemaError(f"not valid UTF-8 JSON: {exc}", path=str(path)) from exc


def load_scenario(path: str | Path) -> SimpleNamespace:
    return parse_scenario(read_document(path))
