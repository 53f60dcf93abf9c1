"""Context schema, principal identification, and the subsidiary-duty catalog.

A context names the social setting the audited system operates in: its
purposes, the roles agents can hold, and norms governing information flow
between roles. Norms carrying a confidentiality or disclosure principle
are machine-checkable only when bound to concrete model node ids;
everything else is an attestation. The shipped catalog enumerates
field-specific subsidiary duties per context, flagging which concern
information flows and which contexts are proposals not yet settled law.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import Mapping, NamedTuple, Sequence

BEST_INTERESTS = "best_interests"
OBEDIENCE = "obedience"

CONFIDENTIALITY = "confidentiality"
DISCLOSURE = "disclosure"


class Role(NamedTuple):
    id: str
    description: str = ""


class Norm:
    """A transmission-principle norm between roles about one attribute.

    ``transmission_principle`` is "confidentiality", "disclosure" or
    "attestation:<name>". ``binding`` (a new dict by default) supplies the
    node ids a checker needs:
    confidentiality -> report_node, secret_node;
    disclosure -> report_node, material_node, principal_decision.
    Attestation norms need no binding.
    """

    __slots__ = ("sender", "receiver", "subject", "attribute", "transmission_principle", "binding")

    def __init__(
        self, sender: str, receiver: str, subject: str, attribute: str, transmission_principle: str,
        binding: Mapping[str, str] | None = None,
    ) -> None:
        self.sender, self.receiver, self.subject, self.attribute = sender, receiver, subject, attribute
        self.transmission_principle = transmission_principle
        self.binding = {} if binding is None else binding

    def required_binding_keys(self) -> tuple[str, ...]:
        if self.transmission_principle == CONFIDENTIALITY:
            return ("report_node", "secret_node")
        if self.transmission_principle == DISCLOSURE:
            return ("report_node", "material_node", "principal_decision")
        return ()


class ContextSpec(NamedTuple):
    name: str
    purposes: tuple[str, ...]
    roles: tuple[Role, ...]
    norms: tuple[Norm, ...]
    care_standard: str
    subsidiary_duties: tuple[str, ...] = ()


def validate_context(spec: ContextSpec) -> list[tuple[str, str]]:
    """Every invariant violation as (path, message); an empty list means valid."""
    out: list[tuple[str, str]] = []
    if not spec.name:
        out.append(("name", "context name is empty"))
    if not spec.purposes:
        out.append(("purposes", "at least one purpose is required"))
    seen_roles: dict[str, int] = {}
    for i, role in enumerate(spec.roles):
        if role.id in seen_roles:
            out.append((f"roles[{i}].id", f"duplicate role id {role.id!r} (first declared at roles[{seen_roles[role.id]}])"))
        else:
            seen_roles[role.id] = i
    declared = set(seen_roles)
    for i, norm in enumerate(spec.norms):
        for field_name in ("sender", "receiver", "subject"):
            value = getattr(norm, field_name)
            if value not in declared:
                out.append((f"norms[{i}].{field_name}", f"undeclared role {value!r}"))
        principle = norm.transmission_principle
        missing = [k for k in norm.required_binding_keys() if k not in norm.binding]
        if principle not in (CONFIDENTIALITY, DISCLOSURE) and not principle.startswith("attestation:"):
            out.append((f"norms[{i}].transmission_principle", f"unknown principle {principle!r}"))
        elif missing:  # only confidentiality and disclosure norms require keys
            out.append((f"norms[{i}].binding", f"{principle} norms must bind node ids to be checkable; missing {missing}"))
    if not spec.care_standard:
        out.append(("care_standard", "care standard id is empty"))
    for i, key in enumerate(spec.subsidiary_duties):
        if key not in _index():
            out.append((f"subsidiary_duties[{i}]", f"unknown catalog key {key!r}"))
    return out


class PrincipalClassSpec:
    """A class of principals: rank 1 is the highest priority, and the
    relationship is "best_interests" or "obedience"."""

    __slots__ = ("class_id", "role", "rank", "relationship")

    def __init__(self, class_id: str, role: str, rank: int, relationship: str) -> None:
        if relationship not in (BEST_INTERESTS, OBEDIENCE):
            raise ValueError(f"unknown relationship model {relationship!r}")
        self.class_id, self.role, self.rank, self.relationship = class_id, role, rank, relationship


def identify_principals(
    classes: Sequence[PrincipalClassSpec],
) -> tuple[PrincipalClassSpec, ...]:
    """Classes sorted by priority rank, validated.

    Ranks must be contiguous from 1 and at least one class must be served
    on the best-interests model: obedience-only systems have consented
    operators but no principals whose interests downstream steps could
    protect (consent alone is not enough for a principal).
    """
    if not classes:
        raise ValueError("no principal classes declared")
    ids = [c.class_id for c in classes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate principal class ids")
    ranks = sorted(c.rank for c in classes)
    if ranks != list(range(1, len(classes) + 1)):
        raise ValueError(f"ranks must be contiguous from 1, got {ranks}")
    if not any(c.relationship == BEST_INTERESTS for c in classes):
        raise ValueError("at least one class must use the best-interests model")
    return tuple(sorted(classes, key=lambda c: c.rank))


def best_interest_classes(
    classes: Sequence[PrincipalClassSpec],
) -> tuple[PrincipalClassSpec, ...]:
    """Only the classes whose interests downstream steps must protect."""
    return tuple(c for c in identify_principals(classes) if c.relationship == BEST_INTERESTS)


# --- subsidiary-duty catalog ----------------------------------------------


class SubsidiaryDutyEntry(NamedTuple):
    key: str
    context_label: str
    duty: str
    kind: str  # "loyalty" | "care" | "both"
    information_flow: bool
    binding: str  # "attestation" | "automated:<operation>"
    speculative: bool
    area: str | None = None

    def automated_operation(self) -> str | None:
        if self.binding.startswith("automated:"):
            return self.binding.split(":", 1)[1]
        return None


@functools.cache
def _catalog() -> dict:
    raw = resources.files("fidaudit").joinpath("data/duty_catalog.json").read_text("utf-8")
    return json.loads(raw)


def catalog_labels() -> tuple[str, ...]:
    return tuple(ctx["label"] for ctx in _catalog()["contexts"])


@functools.cache
def _index() -> dict[str, SubsidiaryDutyEntry]:
    """Every catalog entry by its key, in catalog order, built once."""
    return {
        e["key"]: SubsidiaryDutyEntry(
            key=e["key"],
            context_label=ctx["label"],
            duty=e["duty"],
            kind=e["kind"],
            information_flow=e["information_flow"],
            binding=e["binding"],
            speculative=ctx["speculative"],
            area=e.get("area"),
        )
        for ctx in _catalog()["contexts"]
        for e in ctx["entries"]
    }


def catalog_lookup(context_label: str) -> tuple[SubsidiaryDutyEntry, ...]:
    """Entries for one catalog context; unknown labels suggest the nearest."""
    entries = tuple(e for e in _index().values() if e.context_label == context_label)
    if entries:
        return entries
    import difflib  # only an unknown label needs it, so a `check` call never loads it

    close = difflib.get_close_matches(context_label, catalog_labels(), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise ValueError(f"unknown context label {context_label!r}{hint}")


def duty_entry(key: str) -> SubsidiaryDutyEntry:
    try:
        return _index()[key]
    except KeyError:
        raise ValueError(f"unknown catalog key {key!r}") from None
