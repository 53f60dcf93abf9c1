"""Care diagnostics: is the system informed enough to act prudently?

``inductive_bias_diagnostic`` measures how much a binary decision was
driven by data versus prior: a likelihood ratio near one means the
evidence barely discriminates, so the posterior is inherited from the
prior rather than learned. ``distribution_shift_score`` measures how far
deployment conditions wander from training conditions, given as two rows
of probabilities over one declared support, in support order.
``prudence_report`` assembles the declared checks into the step's
findings, where missing evidence is itself a failure: a care standard is
not met by silence. It keeps every finding, two of one name included, so
a failing one can never be hidden behind a passing one.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

from .findings import FAIL, Finding

DOMINANCE_THRESHOLD = 0.1

# Standards that can be named without being declared by the context; the
# prudent-user standard is deliberately threshold-free.
BUILTIN_STANDARDS = frozenset(
    {"reasonable-person", "prudent-investor", "prudent-user"}
)

PRIOR_DOMINANCE_RATIONALE = (
    "likelihood ratio near 1: the evidence barely separates the hypotheses, "
    "so this decision is inherited from the prior rather than informed by "
    "the training data"
)


def inductive_bias_diagnostic(
    prior: float, likelihood1: float, likelihood0: float, dominance_threshold: float = DOMINANCE_THRESHOLD
) -> SimpleNamespace:
    """Likelihood ratio, Bayes posterior, and a prior-dominance flag.

    ``prior`` is P(h = 1), in [0, 1]; ``likelihood1`` is P(data | h = 1)
    and ``likelihood0`` is P(data | h = 0), each in (0, 1].

    The flag trips when |ln ratio| falls under ``dominance_threshold``; a
    log-scale band treats ratio r and 1/r symmetrically. A prior of exactly
    0 or 1 pins the posterior regardless of evidence and is flagged as
    degenerate. The diagnostic's attributes are ``ratio``, ``posterior``,
    ``prior_dominated``, ``degenerate_prior`` and ``rationale``, empty
    unless the prior dominates.
    """
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {prior}")
    for name, val in (("likelihood1", likelihood1), ("likelihood0", likelihood0)):
        if not val > 0.0:
            raise ValueError(f"{name} must be strictly positive, got {val}")
        if val > 1.0:
            raise ValueError(f"{name} must be at most 1, got {val}")
    if not dominance_threshold > 0:
        raise ValueError("dominance_threshold must be positive")
    ratio = likelihood1 / likelihood0
    if ratio == 1.0:
        # equal likelihoods cancel algebraically; keep the prior bit-exact
        posterior = prior
    else:
        numerator = prior * likelihood1
        posterior = numerator / (numerator + (1.0 - prior) * likelihood0)
    dominated = abs(math.log(ratio)) < dominance_threshold
    return SimpleNamespace(
        ratio=ratio,
        posterior=posterior,
        prior_dominated=dominated,
        degenerate_prior=prior in (0.0, 1.0),
        rationale=PRIOR_DOMINANCE_RATIONALE if dominated else "",
    )


def distribution_shift_score(
    support: Sequence[str], train: Sequence[float], deploy: Sequence[float]
) -> SimpleNamespace:
    """KL(deploy || train) in nats; non-negative, zero only on equal inputs.

    ``train`` and ``deploy`` are rows of probabilities over ``support``,
    in its order: one non-negative entry per support point, summing to 1.

    This direction penalizes deployment mass in regions the training
    distribution never covered; when that mass sits on a training zero the
    divergence is infinite and is reported as a violation of absolute
    continuity rather than as a number. The score's attributes are
    ``kl_nats`` (None on a violation), ``absolute_continuity_violation``
    and ``violating_points``, the support points of that mass (empty
    without a violation).
    """
    if len(set(support)) != len(support):
        raise ValueError("support has duplicate points")
    for name, dist in (("train", train), ("deploy", deploy)):
        if len(dist) != len(support):
            raise ValueError(
                f"{name} distribution has {len(dist)} entries, expected one per support point ({len(support)})"
            )
        for x, p in zip(support, dist):
            if not p >= 0:
                raise ValueError(f"{name} distribution has negative or NaN mass {p} at {x!r}")
        total = sum(dist)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"{name} distribution sums to {total}")
    violating = tuple(x for x, p, q in zip(support, train, deploy) if q > 0.0 and p == 0.0)
    if violating:
        return SimpleNamespace(kl_nats=None, absolute_continuity_violation=True, violating_points=violating)
    kl = 0.0
    for p, q in zip(train, deploy):
        if q > 0.0:
            kl += q * math.log(q / p)
    # mathematically non-negative; clamp float residue from near-equal inputs
    return SimpleNamespace(kl_nats=max(kl, 0.0), absolute_continuity_violation=False, violating_points=())


def prudence_report(
    standard: str,
    declared_checks: Sequence[str],
    findings: Sequence[Finding],
    known_standards: frozenset[str] = BUILTIN_STANDARDS,
) -> list[Finding]:
    """Assemble the care step: every declared check must be present.

    Each declared check brings every finding of its name, in declared
    order, and the other findings follow. A declared check with no finding
    fails the step outright (care means being highly informed before
    acting; absent evidence is negligence, not neutrality), with the
    declared name and the checks that did run as its witness. A standard
    not in ``known_standards`` is one ``standard`` FAIL ahead of the
    assembled findings, which it hides none of. The step's status is the
    ``worst`` of the findings', so adding a failing finding can never
    upgrade it.
    """
    assembled = []
    if standard not in known_standards:
        error = f"care standard {standard!r} is not declared for this context"
        assembled.append(Finding("standard", FAIL, error, {"standard": standard, "error": error}))
    ran = [f.check for f in findings]
    for name in declared_checks:
        assembled += [f for f in findings if f.check == name] or [
            Finding(
                name,
                FAIL,
                "declared check missing: no evidence was provided",
                {"declared_check": name, "checks_run": ran},
            )
        ]
    return assembled + [f for f in findings if f.check not in declared_checks]
