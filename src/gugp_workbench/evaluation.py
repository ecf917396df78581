"""Exact evaluation of labelings under the six normalized objectives.

Every value is a share of the total weight sigma.  With r the satisfied
weight over sigma, max-ugp, max-pwt and min-nwa report r, and min-ugp,
min-pwt and max-nwa report 1 - r, so within each family the max and min
values of one labeling sum to exactly 1.  The families' preconditions:

* UGP  -- all weights positive; values in [0, 1];
* PWT  -- mixed signs with positive sigma; values may be negative or exceed 1;
* NWA  -- all weights negative, so sigma < 0 and r = |satisfied| / |sigma|;
  values in [0, 1].

Every weight sum runs over the instance's ``integer_weights`` (see ``core``),
one labeling at a time: the exhaustive scans (``solvers``) and the bundle
checks (``verification``) fill their own label tables in their own passes.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction

from .core import (
    GugpInstance,
    InstanceMetrics,
    Labeling,
    RelationalInstance,
    metrics,
)
from .errors import (
    DegenerateInstanceError,
    ObjectiveMismatchError,
    ValidationError,
)


class Objective(enum.Enum):
    MAX_UGP = "max-ugp"
    MIN_UGP = "min-ugp"
    MAX_PWT = "max-pwt"
    MIN_PWT = "min-pwt"
    MAX_NWA = "max-nwa"
    MIN_NWA = "min-nwa"


def check_labeling(
    instance: GugpInstance | RelationalInstance, labeling: Labeling
) -> None:
    if len(labeling) != instance.n:
        raise ValidationError(
            f"labeling has {len(labeling)} entries, instance has {instance.n} vertices"
        )
    for v, label in enumerate(labeling):
        k = instance.label_count(v)
        if not 1 <= label <= k:
            raise ValidationError(
                f"label {label} at vertex {v} out of range [1..{k}]"
            )


def satisfied_weight(
    instance: GugpInstance | RelationalInstance, labeling: Labeling
) -> Fraction:
    """Weight of the edges with pi(f(u)) = f(v), or (f(u), f(v)) in R."""
    check_labeling(instance, labeling)
    edges = instance.edges
    scale, weights = instance.integer_weights
    if isinstance(instance, GugpInstance):
        hits = (e.pi.image[labeling[e.u] - 1] == labeling[e.v] for e in edges)
    else:
        hits = ((labeling[e.u], labeling[e.v]) in e.rel for e in edges)
    return Fraction(sum(itertools.compress(weights, hits)), scale)


def unsatisfied_weight(instance: GugpInstance, labeling: Labeling) -> Fraction:
    return metrics(instance).sigma - satisfied_weight(instance, labeling)


def require_objective(
    instance: GugpInstance | RelationalInstance, objective: Objective
) -> InstanceMetrics:
    """Raise unless the instance's weight signs fit the objective family;
    return the instance's metrics."""
    m = metrics(instance)
    if objective in (Objective.MAX_UGP, Objective.MIN_UGP):
        if m.w_minus != 0:
            raise ObjectiveMismatchError(
                f"{objective.value} requires all weights positive"
            )
    elif objective in (Objective.MAX_PWT, Objective.MIN_PWT):
        if m.sigma <= 0:
            raise ObjectiveMismatchError(
                f"{objective.value} requires positive total weight"
            )
    else:
        if m.w_plus != 0:
            raise ObjectiveMismatchError(
                f"{objective.value} requires all weights negative"
            )
    return m


def objective_normalizer(m: InstanceMetrics, objective: Objective) -> Fraction:
    """The denominator of the objective's values: the total weight sigma,
    negative for NWA; ``DegenerateInstanceError`` when it is 0."""
    if m.sigma == 0:
        raise DegenerateInstanceError(
            f"{objective.value} value undefined: zero normalizer"
        )
    return m.sigma


# the objectives that report the unsatisfied share 1 - r
_UNSATISFIED_SHARE = (Objective.MIN_UGP, Objective.MIN_PWT, Objective.MAX_NWA)


def labeling_value(
    instance: GugpInstance | RelationalInstance,
    labeling: Labeling,
    objective: Objective,
) -> Fraction:
    sigma = objective_normalizer(require_objective(instance, objective), objective)
    r = satisfied_weight(instance, labeling) / sigma
    return 1 - r if objective in _UNSATISFIED_SHARE else r

