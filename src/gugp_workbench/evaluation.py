"""Exact evaluation of labelings under the six normalized objectives.

Objective families and their preconditions:

* UGP  -- all weights positive; values are satisfied (max) or unsatisfied
  (min) weight over the total weight, always in [0, 1];
* PWT  -- mixed signs with positive total; values are satisfied (max) or
  unsatisfied (min) weight over the total, may be negative or exceed 1;
* NWA  -- all weights negative; values are |unsatisfied| (max) or
  |satisfied| (min) weight over |total|, always in [0, 1].

Within each family the max and min values of one labeling sum to exactly 1.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from typing import Sequence

from .core import (
    GugpEdge,
    GugpInstance,
    InstanceMetrics,
    Labeling,
    RelEdge,
    RelationalInstance,
    metrics,
    scaled_weights,
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


def _scaled_satisfied(
    instance: GugpInstance | RelationalInstance, labeling: Labeling
) -> tuple[int, int, list[int]]:
    """The satisfied weight and the edge weights, as integers times scale."""
    check_labeling(instance, labeling)
    edges = instance.edges
    scale, weights = scaled_weights([e.weight for e in edges])
    if isinstance(instance, GugpInstance):
        hits = (e.pi.image[labeling[e.u] - 1] == labeling[e.v] for e in edges)
    else:
        hits = ((labeling[e.u], labeling[e.v]) in e.rel for e in edges)
    return sum(itertools.compress(weights, hits)), scale, weights


def satisfied_weight(
    instance: GugpInstance | RelationalInstance, labeling: Labeling
) -> Fraction:
    """Weight of the edges with pi(f(u)) = f(v), or (f(u), f(v)) in R."""
    satisfied, scale, _ = _scaled_satisfied(instance, labeling)
    return Fraction(satisfied, scale)


def unsatisfied_weight(instance: GugpInstance, labeling: Labeling) -> Fraction:
    return metrics(instance).sigma - satisfied_weight(instance, labeling)


Tables = dict[tuple[int, int], list[list[int]]]


def pair_tables(
    edges: Sequence[GugpEdge | RelEdge], weights: Sequence[int], k1: int, k2: int
) -> Tables:
    """Integer satisfied-weight table per oriented vertex pair.

    ``tables[u, v][a][b]`` is the summed weight of the (u, v) edges that the
    labels a at u and b at v satisfy, where ``weights[i]`` is edge i's
    weight.  Row and column 0 are padding so 1-indexed labels index
    directly.  Each table is (k1+1) x (k2+1); filling it costs O(k) per
    permutation edge and O(|R|) per relation edge.
    """
    tables: Tables = {}
    for e, w in zip(edges, weights):
        table = tables.get((e.u, e.v))
        if table is None:
            table = tables[e.u, e.v] = [[0] * (k2 + 1) for _ in range(k1 + 1)]
        pairs = e.rel.pairs if isinstance(e, RelEdge) else enumerate(e.pi.image, 1)
        for a, b in pairs:
            table[a][b] += w
    return tables


def require_objective(instance: GugpInstance, objective: Objective) -> InstanceMetrics:
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
    """The denominator of the objective's values: |negative weight| for NWA,
    the total weight otherwise; ``DegenerateInstanceError`` when it is 0."""
    if objective in (Objective.MAX_NWA, Objective.MIN_NWA):
        normalizer = abs(m.w_minus)
    else:
        normalizer = m.sigma
    if normalizer == 0:
        raise DegenerateInstanceError(
            f"{objective.value} value undefined: zero normalizer"
        )
    return normalizer


def labeling_value(
    instance: GugpInstance, labeling: Labeling, objective: Objective
) -> Fraction:
    m = require_objective(instance, objective)
    normalizer = objective_normalizer(m, objective)
    satisfied = satisfied_weight(instance, labeling)
    if objective is Objective.MAX_UGP or objective is Objective.MAX_PWT:
        numerator = satisfied
    elif objective is Objective.MIN_UGP or objective is Objective.MIN_PWT:
        numerator = m.sigma - satisfied
    elif objective is Objective.MAX_NWA:
        numerator = abs(m.sigma - satisfied)
    else:
        numerator = abs(satisfied)
    return numerator / normalizer


def relational_value(instance: RelationalInstance, labeling: Labeling) -> Fraction:
    """Satisfied-weight fraction of a labeling, in [0, 1]."""
    if not instance.edges:
        raise DegenerateInstanceError("relational value undefined: no edges")
    satisfied, _, weights = _scaled_satisfied(instance, labeling)
    return Fraction(satisfied, sum(weights))
