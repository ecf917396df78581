"""Exact evaluation of labelings under the six normalized objectives.

Every value is a share of the total weight sigma.  With r the satisfied
weight over sigma, max-ugp, max-pwt and min-nwa report r, and min-ugp,
min-pwt and max-nwa report 1 - r, so within each family the max and min
values of one labeling sum to exactly 1.  The families' preconditions:

* UGP  -- all weights positive; values in [0, 1];
* PWT  -- mixed signs with positive sigma; values may be negative or exceed 1;
* NWA  -- all weights negative, so sigma < 0 and r = |satisfied| / |sigma|;
  values in [0, 1].

Every weight sum runs over the instance's ``integer_weights`` (see ``core``).
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


Tables = dict[tuple[int, int], list[list[int]]]


def pair_tables(
    edges: Sequence[GugpEdge | RelEdge], weights: Sequence[int], k1: int, k2: int
) -> Tables:
    """Integer satisfied-weight table per oriented vertex pair.

    ``tables[u, v][a][b]`` is the summed weight of the (u, v) edges that the
    labels a at u and b at v satisfy, where ``weights[i]`` is edge i's
    weight.  Row and column 0 are padding so 1-indexed labels index
    directly.  Each table is (k1+1) x (k2+1); filling it costs O(k) per
    permutation edge and O(|R|) per relation edge.  Its callers want whole
    rows: ``verification`` tables one gadget bundle at a time, and
    ``solvers._plan`` only the edges between two prefix vertices, whose
    rows the walk sums.
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

