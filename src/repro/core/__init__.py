"""The paper's primary contribution: extended safety levels, the sufficient
safe condition, its three extensions, routing strategies, and Wu's
boundary-information minimal routing protocol.

Layering (bottom-up):

- :mod:`repro.core.safety` -- extended safety levels (ESL), the 4-tuple
  ``(E, S, W, N)`` of clear distances to the nearest block per direction.
- :mod:`repro.core.conditions` -- Definition 3's safe predicate and the
  decision records shared by all extensions.
- :mod:`repro.core.segments` -- Extension 2's region/segment machinery.
- :mod:`repro.core.pivots` -- Extension 3's pivot-selection schemes.
- :mod:`repro.core.extensions` -- Theorems 1a/1b/1c as decision procedures.
- :mod:`repro.core.batched_patterns` -- the same conditions as
  cross-pattern kernels over stacked ``(batch, n, m)`` grids, used by the
  experiment sweeps (the scalar modules above are their reference).
- :mod:`repro.core.strategies` -- the paper's strategies 1-4 (combinations).
- :mod:`repro.core.boundaries` -- faulty-block boundary lines L1-L4 with
  joins, the information Wu's protocol routes by.
- :mod:`repro.core.routing` -- Wu's protocol and the two-phase routings used
  by the extensions.
"""

from repro.core.safety import UNBOUNDED, SafetyLevels, compute_safety_levels
from repro.core.conditions import (
    Decision,
    DecisionKind,
    is_safe,
    safe_source_decision,
)
from repro.core.extensions import (
    extension1_decision,
    extension2_decision,
    extension3_decision,
)
from repro.core.segments import RegionSegments, build_axis_segments
from repro.core.pivots import latin_pivots, random_pivots, recursive_center_pivots
from repro.core.strategies import Strategy, StrategyConfig, strategy_decision
from repro.core.boundaries import BoundaryMap, BoundaryTag, Line
from repro.core.routing import RoutingError, WuRouter, route_with_decision

__all__ = [
    "BoundaryMap",
    "BoundaryTag",
    "Decision",
    "DecisionKind",
    "Line",
    "RegionSegments",
    "RoutingError",
    "SafetyLevels",
    "Strategy",
    "StrategyConfig",
    "UNBOUNDED",
    "WuRouter",
    "build_axis_segments",
    "compute_safety_levels",
    "extension1_decision",
    "extension2_decision",
    "extension3_decision",
    "is_safe",
    "latin_pivots",
    "random_pivots",
    "recursive_center_pivots",
    "route_with_decision",
    "safe_source_decision",
    "strategy_decision",
]
