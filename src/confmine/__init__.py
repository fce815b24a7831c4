"""Closed pattern mining and concept analysis over confluent pattern families.

The library covers four layers:

- ``order``: explicit finite posets/lattices and closure/interior operator
  construction and classification.
- ``confluence``: confluence recognition, local meets/joins, locally
  meet-closed subsets and subconfluences.
- ``families`` / ``fca``: implicit pattern families (connected subgraphs,
  bounded-gap words, explicit lists) plus object contexts, extensional
  abstractions, and support closures.
- ``miner`` / ``implications`` / ``oracle``: the depth-first closed-pattern
  enumerator and the concepts it lists, the min-max implication basis, and
  the brute-force verifier.
"""

from .confluence import (
    ExplicitConfluence,
    NotConfluenceError,
    NotLocallyMeetClosedError,
    closure_from_local_meet_subset,
    is_closed_under_local_meet,
    is_confluence,
    is_subconfluence,
)
from .families import (
    ConnectedEdgeFamily,
    ConnectedVertexFamily,
    ExplicitFamily,
    GraphSpec,
    KGapWordFamily,
    NotSubconfluenceError,
    PatternFamily,
    is_strongly_accessible,
    load_family_lines,
    load_graph,
)
from .fca import (
    ExtensionalAbstraction,
    ObjectContext,
    closure,
    extension,
    intension,
    support_closure,
    support_closure_existence_check,
    verify_extent_decomposition,
)
from .implications import (
    EquivalenceClass,
    Implication,
    equivalence_classes,
    minmax_basis,
)
from .miner import (
    Concept,
    MineEvent,
    MinerConfig,
    MinimalEvent,
    NotStronglyAccessibleError,
    PruneEvent,
    build_concept_confluence,
    mine,
    mine_trace,
)
from .oracle import (
    BudgetExceededError,
    ClosureUndefinedError,
    OracleReport,
    materialize,
    oracle_closed_set,
    oracle_closure,
    verify_all,
)
from .order import (
    FiniteLattice,
    FinitePoset,
    OperatorMap,
    Verdict,
    classify_operator,
    closure_from_subset,
    interior_from_subset,
    is_join_closed,
    is_meet_closed,
    load_poset,
    powerset_lattice,
)
from .patterns import Universe

__all__ = [
    "BudgetExceededError",
    "ClosureUndefinedError",
    "Concept",
    "ConnectedEdgeFamily",
    "ConnectedVertexFamily",
    "EquivalenceClass",
    "ExplicitConfluence",
    "ExplicitFamily",
    "ExtensionalAbstraction",
    "FiniteLattice",
    "FinitePoset",
    "GraphSpec",
    "Implication",
    "KGapWordFamily",
    "MineEvent",
    "MinerConfig",
    "MinimalEvent",
    "NotConfluenceError",
    "NotLocallyMeetClosedError",
    "NotStronglyAccessibleError",
    "NotSubconfluenceError",
    "ObjectContext",
    "OperatorMap",
    "OracleReport",
    "PatternFamily",
    "PruneEvent",
    "Universe",
    "Verdict",
    "build_concept_confluence",
    "classify_operator",
    "closure",
    "closure_from_local_meet_subset",
    "closure_from_subset",
    "equivalence_classes",
    "extension",
    "intension",
    "interior_from_subset",
    "is_closed_under_local_meet",
    "is_confluence",
    "is_join_closed",
    "is_meet_closed",
    "is_strongly_accessible",
    "is_subconfluence",
    "load_family_lines",
    "load_graph",
    "load_poset",
    "materialize",
    "mine",
    "mine_trace",
    "minmax_basis",
    "oracle_closed_set",
    "oracle_closure",
    "powerset_lattice",
    "support_closure",
    "support_closure_existence_check",
    "verify_all",
    "verify_extent_decomposition",
]
