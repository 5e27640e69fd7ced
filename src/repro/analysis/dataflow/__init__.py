"""``repro.analysis.dataflow``: the generic monotone-framework engine.

Self-contained (standard library only) and fully annotated — CI runs
``mypy --strict`` over this package as the repository's first typed
island.  Concrete verifier analyses live next door in the
``repro.analysis.verify_*`` modules and adapt repo objects (s-graphs,
ISA programs, parsed C reactions, CFSM networks) onto these plain
graph/lattice primitives.
"""

from .cycles import PathBounds, path_bounds
from .framework import Dataflow, DataflowDivergence, reverse_edges, reverse_postorder
from .intervals import BOOL, EMPTY, TOP, Interval, join_all
from .liveness import dead_stores, max_live, solve_liveness

__all__ = [
    "Dataflow",
    "DataflowDivergence",
    "reverse_edges",
    "reverse_postorder",
    "Interval",
    "TOP",
    "BOOL",
    "EMPTY",
    "join_all",
    "PathBounds",
    "path_bounds",
    "solve_liveness",
    "dead_stores",
    "max_live",
]
