"""subcount: exact pattern counting with certified reductions.

The package is organized in layers.  ``graphs``/``polynomials`` hold the
primitives, ``brute`` the exhaustive reference counters, and the remaining
modules each implement one counting technique on top of an injected oracle so
that every reduction can be exercised against the brute layer.
"""

from .graphs import Graph, InconsistencyError, PreconditionError, min_vertex_cover
from .polynomials import falling_factorial

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "PreconditionError",
    "InconsistencyError",
    "min_vertex_cover",
    "falling_factorial",
    "__version__",
]
