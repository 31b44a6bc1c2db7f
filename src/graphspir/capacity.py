"""Exact rate and capacity bookkeeping for the retrieval scheme.

All values are exact rationals. The scheme downloads one symbol per server
per retrieved symbol, so its rate is ``1/N`` on any topology. For paths and
for regular graphs a matching converse is known, making ``1/N`` the exact
symmetric-retrieval capacity there; elsewhere only the achievable lower
bound is reported. Reference values for the weaker, non-symmetric variant
of the problem are tabulated for paths (``2/N``) and cycles (``2/(N+1)``).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph


_TRIVIAL = "single-message system: retrieval is trivial"
_EXACT_REGULAR = "exact: matching upper bound known for regular graphs"
_UNKNOWN = (
    "unknown: no matching upper bound for this topology; "
    "the achievable rate is a lower bound"
)
_UNTABULATED = "no tabulated value for this topology"


@dataclass(frozen=True)
class CapacityReport:
    graph_name: str
    n_servers: int
    n_messages: int
    achievable_rate: Fraction
    capacity: Fraction | None
    capacity_note: str
    pir_reference: Fraction | None
    pir_note: str
    regular_degree: int | None

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "servers": self.n_servers,
            "messages": self.n_messages,
            "achievable_rate": _render(self.achievable_rate),
            "capacity": _render(self.capacity),
            "capacity_note": self.capacity_note,
            "pir_reference": _render(self.pir_reference),
            "pir_note": self.pir_note,
            "regular_degree": self.regular_degree,
        }


def _render(value):
    """Rationals as exact ``p/q`` strings (integers keep a ``/1``-free form)."""
    return None if value is None else str(value)


def capacity_report(g: Graph, graph_name: str = "graph") -> CapacityReport:
    """``g``'s rate, its capacity values and notes, and its regular degree
    (None unless every vertex has one degree), all read from one count of
    vertex degrees.

    The five classes do not overlap on a connected graph: two servers (a
    single edge, so retrieval is trivial), a cycle (2-regular), any other
    regular graph, a path (two vertices of degree 1, the rest of degree 2)
    and the rest. A path on three or more vertices has degrees 1 and 2
    both, so it is never regular.
    """
    n = g.n_vertices
    degrees = Counter(len(held) for held, _ in g._incidence)
    degree = next(iter(degrees)) if len(degrees) == 1 else None
    # the capacity, its note, the PIR reference and its note
    if n == 2:
        values = Fraction(1), _TRIVIAL, Fraction(1), _TRIVIAL
    elif degree == 2:
        values = (
            Fraction(1, n), _EXACT_REGULAR,
            Fraction(2, n + 1), "tabulated cycle value; symmetric capacity exceeds half of it",
        )
    elif degree is not None:
        values = Fraction(1, n), _EXACT_REGULAR, None, _UNTABULATED
    elif degrees == {1: 2, 2: n - 2}:
        values = (
            Fraction(1, n), "exact: matching upper bound known for paths",
            Fraction(2, n), "tabulated path value; symmetric capacity is exactly half of it",
        )
    else:
        values = None, _UNKNOWN, None, _UNTABULATED
    return CapacityReport(graph_name, n, g.n_edges, Fraction(1, n), *values, degree)
