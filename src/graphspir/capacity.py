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


def achievable_rate(g: Graph) -> Fraction:
    """The scheme's rate on ``g``: message symbols per downloaded symbol."""
    return Fraction(1, g.n_vertices)


def is_path(g: Graph) -> bool:
    """Structurally a path: connected with exactly two degree-1 endpoints
    and every other vertex of degree 2."""
    degrees = Counter(g.degree(v) for v in range(1, g.n_vertices + 1))
    return degrees[1] == 2 and degrees[2] == g.n_vertices - 2


def is_cycle(g: Graph) -> bool:
    """Structurally a cycle: connected and 2-regular."""
    return g.is_regular() == 2


def spir_capacity(g: Graph):
    """Exact symmetric-retrieval capacity, or None where no converse is known.

    ``1/N`` for paths and regular graphs (matching upper bounds exist);
    two-server systems hold a single message, so retrieval is trivial and
    the capacity is 1. Returns None for every other topology — the scheme's
    ``1/N`` is then only a lower bound.
    """
    if g.n_vertices == 2:
        return Fraction(1)
    if is_path(g) or g.is_regular() is not None:
        return Fraction(1, g.n_vertices)
    return None


def pir_reference(g: Graph):
    """Tabulated capacity of the non-symmetric variant, where known.

    ``2/N`` on paths and ``2/(N+1)`` on cycles; None elsewhere. On paths the
    symmetric capacity is exactly half of this; on cycles it is strictly
    larger than half (``1/N > 1/(N+1)``).
    """
    if g.n_vertices == 2:
        return Fraction(1)
    if is_cycle(g):
        return Fraction(2, g.n_vertices + 1)
    if is_path(g):
        return Fraction(2, g.n_vertices)
    return None


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
    if value is None:
        return None
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def capacity_report(g: Graph, graph_name: str = "graph") -> CapacityReport:
    capacity = spir_capacity(g)
    if g.n_vertices == 2:
        capacity_note = "single-message system: retrieval is trivial"
    elif capacity is None:
        capacity_note = (
            "unknown: no matching upper bound for this topology; "
            "the achievable rate is a lower bound"
        )
    elif is_path(g):
        capacity_note = "exact: matching upper bound known for paths"
    else:
        capacity_note = "exact: matching upper bound known for regular graphs"

    pir = pir_reference(g)
    if g.n_vertices == 2:
        pir_note = "single-message system: retrieval is trivial"
    elif pir is None:
        pir_note = "no tabulated value for this topology"
    elif is_cycle(g):
        pir_note = "tabulated cycle value; symmetric capacity exceeds half of it"
    else:
        pir_note = "tabulated path value; symmetric capacity is exactly half of it"

    return CapacityReport(
        graph_name=graph_name,
        n_servers=g.n_vertices,
        n_messages=g.n_edges,
        achievable_rate=achievable_rate(g),
        capacity=capacity,
        capacity_note=capacity_note,
        pir_reference=pir,
        pir_note=pir_note,
        regular_degree=g.is_regular(),
    )
