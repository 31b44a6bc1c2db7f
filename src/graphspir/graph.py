"""Simple connected graphs used as storage topologies.

Vertices are servers, numbered ``1..n_vertices``. Edges are messages: the
message with index ``k`` (1-based position in the edge tuple) is replicated
on the two endpoint servers of edge ``k``. Edges are stored normalized as
``(u, v)`` with ``u < v`` and keep the order they were supplied in, so the
message indexing of a user-supplied graph is stable.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter


def _is_index(x) -> bool:
    """Vertex and edge indices are ints; bools are rejected, not read as 0/1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _iterate(values, name: str, items: str):
    """An iterator over ``values``, which are refused by ``name`` if they are
    not iterable at all: they should have been an iterable of ``items``."""
    try:
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} must be an iterable of {items}, got {values!r}") from None


def _signed_getter(positions, signs, width: int) -> itemgetter:
    """A getter that reads a signed row off a table of ``2 * width``
    entries, a vector followed by its negation mod q (``_signed_table``):
    at each position, entry ``position`` where the sign is +1 and
    ``width + position`` where it is -1. It returns a tuple; an ``itemgetter`` of one index returns a
    bare entry, so a single position gets a one-entry slice instead."""
    at = [i if sign == 1 else width + i for i, sign in zip(positions, signs)]
    return itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))


def _signed_table(coeffs: tuple, q: int) -> tuple:
    """The table that every signed getter (``_signed_getter``) reads a
    query from: the coefficients, then their negations mod q. The +1
    entries are the coefficient objects themselves, which keeps long
    transcripts small."""
    return coeffs + tuple([-c % q for c in coeffs])


@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n_vertices
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"need at least 2 vertices, got {n!r}")
        edges, seen = [], set()
        for edge in _iterate(self.edges, "edges", "pairs"):
            # stored as tuples: lists or other sequences would make equal
            # graphs compare unequal and leave the graph unhashable. An
            # iterable edge is named as a tuple, anything else as given.
            try:
                edge = u, v = tuple(edge)
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair") from None
            if not (_is_index(u) and _is_index(v)):
                raise ValueError(f"edge {edge!r} has a non-integer endpoint")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {edge} has an endpoint outside 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge {edge} is not normalized (expected u < v)")
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)
            edges.append(edge)
        object.__setattr__(self, "edges", tuple(edges))
        if not edges:
            raise ValueError("graph has no edges")
        # a connected graph has at least n - 1 edges; refusing fewer here
        # keeps a huge declared N from building per-vertex structures
        if len(edges) < n - 1 or not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        adjacency = {v: [] for v in range(1, self.n_vertices + 1)}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        reached = {1}
        frontier = [1]
        while frontier:
            vertex = frontier.pop()
            for other in adjacency[vertex]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return len(reached) == self.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per vertex, its held edges (ascending 1-based indices) and their
        signs: +1 where it is the edge's smaller endpoint, -1 where the larger.
        These are the nonzero entries of its row of the signed incidence.

        Built once per graph on first use. ``cached_property`` stores it in
        the instance dict, outside the dataclass fields, so equality and
        hashing are unaffected.
        """
        held = [[] for _ in range(self.n_vertices)]
        signs = [[] for _ in range(self.n_vertices)]
        for k, (u, v) in enumerate(self.edges, start=1):
            held[u - 1].append(k)
            signs[u - 1].append(1)
            held[v - 1].append(k)
            signs[v - 1].append(-1)
        return tuple((tuple(h), tuple(s)) for h, s in zip(held, signs))

    @cached_property
    def _signed_gather(self) -> tuple[itemgetter, ...]:
        """Per vertex, a getter that reads its signed incidence row off a
        table of ``2 * n_edges`` entries, a per-message vector followed by
        its negation mod q (``_signed_getter``): entry ``k - 1`` where the
        vertex is edge ``k``'s smaller endpoint, ``n_edges + k - 1`` where
        it is the larger.

        Built once per graph on first use, like ``_incidence``, which it
        reads its held edges and signs from.
        """
        return tuple(
            _signed_getter([e - 1 for e in held], signs, self.n_edges)
            for held, signs in self._incidence
        )

    def degree(self, vertex: int) -> int:
        return len(self.incident_edges(vertex))

    def incident_edges(self, vertex: int) -> tuple[int, ...]:
        """Ascending 1-based indices of the edges touching ``vertex``.

        These are the message indices held by the server at ``vertex``.
        """
        self._check_vertex(vertex)
        return self._incidence[vertex - 1][0]

    def message_holders(self, k: int) -> tuple[int, int]:
        """The two servers storing message ``k``, as ``(smaller, larger)``."""
        self._check_edge(k)
        return self.edges[k - 1]

    def _check_vertex(self, vertex: int):
        if not (_is_index(vertex) and 1 <= vertex <= self.n_vertices):
            raise ValueError(f"no vertex {vertex!r} (graph has 1..{self.n_vertices})")

    def _check_edge(self, k: int):
        if not (_is_index(k) and 1 <= k <= self.n_edges):
            raise ValueError(f"no message {k!r} (graph has 1..{self.n_edges})")


def build_graph(n_vertices: int, edges) -> Graph:
    """Build a graph from possibly unordered edge pairs, preserving edge order."""
    normalized = []
    for edge in _iterate(edges, "edges", "pairs"):
        # swap only a pair of ints; ``Graph`` refuses anything else by name
        match edge:
            case (int(u), int(v)) if u > v:
                edge = (v, u)
        normalized.append(edge)
    return Graph(n_vertices, tuple(normalized))


# ---------------------------------------------------------------------------
# generators for the standard families
# ---------------------------------------------------------------------------


def _check_counts(**counts):
    """A vertex count or a degree is an int, not a bool, str or float."""
    for name, value in counts.items():
        if not _is_index(value):
            raise ValueError(f"{name} must be an int, got {value!r}")


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices: edges (1,2), (2,3), ..., (n-1, n)."""
    _check_counts(n=n)
    if n < 2:
        raise ValueError(f"a path needs at least 2 vertices, got {n}")
    return Graph(n, tuple((v, v + 1) for v in range(1, n)))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices, edges in traversal order.

    Message ``k < n`` sits between servers ``k`` and ``k+1`` and the closing
    message ``n`` between servers ``1`` and ``n``, so message indices follow
    the ring.
    """
    _check_counts(n=n)
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(v, v + 1) for v in range(1, n)]
    edges.append((1, n))
    return Graph(n, tuple(edges))


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices with the hub at vertex ``n``."""
    _check_counts(n=n)
    if n < 2:
        raise ValueError(f"a star needs at least 2 vertices, got {n}")
    return Graph(n, tuple((v, n) for v in range(1, n)))


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` vertices, edges in lexicographic order."""
    _check_counts(n=n)
    if n < 2:
        raise ValueError(f"a complete graph needs at least 2 vertices, got {n}")
    return Graph(n, tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1)))


def regular_graph(n: int, degree: int) -> Graph:
    """Connected circulant graph where every vertex has the given degree.

    Each vertex connects to its ``degree // 2`` nearest neighbours on both
    sides of a ring; when the degree is odd (which forces ``n`` even) the
    antipodal edge is added. Edges come out in lexicographic order.
    """
    _check_counts(n=n, degree=degree)
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    if degree >= n:
        raise ValueError(f"degree {degree} is not realizable on {n} vertices")
    if (n * degree) % 2 != 0:
        raise ValueError(f"no graph with {n} vertices can be {degree}-regular")
    edges = set()
    for v in range(1, n + 1):
        for offset in range(1, degree // 2 + 1):
            w = (v - 1 + offset) % n + 1
            edges.add((min(v, w), max(v, w)))
        if degree % 2 == 1:
            w = (v - 1 + n // 2) % n + 1
            edges.add((min(v, w), max(v, w)))
    return Graph(n, tuple(sorted(edges)))


# each named family's generator; only regular_graph takes a degree
_GENERATORS = dict(path=path_graph, cycle=cycle_graph, star=star_graph,
                   complete=complete_graph, regular=regular_graph)
FAMILIES = tuple(_GENERATORS)


def from_family(family: str, n: int, degree=None) -> Graph:
    """Build the canonical member of a named family. Only the regular
    family takes a degree, and it needs one."""
    if family != "regular" and degree is not None:
        raise ValueError(f"only the regular family takes a degree, got {degree!r} for {family!r}")
    if family == "regular" and degree is None:
        raise ValueError("the regular family needs a degree")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {FAMILIES})")
    generator = _GENERATORS[family]
    return generator(n) if degree is None else generator(n, degree)


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.

    The first significant line is ``N K`` (vertex and edge counts), followed
    by exactly ``K`` lines ``u v``. Blank lines and ``#`` comments (full-line
    or trailing) are ignored.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
    if not rows:
        raise ValueError("empty edge list")
    n_vertices, n_edges = rows[0]
    edges = rows[1:]
    if len(edges) != n_edges:
        raise ValueError(f"header declares {n_edges} edges but {len(edges)} follow")
    return build_graph(n_vertices, edges)

