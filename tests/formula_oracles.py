"""Hand-written closed-form query and answer tables for four small systems.

Each table below spells out, symbol by symbol, what every server is asked
and what it must reply in one single-symbol retrieval round: the mask
coefficient times each stored message plus the signed pad contribution,
with a unit selector added at the larger-indexed holder of the requested
message. The formulas were transcribed directly from the per-server
algebra — not produced by calling the protocol code — so tests can compare
the implementation against an independent derivation term for term.

Sign convention throughout: an edge contributes with coefficient +1 at its
smaller-indexed endpoint and -1 at its larger-indexed endpoint.
"""

from dataclasses import dataclass
from typing import Callable

from graphspir import (
    Graph,
    PrimeField,
    build_graph,
    cycle_graph,
    path_graph,
    star_graph,
)


def paw_graph() -> Graph:
    """Triangle on vertices 1,2,3 with a pendant vertex 4 hanging off 3."""
    return build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


@dataclass(frozen=True)
class ClosedFormSystem:
    """One reference system: graph plus per-server closed-form tables.

    ``base_queries``/``base_answers`` give the masked rows with no selector;
    ``selector`` maps each message index to the frozen (server, position)
    where the unit selector lands — always the larger-indexed holder.
    """

    name: str
    build: Callable[[], Graph]
    selector: dict
    base_queries: Callable
    base_answers: Callable

    @property
    def n_messages(self) -> int:
        return len(self.selector)

    def queries(self, field: PrimeField, h: tuple, theta: int) -> tuple:
        rows = [list(row) for row in self.base_queries(field, h)]
        server, position = self.selector[theta]
        rows[server - 1][position] = (rows[server - 1][position] + 1) % field.modulus
        return tuple(tuple(row) for row in rows)

    def answers(
        self, field: PrimeField, h: tuple, w: tuple, r: tuple, theta: int
    ) -> tuple:
        out = list(self.base_answers(field, h, w, r))
        server, _ = self.selector[theta]
        out[server - 1] = (out[server - 1] + w[theta - 1]) % field.modulus
        return tuple(out)


def _path3_queries(f: PrimeField, h: tuple) -> tuple:
    q = f.modulus
    h1, h2 = h
    return ((h1,), (-h1 % q, h2), (-h2 % q,))


def _path3_answers(f: PrimeField, h: tuple, w: tuple, r: tuple) -> tuple:
    q = f.modulus
    (h1, h2), (w1, w2), (r1, r2) = h, w, r
    return (
        (h1 * w1 + r1) % q,
        (-h1 * w1 + h2 * w2 - r1 + r2) % q,
        (-h2 * w2 - r2) % q,
    )


def _cycle3_queries(f: PrimeField, h: tuple) -> tuple:
    q = f.modulus
    h1, h2, h3 = h
    return ((h1, h3), (-h1 % q, h2), (-h2 % q, -h3 % q))


def _cycle3_answers(f: PrimeField, h: tuple, w: tuple, r: tuple) -> tuple:
    q = f.modulus
    (h1, h2, h3), (w1, w2, w3), (r1, r2, r3) = h, w, r
    return (
        (h1 * w1 + h3 * w3 + r1 + r3) % q,
        (-h1 * w1 + h2 * w2 - r1 + r2) % q,
        (-h2 * w2 - h3 * w3 - r2 - r3) % q,
    )


def _star4_queries(f: PrimeField, h: tuple) -> tuple:
    q = f.modulus
    h1, h2, h3 = h
    return ((h1,), (h2,), (h3,), (-h1 % q, -h2 % q, -h3 % q))


def _star4_answers(f: PrimeField, h: tuple, w: tuple, r: tuple) -> tuple:
    q = f.modulus
    (h1, h2, h3), (w1, w2, w3), (r1, r2, r3) = h, w, r
    hub = -(h1 * w1 + h2 * w2 + h3 * w3 + r1 + r2 + r3) % q
    return (
        (h1 * w1 + r1) % q,
        (h2 * w2 + r2) % q,
        (h3 * w3 + r3) % q,
        hub,
    )


def _paw_queries(f: PrimeField, h: tuple) -> tuple:
    q = f.modulus
    h1, h2, h3, h4 = h
    return (
        (h1, h2),
        (-h1 % q, h3),
        (-h2 % q, -h3 % q, h4),
        (-h4 % q,),
    )


def _paw_answers(f: PrimeField, h: tuple, w: tuple, r: tuple) -> tuple:
    q = f.modulus
    (h1, h2, h3, h4), (w1, w2, w3, w4), (r1, r2, r3, r4) = h, w, r
    return (
        (h1 * w1 + h2 * w2 + r1 + r2) % q,
        (-h1 * w1 + h3 * w3 - r1 + r3) % q,
        (-h2 * w2 - h3 * w3 + h4 * w4 - r2 - r3 + r4) % q,
        (-h4 * w4 - r4) % q,
    )


SYSTEMS = (
    ClosedFormSystem(
        name="path-3",
        build=lambda: path_graph(3),
        selector={1: (2, 0), 2: (3, 0)},
        base_queries=_path3_queries,
        base_answers=_path3_answers,
    ),
    ClosedFormSystem(
        name="cycle-3",
        build=lambda: cycle_graph(3),
        selector={1: (2, 0), 2: (3, 0), 3: (3, 1)},
        base_queries=_cycle3_queries,
        base_answers=_cycle3_answers,
    ),
    ClosedFormSystem(
        name="star-4",
        build=lambda: star_graph(4),
        selector={1: (4, 0), 2: (4, 1), 3: (4, 2)},
        base_queries=_star4_queries,
        base_answers=_star4_answers,
    ),
    ClosedFormSystem(
        name="paw-4",
        build=paw_graph,
        selector={1: (2, 0), 2: (3, 0), 3: (3, 1), 4: (4, 0)},
        base_queries=_paw_queries,
        base_answers=_paw_answers,
    ),
)
