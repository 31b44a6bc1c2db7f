"""Retrieval protocol over 2-replicated graph storage.

Each message lives on an edge of the storage graph and is replicated, along
with a uniformly random pad of the same shape, on the edge's two endpoint
servers. A retrieval round for one symbol slot works like this:

* the user draws one uniform mask coefficient per message;
* each server receives the signed, masked coefficients of the messages it
  holds (sign +1 at an edge's smaller endpoint, -1 at the larger), with 1
  added at the target message's coordinate on its larger-indexed holder;
* each server answers with the inner product of its query and its stored
  messages, plus the signed sum of its pads;
* the user adds up all answers. Both signed copies of every masked message
  term and every pad cancel, leaving exactly the target symbol.

Messages that are ``message_length`` symbols long are retrieved by running
the single-symbol round once per slot with fresh mask coefficients; pads are
consumed per slot as well. Download is one symbol per server per slot.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .field import PrimeField
from .graph import Graph, _is_index, _iterate, _signed_table


@dataclass(frozen=True)
class ServerStore:
    """Everything one server knows: its held message indices (ascending),
    the signs of its incidence-row entries, and its message and pad copies
    aligned with those indices.

    Two views that ``_answer_slots`` reads, the message columns and the pad
    sums, are built once per store on first use. ``cached_property`` stores
    them in the instance dict, outside the dataclass fields, so equality,
    hashing and ``repr`` are unaffected.
    """

    server: int
    held: tuple[int, ...]
    signs: tuple[int, ...]
    messages: tuple[tuple[int, ...], ...]
    pads: tuple[tuple[int, ...], ...]

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Per slot, the held messages' symbols in that slot."""
        return tuple(zip(*self.messages))

    @cached_property
    def _pad_sums(self) -> tuple[int, ...]:
        """Per slot, the signed sum of the held pads' symbols in that slot,
        unreduced. A slot past a pad's length gets nothing from that pad."""
        sums = [0] * len(self._columns)
        for sign, pad in zip(self.signs, self.pads):
            for slot, symbol in enumerate(pad[:len(sums)]):
                sums[slot] += sign * symbol
        return tuple(sums)


@dataclass(frozen=True)
class SystemState:
    graph: Graph
    field: PrimeField
    message_length: int
    pad_length: int
    stores: tuple[ServerStore, ...]

    def message(self, k: int) -> tuple[int, ...]:
        """The stored message ``k`` (read from its smaller-indexed holder)."""
        holder, _ = self.graph.message_holders(k)
        store = self.stores[holder - 1]
        return store.messages[store.held.index(k)]


def _resolve_pad_length(message_length, pad_length) -> int:
    """The pad length, ``message_length`` by default, once both lengths are
    known to be ints (not bools) with ``1 <= message_length`` and
    ``0 <= pad_length <= message_length``: pads longer than messages would
    never be consumed."""
    if not (_is_index(message_length) and message_length >= 1):
        raise ValueError(f"message_length must be an int >= 1, got {message_length!r}")
    if pad_length is None:
        return message_length
    if not (_is_index(pad_length) and 0 <= pad_length <= message_length):
        raise ValueError(
            f"pad_length must be an int in 0..{message_length}, got {pad_length!r}"
        )
    return pad_length


def _vector(values, name: str) -> tuple:
    """``values`` as a tuple, refused by ``name`` if it is not iterable."""
    return values if type(values) is tuple else tuple(_iterate(values, name, "field elements"))


def _vectors(values, name: str, item: str) -> tuple[tuple, ...]:
    """``values`` as a tuple of tuples, refused by ``name`` if it is not
    iterable and by ``item`` if one of its entries is not."""
    return tuple(_vector(v, item) for v in _iterate(values, name, "vectors"))


def _place(graph: Graph, messages, pads) -> tuple[ServerStore, ...]:
    """Unchecked core of ``state_from_values``: every server's store of the
    per-edge ``messages`` and ``pads``."""
    return tuple(
        ServerStore(server, held, signs,
                    tuple(messages[k - 1] for k in held), tuple(pads[k - 1] for k in held))
        for server, (held, signs) in enumerate(graph._incidence, start=1)
    )


def state_from_values(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    messages,
    pads,
) -> SystemState:
    """Build a system state from explicit message and pad vectors.

    ``messages`` must hold one ``message_length``-symbol vector per edge;
    ``pads`` one vector per edge, all of one common length (the pad length,
    normally equal to ``message_length``). Both holders of an edge receive
    identical copies.
    """
    messages = _vectors(messages, "messages", "each message")
    pads = _vectors(pads, "pads", "each pad")
    pad_length = _resolve_pad_length(message_length, len(pads[0]) if pads else 0)
    if len(messages) != graph.n_edges:
        raise ValueError(f"expected {graph.n_edges} messages, got {len(messages)}")
    if len(pads) != graph.n_edges:
        raise ValueError(f"expected {graph.n_edges} pads, got {len(pads)}")
    for m in messages:
        if len(m) != message_length:
            raise ValueError(f"message {m} is not {message_length} symbols long")
        for s in m:
            field.check(s)
    for p in pads:
        if len(p) != pad_length:
            raise ValueError("pads must all have the same length")
        for s in p:
            field.check(s)
    return SystemState(graph, field, message_length, pad_length, _place(graph, messages, pads))


def init_system(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    rng,
    pad_length=None,
) -> SystemState:
    """Draw uniform messages and pads and place replicas on the holders.

    ``pad_length`` defaults to ``message_length`` (one fresh pad symbol per
    message symbol); smaller values leave the trailing symbol slots bare and
    exist to demonstrate that database privacy then breaks. The drawn
    symbols are field elements by construction, so they are placed
    unchecked.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    messages, pads = zip(*[
        (field.sample_vector(rng, message_length), field.sample_vector(rng, pad_length))
        for _ in range(graph.n_edges)
    ])
    return SystemState(graph, field, message_length, pad_length, _place(graph, messages, pads))


def _selector_key(graph: Graph, server: int, target: int):
    """What a server's query depends on of the target: the position of the
    selector among its held edges, or None if it is not the target's larger
    holder (``_queries`` adds the selector there and nowhere else).
    Unchecked: ``server`` and ``target`` must be a vertex and an edge of
    ``graph``."""
    _, larger = graph.edges[target - 1]
    return graph._incidence[server - 1][0].index(target) if server == larger else None


def _add_selector(query: tuple, position: int, q: int) -> tuple:
    """The selector rule: ``query`` with 1 added mod q at ``position``."""
    return query[:position] + ((query[position] + 1) % q,) + query[position + 1:]


def _queries(graph: Graph, q: int, target: int, coeffs: tuple) -> tuple:
    """Unchecked core of ``gen_queries``: ``target`` must be an edge of
    ``graph`` and ``coeffs`` a tuple of one field element per message.

    The coefficients are negated once, every server reads its signed row
    off that table with one getter, and the target's larger holder alone
    gets the selector (``_selector_key``).
    """
    table = _signed_table(coeffs, q)
    queries = [gather(table) for gather in graph._signed_gather]
    _, larger = graph.edges[target - 1]
    position = _selector_key(graph, larger, target)
    queries[larger - 1] = _add_selector(queries[larger - 1], position, q)
    return tuple(queries)


def _check_coeffs(graph: Graph, field: PrimeField, coeffs: tuple):
    """Raise unless ``coeffs`` holds one field element per message."""
    if len(coeffs) != graph.n_edges:
        raise ValueError(f"expected {graph.n_edges} coefficients, got {len(coeffs)}")
    for c in coeffs:
        field.check(c)


def gen_queries(graph: Graph, field: PrimeField, target: int, coeffs) -> tuple:
    """All servers' queries for one symbol slot.

    ``coeffs`` is the user's full vector of mask coefficients, one per
    message. Each server only ever sees the coefficients of its own held
    messages, signed, plus the selector increment at one holder.
    """
    graph._check_edge(target)
    coeffs = _vector(coeffs, "coeffs")
    _check_coeffs(graph, field, coeffs)
    return _queries(graph, field.modulus, target, coeffs)


def _answer_slots(store: ServerStore, queries, q: int, slot: int = 0) -> tuple[int, ...]:
    """Unchecked core of ``server_answer_slot``, and the one place that
    turns queries, messages and pads into answer symbols: the answers to
    ``queries``, one query per slot from ``slot`` on.

    For a fixed query and slot, answer(W, Z) = answer(W, no pads) +
    answer(no messages, Z) mod q, where "no pads" are pads of length 0 and
    "no messages" are zero messages. Proof: before reduction the answer is
    ``sum(c * W[slot])``, which reads no pad, plus ``sum(sign * Z[slot])``,
    which reads no message. No pads empty the second sum, zero messages
    zero the first, and reduction mod q respects addition. So the pad part
    answer(no messages, Z) reads nothing of the query. Both sums are also
    linear, so an answer is the sum of the answers to unit vectors, each
    scaled by its symbol. Slots are independent: slot t's answer reads slot
    t's query and the held symbols of slot t, and nothing of another slot.
    The auditor's checks read these linear forms (``auditor._answer_rows``),
    and its view-table oracle answers each view itself.

    The two sums are read from the store's cached views: the message column
    of the slot, and the slot's signed pad sum, which is computed once per
    store and, as the proof says, reads no query.
    """
    columns, pad_sums = store._columns, store._pad_sums
    return tuple([
        (sum(map(mul, query, columns[t])) + pad_sums[t]) % q for t, query in enumerate(queries, slot)
    ])


def _round_answers(stores, q: int, queries_per_slot) -> tuple[tuple[int, ...], ...]:
    """Every server's answer to per-slot queries, unchecked: one
    ``message_length``-symbol answer per store, from one call per store."""
    # per server, its query in each slot
    rows = tuple(zip(*queries_per_slot))
    return tuple([_answer_slots(store, rows[store.server - 1], q) for store in stores])


def server_answer_slot(store: ServerStore, query, field: PrimeField, slot: int) -> int:
    """One server's answer symbol for one slot: query-message inner product
    plus the signed sum of its pad symbols (slots past the pad length have
    no pad contribution)."""
    slots = len(store.messages[0]) if store.messages else 0
    if not (_is_index(slot) and 0 <= slot < slots):
        raise ValueError(f"slot must be an int in 0..{slots - 1}, got {slot!r}")
    query = _vector(query, "query")
    if len(query) != len(store.held):
        raise ValueError(
            f"server {store.server} holds {len(store.held)} messages, got a length-{len(query)} query"
        )
    for c in query:
        field.check(c)
    return _answer_slots(store, (query,), field.modulus, slot)[0]


def decode(field: PrimeField, answers) -> tuple[int, ...]:
    """Sum all answers slot-wise; the signed terms cancel, leaving the target."""
    answers = _vectors(answers, "answers", "each answer")
    if not answers:
        raise ValueError("nothing to decode")
    length = len(answers[0])
    for a in answers:
        if len(a) != length:
            raise ValueError("answers disagree on symbol count")
    check, q = field.check, field.modulus
    return tuple(sum(check(a[t]) for a in answers) % q for t in range(length))


@dataclass(frozen=True)
class RoundTranscript:
    """Everything exchanged in one retrieval round.

    ``coefficients`` and ``queries`` are indexed per symbol slot (fresh mask
    coefficients every slot); ``answers`` per server, each
    ``message_length`` symbols.
    """

    target: int
    coefficients: tuple[tuple[int, ...], ...]
    queries: tuple
    answers: tuple[tuple[int, ...], ...]
    decoded: tuple[int, ...]
    downloaded_symbols: int


def _run_round(state: SystemState, target: int, coeffs_per_slot) -> RoundTranscript:
    """Unchecked core of ``run_round_with_coeffs`` and ``run_round``:
    ``target`` must be a message of the state's graph and
    ``coeffs_per_slot`` one tuple of field elements per message for each
    symbol slot."""
    graph, q = state.graph, state.field.modulus
    queries_per_slot = tuple(
        _queries(graph, q, target, coeffs) for coeffs in coeffs_per_slot
    )
    answers = _round_answers(state.stores, q, queries_per_slot)
    return RoundTranscript(
        target=target,
        coefficients=coeffs_per_slot,
        queries=queries_per_slot,
        answers=answers,
        decoded=tuple(sum(column) % q for column in zip(*answers)),
        downloaded_symbols=graph.n_vertices * state.message_length,
    )


def run_round_with_coeffs(state: SystemState, target: int, coeffs_per_slot) -> RoundTranscript:
    """Run one round with the given per-slot mask coefficients (no drawing)."""
    graph, field = state.graph, state.field
    coeffs_per_slot = _vectors(coeffs_per_slot, "coeffs_per_slot", "each slot's coefficients")
    if len(coeffs_per_slot) != state.message_length:
        raise ValueError(
            f"expected {state.message_length} coefficient vectors, got {len(coeffs_per_slot)}"
        )
    graph._check_edge(target)
    for coeffs in coeffs_per_slot:
        _check_coeffs(graph, field, coeffs)
    return _run_round(state, target, coeffs_per_slot)


def run_round(state: SystemState, target: int, rng) -> RoundTranscript:
    """Draw fresh mask coefficients for every symbol slot and run the round.

    The drawn coefficients are field elements by construction, so only
    ``target`` is checked."""
    state.graph._check_edge(target)
    coeffs_per_slot = tuple(
        state.field.sample_vector(rng, state.graph.n_edges)
        for _ in range(state.message_length)
    )
    return _run_round(state, target, coeffs_per_slot)


def transcript_to_dict(t: RoundTranscript) -> dict:
    """JSON-ready view of a transcript (tuples become lists)."""
    return {
        "target": t.target,
        "mask_coefficients": [list(c) for c in t.coefficients],
        "queries": [[list(q) for q in slot] for slot in t.queries],
        "answers": [list(a) for a in t.answers],
        "decoded": list(t.decoded),
        "downloaded_symbols": t.downloaded_symbols,
    }

