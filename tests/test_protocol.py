"""Retrieval protocol: storage setup, queries, answers, decoding, transcripts."""

import itertools
import json
import random

import pytest

from graphspir import (
    PrimeField,
    build_graph,
    complete_graph,
    cycle_graph,
    decode,
    gen_queries,
    init_system,
    path_graph,
    run_round,
    run_round_with_coeffs,
    server_answer_slot,
    star_graph,
    state_from_values,
    transcript_to_dict,
)
from graphspir.protocol import _answer_slots, _queries
from test_small_graphs import SMALL_GRAPHS

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

GOLDEN_TRANSCRIPT = (
    '{"answers":[[0],[2],[2]],"decoded":[1],"downloaded_symbols":3,'
    '"mask_coefficients":[[0,0]],"queries":[[[0],[0,0],[1]]],"target":2}'
)


class TestInitSystem:
    def test_replication_consistency(self):
        state = init_system(cycle_graph(3), F3, 2, random.Random(5))
        for k in range(1, state.graph.n_edges + 1):
            lo, hi = state.graph.message_holders(k)
            store_lo, store_hi = state.stores[lo - 1], state.stores[hi - 1]
            assert store_lo.messages[store_lo.held.index(k)] == state.message(k)
            assert store_hi.messages[store_hi.held.index(k)] == state.message(k)
            assert store_lo.pads[store_lo.held.index(k)] == store_hi.pads[store_hi.held.index(k)]

    def test_builds_no_query_getters(self):
        # the signed getters are built by the first query, not by set-up
        graph = cycle_graph(5)
        init_system(graph, F5, 2, random.Random(11))
        assert "_signed_gather" not in vars(graph)
        gen_queries(graph, F5, 1, (0,) * 5)
        assert "_signed_gather" in vars(graph)

    def test_deterministic_given_seed(self):
        a = init_system(path_graph(4), F5, 2, random.Random(11))
        b = init_system(path_graph(4), F5, 2, random.Random(11))
        assert a == b

    def test_store_shapes(self):
        # each server of a three-cycle holds two messages and two pads,
        # every vector two symbols long
        state = init_system(cycle_graph(3), F3, 2, random.Random(0))
        for server in (1, 2, 3):
            store = state.stores[server - 1]
            assert len(store.messages) == 2
            assert len(store.pads) == 2
            assert all(len(w) == 2 for w in store.messages)
            assert all(len(r) == 2 for r in store.pads)

    def test_full_pads_by_default(self):
        state = init_system(path_graph(3), F2, 3, random.Random(0))
        assert state.pad_length == 3

    def test_degraded_pad_length(self):
        state = init_system(path_graph(3), F2, 3, random.Random(0), pad_length=1)
        assert state.pad_length == 1
        assert all(len(pad) == 1 for store in state.stores for pad in store.pads)

    def test_pad_length_out_of_range(self):
        with pytest.raises(ValueError):
            init_system(path_graph(3), F2, 2, random.Random(0), pad_length=3)
        with pytest.raises(ValueError):
            init_system(path_graph(3), F2, 2, random.Random(0), pad_length=-1)

    @pytest.mark.parametrize("length", [True, 1.0, 0])
    def test_message_length_must_be_a_positive_int(self, length):
        with pytest.raises(ValueError):
            init_system(path_graph(3), F5, length, random.Random(0))

    def test_checks_no_symbol_it_drew(self, monkeypatch):
        checked = []
        check = PrimeField.check
        monkeypatch.setattr(
            PrimeField, "check", lambda self, symbol: checked.append(symbol) or check(self, symbol)
        )
        graph = cycle_graph(4)
        state = init_system(graph, F5, 3, random.Random(3), pad_length=2)
        assert checked == []
        draws = random.Random(3)
        values = [(F5.sample_vector(draws, 3), F5.sample_vector(draws, 2)) for _ in range(4)]
        messages, pads = zip(*values)
        assert state == state_from_values(graph, F5, 3, messages, pads)
        # the given symbols are checked: K·(L + L') of them
        assert len(checked) == 4 * (3 + 2)


class TestStateFromValues:
    def test_explicit_values_placed(self):
        state = state_from_values(path_graph(3), F3, 1, ((2,), (1,)), ((0,), (2,)))
        assert state.message(1) == (2,)
        assert state.message(2) == (1,)
        assert state.stores[2].pads == ((2,),)

    def test_wrong_message_count(self):
        with pytest.raises(ValueError):
            state_from_values(path_graph(3), F3, 1, ((2,),), ((0,), (2,)))

    def test_wrong_pad_count(self):
        with pytest.raises(ValueError, match="^expected 2 pads, got 1$"):
            state_from_values(path_graph(3), F2, 1, [(0,), (0,)], [(0,)])

    def test_wrong_symbol_length(self):
        with pytest.raises(ValueError):
            state_from_values(path_graph(3), F3, 2, ((2,), (1,)), ((0,), (2,)))

    def test_non_field_symbol(self):
        with pytest.raises(ValueError):
            state_from_values(path_graph(3), F3, 1, ((3,), (1,)), ((0,), (2,)))

    def test_uneven_pad_lengths(self):
        with pytest.raises(ValueError):
            state_from_values(path_graph(3), F3, 1, ((2,), (1,)), ((0,), ()))

    @pytest.mark.parametrize("length", [True, 1.0, 0])
    def test_message_length_must_be_a_positive_int(self, length):
        with pytest.raises(ValueError):
            state_from_values(path_graph(3), F3, length, ((2,), (1,)), ((0,), (2,)))

    def test_pads_longer_than_messages(self):
        with pytest.raises(ValueError):
            state_from_values(path_graph(3), F3, 1, ((2,), (1,)), ((0, 1), (2, 0)))


class TestGenQueries:
    def test_frozen_small_example(self):
        # three servers in a line, mod 3, first message requested:
        # middle server gets the selector on its first held coordinate
        assert gen_queries(path_graph(3), F3, 1, (1, 2)) == ((1,), (0, 2), (1,))

    def test_query_lengths_match_degrees(self):
        g = star_graph(5)
        queries = gen_queries(g, F5, 2, (1, 2, 3, 4))
        assert tuple(len(q) for q in queries) == tuple(
            g.degree(v) for v in range(1, 6)
        )

    def test_selector_lands_at_larger_holder(self):
        g = cycle_graph(3)
        for target in (1, 2, 3):
            masked = gen_queries(g, F3, target, (0, 0, 0))
            _, larger = g.message_holders(target)
            position = g.incident_edges(larger).index(target)
            for server in (1, 2, 3):
                expected = [0] * g.degree(server)
                if server == larger:
                    expected[position] = 1
                assert masked[server - 1] == tuple(expected)

    def test_depends_only_on_inputs(self):
        args = (cycle_graph(4), F5, 3, (4, 0, 2, 1))
        assert gen_queries(*args) == gen_queries(*args)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            gen_queries(path_graph(3), F3, 0, (1, 2))
        with pytest.raises(ValueError):
            gen_queries(path_graph(3), F3, 3, (1, 2))

    def test_bad_coefficients(self):
        with pytest.raises(ValueError):
            gen_queries(path_graph(3), F3, 1, (1,))
        with pytest.raises(ValueError):
            gen_queries(path_graph(3), F3, 1, (1, 3))


class TestServerAnswer:
    def test_leaf_server_closed_form(self):
        # the first server of a line holds only message 1 with sign +1:
        # its answer must be h1*w1 + r1
        for h1, w1, r1 in itertools.product(range(5), repeat=3):
            state = state_from_values(path_graph(3), F5, 1, ((w1,), (0,)), ((r1,), (0,)))
            queries = gen_queries(path_graph(3), F5, 2, (h1, 0))
            answer = server_answer_slot(state.stores[0], queries[0], F5, 0)
            assert answer == (h1 * w1 + r1) % 5

    def test_zero_query_zero_pads_gives_zero(self):
        state = state_from_values(path_graph(3), F5, 1, ((3,), (4,)), ((), ()))
        for store in state.stores:
            zero_query = (0,) * len(store.held)
            assert server_answer_slot(store, zero_query, F5, 0) == 0

    def test_linearity_on_pad_free_store(self):
        state = state_from_values(
            cycle_graph(3), F5, 1, ((2,), (3,), (4,)), ((), (), ())
        )
        store = state.stores[1]
        for q1, q2 in itertools.product(F5.iter_vectors(2), repeat=2):
            q_sum = tuple((a + b) % 5 for a, b in zip(q1, q2))
            left = server_answer_slot(store, q_sum, F5, 0)
            right = (
                server_answer_slot(store, q1, F5, 0) + server_answer_slot(store, q2, F5, 0)
            ) % 5
            assert left == right

    def test_query_length_mismatch(self):
        state = state_from_values(path_graph(3), F5, 1, ((3,), (4,)), ((1,), (2,)))
        with pytest.raises(ValueError):
            server_answer_slot(state.stores[1], (1,), F5, 0)

    def test_bare_slots_skip_pads(self):
        # pads cover only the first slot; the second slot's answer is the
        # plain inner product
        state = state_from_values(path_graph(3), F5, 2, ((1, 2), (3, 4)), ((2,), (1,)))
        store = state.stores[0]
        assert server_answer_slot(store, (1,), F5, 0) == (1 + 2) % 5
        assert server_answer_slot(store, (1,), F5, 1) == 2

    @pytest.mark.parametrize("slot", [-1, 2, True, 1.0, "1", None])
    def test_slot_outside_the_messages_rejected(self, slot):
        # L=2: -1 would read slot 1 from the end, and True would read as 1
        state = state_from_values(path_graph(3), F5, 2, ((1, 2), (3, 4)), ((2,), (1,)))
        with pytest.raises(ValueError, match=r"slot must be an int in 0\.\.1"):
            server_answer_slot(state.stores[0], (1,), F5, slot)


def _plain_loop_answer(store, query, q, slot):
    """The answer as a loop over the store's fields, building no view."""
    total = 0
    for c, message in zip(query, store.messages):
        total += c * message[slot]
    for sign, pad in zip(store.signs, store.pads):
        if slot < len(pad):
            total += sign * pad[slot]
    return total % q


ANSWERED_GRAPHS = {
    "path3": path_graph(3),
    "star5": star_graph(5),
    "complete4": complete_graph(4),
    "unsorted": build_graph(5, [(3, 5), (1, 4), (2, 3), (4, 5), (1, 2), (2, 5)]),
}


class TestCachedStoreViews:
    """``_answer_slots`` reads the message columns and pad sums that a store
    caches on first use."""

    @pytest.mark.parametrize("graph", ANSWERED_GRAPHS.values(), ids=ANSWERED_GRAPHS.keys())
    @pytest.mark.parametrize("q", [2, 5, 65537])
    def test_answer_agrees_with_the_plain_loop(self, graph, q):
        field = PrimeField(q)
        rng = random.Random(q)
        for length in (1, 2, 3):
            for pad_length in range(length + 1):
                state = init_system(graph, field, length, rng, pad_length=pad_length)
                for store in state.stores:
                    degree = len(store.held)
                    row = [field.sample_vector(rng, degree) for _ in range(length)]
                    expected = tuple(_plain_loop_answer(store, row[t], q, t) for t in range(length))
                    # a server answers every slot of a round in one call
                    assert _answer_slots(store, row, q) == expected
                    for slot in range(length):
                        queries = [(0,) * degree] + [field.sample_vector(rng, degree) for _ in range(3)]
                        for query in queries:
                            expected = _plain_loop_answer(store, query, q, slot)
                            assert _answer_slots(store, (query,), q, slot) == (expected,)

    def test_caches_leave_equality_hash_and_repr(self):
        answered = init_system(star_graph(5), F5, 2, random.Random(1), pad_length=1).stores
        fresh = init_system(star_graph(5), F5, 2, random.Random(1), pad_length=1).stores
        reprs, hashes = [repr(s) for s in fresh], [hash(s) for s in fresh]
        for store in answered:
            for slot in range(2):
                _answer_slots(store, ((1,) * len(store.held),), 5, slot)
            assert {"_columns", "_pad_sums"} <= vars(store).keys()
        assert answered == fresh
        assert [repr(s) for s in answered] == reprs
        assert [hash(s) for s in answered] == hashes
        assert {store: n for n, store in enumerate(fresh)} == {
            store: n for n, store in enumerate(answered)
        }


def _reference_queries(graph, q, target, coeffs):
    """Each server's query, read off the graph's public incidence."""
    _, larger = graph.message_holders(target)
    queries = []
    for server in range(1, graph.n_vertices + 1):
        row = []
        for k in graph.incident_edges(server):
            smaller, _ = graph.message_holders(k)
            entry = coeffs[k - 1] if server == smaller else -coeffs[k - 1] % q
            if k == target and server == larger:
                entry = (entry + 1) % q
            row.append(entry)
        queries.append(tuple(row))
    return tuple(queries)


QUERIED_GRAPHS = {
    "path3": path_graph(3),
    # the hub is every edge's larger endpoint
    "star5": star_graph(5),
    **{f"N{n}-{edges}": build_graph(n, edges) for n, lists in SMALL_GRAPHS.items() for edges in lists},
    "unsorted": ANSWERED_GRAPHS["unsorted"],
}


def _assert_reference_queries(graph, q, target, coeffs):
    queries = _queries(graph, q, target, coeffs)
    assert queries == _reference_queries(graph, q, target, coeffs)
    assert all(type(query) is tuple for query in queries)
    # the +1 entries are the coefficient objects themselves
    for server, query in enumerate(queries, start=1):
        for k, entry in zip(graph.incident_edges(server), query):
            smaller, _ = graph.message_holders(k)
            if server == smaller:
                assert entry is coeffs[k - 1]


@pytest.mark.parametrize("graph", QUERIED_GRAPHS.values(), ids=QUERIED_GRAPHS.keys())
def test_queries_match_the_incidence_reference(graph):
    # the path's ends and the star's leaves hold one message each; q=2 over
    # every mask vector, q=3 over every one up to 4 messages (path-3, star-5
    # and the smaller graphs) and seeded ones beyond, q=5 over seeded ones
    k, rng = graph.n_edges, random.Random(graph.n_edges)
    for target in range(1, k + 1):
        for coeffs in F2.iter_vectors(k):
            _assert_reference_queries(graph, 2, target, coeffs)
        if k <= 4:
            for coeffs in F3.iter_vectors(k):
                _assert_reference_queries(graph, 3, target, coeffs)
        for field in (F3, F5) if k > 4 else (F5,):
            for _ in range(20):
                _assert_reference_queries(graph, field.modulus, target, field.sample_vector(rng, k))


@pytest.mark.parametrize("graph", [cycle_graph(256), complete_graph(30)], ids=["cycle256", "complete30"])
def test_queries_match_the_incidence_reference_at_scale(graph):
    field, rng = PrimeField(2**31 - 1), random.Random(256)
    for target in rng.sample(range(1, graph.n_edges + 1), 8):
        _assert_reference_queries(graph, field.modulus, target, field.sample_vector(rng, graph.n_edges))


_P3_STATE = state_from_values(path_graph(3), F5, 1, [(1,), (2,)], [(3,), (4,)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gen_queries(path_graph(3), F5, 1, 5), "coeffs must be an iterable of field elements, got 5"),
        (lambda: run_round_with_coeffs(_P3_STATE, 1, 5), "coeffs_per_slot must be an iterable of vectors, got 5"),
        (lambda: run_round_with_coeffs(_P3_STATE, 1, [5]),
         "each slot's coefficients must be an iterable of field elements, got 5"),
        (lambda: state_from_values(path_graph(3), F5, 1, 5, [(3,), (4,)]),
         "messages must be an iterable of vectors, got 5"),
        (lambda: state_from_values(path_graph(3), F5, 1, [(1,), 2], [(3,), (4,)]),
         "each message must be an iterable of field elements, got 2"),
        (lambda: state_from_values(path_graph(3), F5, 1, [(1,), (2,)], None),
         "pads must be an iterable of vectors, got None"),
        (lambda: state_from_values(path_graph(3), F5, 1, [(1,), (2,)], [3, (4,)]),
         "each pad must be an iterable of field elements, got 3"),
        (lambda: server_answer_slot(_P3_STATE.stores[0], 1, F5, 0),
         "query must be an iterable of field elements, got 1"),
        (lambda: decode(F5, 5), "answers must be an iterable of vectors, got 5"),
        (lambda: decode(F5, [(1,), 2]), "each answer must be an iterable of field elements, got 2"),
    ],
    ids=["gen_queries", "run_round-outer", "run_round-inner", "messages-outer", "messages-inner",
         "pads-outer", "pads-inner", "server_answer_slot", "decode-outer", "decode-inner"],
)
def test_non_iterable_vector_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestSignCancellation:
    @pytest.mark.parametrize(
        "graph", [path_graph(3), cycle_graph(4), star_graph(4)],
        ids=["path3", "cycle4", "star4"],
    )
    def test_pads_cancel_under_zero_queries(self, graph):
        state = init_system(graph, F5, 1, random.Random(17))
        per_server = [
            (server_answer_slot(store, (0,) * len(store.held), F5, 0),) for store in state.stores
        ]
        assert decode(F5, per_server) == (0,)


class TestDecode:
    def test_componentwise_sum(self):
        assert decode(F5, [(1, 2), (3, 4), (2, 0)]) == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decode(F5, [])

    def test_uneven_lengths_rejected(self):
        with pytest.raises(ValueError):
            decode(F5, [(1, 2), (3,)])

    @pytest.mark.parametrize(
        "answers, message",
        [
            # symbols are checked slot by slot: slot 0's 5 is named before slot 1's 7
            ([(1, 7), (5, 2)], "^symbol 5 does not belong to the field of order 5$"),
            ([(1,), (True,)], "^field symbol must be an int, got True$"),
            ([(1,), (-1,)], "^symbol -1 does not belong to the field of order 5$"),
        ],
    )
    def test_symbol_outside_the_field_rejected(self, answers, message):
        with pytest.raises(ValueError, match=message):
            decode(F5, answers)

    def test_exhaustive_binary_line(self):
        # all message/pad/coefficient realizations for both targets: 128 decodes
        g = path_graph(3)
        cases = 0
        for target in (1, 2):
            for w1, w2, r1, r2, h1, h2 in itertools.product(range(2), repeat=6):
                state = state_from_values(g, F2, 1, ((w1,), (w2,)), ((r1,), (r2,)))
                transcript = run_round_with_coeffs(state, target, ((h1, h2),))
                assert transcript.decoded == state.message(target)
                cases += 1
        assert cases == 128


class TestRunRound:
    def test_download_counts(self):
        state = init_system(cycle_graph(3), F3, 1, random.Random(1))
        assert run_round(state, 1, random.Random(2)).downloaded_symbols == 3
        state = init_system(star_graph(4), F3, 1, random.Random(1))
        assert run_round(state, 2, random.Random(2)).downloaded_symbols == 4

    def test_multi_symbol_round(self):
        state = init_system(path_graph(3), F3, 5, random.Random(4))
        transcript = run_round(state, 2, random.Random(9))
        assert transcript.downloaded_symbols == 5 * 3
        assert len(transcript.decoded) == 5
        assert transcript.decoded == state.message(2)

    def test_fresh_coefficients_per_slot(self):
        state = init_system(path_graph(3), F5, 3, random.Random(1))
        transcript = run_round(state, 1, random.Random(2))
        assert transcript.coefficients == ((0, 0), (0, 2), (1, 2))
        assert len(set(transcript.coefficients)) > 1

    def test_deterministic_given_seed(self):
        state = init_system(cycle_graph(4), F5, 2, random.Random(3))
        a = run_round(state, 4, random.Random(8))
        b = run_round(state, 4, random.Random(8))
        assert a == b

    def test_decodes_every_target(self):
        state = init_system(cycle_graph(4), F5, 2, random.Random(3))
        rng = random.Random(10)
        for target in range(1, 5):
            assert run_round(state, target, rng).decoded == state.message(target)

    def test_wrong_slot_count_rejected(self):
        state = init_system(path_graph(3), F3, 2, random.Random(0))
        with pytest.raises(ValueError):
            run_round_with_coeffs(state, 1, ((0, 0),))

    @pytest.mark.parametrize(
        "target, coeffs",
        [(1, ((0, 0), (0, 3))), (1, ((0, 0), (0,))), (1, ((0, 0), (0, True))), (3, ((0, 0), (0, 0)))],
        ids=["out-of-field", "short", "bool", "bad-target"],
    )
    def test_bad_coefficients_rejected(self, target, coeffs):
        state = init_system(path_graph(3), F3, 2, random.Random(0))
        with pytest.raises(ValueError):
            run_round_with_coeffs(state, target, coeffs)

    def test_bad_target_rejected(self):
        state = init_system(path_graph(3), F3, 1, random.Random(0))
        with pytest.raises(ValueError):
            run_round(state, 3, random.Random(1))

    def test_matches_run_round_with_coeffs_on_its_draws(self):
        state = init_system(cycle_graph(4), F5, 3, random.Random(3))
        transcript = run_round(state, 2, random.Random(8))
        draws = random.Random(8)
        coeffs = tuple(F5.sample_vector(draws, 4) for _ in range(3))
        assert transcript.coefficients == coeffs
        assert run_round_with_coeffs(state, 2, coeffs) == transcript

    def test_checks_no_coefficient_it_drew(self, monkeypatch):
        state = init_system(cycle_graph(4), F5, 2, random.Random(3))
        checked = []
        check = PrimeField.check
        monkeypatch.setattr(
            PrimeField, "check", lambda self, symbol: checked.append(symbol) or check(self, symbol)
        )
        transcript = run_round(state, 2, random.Random(8))
        assert checked == []
        # the given coefficients are checked: K of them in each of L slots
        run_round_with_coeffs(state, 2, transcript.coefficients)
        assert len(checked) == 4 * 2


def _canonical(transcript):
    """The canonical one-line JSON record of a round."""
    return json.dumps(transcript_to_dict(transcript), sort_keys=True, separators=(",", ":"))


class TestTranscript:
    def _golden_round(self):
        rng = random.Random(7)
        state = init_system(path_graph(3), F3, 1, rng)
        return state, run_round(state, 2, rng)

    def test_golden_serialization(self):
        _, transcript = self._golden_round()
        assert _canonical(transcript) == GOLDEN_TRANSCRIPT

    def test_golden_decodes_stored_message(self):
        state, transcript = self._golden_round()
        assert transcript.decoded == state.message(2) == (1,)

    def test_dict_round_trips_through_json(self):
        _, transcript = self._golden_round()
        record = transcript_to_dict(transcript)
        assert record == json.loads(_canonical(transcript))
        assert record["target"] == 2
        assert record["downloaded_symbols"] == 3

    def test_serialization_is_canonical(self):
        _, transcript = self._golden_round()
        a = _canonical(transcript)
        b = _canonical(transcript)
        assert a == b
        assert "\n" not in a and " " not in a
