"""Exhaustive auditor: exact count tables, independence verdicts, audit checks.

Everything here is integer arithmetic on fully enumerated spaces; the
negative controls (dropped answers, unmasked selectors, zero-length pads)
prove the failure paths produce witnesses instead of silently passing.
"""

import ast
import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import pytest

import graphspir.auditor as auditor
import graphspir.cli as cli
import graphspir.protocol as protocol
from formula_oracles import paw_graph
from test_small_graphs import SMALL_GRAPHS
from graphspir import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CheckResult,
    PrimeField,
    build_graph,
    check_database_privacy,
    check_reliability,
    check_user_privacy,
    complete_graph,
    cycle_graph,
    init_system,
    iter_transcript_outcomes,
    path_graph,
    run_audit,
    server_view_table,
    star_graph,
    state_space_size,
)
from graphspir.auditor import (
    _query_counts,
    _rank,
    _reliability_witness,
    _slot_queries,
    _view_counts,
)
from graphspir.protocol import ServerStore, _answer_slots, _place, _selector_key, decode, gen_queries

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)

# edges out of order: the first appearances of the mask coefficients in the
# queries, edge by edge at each smaller holder, are 2, 5, 3, 6, 1, 4
UNSORTED = build_graph(5, [(3, 5), (1, 4), (2, 3), (4, 5), (1, 2), (2, 5)])

# the whole message of a refused non-iterable target list
NON_ITERABLE_TARGETS = r"^targets must be an iterable of message indices, got 5$"


@dataclass(frozen=True)
class IndependenceWitness:
    """A cell where the joint counts fail the product test."""

    left: object
    right: object
    pair_count: int
    left_count: int
    right_count: int
    total: int

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "pair_count": self.pair_count,
            "left_count": self.left_count,
            "right_count": self.right_count,
            "total": self.total,
        }


def _pair_marginals(pairs: Counter):
    left_counts = Counter()
    right_counts = Counter()
    for (left, right), count in pairs.items():
        left_counts[left] += count
        right_counts[right] += count
    return left_counts, right_counts


def independence_witness(pairs: Counter):
    """First cell violating ``count(l,r)·total == count(l)·count(r)``, or None.

    Outcomes of ``pairs`` must be ``(left, right)`` tuples, and ``total`` is
    the sum of their counts. The scan covers the full product of the two
    marginal supports, so a structurally missing cell (joint count zero
    where both marginals are positive) is caught.
    This is the reference that ``check_database_privacy``'s closed-form
    witnesses are compared against.
    """
    left_counts, right_counts = _pair_marginals(pairs)
    total = pairs.total()
    for left in sorted(left_counts):
        cl = left_counts[left]
        for right in sorted(right_counts):
            cr = right_counts[right]
            if pairs[left, right] * total != cl * cr:
                return IndependenceWitness(left, right, pairs[left, right], cl, cr, total)
    return None


def mutual_information_terms(pairs: Counter):
    """The mutual information as an exact sum of ``p * log2(ratio)`` terms.

    Returns ``(p, ratio)`` pairs of Fractions; the information is zero
    exactly when every ratio equals one, so no logarithm is ever evaluated.
    """
    left_counts, right_counts = _pair_marginals(pairs)
    total = pairs.total()
    terms = []
    for (left, right), count in sorted(pairs.items()):
        p = Fraction(count, total)
        ratio = Fraction(count * total, left_counts[left] * right_counts[right])
        terms.append((p, ratio))
    return terms


class TestIndependenceVerdicts:
    def test_product_of_fair_bits_is_independent(self):
        pairs = Counter(
            [(a, b) for a in (0, 1) for b in (0, 1)]
        )
        assert independence_witness(pairs) is None

    def test_correlated_pair_yields_witness(self):
        pairs = Counter([(0, 0), (1, 1)])
        witness = independence_witness(pairs)
        assert witness is not None
        assert witness.pair_count * witness.total != (
            witness.left_count * witness.right_count
        )

    def test_structurally_missing_cell_caught(self):
        # both marginals put weight on 1, but (1, 1) never occurs
        pairs = Counter([(0, 0), (0, 1), (1, 0)])
        witness = independence_witness(pairs)
        assert witness is not None

    def test_biased_but_independent(self):
        outcomes = [(a, b) for a in (0, 0, 1) for b in (0, 1, 1)]
        assert independence_witness(Counter(outcomes)) is None

    def test_information_terms_ratio_one_iff_independent(self):
        product = Counter(
            [(a, b) for a in (0, 1) for b in (0, 1, 2)]
        )
        assert all(ratio == 1 for _, ratio in mutual_information_terms(product))

    def test_correlated_pair_carries_one_bit(self):
        pairs = Counter([(0, 0), (1, 1)])
        terms = mutual_information_terms(pairs)
        # one bit: each term is p * log2(ratio) = 1/2 * log2(2)
        assert terms == [(Fraction(1, 2), Fraction(2)), (Fraction(1, 2), Fraction(2))]

    def test_witness_to_dict(self):
        witness = independence_witness(
            Counter([(0, 0), (1, 1)])
        )
        record = witness.to_dict()
        assert set(record) == {
            "left", "right", "pair_count", "left_count", "right_count", "total",
        }


class TestRank:
    """``_rank`` against the size of the span, listed as every linear
    combination of the vectors: rank r iff the span has q^r elements."""

    @staticmethod
    def _span_size(vectors, dim, q):
        return len({
            tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % q for i in range(dim))
            for coeffs in itertools.product(range(q), repeat=len(vectors))
        })

    def test_matches_brute_force(self):
        rng = random.Random(11)
        ranks = Counter()
        for q in (2, 3, 5):
            for _ in range(300):
                dim = rng.randint(1, 4)
                vectors = [[rng.randrange(q) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
                if len(vectors) > 1 and rng.random() < 0.5:  # a dependent vector
                    vectors[-1] = [
                        sum(rng.randrange(q) * v[i] for v in vectors[:-1]) % q for i in range(dim)
                    ]
                rank = _rank(vectors, q)
                assert q**rank == self._span_size(vectors, dim, q), (q, vectors)
                ranks[q, rank < len(vectors)] += 1
        # full rank and rank-deficient inputs are both well covered
        assert all(ranks[q, d] >= 100 for q in (2, 3, 5) for d in (True, False)), ranks


class TestStateSpace:
    def test_sizes(self):
        assert state_space_size(path_graph(3), F2, 1) == 64
        assert state_space_size(cycle_graph(3), F2, 1) == 512
        assert state_space_size(cycle_graph(3), F5, 2) == 5 ** 18

    def test_degraded_pads_shrink_the_space(self):
        assert state_space_size(path_graph(3), F2, 1, pad_length=0) == 16

    @pytest.mark.parametrize(
        "message_length, pad_length",
        [(-1, None), (0, None), (True, None), (1.0, None), (1, 2), (1, -1), (1, True)],
    )
    def test_lengths_are_validated(self, message_length, pad_length):
        with pytest.raises(ValueError):
            state_space_size(path_graph(3), F2, message_length, pad_length)
        # at the call, not at the first outcome
        with pytest.raises(ValueError):
            iter_transcript_outcomes(path_graph(3), F2, message_length, 1, pad_length)

    @pytest.mark.parametrize("target", [0, 3, True, 1.0])
    def test_target_is_validated_at_the_call(self, target):
        with pytest.raises(ValueError, match="no message"):
            iter_transcript_outcomes(path_graph(3), F2, 1, target)

    def test_budget_error_reports_required_size(self):
        with pytest.raises(BudgetExceededError) as info:
            check_reliability(cycle_graph(3), F5, 2)
        assert info.value.required == 5 ** 18
        assert info.value.budget == DEFAULT_BUDGET
        assert str(info.value.required) in str(info.value)


class TestEnumerateTranscripts:
    def test_line_graph_space(self):
        outcomes = list(iter_transcript_outcomes(path_graph(3), F2, 1, 1))
        assert len(outcomes) == len(set(outcomes)) == 64

    def test_ring_graph_space(self):
        assert sum(1 for _ in iter_transcript_outcomes(cycle_graph(3), F2, 1, 2)) == 512

    def test_outcome_shape(self):
        outcome = next(iter_transcript_outcomes(path_graph(3), F2, 1, 1))
        messages, pads, coeffs, queries, answers = outcome
        assert len(messages) == 2 and all(len(w) == 1 for w in messages)
        assert len(pads) == 2
        assert len(coeffs) == 1 and len(coeffs[0]) == 2
        assert len(queries) == 1 and len(queries[0]) == 3
        assert len(answers) == 3

    def test_deterministic(self):
        a = list(iter_transcript_outcomes(path_graph(3), F3, 1, 2))
        b = list(iter_transcript_outcomes(path_graph(3), F3, 1, 2))
        assert a == b

    @pytest.mark.parametrize(
        "graph, field, length, pad_length",
        [(path_graph(3), F2, 2, 1), (cycle_graph(3), F3, 1, None)],
        ids=["path3-L2-one-pad", "cycle3-q3"],
    )
    def test_matches_checked_replay(self, graph, field, length, pad_length):
        """The outcomes, in order, equal a replay of every realization
        through the checked entry points."""
        k = graph.n_edges
        pad_space = field.iter_vectors(length if pad_length is None else pad_length)
        realizations = list(itertools.product(
            itertools.product(field.iter_vectors(length), repeat=k),
            itertools.product(pad_space, repeat=k),
            itertools.product(field.iter_vectors(k), repeat=length),
        ))
        for target in range(1, k + 1):
            expected = []
            for messages, pads, coeffs in realizations:
                state = protocol.state_from_values(graph, field, length, messages, pads)
                transcript = protocol.run_round_with_coeffs(state, target, coeffs)
                expected.append((messages, pads, coeffs, transcript.queries, transcript.answers))
            outcomes = iter_transcript_outcomes(graph, field, length, target, pad_length)
            assert list(outcomes) == expected


class TestReliability:
    def test_line_graph_passes(self):
        results = check_reliability(path_graph(3), F2, 1)
        assert [c.instance["target"] for c in results] == [1, 2]
        assert all(c.passed for c in results)
        assert all(c.enumerated == 64 for c in results)

    def test_paw_graph_passes_mod_three(self):
        results = check_reliability(paw_graph(), F3, 1)
        assert len(results) == 4
        assert all(c.passed for c in results)

    def test_instance_records_joint_space(self):
        result = check_reliability(cycle_graph(3), F2, 1, targets=[1])[0]
        assert result.instance == {"target": 1, "slots": 1, "joint_space": 512}

    def test_two_slot_degraded_pad_space(self):
        # one padded slot variant (64 realizations) plus one bare (16)
        results = check_reliability(path_graph(3), F2, 2, pad_length=1)
        assert all(c.passed for c in results)
        assert all(c.enumerated == 64 + 16 for c in results)

    def test_zero_pads_still_decode(self):
        results = check_reliability(path_graph(3), F2, 1, pad_length=0)
        assert all(c.passed for c in results)

    def test_dropped_answer_fails_with_witness(self):
        results = check_reliability(path_graph(3), F2, 1, drop_server=2)
        failing = [c for c in results if not c.passed]
        assert failing
        witness = failing[0].witness
        assert witness["decoded"] != witness["expected"]
        assert set(witness) == {
            "coefficients", "messages", "pads", "decoded", "expected",
        }

    def test_targets_restriction(self):
        results = check_reliability(cycle_graph(3), F2, 1, targets=[3])
        assert [c.instance["target"] for c in results] == [3]

    @pytest.mark.parametrize("target", [1.7, 1.0, "2", True, None])
    def test_non_int_target_rejected(self, target):
        with pytest.raises(ValueError, match="no message"):
            check_reliability(path_graph(3), F2, 1, targets=[target])

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_reliability(path_graph(3), F2, 1, targets=[])

    def test_repeated_target_rejected(self):
        with pytest.raises(ValueError, match="target 2 is repeated"):
            check_reliability(path_graph(3), F2, 1, targets=[2, 2])

    def test_non_iterable_targets_rejected(self):
        with pytest.raises(ValueError, match=NON_ITERABLE_TARGETS):
            check_reliability(path_graph(3), F2, 1, targets=5)

    @pytest.mark.parametrize("server", [True, 2.0, "2"])
    def test_non_int_drop_server_rejected(self, server):
        with pytest.raises(ValueError, match="no vertex"):
            check_reliability(path_graph(3), F2, 1, drop_server=server)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            check_reliability(complete_graph(4), F3, 1)


def _reference_reliability(graph, field, message_length, pad_length=None, drop_server=None):
    """The reliability check as first written: every pad vector of every
    ``(coefficients, messages)`` pair decoded."""
    if pad_length is None:
        pad_length = message_length
    q, k = field.modulus, graph.n_edges
    kept = [n for n in range(1, graph.n_vertices + 1) if n != drop_server]

    def kept_totals(row):
        totals = [0] * k
        for n in kept:
            for e, x in zip(graph.incident_edges(n), row(n)):
                totals[e - 1] += x
        return totals

    pad_weights = kept_totals(lambda n: graph._incidence[n - 1][1])
    variants = [True] * (pad_length > 0) + [False] * (pad_length < message_length)
    results = []
    for target in range(1, k + 1):
        failure, enumerated = None, 0
        for padded in variants:
            pad_space = list(field.iter_vectors(k)) if padded else [None]
            pad_totals = [
                (pads, sum(w * p for w, p in zip(pad_weights, pads)) % q if pads else 0)
                for pads in pad_space
            ]
            for coeffs in field.iter_vectors(k):
                queries = gen_queries(graph, field, target, coeffs)
                weights = kept_totals(lambda n: queries[n - 1])
                for messages in field.iter_vectors(k):
                    dot_sum = sum(w * m for w, m in zip(weights, messages))
                    for pads, pad_total in pad_totals:
                        enumerated += 1
                        if (dot_sum + pad_total) % q != messages[target - 1]:
                            failure = failure or (coeffs, messages, pads, padded)
            if failure:
                break
        witness = None
        if failure:
            witness = _reliability_witness(
                graph, field, message_length, pad_length, target, drop_server, failure
            )
        results.append(
            CheckResult(
                check="reliability",
                instance={
                    "target": target,
                    "slots": message_length,
                    "joint_space": state_space_size(graph, field, message_length, pad_length),
                },
                passed=failure is None,
                enumerated=enumerated,
                witness=witness,
            )
        )
    return results


RELIABILITY_ORACLE_CASES = {
    "path3": (path_graph(3), F2, 1, None, None, 0),
    "cycle3-q3": (cycle_graph(3), F3, 1, None, None, 0),
    "paw4-q3": (paw_graph(), F3, 1, None, None, 0),
    "complete4": (complete_graph(4), F2, 1, None, None, 0),
    "path3-L2-one-pad": (path_graph(3), F2, 2, 1, None, 0),
    "path3-no-pads": (path_graph(3), F2, 1, 0, None, 0),
    **{
        f"path3-drop{n}": (path_graph(3), F2, 1, None, n, 2)
        for n in (1, 2, 3)
    },
    **{
        f"cycle3-q3-drop{n}": (cycle_graph(3), F3, 1, None, n, 3)
        for n in (1, 2, 3)
    },
    # the decoding defect is zero for some mask vectors and nonzero for others
    **{
        f"path3-L2-one-pad-drop{n}": (path_graph(3), F2, 2, 1, n, 2)
        for n in (1, 2, 3)
    },
    **{
        f"path3-no-pads-drop{n}": (path_graph(3), F2, 1, 0, n, 2)
        for n in (1, 2, 3)
    },
    "complete4-drop1": (complete_graph(4), F2, 1, None, 1, 6),
    # no pad shifts the sum, so each witness has the unit message at the
    # defect's last nonzero entry; across the four, that is every edge
    **{
        f"cycle4-q3-no-pads-drop{n}": (cycle_graph(4), F3, 1, 0, n, 4)
        for n in (1, 2, 3, 4)
    },
    # the hub's pads are the only ones that cancel, so every target fails at
    # the zero mask vector with a unit pad
    "star4-drop-hub": (star_graph(4), F2, 1, None, 4, 3),
}


class TestReliabilityOracle:
    """The closed-form check equals the per-pad loop, witnesses included."""

    @pytest.mark.parametrize(
        "case", RELIABILITY_ORACLE_CASES.values(), ids=RELIABILITY_ORACLE_CASES.keys()
    )
    def test_matches_reference(self, case):
        graph, field, length, pad_length, drop, failing = case
        expected = _reference_reliability(graph, field, length, pad_length, drop)
        results = check_reliability(
            graph, field, length, pad_length=pad_length, drop_server=drop
        )
        assert results == expected
        assert sum(not c.passed for c in results) == failing


class TestUserPrivacy:
    def test_line_graph_tables_identical(self):
        results = check_user_privacy(path_graph(3), F2, 1)
        assert all(c.passed for c in results)
        # one comparison per (server, non-reference target)
        assert [(c.instance["server"], c.instance["target"]) for c in results] == [
            (1, 2), (2, 2), (3, 2),
        ]

    def test_ring_graph_mod_three(self):
        results = check_user_privacy(cycle_graph(3), F3, 1)
        assert len(results) == 6
        assert all(c.passed for c in results)

    def test_unmasked_selector_fails_at_holding_servers(self):
        results = check_user_privacy(path_graph(3), F2, 1, mask_queries=False)
        failures = {
            (c.instance["server"], c.instance["target"])
            for c in results
            if not c.passed
        }
        # the selector for message 1 sits at server 2, for message 2 at
        # server 3; server 1 never carries it and must stay unsuspicious
        assert failures == {(2, 2), (3, 2)}
        witness = next(c.witness for c in results if not c.passed)
        assert set(witness) == {"view", "reference_count", "target_count"}
        assert witness["reference_count"] != witness["target_count"]

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            check_user_privacy(complete_graph(4), F3, 1)

    def test_tabulation_memory_bound(self):
        # the center holds three selector positions: ~13 MiB as tuple-keyed
        # view tables; deciding on query counts keeps no view table alive
        tracemalloc.start()
        try:
            results = check_user_privacy(star_graph(4), F3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in results)
        assert peak < 3 * 2**20


UNMASKED_WITNESS_DIGESTS = {
    "paw-q3": (
        paw_graph(), F3, 1, None,
        "5c3f5eeee6f489d90559c860865180ffffe4fbbc83e6249329ae9fee24078753",
    ),
    "star4-q3": (
        star_graph(4), F3, 1, None,
        "b3019e3faa234ae443b2039ff17678d4a8a24694e73935992645e0a7d8717755",
    ),
    "cycle4-L2-one-pad": (
        cycle_graph(4), F2, 2, 1,
        "a33a6760284bb41094afdf5c03b07a417517e12dbf26496ea1655ce1c63dda2e",
    ),
}


@pytest.mark.parametrize(
    "case", UNMASKED_WITNESS_DIGESTS.values(), ids=UNMASKED_WITNESS_DIGESTS.keys()
)
def test_unmasked_witnesses_are_pinned(case):
    # failing configurations too large for the tuple-keyed reference: the
    # serialized results, witnesses included, are pinned byte for byte
    graph, field, length, pad_length, digest = case
    results = check_user_privacy(
        graph, field, length, pad_length=pad_length, mask_queries=False
    )
    assert any(not c.passed for c in results)
    text = json.dumps([c.to_dict() for c in results], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestServerViewTable:
    def test_identical_across_targets(self):
        tables = [
            server_view_table(cycle_graph(3), F2, 1, target, 2)
            for target in (1, 2, 3)
        ]
        assert tables[0] == tables[1] == tables[2]

    def test_reduced_enumeration_matches_full_marginal(self):
        # the reduced table enumerates only incident-edge variables; every
        # non-incident message, pad, and coefficient multiplies each cell by
        # the same factor q^((K - degree) * (2L + pad_length))
        graph, server, target = cycle_graph(3), 1, 1
        held = graph.incident_edges(server)
        full = Counter(
            (
                tuple(slot[server - 1] for slot in outcome[3]),
                outcome[4][server - 1],
                tuple(outcome[0][e - 1] for e in held),
                tuple(outcome[1][e - 1] for e in held),
            )
            for outcome in iter_transcript_outcomes(graph, F2, 1, target)
        )
        reduced = server_view_table(graph, F2, 1, target, server)
        scale = 2 ** ((graph.n_edges - len(held)) * 3)
        assert scale == 8
        assert full.total() == sum(reduced.values()) * scale
        assert dict(full) == {view: count * scale for view, count in reduced.items()}

    def test_unmasked_tables_differ(self):
        with_selector = server_view_table(
            path_graph(3), F2, 1, 1, 2, mask_queries=False
        )
        without = server_view_table(path_graph(3), F2, 1, 2, 2, mask_queries=False)
        assert with_selector != without


class TestDatabasePrivacy:
    def test_line_graph_passes(self):
        results = check_database_privacy(path_graph(3), F2, 1)
        assert [(c.instance["target"], c.instance["subset"]) for c in results] == [
            (1, [2]), (2, [1]),
        ]
        assert all(c.passed for c in results)

    def test_ring_graph_covers_all_subsets(self):
        results = check_database_privacy(cycle_graph(3), F2, 1)
        # per target: both singletons and the maximal pair
        assert len(results) == 9
        assert all(c.passed for c in results)
        maximal = [c for c in results if len(c.instance["subset"]) == 2]
        assert [(c.instance["target"], c.instance["subset"]) for c in maximal] == [
            (1, [2, 3]), (2, [1, 3]), (3, [1, 2]),
        ]

    def test_zero_pads_leak_with_witness(self):
        results = check_database_privacy(
            path_graph(3), F2, 1, pad_length=0, targets=[1]
        )
        failing = [c for c in results if not c.passed]
        assert [(c.instance["target"], c.instance["subset"]) for c in failing] == [
            (1, [2]),
        ]
        witness = failing[0].witness
        assert witness["pair_count"] * witness["total"] != (
            witness["left_count"] * witness["right_count"]
        )
        assert witness["total"] == 16

    def test_full_pads_do_not_leak(self):
        results = check_database_privacy(path_graph(3), F2, 1, targets=[1])
        assert all(c.passed for c in results)
        assert all(c.enumerated == 64 for c in results)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            check_database_privacy(cycle_graph(3), F5, 2)

    @pytest.mark.parametrize("target", [1.7, 1.0, "2", True, False])
    def test_non_int_target_rejected(self, target):
        with pytest.raises(ValueError, match="no message"):
            check_database_privacy(path_graph(3), F2, 1, targets=[target])

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_database_privacy(path_graph(3), F2, 1, targets=[])

    def test_repeated_target_rejected(self):
        with pytest.raises(ValueError, match="target 1 is repeated"):
            check_database_privacy(path_graph(3), F2, 1, targets=[1, 2, 1])

    def test_non_iterable_targets_rejected(self):
        with pytest.raises(ValueError, match=NON_ITERABLE_TARGETS):
            check_database_privacy(path_graph(3), F2, 1, targets=5)

    def test_tabulation_keeps_no_realization_list(self):
        # the 2^12 outcomes of one target cost ~6 MiB as a list of tuples
        graph = cycle_graph(4)
        tracemalloc.start()
        try:
            results = check_database_privacy(graph, F2, 1, targets=[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in results)
        assert peak < 3 * 2**20


def _tuple_getter(indices):
    """``itemgetter(*indices)``, returning a tuple for one index or none too."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices) if indices else (lambda seq: ())


def _reference_database_privacy(graph, field, message_length, pad_length=None):
    """The tabulation as first written: every outcome tuple-keyed, one
    ``independence_witness`` per subset. Each subset's keys are read with
    getters built once per subset."""
    if pad_length is None:
        pad_length = message_length
    k = graph.n_edges
    results = []
    for target in range(1, k + 1):
        realizations = list(
            iter_transcript_outcomes(graph, field, message_length, target, pad_length)
        )
        others = [e for e in range(1, k + 1) if e != target]
        for size in range(1, len(others) + 1):
            for subset in itertools.combinations(others, size):
                left = _tuple_getter([e - 1 for e in subset])
                unread_pads = _tuple_getter([e - 1 for e in range(1, k + 1) if e not in subset])
                unread_messages = _tuple_getter(
                    [e - 1 for e in range(1, k + 1) if e not in subset and e != target]
                )
                pairs = Counter(
                    (
                        left(messages),
                        (answers, queries, unread_pads(pads), unread_messages(messages), coeffs),
                    )
                    for messages, pads, coeffs, queries, answers in realizations
                )
                assert pairs.total() == len(realizations)
                witness = independence_witness(pairs)
                results.append(
                    CheckResult(
                        check="database-privacy",
                        instance={"target": target, "subset": list(subset)},
                        passed=witness is None,
                        enumerated=len(realizations),
                        witness=witness.to_dict() if witness else None,
                    )
                )
    return results


ORACLE_CASES = {
    "path3": (path_graph(3), F2, 1, None, 0),
    "cycle3": (cycle_graph(3), F2, 1, None, 0),
    "star4": (star_graph(4), F2, 1, None, 0),
    "path3-q3": (path_graph(3), F3, 1, None, 0),
    "path3-L2": (path_graph(3), F2, 2, None, 0),
    "path3-no-pads": (path_graph(3), F2, 1, 0, 2),
    "path3-L2-one-pad": (path_graph(3), F2, 2, 1, 2),
    "cycle3-q3-no-pads": (cycle_graph(3), F3, 1, 0, 9),
    "cycle4-no-pads": (cycle_graph(4), F2, 1, 0, 28),
    "star4-no-pads": (star_graph(4), F2, 1, 0, 9),
    # some mask vectors pass the per-edge test and some fail it
    "paw-no-pads": (paw_graph(), F2, 1, 0, 28),
    "complete4-no-pads": (complete_graph(4), F2, 1, 0, 186),
    # two slots: the witness holds the smallest query in the first
    "path3-L2-no-pads": (path_graph(3), F2, 2, 0, 2),
    "path3-q3-L2-one-pad": (path_graph(3), F3, 2, 1, 2),
    # the queries ascend in an order of h other than its edge order
    "unsorted-no-pads": (UNSORTED, F2, 1, 0, 186),
}


@pytest.mark.parametrize(
    "graph",
    [path_graph(3), cycle_graph(5), star_graph(4), paw_graph(), complete_graph(4), UNSORTED],
    ids=["path3", "cycle5", "star4", "paw", "complete4", "unsorted"],
)
@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
def test_queries_ascend_when_h_is_read_by_first_appearance(graph, field):
    """Database privacy's local search and witnesses rest on this layout
    fact: read with its edges sorted by their smaller holder, then by index,
    every mask vector h gives strictly ascending queries, for every target."""
    k = graph.n_edges
    order = sorted(range(k), key=lambda e: (graph.edges[e][0], e))
    for target in range(1, k + 1):
        listed = []
        for reading in field.iter_vectors(k):
            h = [0] * k
            for e, x in zip(order, reading):
                h[e] = x
            listed.append(gen_queries(graph, field, target, tuple(h)))
        assert all(a < b for a, b in itertools.pairwise(listed))


class TestDatabasePrivacyOracle:
    """The tabulation equals the tuple-keyed enumeration, witnesses included."""

    @pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_reference(self, case):
        graph, field, length, pad_length, failing = case
        expected = _reference_database_privacy(graph, field, length, pad_length)
        results = check_database_privacy(graph, field, length, pad_length=pad_length)
        assert results == expected
        assert sum(not c.passed for c in results) == failing


def test_leaking_witnesses_enumerate_no_outcome(monkeypatch):
    """Witnesses come from ranks: a leaking target of 2^20 outcomes lists
    none of them, and stays small."""

    def refuse(*args, **kwargs):
        raise AssertionError("database privacy enumerated the outcomes")

    monkeypatch.setattr(auditor, "iter_transcript_outcomes", refuse)
    tracemalloc.start()
    try:
        results = check_database_privacy(cycle_graph(4), F2, 2, pad_length=1, targets=[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(not c.passed for c in results) == 7
    assert all(c.witness is not None for c in results if not c.passed)
    assert peak < 3 * 2**20


class TestWorkCount:
    """A call costs 2K probes of one affine mask model: one h = 0 probe per
    target and one per unit h. No mask vector is walked: a passing
    database-privacy target ranks each edge once, and a leaking one searches
    each failing edge's q² local assignments and builds queries only for its
    witnesses. Counted calls, not wall time."""

    def test_database_privacy_tests_each_edge_not_each_subset(self, monkeypatch):
        calls = []
        rank = auditor._rank

        def counted(vectors, q):
            calls.append(len(vectors))
            return rank(vectors, q)

        monkeypatch.setattr(auditor, "_rank", counted)
        q, k = 2, 5
        results = check_database_privacy(cycle_graph(k), F2, 1, targets=[1])
        assert len(results) == 2 ** (k - 1) - 1 and all(c.passed for c in results)
        # each edge e ≠ θ ranks [P_e] and [P_e | c_e | Δ_e] once, for every h
        # at once; an edge test per mask vector would also rank [M_θ | P_e],
        # and a test of a larger subset more columns
        assert Counter(calls) == {1: k - 1, 3: k - 1}

    def test_database_privacy_builds_each_query_tuple_at_most_once(self, monkeypatch):
        built, lengths = [], []
        queries = auditor._queries
        iter_vectors = PrimeField.iter_vectors

        def counted(graph, q, target, coeffs):
            built.append(coeffs)
            return queries(graph, q, target, coeffs)

        def counted_vectors(field, length):
            lengths.append(length)
            return iter_vectors(field, length)

        monkeypatch.setattr(auditor, "_queries", counted)
        monkeypatch.setattr(PrimeField, "iter_vectors", counted_vectors)
        q, k = 2, 5
        results = check_database_privacy(cycle_graph(k), F2, 1, pad_length=0, targets=[1])
        assert not all(c.passed for c in results)
        # the model's K + 1 probes, then h = 0 and each witness's first
        # leaking h once, and an edge's first failing h is one of its q²
        # local assignments; a walk would list all q^K = 32 mask vectors
        failing = sum(not c.passed for c in results if len(c.instance["subset"]) == 1)
        assert k not in lengths
        assert failing > 0
        assert k + 1 < len(built) <= k + 1 + q**2 * failing
        built.clear()
        lengths.clear()
        # a passing call walks no mask vector: one h = 0 probe per target
        # and one per unit h
        results = check_database_privacy(cycle_graph(k), F2, 1)
        assert all(c.passed for c in results)
        assert k not in lengths
        assert len(built) == 2 * k

    def test_passing_reliability_never_walks_the_messages(self, monkeypatch):
        """The defect is affine in h, so a call reads h = 0 for each target
        and each unit h once, under the first target: no mask vector,
        message or pad is walked."""
        lengths, probes = [], []
        iter_vectors = PrimeField.iter_vectors
        queries = auditor._queries

        def counted_vectors(field, length):
            lengths.append(length)
            return iter_vectors(field, length)

        def counted_queries(graph, q, target, coeffs):
            probes.append(target)
            return queries(graph, q, target, coeffs)

        monkeypatch.setattr(PrimeField, "iter_vectors", counted_vectors)
        monkeypatch.setattr(auditor, "_queries", counted_queries)

        def probe_counts(*args, **kwargs):
            lengths.clear()
            probes.clear()
            results = check_reliability(*args, **kwargs)
            assert lengths == []
            return [c.passed for c in results], Counter(probes)

        k = 5
        # every target passes: 2K probes, K + 1 of them under the first target
        assert probe_counts(cycle_graph(k), F2, 1) == (
            [True] * k, {1: k + 1, **dict.fromkeys(range(2, k + 1), 1)}
        )
        # the dropped server's pads shift the sum, so h = 0 fails
        assert probe_counts(cycle_graph(k), F2, 1, drop_server=1, targets=[1]) == ([False], {1: k + 1})
        # no pads, and the dropped server holds the selector: h = 0 fails
        assert probe_counts(
            cycle_graph(k), F2, 1, pad_length=0, drop_server=2, targets=[1]
        ) == ([False], {1: k + 1})
        # no pads, and h = 0 decodes: a unit h fails
        assert probe_counts(
            cycle_graph(k), F2, 1, pad_length=0, drop_server=1, targets=[1]
        ) == ([False], {1: k + 1})
        # one set of probes per call, not one per target or slot variant
        assert probe_counts(path_graph(3), F2, 2, pad_length=1) == ([True] * 2, {1: 3, 2: 1})
        assert probe_counts(path_graph(3), F2, 2, targets=[2, 1]) == ([True] * 2, {1: 1, 2: 3})


def _reference_server_view_table(
    graph, field, message_length, target, server, pad_length=None, mask_queries=True
):
    """The view table as first written: one ``ServerStore`` and one tuple
    key per outcome."""
    if pad_length is None:
        pad_length = message_length
    held = graph.incident_edges(server)
    delta = len(held)
    coeff_space = field.iter_vectors(delta) if mask_queries else [(0,) * delta]

    def query(coeffs_held):
        # the full coefficient vector, zero off the held edges
        coeffs = [0] * graph.n_edges
        for e, c in zip(held, coeffs_held):
            coeffs[e - 1] = c
        return gen_queries(graph, field, target, coeffs)[server - 1]

    query_space = [
        tuple(query(coeffs) for coeffs in slot_coeffs)
        for slot_coeffs in itertools.product(coeff_space, repeat=message_length)
    ]
    signs = graph._incidence[server - 1][1]
    table = Counter()
    for queries in query_space:
        for messages in itertools.product(field.iter_vectors(message_length), repeat=delta):
            for pads in itertools.product(field.iter_vectors(pad_length), repeat=delta):
                store = ServerStore(server, held, signs, messages, pads)
                answer = _answer_slots(store, queries, field.modulus)
                table[(queries, answer, messages, pads)] += 1
    return table


def _table_difference_witness(reference: Counter, other: Counter) -> dict:
    """The first differing cell of two count tables, in sorted order: the
    reference for ``check_user_privacy``'s closed-form witnesses."""
    keys = sorted(set(reference) | set(other))
    for key in keys:
        if reference.get(key, 0) != other.get(key, 0):
            return {
                "view": repr(key),
                "reference_count": reference.get(key, 0),
                "target_count": other.get(key, 0),
            }
    raise AssertionError("tables compared unequal but no differing cell found")


def _reference_user_privacy(graph, field, message_length, pad_length=None, mask_queries=True):
    """Every target's reference table, compared against target 1's."""
    results = []
    for server in range(1, graph.n_vertices + 1):
        tables = {
            target: _reference_server_view_table(
                graph, field, message_length, target, server, pad_length, mask_queries
            )
            for target in range(1, graph.n_edges + 1)
        }
        for target in range(2, graph.n_edges + 1):
            witness = None
            if tables[target] != tables[1]:
                witness = _table_difference_witness(tables[1], tables[target])
            results.append(
                CheckResult(
                    check="user-privacy",
                    instance={"server": server, "target": target, "reference": 1},
                    passed=witness is None,
                    enumerated=tables[target].total(),
                    witness=witness,
                )
            )
    return results


USER_ORACLE_CASES = {
    "path3": (path_graph(3), F2, 1, None, True, 0),
    "cycle3": (cycle_graph(3), F2, 1, None, True, 0),
    "star4": (star_graph(4), F2, 1, None, True, 0),
    "path3-q3": (path_graph(3), F3, 1, None, True, 0),
    "path3-L2": (path_graph(3), F2, 2, None, True, 0),
    "path3-L2-one-pad": (path_graph(3), F2, 2, 1, True, 0),
    "path3-L2-unmasked": (path_graph(3), F2, 2, None, False, 2),
    "path3-L2-one-pad-unmasked": (path_graph(3), F2, 2, 1, False, 2),
    "path3-unmasked": (path_graph(3), F2, 1, None, False, 2),
    "cycle3-q3-unmasked": (cycle_graph(3), F3, 1, None, False, 4),
    "paw": (paw_graph(), F2, 1, None, True, 0),
    "paw-unmasked": (paw_graph(), F2, 1, None, False, 6),
    "path3-no-pads": (path_graph(3), F2, 1, 0, True, 0),
}


class TestUserPrivacyOracle:
    """The coded tables equal the tuple-keyed enumeration, witnesses included."""

    @pytest.mark.parametrize(
        "case", USER_ORACLE_CASES.values(), ids=USER_ORACLE_CASES.keys()
    )
    def test_matches_reference(self, case):
        graph, field, length, pad_length, mask, failing = case
        expected = _reference_user_privacy(graph, field, length, pad_length, mask)
        results = check_user_privacy(
            graph, field, length, pad_length=pad_length, mask_queries=mask
        )
        assert results == expected
        assert sum(not c.passed for c in results) == failing

    @pytest.mark.parametrize(
        "case", USER_ORACLE_CASES.values(), ids=USER_ORACLE_CASES.keys()
    )
    def test_view_tables_match_reference(self, case):
        graph, field, length, pad_length, mask, _ = case
        for server in range(1, graph.n_vertices + 1):
            for target in range(1, graph.n_edges + 1):
                table = server_view_table(
                    graph, field, length, target, server,
                    pad_length=pad_length, mask_queries=mask,
                )
                assert table == _reference_server_view_table(
                    graph, field, length, target, server, pad_length, mask
                )


def _non_bijective_selector(query, position, q):
    """The protocol's selector made not a bijection: the selected entry is 0
    where it was 0 and q - 1 elsewhere, so for q > 2 a selected server's
    query counts depend on the target."""
    query = list(query)
    query[position] = 0 if query[position] == 0 else q - 1
    return tuple(query)


def _rebind(monkeypatch, name, replacement) -> set:
    """Bind ``replacement`` wherever the package binds the shipped
    ``graphspir`` function ``name``, and return the modules' names."""
    shipped = getattr(protocol, name)
    patched = set()
    for module_name, module in list(sys.modules.items()):
        in_package = module_name.partition(".")[0] == "graphspir"
        if in_package and getattr(module, name, None) is shipped:
            monkeypatch.setattr(module, name, replacement)
            patched.add(module_name)
    return patched


def _patch_selector(monkeypatch, selector):
    """Bind ``selector`` wherever the package binds the shipped
    ``protocol._add_selector``."""
    assert {"graphspir.protocol", "graphspir.auditor"} <= _rebind(monkeypatch, "_add_selector", selector)


def _witness_slots(results):
    """The first and the last slot query of each failing witness view."""
    views = [ast.literal_eval(c.witness["view"]) for c in results if not c.passed]
    return [(queries[0], queries[-1]) for queries, *_ in views]


def test_user_privacy_witness_branches_match_reference(monkeypatch):
    """A witness view's query tuple is (m, …, m, x). An unmasked selector
    differs at the smallest query, so x = m; a selector that is not a
    bijection differs only at a later one, so x ≠ m. Both equal the
    expanded-view reference."""
    graph = path_graph(3)
    results = check_user_privacy(graph, F2, 2, mask_queries=False)
    assert results == _reference_user_privacy(graph, F2, 2, mask_queries=False)
    assert [first == last for first, last in _witness_slots(results)] == [True, True]

    _patch_selector(monkeypatch, _non_bijective_selector)
    results = check_user_privacy(graph, F3, 2, pad_length=0)
    assert results == _reference_user_privacy(graph, F3, 2, 0)
    assert [first == last for first, last in _witness_slots(results)] == [False, False]


def test_user_privacy_expands_no_view(monkeypatch):
    """Witnesses come from single-slot query tables: a failing check builds
    no L-slot query table and lists no view."""

    def refuse(*args, **kwargs):
        raise AssertionError("user privacy expanded a view table")

    lengths = []
    query_counts = auditor._query_counts

    def counted(graph, field, message_length, *args):
        lengths.append(message_length)
        return query_counts(graph, field, message_length, *args)

    monkeypatch.setattr(auditor, "_view_counts", refuse)
    monkeypatch.setattr(auditor, "_query_counts", counted)
    results = check_user_privacy(cycle_graph(4), F2, 2, pad_length=1, mask_queries=False)
    failing = [c for c in results if not c.passed]
    assert len(failing) == 6
    assert all(c.witness is not None for c in failing)
    assert set(lengths) == {1}


class TestSelectorKey:
    """A server's table depends on the target only through ``_selector_key``."""

    @staticmethod
    def _targets_by_key(graph, server):
        groups = {}
        for target in range(1, graph.n_edges + 1):
            groups.setdefault(_selector_key(graph, server, target), []).append(target)
        return groups

    @pytest.mark.parametrize("mask", [True, False])
    def test_shared_table_equals_fresh_tables(self, mask):
        graph = paw_graph()
        for server in range(1, graph.n_vertices + 1):
            for key, targets in self._targets_by_key(graph, server).items():
                queries = _query_counts(_slot_queries(graph, F2, server, mask), 2, 1, key)
                shared = _view_counts(graph, F2, 1, 1, server, queries)
                for target in targets:
                    fresh = _reference_server_view_table(graph, F2, 1, target, server, 1, mask)
                    assert shared == fresh

    def test_paw_keys(self):
        # server 3 holds edges 2, 3, 4 and is the larger holder of 2 and 3
        graph = paw_graph()
        assert self._targets_by_key(graph, 3) == {None: [1, 4], 0: [2], 1: [3]}

    def test_selector_position_is_part_of_the_key(self):
        # unmasked, the tables of distinct held positions differ, so a key
        # that only said "selected or not" would share a wrong table
        graph = paw_graph()
        for server in range(1, graph.n_vertices + 1):
            groups = self._targets_by_key(graph, server)
            tables = [
                server_view_table(graph, F2, 1, targets[0], server, mask_queries=False)
                for targets in groups.values()
            ]
            assert all(a != b for a, b in itertools.combinations(tables, 2))
        assert len(self._targets_by_key(graph, 3)) == 3


BAD_LENGTHS = [
    (0, None), (-1, None), (True, None), (1.0, None),
    (1, 2), (1, -1), (1, True), (2, 1.0),
]
CHECKS = {
    "reliability": check_reliability,
    "user-privacy": check_user_privacy,
    "database-privacy": check_database_privacy,
    "run-audit": run_audit,
}


class TestLengthValidation:
    """Bad lengths raise before any enumeration, for every entry point."""

    @pytest.mark.parametrize("length, pad_length", BAD_LENGTHS)
    @pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
    def test_bad_lengths_rejected(self, check, length, pad_length):
        # complete-5 over F3 is far over the budget, so passing the length
        # check would raise BudgetExceededError instead
        with pytest.raises(ValueError, match="_length must be an int"):
            check(complete_graph(5), F3, length, pad_length=pad_length)

    @pytest.mark.parametrize("length, pad_length", BAD_LENGTHS)
    def test_bad_lengths_rejected_by_view_table(self, length, pad_length):
        with pytest.raises(ValueError, match="_length must be an int"):
            server_view_table(path_graph(3), F2, length, 1, 1, pad_length=pad_length)

    def test_zero_length_no_longer_passes(self):
        # every check used to report passes over an empty slot space
        for check in (check_reliability, check_user_privacy):
            with pytest.raises(ValueError, match="message_length"):
                check(path_graph(3), F2, 0)

    @pytest.mark.parametrize("pad_length", [0, 1, 2])
    def test_valid_pad_lengths_accepted(self, pad_length):
        results = check_reliability(path_graph(3), F2, 2, pad_length=pad_length)
        assert all(c.passed for c in results)


class TestRandomnessRatio:
    """Pad symbols stored per message symbol stored."""

    @staticmethod
    def _ratio(state):
        stored = [(p, m) for s in state.stores for p, m in zip(s.pads, s.messages)]
        return Fraction(sum(len(p) for p, _ in stored), sum(len(m) for _, m in stored))

    def test_full_pads(self):
        state = init_system(path_graph(3), F3, 1, random.Random(0))
        assert self._ratio(state) == 1
        state = init_system(path_graph(3), F3, 4, random.Random(0))
        assert self._ratio(state) == 1

    def test_degraded_pads(self):
        state = init_system(path_graph(3), F3, 2, random.Random(0), pad_length=1)
        assert self._ratio(state) == Fraction(1, 2)


class TestRunAudit:
    def test_ring_graph_full_audit(self):
        report = run_audit(cycle_graph(3), F3, 1, graph_name="cycle-3")
        assert report.all_passed
        assert [c for c in report.checks if not c.passed] == []
        kinds = {}
        for check in report.checks:
            kinds[check.check] = kinds.get(check.check, 0) + 1
        assert kinds == {
            "reliability": 3,
            "user-privacy": 6,
            "database-privacy": 9,
        }

    def test_report_serializes_to_json(self):
        report = run_audit(path_graph(3), F2, 1, graph_name="path-3")
        record = report.to_dict()
        assert record["graph"] == "path-3"
        assert record["modulus"] == 2
        assert record["all_passed"] is True
        assert len(record["checks"]) == len(report.checks)
        json.dumps(record)  # must be serializable as-is

    def test_deterministic(self):
        a = run_audit(path_graph(3), F2, 1).to_dict()
        b = run_audit(path_graph(3), F2, 1).to_dict()
        assert a == b

    def test_degraded_audit_fails_only_database_privacy(self):
        report = run_audit(path_graph(3), F2, 1, pad_length=0)
        assert not report.all_passed
        assert {c.check for c in report.checks if not c.passed} == {"database-privacy"}

    def test_targets_restriction(self):
        report = run_audit(cycle_graph(3), F3, 1, targets=[2])
        rel = [c for c in report.checks if c.check == "reliability"]
        dbp = [c for c in report.checks if c.check == "database-privacy"]
        usr = [c for c in report.checks if c.check == "user-privacy"]
        assert [c.instance["target"] for c in rel] == [2]
        assert {c.instance["target"] for c in dbp} == {2}
        assert len(usr) == 6  # always every pair of targets

    def test_empty_targets_rejected(self):
        # an empty list would run no per-target check and report all_passed
        with pytest.raises(ValueError, match="empty"):
            run_audit(path_graph(3), F2, 1, targets=[])

    def test_non_iterable_targets_rejected(self):
        with pytest.raises(ValueError, match=NON_ITERABLE_TARGETS):
            run_audit(path_graph(3), F2, 1, targets=5)

    def test_budget_guard_sizes(self):
        with pytest.raises(BudgetExceededError) as info:
            run_audit(complete_graph(4), F3, 1)
        assert info.value.required == 3 ** 18
        with pytest.raises(BudgetExceededError) as info:
            run_audit(complete_graph(5), F3, 1)
        assert info.value.required == 3 ** 30

    def test_explicit_budget_allows_larger_space(self):
        report = run_audit(path_graph(3), F5, 1, budget=5 ** 6)
        assert report.all_passed


def _answer_with_unsigned_pads(store, queries, q, first=0):
    """The protocol's answer with every pad added at sign +1: a broken
    scheme whose decoded sums keep twice each pad."""
    answers = []
    for slot, query in enumerate(queries, first):
        total = sum(c * message[slot] for c, message in zip(query, store.messages))
        total += sum(pad[slot] for pad in store.pads if slot < len(pad))
        answers.append(total % q)
    return tuple(answers)


def _answer_without_pads(store, queries, q, first=0):
    """The protocol's answer with the pads left out: a broken scheme whose
    answers expose the masked messages."""
    return tuple(
        sum(c * message[slot] for c, message in zip(query, store.messages)) % q
        for slot, query in enumerate(queries, first)
    )


def _patch_answer_function(monkeypatch, answer):
    """Bind ``answer`` wherever the package binds the shipped answer
    function."""
    assert "graphspir.protocol" in _rebind(monkeypatch, "_answer_slots", answer)


def test_checks_audit_the_shipped_answer_function(monkeypatch, capsys):
    """A broken answer function, bound wherever the package binds the
    shipped one, makes the audit fail: the checks hold no copy of it."""
    _patch_answer_function(monkeypatch, _answer_with_unsigned_pads)
    results = check_reliability(path_graph(3), F3, 1)
    assert any(not c.passed and c.witness is not None for c in results)
    assert cli.main(["audit", "--family", "path", "--n", "3", "--q", "3"]) == 2
    assert not json.loads(capsys.readouterr().out)["all_passed"]


def test_database_privacy_reads_the_shipped_answer_function(monkeypatch):
    """Answers that leave out the pads leak, so database privacy fails with a
    witness: the rank test takes its pad columns from the answer function,
    not from the graph's incidence."""
    _patch_answer_function(monkeypatch, _answer_without_pads)
    results = check_database_privacy(path_graph(3), F3, 1)
    assert any(not c.passed and c.witness is not None for c in results)


def _bind_answer(monkeypatch, answer):
    """Bind ``answer`` wherever the package binds the shipped answer function,
    and as this module's ``_answer_slots``, which the reference tables read."""
    _patch_answer_function(monkeypatch, answer)
    monkeypatch.setitem(globals(), "_answer_slots", answer)


def _reference_answer_rows(graph, q):
    """``_answer_rows`` as first written: one unit placement per edge, for
    messages and for pads, and one ``_answer_slots`` call per held edge."""
    k = graph.n_edges
    held = [graph.incident_edges(n) for n in range(1, graph.n_vertices + 1)]
    units = [[(int(e == j),) for j in range(1, k + 1)] for e in range(1, k + 1)]
    pad_units = [_place(graph, [(0,)] * k, z) for z in units]
    message_units = [_place(graph, w, [()] * k) for w in units]

    def answer_row(placements, n, row):
        answers = [0] * k
        for e in held[n - 1]:
            answers[e - 1] = _answer_slots(placements[e - 1][n - 1], (row,), q)[0]
        return answers

    def message_rows(queries):
        return [answer_row(message_units, n, row) for n, row in enumerate(queries, start=1)]

    pad_rows = [answer_row(pad_units, n, (0,) * len(edges)) for n, edges in enumerate(held, 1)]
    return pad_rows, message_rows


ROW_GRAPHS = [build_graph(n, edges) for n, lists in SMALL_GRAPHS.items() for edges in lists]
ROW_GRAPHS.append(UNSORTED)
ANSWER_FUNCTIONS = {
    "shipped": None,
    "unsigned-pads": _answer_with_unsigned_pads,
    "no-pads": _answer_without_pads,
}


@pytest.mark.parametrize("answer", ANSWER_FUNCTIONS.values(), ids=ANSWER_FUNCTIONS.keys())
@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
def test_answer_rows_equal_the_unit_probe(monkeypatch, field, answer):
    """Reading each row off the identity placements gives what probing one
    unit placement per edge gives, for every server and every query row of
    every atlas graph and the unsorted-edge graph."""
    if answer:
        _bind_answer(monkeypatch, answer)
    q = field.modulus
    for graph in ROW_GRAPHS:
        pad_rows, message_rows = auditor._answer_rows(graph, q)
        reference_pads, reference_messages = _reference_answer_rows(graph, q)
        assert [list(row) for row in pad_rows] == reference_pads
        zeros = [(0,) * graph.degree(n) for n in range(1, graph.n_vertices + 1)]
        for n in range(1, graph.n_vertices + 1):
            for row in field.iter_vectors(graph.degree(n)):
                queries = tuple(row if m == n else zero for m, zero in enumerate(zeros, 1))
                assert [list(r) for r in message_rows(queries)] == reference_messages(queries)


def test_answer_rows_build_two_placements(monkeypatch):
    placements = []
    place = auditor._place

    def counted(graph, messages, pads):
        placements.append(len(messages))
        return place(graph, messages, pads)

    monkeypatch.setattr(auditor, "_place", counted)
    auditor._answer_rows(complete_graph(4), 3)
    assert placements == [6, 6]


# the shipped answer function, kept for ``_answer_with_product`` while the
# tests rebind ``_answer_slots``
_SHIPPED_ANSWER = _answer_slots


def _answer_with_product(store, queries, q, first=0):
    """The shipped answer plus, in each slot, the product of the first held
    message's and pad's symbols there: an answer that is not the sum of its
    answer to the messages alone and its answer to the pads alone."""
    message, pad = store.messages[0], store.pads[0]
    return tuple(
        (answer + message[slot] * (pad[slot] if slot < len(pad) else 0)) % q
        for slot, answer in enumerate(_SHIPPED_ANSWER(store, queries, q, first), first)
    )


def test_view_tables_answer_every_view(monkeypatch):
    """Under an answer that is not additive in the messages and the pads,
    ``server_view_table`` still equals the definition-level reference: it
    answers each view itself, and builds no answer from a message part and
    a pad part."""
    _bind_answer(monkeypatch, _answer_with_product)
    for graph in (path_graph(3), cycle_graph(4)):
        for target in range(1, graph.n_edges + 1):
            for server in range(1, graph.n_vertices + 1):
                table = server_view_table(graph, F2, 1, target, server)
                assert table == _reference_server_view_table(graph, F2, 1, target, server)


def _enumerated_reliability(graph, field, message_length, pad_length=None, drop_server=None):
    """Per target, whether every outcome of the transcript enumerator decodes
    the kept answers to the target message: reliability by its definition,
    through the protocol's query rule (``_queries``, ``_add_selector``) and
    answer function (``_answer_slots``), with no linearity assumed."""
    verdicts = []
    for target in range(1, graph.n_edges + 1):
        outcomes = iter_transcript_outcomes(graph, field, message_length, target, pad_length)
        verdicts.append(all(
            decode(field, [a for n, a in enumerate(answers, 1) if n != drop_server])
            == messages[target - 1]
            for messages, _, _, _, answers in outcomes
        ))
    return verdicts


# the shipped selector rule, kept for ``_non_affine_selector`` while the
# tests rebind ``_add_selector``
_SHIPPED_SELECTOR = protocol._add_selector


def _non_affine_selector(query, position, q):
    """The protocol's selector, plus 1 more at the selected entry wherever the
    query holds two or more nonzero entries. A query holds at most one at
    h = 0 and at a unit h, where this rule is right; it is not affine in h."""
    selected = _SHIPPED_SELECTOR(query, position, q)
    if sum(1 for x in query if x) < 2:
        return selected
    return _SHIPPED_SELECTOR(selected, position, q)


# without pads, a dropped server makes the targets it selects fail at h = 0
# and the others at a unit h
ENUMERATOR_CASES = {
    f"{name}-q{field.modulus}{'-no-pads' * (pads == 0)}-drop{drop}": (graph, field, pads, drop)
    for name, graph, field in [
        ("path3", path_graph(3), F2),
        ("path3", path_graph(3), F3),
        ("cycle3", cycle_graph(3), F2),
        ("cycle4", cycle_graph(4), F2),
    ]
    for pads in (None, 0)
    for drop in (None, *range(1, graph.n_vertices + 1))
}


@pytest.mark.parametrize("answer", ANSWER_FUNCTIONS.values(), ids=ANSWER_FUNCTIONS.keys())
@pytest.mark.parametrize("case", ENUMERATOR_CASES.values(), ids=ENUMERATOR_CASES.keys())
def test_reliability_matches_the_enumerator(monkeypatch, case, answer):
    """Each target's verdict equals decoding every enumerated outcome, under
    the shipped answer function and both broken ones."""
    graph, field, pads, drop = case
    if answer:
        _patch_answer_function(monkeypatch, answer)
    results = check_reliability(graph, field, 1, pad_length=pads, drop_server=drop)
    assert [c.passed for c in results] == _enumerated_reliability(graph, field, 1, pads, drop)


DATABASE_BINDING_CASES = {
    "path3-q3": (path_graph(3), F3, None),
    "cycle3-q2": (cycle_graph(3), F2, None),
    "star4-q2": (star_graph(4), F2, None),
    "cycle4-q2-no-pads": (cycle_graph(4), F2, 0),
    # under unsigned pads, three padded subsets hold a failing edge and pass
    "cycle3-q3": (cycle_graph(3), F3, None),
}


@pytest.mark.parametrize("answer", ANSWER_FUNCTIONS.values(), ids=ANSWER_FUNCTIONS.keys())
@pytest.mark.parametrize(
    "case", DATABASE_BINDING_CASES.values(), ids=DATABASE_BINDING_CASES.keys()
)
def test_database_privacy_matches_the_tabulation(monkeypatch, case, answer):
    """Every result, witnesses included, equals the tabulation of every
    outcome, under the shipped answer function and both broken ones."""
    graph, field, pads = case
    if answer:
        _patch_answer_function(monkeypatch, answer)
    results = check_database_privacy(graph, field, 1, pad_length=pads)
    assert results == _reference_database_privacy(graph, field, 1, pads)


def test_database_privacy_leaks_after_its_edges_first_fail(monkeypatch):
    """Under unsigned pads at q = 3 on cycle-4, six padded subsets do not
    leak at the earliest first failure among their edges, and leak only at
    a later h, found by their own local search. Tabulating every outcome
    here takes minutes, so the serialized results, witnesses included, are
    pinned byte for byte; they were checked once against that tabulation."""
    _patch_answer_function(monkeypatch, _answer_with_unsigned_pads)
    graph = cycle_graph(4)
    results = check_database_privacy(graph, F3, 1)
    assert not any(c.passed for c in results)
    order = sorted(range(graph.n_edges), key=lambda e: (graph.edges[e][0], e))
    leaking_h = {
        (c.instance["target"], tuple(c.instance["subset"])): c.witness["right"][4][-1]
        for c in results
    }
    later = [
        (target, subset) for (target, subset), h in leaking_h.items()
        if h != min(
            (leaking_h[target, (e,)] for e in subset), key=lambda g: [g[i] for i in order]
        )
    ]
    assert len(later) == 6
    text = json.dumps([c.to_dict() for c in results], sort_keys=True)
    digest = "237130ea2bf9647cd0e22bf3e87891c293a69633938ae93d0ba6c3dc14d1f066"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


NON_AFFINE_CASES = {
    "path3-q2": (path_graph(3), F2, [False, True]),
    "path3-q3": (path_graph(3), F3, [False, True]),
    "cycle3-q2": (cycle_graph(3), F2, [False] * 3),
    "cycle4-q2": (cycle_graph(4), F2, [False] * 4),
}


@pytest.mark.parametrize("case", NON_AFFINE_CASES.values(), ids=NON_AFFINE_CASES.keys())
def test_reliability_assumes_an_affine_query_rule(monkeypatch, case):
    """Under a query rule that is right at h = 0 and at every unit h but not
    affine, the enumerator finds decode errors that the check, which probes
    only those K + 1 mask vectors, does not: the check assumes affinity, and
    this pins what it misses."""
    graph, field, expected = case
    _patch_selector(monkeypatch, _non_affine_selector)
    assert _enumerated_reliability(graph, field, 1) == expected
    assert all(c.passed for c in check_reliability(graph, field, 1))


def _zeroing_selector(query, position, q):
    """The protocol's selector, then, wherever the query holds two or more
    nonzero entries, its first nonzero entry other than the selected one set
    to 0. A query holds at most one at h = 0 and at a unit h, where this rule
    is right; it is not affine in h."""
    selected = _SHIPPED_SELECTOR(query, position, q)
    nonzero = [i for i, x in enumerate(query) if x]
    if len(nonzero) < 2:
        return selected
    i = next(i for i in nonzero if i != position)
    return selected[:i] + (0,) + selected[i + 1:]


NON_AFFINE_PRIVACY_CASES = {
    "cycle3-q2": (cycle_graph(3), 3),
    "cycle4-q2": (cycle_graph(4), 12),
}


@pytest.mark.parametrize(
    "case", NON_AFFINE_PRIVACY_CASES.values(), ids=NON_AFFINE_PRIVACY_CASES.keys()
)
def test_database_privacy_assumes_an_affine_query_rule(monkeypatch, case):
    """Under a query rule that is right at h = 0 and at every unit h but not
    affine, the tabulation of every outcome finds leaking subsets that the
    check, which reads only the mask model built from those K + 1 mask
    vectors, does not: the check assumes affinity, and this pins what it
    misses."""
    graph, leaking = case
    _patch_selector(monkeypatch, _zeroing_selector)
    assert sum(not c.passed for c in _reference_database_privacy(graph, F2, 1)) == leaking
    assert all(c.passed for c in check_database_privacy(graph, F2, 1))
