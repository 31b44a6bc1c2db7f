"""Exhaustive, exact audits of the retrieval scheme.

Every verdict here is decided by integer arithmetic over complete outcome
enumerations — no sampling, no floating point, no tolerances. A joint
distribution is a table mapping outcome tuples to integer counts;
independence is checked by cross-multiplication (``count(a,b) * total ==
count(a) * count(b)`` for every cell), and per-server views are compared as
count tables for exact equality.

Audited constraints:

* reliability — summing all answers yields the target message, for every
  joint realization of messages, pads and mask coefficients;
* user privacy — each server's view (its queries, its answer, its stored
  messages and pads) has one distribution for every target; the answer is a
  function of the rest, so this is decided exactly on the query counts;
* database privacy — the user's whole view (all queries, all answers, the
  mask coefficients, plus every message and pad the user could have been
  given out of band, except the pads of the probed messages) is exactly
  independent of the messages it should not learn.

Every answer the checks read comes from the protocol's answer function,
``protocol._answer_slot``, split by its additivity into a message part and a
pad part; the auditor keeps no copy of the answer arithmetic.

State spaces grow as ``q^(3·K·L)``; a budget guard refuses enumerations
beyond a configurable outcome count rather than silently auditing a subset.
"""

import functools
import itertools
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .field import PrimeField
from .graph import Graph
from .protocol import (
    ServerStore,
    _answer_slot,
    _place,
    _resolve_pad_length,
    _selector_key,
    _signed_query,
    decode,
    gen_queries,
    run_round_with_coeffs,
    state_from_values,
)

DEFAULT_BUDGET = 2**24


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the outcome budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"exhaustive audit requires {required} outcomes, "
            f"exceeding the budget of {budget}"
        )


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactDistribution:
    """A finite distribution held as integer counts over hashable outcomes."""

    counts: dict
    total: int

    def __post_init__(self):
        if self.total != sum(self.counts.values()):
            raise ValueError("total does not match the sum of counts")
        if any(c <= 0 for c in self.counts.values()):
            raise ValueError("counts must be positive")


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


def _pair_marginals(pairs: ExactDistribution):
    left_counts = Counter()
    right_counts = Counter()
    for (left, right), count in pairs.counts.items():
        left_counts[left] += count
        right_counts[right] += count
    return left_counts, right_counts


def independence_witness(pairs: ExactDistribution):
    """First cell violating ``count(l,r)·total == count(l)·count(r)``, or None.

    Outcomes of ``pairs`` must be ``(left, right)`` tuples. The scan covers
    the full product of the two marginal supports, so a structurally missing
    cell (joint count zero where both marginals are positive) is caught.
    """
    left_counts, right_counts = _pair_marginals(pairs)
    for left in sorted(left_counts):
        cl = left_counts[left]
        for right in sorted(right_counts):
            cr = right_counts[right]
            if pairs.counts.get((left, right), 0) * pairs.total != cl * cr:
                return IndependenceWitness(
                    left, right, pairs.counts.get((left, right), 0), cl, cr, pairs.total
                )
    return None


def mutual_information_terms(pairs: ExactDistribution):
    """The mutual information as an exact sum of ``p * log2(ratio)`` terms.

    Returns ``(p, ratio)`` pairs of Fractions; the information is zero
    exactly when every ratio equals one, which is how the verdict functions
    decide without ever evaluating a logarithm.
    """
    left_counts, right_counts = _pair_marginals(pairs)
    terms = []
    for (left, right), count in sorted(pairs.counts.items()):
        p = Fraction(count, pairs.total)
        ratio = Fraction(count * pairs.total, left_counts[left] * right_counts[right])
        terms.append((p, ratio))
    return terms


# ---------------------------------------------------------------------------
# exhaustive transcript enumeration
# ---------------------------------------------------------------------------


def state_space_size(graph: Graph, field: PrimeField, message_length: int, pad_length=None) -> int:
    """Number of joint realizations of messages, pads and mask coefficients."""
    pad_length = _resolve_pad_length(message_length, pad_length)
    q = field.modulus
    k = graph.n_edges
    return q ** (k * message_length + k * pad_length + k * message_length)


def _ensure_budget(graph, field, message_length, pad_length, budget):
    required = state_space_size(graph, field, message_length, pad_length)
    if required > budget:
        raise BudgetExceededError(required, budget)


def iter_transcript_outcomes(graph, field, message_length, target, pad_length=None):
    """An iterator with one outcome per joint realization, driving the
    protocol module.

    Outcomes are ``(messages, pads, coefficients, queries, answers)`` nested
    tuples: everything the user and the servers jointly produce once the
    messages, the pads and the per-slot mask coefficients are fixed. The
    lengths and the target are validated at the call, not at the first
    outcome.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    graph._check_edge(target)
    k = graph.n_edges

    def outcomes():
        for messages in itertools.product(field.iter_vectors(message_length), repeat=k):
            for pads in itertools.product(field.iter_vectors(pad_length), repeat=k):
                state = state_from_values(graph, field, message_length, messages, pads)
                for coeffs in itertools.product(field.iter_vectors(k), repeat=message_length):
                    transcript = run_round_with_coeffs(state, target, coeffs)
                    yield (messages, pads, coeffs, transcript.queries, transcript.answers)

    return outcomes()


# ---------------------------------------------------------------------------
# audit checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check: str
    instance: dict
    passed: bool
    enumerated: int
    witness: dict | None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "passed": self.passed,
            "enumerated": self.enumerated,
            "witness": self.witness,
        }


def _resolve_targets(graph: Graph, targets) -> list[int]:
    if targets is None:
        return list(range(1, graph.n_edges + 1))
    targets = list(targets)
    if not targets:
        raise ValueError("targets is empty: no per-target check would run")
    seen = set()
    for t in targets:
        graph._check_edge(t)
        if t in seen:
            raise ValueError(f"target {t!r} is repeated")
        seen.add(t)
    return targets


def check_reliability(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pad_length=None,
    drop_server=None,
    targets=None,
) -> list[CheckResult]:
    """Verify decode == target message over every joint realization, per target.

    The per-slot draws are independent and identically structured, so the
    joint space is the product of identical single-slot spaces (one variant
    with a pad symbol, one without when pads are shorter than messages): a
    decode error exists in the joint space exactly when one exists in a slot
    space. Each distinct slot space is enumerated in full.

    Decoding sums the kept answers, and an answer is linear in the held
    messages and pads (``protocol._answer_slot``), so each symbol enters the
    decoded sum with a weight: the sum of its kept holders' answers to the
    unit vector at it. The decoded symbol is a message part fixed by the
    coefficients and messages, plus the pads' weighted sum ``r`` mod q. The
    pad vectors are grouped by ``r`` once per slot variant, keeping the
    first vector of each residue in enumeration order, and a
    ``(coefficients, messages)`` pair fails exactly when some residue
    differs from the one that decodes correctly. Each pair still counts all
    its pad vectors in ``enumerated``, and the witness is still the first
    failing outcome: within a pair, the first failing pad vector is the
    first of the first failing residue.

    ``drop_server`` excludes one server's answer from decoding; it exists as
    a negative control and makes the check fail with a witness.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    _ensure_budget(graph, field, message_length, pad_length, budget)
    if drop_server is not None:
        graph._check_vertex(drop_server)
    q = field.modulus
    k = graph.n_edges
    # per edge, every server's store of the one-slot unit vector at it,
    # placed as the messages with no pads and as the pads with zero messages
    edges, servers = range(1, k + 1), range(1, graph.n_vertices + 1)
    units = [[(int(e == j),) for j in edges] for e in edges]
    message_units = [_place(graph, w, [()] * k) for w in units]
    kept = [(n, graph.incident_edges(n)) for n in servers if n != drop_server]
    zero_rows = [(0,) * graph.degree(n) for n in servers]
    pad_weights = _weights(kept, [_place(graph, [(0,)] * k, z) for z in units], zero_rows, q, {})
    memo = {}

    slot_variants = [True] * (pad_length > 0) + [False] * (pad_length < message_length)

    results = []
    for target in _resolve_targets(graph, targets):
        failure = None
        enumerated = 0
        for padded in slot_variants:
            pad_space = list(field.iter_vectors(k)) if padded else [None]
            # the pads enter only through their weighted sum: each residue,
            # with the first pad vector that reaches it
            residues = {}
            for pads in pad_space:
                residue = sum(w * p for w, p in zip(pad_weights, pads)) % q if pads else 0
                residues.setdefault(residue, pads)
            for coeffs in field.iter_vectors(k):
                queries = gen_queries(graph, field, target, coeffs)
                weights = _weights(kept, message_units, queries, q, memo)
                for messages in field.iter_vectors(k):
                    enumerated += len(pad_space)
                    if failure:
                        continue
                    # the pads that decode correctly are those of residue ``need``
                    dot_sum = sum(map(operator.mul, weights, messages))
                    need = (messages[target - 1] - dot_sum) % q
                    for residue, pads in residues.items():
                        if residue != need:
                            failure = (coeffs, messages, pads, padded)
                            break
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


def _weights(kept, placements, rows, q, memo) -> list[int]:
    """Per edge ``e``, the sum of its kept holders' first-slot answers: each
    holder ``n`` answers its query ``rows[n - 1]`` with its store in
    ``placements[e - 1]``. ``kept`` lists ``(n, held edges)``. A server's
    answers read the coefficients only through its row, so ``memo`` keeps
    them per ``(n, row)``."""
    totals = [0] * len(placements)
    for n, held in kept:
        row = rows[n - 1]
        if (n, row) not in memo:
            memo[n, row] = [_answer_slot(placements[e - 1][n - 1], row, q, 0) for e in held]
        for e, a in zip(held, memo[n, row]):
            totals[e - 1] += a
    return totals


def _reliability_witness(graph, field, message_length, pad_length, target, drop_server, failure):
    """Replay one failing slot realization through the protocol module."""
    coeffs, messages, pads, padded = failure
    slot = 0 if padded else pad_length
    k = graph.n_edges
    full_messages = [
        tuple(messages[e] if t == slot else 0 for t in range(message_length))
        for e in range(k)
    ]
    full_pads = [
        tuple(pads[e] if (padded and t == slot) else 0 for t in range(pad_length))
        for e in range(k)
    ]
    coeff_slots = [tuple(coeffs if t == slot else (0,) * k) for t in range(message_length)]
    state = state_from_values(graph, field, message_length, full_messages, full_pads)
    transcript = run_round_with_coeffs(state, target, coeff_slots)
    answers = [a for n, a in enumerate(transcript.answers, start=1) if n != drop_server]
    return {
        "coefficients": [list(c) for c in coeff_slots],
        "messages": [list(m) for m in full_messages],
        "pads": [list(p) for p in full_pads],
        "decoded": list(decode(field, answers)),
        "expected": list(full_messages[target - 1]),
    }


def server_view_table(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    target: int,
    server: int,
    *,
    pad_length=None,
    mask_queries: bool = True,
) -> ExactDistribution:
    """Exact distribution of one server's view of a round.

    The view is ``(queries per slot, answer, stored messages, stored
    pads)``. It is a function of only the variables on the server's own
    incident edges, and every other message, pad and coefficient scales all
    counts by one common factor, so enumerating the incident-edge variables
    reproduces the joint marginal exactly (up to that factor, which is the
    same for every target).

    ``mask_queries=False`` sends the raw selector with no mask coefficients
    — a sabotaged scheme used as a negative control.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    graph._check_edge(target)
    graph._check_vertex(server)
    key = _selector_key(graph, server, target)
    queries = _query_counts(graph, field, message_length, server, key, mask_queries)
    views = _view_counts(graph, field, message_length, pad_length, server, queries)
    return ExactDistribution(views, sum(views.values()))


def _query_counts(graph, field, message_length, server, key, mask_queries) -> Counter:
    """Count the per-slot query tuples ``server`` receives in a round whose
    target has its selector key ``key`` (``_selector_key``), over every
    vector of its held mask coefficients in every slot. ``mask_queries=False``
    sends the raw selector: the query with every coefficient zero."""
    held, signs = graph._incidence[server - 1]
    coeff_space = field.iter_vectors(len(held)) if mask_queries else [(0,) * len(held)]
    slot_queries = [_signed_query(signs, c, key, field.modulus) for c in coeff_space]
    return Counter(itertools.product(slot_queries, repeat=message_length))


def _view_counts(graph, field, message_length, pad_length, server, query_counts) -> dict:
    """The view table of a server's query counts: every view
    ``(queries, answer, messages, pads)`` over all held messages and pads,
    counted as its query tuple. The answer is the message part, the
    protocol's answer to (messages, no pads), plus the pad part, its answer
    to (no messages, pads) (``_answer_slot``), which reads no query."""
    held, signs = graph._incidence[server - 1]
    q, delta, slots = field.modulus, len(held), range(message_length)
    store = functools.partial(ServerStore, server, held, signs)
    message_space = list(itertools.product(field.iter_vectors(message_length), repeat=delta))
    pad_space = list(itertools.product(field.iter_vectors(pad_length), repeat=delta))
    message_stores = [store(messages, ((),) * delta) for messages in message_space]
    zero_query, zero_messages = (0,) * delta, ((0,) * message_length,) * delta
    pad_parts = [
        [_answer_slot(store(zero_messages, pads), zero_query, q, t) for t in slots]
        for pads in pad_space
    ]
    answers = {
        part: [tuple((m + p) % q for m, p in zip(part, pad_part)) for pad_part in pad_parts]
        for part in itertools.product(range(q), repeat=message_length)
    }
    views = {}
    for queries, count in query_counts.items():
        for messages, message_store in zip(message_space, message_stores):
            part = tuple(_answer_slot(message_store, queries[t], q, t) for t in slots)
            for answer, pads in zip(answers[part], pad_space):
                views[queries, answer, messages, pads] = count
    return views


def check_user_privacy(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pad_length=None,
    mask_queries: bool = True,
) -> list[CheckResult]:
    """Compare each server's view distribution across all retrieval targets.

    For every server, the view table of every target is compared for exact
    count-table equality against the target-1 table; equality is
    transitive, so every pair of targets is covered.

    Each server's tables are decided on its query tables. Its view is
    ``(queries, answer, messages, pads)`` on its held edges, where the
    answer is ``_answer_slot`` of the other three, and the mask coefficients
    are drawn independently of the messages and pads. So a view's count is
    its query tuple's count if the answer is right and 0 otherwise
    (``_view_counts``), and summing a view table over answers, messages and
    pads gives the query table times ``q^(deg·(L + L'))``. Two targets' view
    tables are therefore equal exactly when their query tables are. The
    query tables are counted over the whole held coefficient space, so an
    unmasked selector fails because its counts differ, not by an argument.
    A server's query depends on the target only through ``_selector_key``,
    so it counts one query ``Counter`` per distinct key (at most
    ``1 + degree``); only an unequal pair is expanded to views for the
    witness.

    ``mask_queries=False`` is a negative control that sends the raw selector
    (no mask coefficients); the check must then fail at the selector-holding
    servers.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    _ensure_budget(graph, field, message_length, pad_length, budget)
    results = []
    for server in range(1, graph.n_vertices + 1):
        keys = {t: _selector_key(graph, server, t) for t in range(1, graph.n_edges + 1)}
        tables = {
            key: _query_counts(graph, field, message_length, server, key, mask_queries)
            for key in set(keys.values())
        }
        reference = tables[keys[1]]
        views = functools.partial(_view_counts, graph, field, message_length, pad_length, server)
        witnesses = {
            key: None if table == reference
            else _table_difference_witness(views(reference), views(table))
            for key, table in tables.items()
        }
        views_per_query = field.modulus ** (graph.degree(server) * (message_length + pad_length))
        enumerated = sum(reference.values()) * views_per_query
        for target in range(2, graph.n_edges + 1):
            witness = witnesses[keys[target]]
            results.append(
                CheckResult(
                    check="user-privacy",
                    instance={"server": server, "target": target, "reference": 1},
                    passed=witness is None,
                    enumerated=enumerated,
                    witness=dict(witness) if witness else None,
                )
            )
    return results


def _table_difference_witness(reference: Counter, other: Counter) -> dict:
    keys = sorted(set(reference) | set(other))
    for key in keys:
        if reference.get(key, 0) != other.get(key, 0):
            return {
                "view": repr(key),
                "reference_count": reference.get(key, 0),
                "target_count": other.get(key, 0),
            }
    raise AssertionError("tables compared unequal but no differing cell found")


def check_database_privacy(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pad_length=None,
    targets=None,
) -> list[CheckResult]:
    """Exact independence of undesired messages from the user's whole view.

    For every target and every non-empty subset of the other messages, the
    subset's contents are paired against everything the user sees or could
    be handed out of band: all answers, all queries, the mask coefficients,
    every pad except the probed subset's own, and every message except the
    target and the subset. The verdict is the cross-multiplication test on
    the full enumeration of ``iter_transcript_outcomes``; a failure comes
    with the violating cell.

    The enumeration is tabulated, not materialized. Each outcome is stored
    as one int, the id of its ``(answers, coefficient index)`` view; its
    messages and pads follow from its position in the
    ``(messages, pads, coefficients)`` product. Queries are left out of the
    key: for a fixed target they are a function of the mask coefficients
    (``gen_queries``), so two outcomes agree on the full key exactly when
    they agree without the queries, and the partition into cells, hence
    every count, is unchanged. Each subset then lists the int-coded right
    values of each left value and passes iff these rows are equal
    (``_equal_rows``). Only a failing subset decodes its cells back to
    tuple keys, queries included, for ``independence_witness``.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    _ensure_budget(graph, field, message_length, pad_length, budget)
    targets = _resolve_targets(graph, targets)
    k = graph.n_edges
    results = []
    for target in targets:
        table = _ViewTable(graph, field, message_length, pad_length, target)
        others = [e for e in range(1, k + 1) if e != target]
        for size in range(1, len(others) + 1):
            for subset in itertools.combinations(others, size):
                witness = table.witness(subset)
                results.append(
                    CheckResult(
                        check="database-privacy",
                        instance={"target": target, "subset": list(subset)},
                        passed=witness is None,
                        enumerated=table.total,
                        witness=witness.to_dict() if witness else None,
                    )
                )
    return results


class _ViewTable:
    """One target's outcomes, one int each: the id of its view.

    Outcomes come in the order of ``iter_transcript_outcomes``: messages
    outermost, then pads, then coefficients. Message and pad vectors are
    numbered in ``field.iter_vectors`` order, so the messages of the
    ``i``-th block of coefficient outcomes are the vectors numbered by
    ``message_rows[i // len(pad_rows)]``, and its pads those numbered by
    ``pad_rows[i % len(pad_rows)]``.

    Every answer symbol is a message part plus a pad part, the protocol's
    answers to (messages, no pads) and to (no messages, pads)
    (``_answer_slot``). The pad part is answered once per pad vector. A
    server's message part reads the coefficients only through its own query
    row, so it is answered once per message vector and distinct row. Both
    are coded with one digit per ``(server, slot)``, most significant
    first, in radix ``2q - 1``, where two reduced parts add without carry,
    so one int addition gives the raw code of an outcome's answers. ``ids``
    maps a raw code (times the number of coefficient vectors, plus the
    coefficient index) to its view id; only a code not seen before is
    reduced mod q per digit to look its view up.
    """

    def __init__(self, graph, field, message_length, pad_length, target):
        k, q = graph.n_edges, field.modulus
        self.edges = range(1, k + 1)
        self.target = target
        self.coeff_space = list(itertools.product(field.iter_vectors(k), repeat=message_length))
        self.queries = [
            tuple(gen_queries(graph, field, target, c) for c in coeffs)
            for coeffs in self.coeff_space
        ]
        self.message_vectors = list(field.iter_vectors(message_length))
        self.pad_vectors = list(field.iter_vectors(pad_length))
        n_coeffs = len(self.coeff_space)
        digits = [(n, t) for n in range(graph.n_vertices) for t in range(message_length)]
        radices = [2 * q - 1] * len(digits)
        scales = [radices[0] ** j for j in range(len(digits) - 1, -1, -1)]
        # per digit, its distinct query rows; per coefficient index, the
        # position of its row in each
        query_rows = [{} for _ in digits]
        row_picks = [
            [query_rows[d].setdefault(queries[t][n], len(query_rows[d]))
             for d, (n, t) in enumerate(digits)]
            for queries in self.queries
        ]
        no_messages = [(0,) * message_length] * k
        pad_codes = []
        for pads in itertools.product(self.pad_vectors, repeat=k):
            stores = _place(graph, no_messages, pads)
            pad_codes.append(n_coeffs * sum(
                scale * _answer_slot(stores[n], (0,) * len(stores[n].held), q, t)
                for scale, (n, t) in zip(scales, digits)
            ))
        views = {}

        def view_id(raw):
            code, ci = divmod(raw, n_coeffs)
            symbols = [d % q for d in _radix_digits(code, radices)]
            answers = tuple(
                tuple(symbols[j : j + message_length])
                for j in range(0, len(symbols), message_length)
            )
            return views.setdefault((answers, ci), len(views))

        ids = _Memo(view_id)
        self.view_ids = array("L")
        no_pads = [()] * k
        for messages in itertools.product(self.message_vectors, repeat=k):
            stores = _place(graph, messages, no_pads)
            parts = [
                [scale * _answer_slot(stores[n], row, q, t) for row in query_rows[d]]
                for d, (scale, (n, t)) in enumerate(zip(scales, digits))
            ]
            message_codes = [
                sum(map(operator.getitem, parts, picks)) * n_coeffs + ci
                for ci, picks in enumerate(row_picks)
            ]
            for pad_code in pad_codes:
                raw_codes = map(pad_code.__add__, message_codes)
                self.view_ids.extend(map(ids.__getitem__, raw_codes))
        self.views = list(views)
        self.message_rows = list(itertools.product(range(len(self.message_vectors)), repeat=k))
        self.pad_rows = list(itertools.product(range(len(self.pad_vectors)), repeat=k))
        self.total = len(self.view_ids)

    def _outside(self, subset):
        """The messages outside the subset and the target, and the pads
        outside the subset: the edges the right side reads."""
        rest = [e for e in self.edges if e not in subset and e != self.target]
        return rest, [e for e in self.edges if e not in subset]

    def rows(self, subset) -> dict:
        """The subset's pair table as rows: per left value, the subset's
        messages coded as one int, the list of its outcomes' right values.

        A right value is one int whose mixed-radix digits are, most
        significant first: the messages outside the subset and the target,
        the pads outside the subset, and the view id.
        """
        rest, pad_rest = self._outside(subset)
        n_msg, n_pad, n_views = len(self.message_vectors), len(self.pad_vectors), len(self.views)
        rest_scale = n_pad ** len(pad_rest) * n_views
        pad_codes = [_radix_code(row, pad_rest, n_pad) * n_views for row in self.pad_rows]
        n_coeffs = len(self.coeff_space)
        rows = {}
        pos = 0
        for row in self.message_rows:
            cells = rows.setdefault(_radix_code(row, subset, n_msg), [])
            rest_code = _radix_code(row, rest, n_msg) * rest_scale
            for pad_code in pad_codes:
                block = self.view_ids[pos : pos + n_coeffs]
                pos += n_coeffs
                cells.extend(map((rest_code + pad_code).__add__, block))
        return rows

    def witness(self, subset):
        """``independence_witness`` of the subset's pair table, or None.

        The verdict is ``_equal_rows`` of ``rows(subset)``: the outcomes
        enumerate the full product of message vectors, so every left value
        occurs equally often. Only a failing subset counts and decodes its
        cells to the tuple keys of ``independence_witness``.
        """
        rows = self.rows(subset)
        if _equal_rows(rows.values()):
            return None
        n_msg, n_pad = len(self.message_vectors), len(self.pad_vectors)
        rest, pad_rest = self._outside(subset)
        left_radices = [n_msg] * len(subset)
        right_radices = [n_msg] * len(rest) + [n_pad] * len(pad_rest) + [len(self.views)]
        pairs = {}
        for left_code, cells in rows.items():
            left = tuple(self.message_vectors[d] for d in _radix_digits(left_code, left_radices))
            for right_code, count in Counter(cells).items():
                *digits, view_id = _radix_digits(right_code, right_radices)
                answers, ci = self.views[view_id]
                right = (
                    answers,
                    self.queries[ci],
                    tuple(self.pad_vectors[d] for d in digits[len(rest) :]),
                    tuple(self.message_vectors[d] for d in digits[: len(rest)]),
                    self.coeff_space[ci],
                )
                pairs[(left, right)] = count
        witness = independence_witness(ExactDistribution(pairs, self.total))
        if witness is None:
            raise AssertionError("the rows of the table differ but its cells pass")
        return witness


class _Memo(dict):
    """A dict that fills a missing key with ``fill(key)``."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _equal_rows(rows) -> bool:
    """The cross-multiplication test of a pair table whose left values all
    occur equally often: whether every row, the list of right values of one
    left value, holds the same multiset.

    Let the table have ``m`` left values, each of count ``total / m``, and
    let ``c(l, r)`` be a cell's count and ``cr`` the count of ``r``. The
    test asks ``c(l, r)·total == (total / m)·cr``, that is
    ``c(l, r) == cr / m``, for every ``l`` and every ``r`` of the right
    support. If it holds, ``c(l, r)`` does not depend on ``l``, so the rows
    are equal. If the rows are equal, ``cr = m·c(l, r)`` for every ``l``,
    so it holds. Rows are compared sorted.
    """
    first, *others = (sorted(row) for row in rows)
    return all(row == first for row in others)


def _radix_code(row, edges, radix) -> int:
    """The digits ``row[e - 1]`` for ``e`` in ``edges``, most significant
    first, as one int."""
    code = 0
    for e in edges:
        code = code * radix + row[e - 1]
    return code


def _radix_digits(code, radices) -> list[int]:
    """The mixed-radix digits of ``code``, most significant first."""
    digits = [0] * len(radices)
    for j in range(len(radices) - 1, -1, -1):
        code, digits[j] = divmod(code, radices[j])
    return digits


# ---------------------------------------------------------------------------
# assembled audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    graph_name: str
    modulus: int
    message_length: int
    pad_length: int
    budget: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "graph": self.graph_name,
            "modulus": self.modulus,
            "message_length": self.message_length,
            "pad_length": self.pad_length,
            "budget": self.budget,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def run_audit(
    graph: Graph,
    field: PrimeField,
    message_length: int,
    *,
    budget: int = DEFAULT_BUDGET,
    pad_length=None,
    graph_name: str = "graph",
    targets=None,
) -> AuditReport:
    """Run all three checks over every target (and every server / subset).

    ``targets`` restricts the per-target reliability and database-privacy
    checks; user privacy always compares every target, since it is a
    statement about pairs of them.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    checks = []
    checks.extend(
        check_reliability(
            graph, field, message_length, budget=budget, pad_length=pad_length,
            targets=targets,
        )
    )
    checks.extend(
        check_user_privacy(
            graph, field, message_length, budget=budget, pad_length=pad_length
        )
    )
    checks.extend(
        check_database_privacy(
            graph, field, message_length, budget=budget, pad_length=pad_length,
            targets=targets,
        )
    )
    return AuditReport(
        graph_name=graph_name,
        modulus=field.modulus,
        message_length=message_length,
        pad_length=pad_length,
        budget=budget,
        checks=tuple(checks),
    )
