"""Exact audits of the retrieval scheme.

Every verdict here is exact — no sampling, no floating point, no tolerances
— with one assumption: reliability and database privacy take every query
to be affine in the mask vector h, and would pass a query rule that is
right at h = 0 and at each unit h but not affine. The tests check that
assumption for the shipped query rule against oracles that enumerate or
tabulate every outcome.

Reliability and database privacy are algebraic over messages and pads,
and both read one affine mask model per call (``_mask_model``): every
target's answer rows at the zero mask vector h, and each unit h's change to
them, which is the same for every target. That is 2K probes for a call of
K targets, in place of a walk over the q^K mask vectors. Reliability builds
a failure's witness from the last nonzero entries of the model's defects
and the pads' weights, without walking any mask vector, message or pad.
Database privacy is an exact rank test mod q, decided per edge from the
model. An edge outside its pad's span finds its first failing h among the
assignments of the few mask entries its test reads, q² in the shipped code,
and a subset's first leaking h follows from its edges' without a walk over
the q^K mask vectors. A failure's witness is the first cell of the joint
count table that fails cross-multiplication
(``count(a,b) * total == count(a) * count(b)``), computed from the same
ranks without listing an outcome. User privacy is decided on each server's
single-slot query counts, which fix its view tables exactly; a failure's
witness, the first cell at which two view tables differ, and its counts are
computed from the same query counts without listing a view.

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

Every answer the auditor reads comes from the protocol's answer function,
``protocol._answer_slots``; the auditor keeps no copy of the answer
arithmetic. The checks read each server's answer as a linear form in its
messages and pads, read off two identity placements (``_answer_rows``), and
read the queries as affine in h (``_mask_model``); the tests check both
checks against tabulating every enumerated outcome. The view-table
oracle (``server_view_table``) answers every view itself, so it reads the
definition and assumes no linearity.

State spaces grow as ``q^(3·K·L)``; a budget guard refuses enumerations
beyond a configurable outcome count rather than silently auditing a subset.
"""

import itertools
from collections import Counter
from dataclasses import dataclass

from .field import PrimeField
from .graph import Graph, _iterate, _signed_getter, _signed_table
from .protocol import (
    ServerStore,
    _add_selector,
    _answer_slots,
    _place,
    _queries,
    _resolve_pad_length,
    _round_answers,
    _selector_key,
    decode,
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
# exhaustive transcript enumeration
# ---------------------------------------------------------------------------


def state_space_size(graph: Graph, field: PrimeField, message_length: int, pad_length=None) -> int:
    """Number of joint realizations of messages, pads and mask coefficients."""
    pad_length = _resolve_pad_length(message_length, pad_length)
    q = field.modulus
    k = graph.n_edges
    return q ** (k * message_length + k * pad_length + k * message_length)


def _ensure_budget(graph, field, message_length, pad_length, budget) -> int:
    required = state_space_size(graph, field, message_length, pad_length)
    if required > budget:
        raise BudgetExceededError(required, budget)
    return required


def iter_transcript_outcomes(graph, field, message_length, target, pad_length=None):
    """An iterator with one outcome per joint realization, driving the
    protocol module.

    Outcomes are ``(messages, pads, coefficients, queries, answers)`` nested
    tuples: everything the user and the servers jointly produce once the
    messages, the pads and the per-slot mask coefficients are fixed. The
    lengths and the target are validated at the call, not at the first
    outcome. Every value the enumeration builds is a field element, so the
    queries are built (``_queries``), the stores placed (``_place``) and
    answered (``_round_answers``) unchecked, and each coefficient vector's
    queries are built once.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    graph._check_edge(target)
    k, q = graph.n_edges, field.modulus

    def outcomes():
        # answers repeat across outcomes; sharing one tuple per value keeps
        # a listed enumeration small
        seen = {}
        coeff_space = list(itertools.product(field.iter_vectors(k), repeat=message_length))
        query_space = [
            tuple(_queries(graph, q, target, c) for c in coeffs) for coeffs in coeff_space
        ]
        for messages in itertools.product(field.iter_vectors(message_length), repeat=k):
            for pads in itertools.product(field.iter_vectors(pad_length), repeat=k):
                stores = _place(graph, messages, pads)
                for coeffs, queries in zip(coeff_space, query_space):
                    answers = _round_answers(stores, q, queries)
                    yield (messages, pads, coeffs, queries, seen.setdefault(answers, answers))

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
    targets = list(_iterate(targets, "targets", "message indices"))
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
    space.

    Decoding sums the kept answers, and an answer is linear in the held
    messages and pads (``protocol._answer_slots``), so each symbol enters the
    decoded sum with a weight: the sum of its kept holders' answers to the
    unit vector at it (``_answer_rows``). The decoded symbol is the target
    symbol less ``defect(h)·W``, plus ``r`` mod q, where ``defect(h)`` is
    the unit vector at the target less the message weights under h's
    queries, and ``r`` is the pads' weighted sum. A slot realization
    ``(h, W, Z)`` fails exactly when ``r ≠ defect(h)·W``. Two facts about a
    linear form ``x ↦ d·x`` over F_q (q prime) decide it without walking any
    message or pad. (1) Its values are {0} if d is 0, and all of F_q
    otherwise, since a nonzero entry can be scaled to any value. (2) The
    first vector in ``field.iter_vectors`` order with ``d·x ≠ 0`` is the
    unit vector at the last nonzero entry ``d_i`` of d: every vector before
    it in that order is zero at entry i and at every earlier one, so it
    meets d only where d is 0, and the unit vector has value ``d_i ≠ 0``.

    The defect is affine in h: ``defect(h) = d₀ − D·h`` mod q, with
    ``d₀ = defect(0)``, since the message rows are (``_mask_model``). Column
    i of D is the kept servers' summed row change under the unit h at edge
    i + 1, the same for every target. So one h = 0 probe per target and K
    unit probes per call decide every h, in place of a walk over the q^K
    mask vectors. Affinity is assumed, not checked here: a query rule or
    answer function that is right at 0 and at every unit vector but not
    affine would pass. The tests check this check against one that decodes
    every outcome of ``iter_transcript_outcomes``.

    So if a slot has a pad and some pad weight is nonzero, ``r`` takes
    every value: in enumeration order the padded variant comes first, and
    its first outcome, the zero mask vector with zero messages, fails at the
    first pad with ``r ≠ 0``, the unit pad at the last nonzero pad weight
    (2). Otherwise ``r`` is 0, and a realization fails iff
    ``defect(h)·W ≠ 0``. No h with a zero defect fails (1), and the first h
    with a nonzero defect fails first at the unit message at the defect's
    last nonzero entry (2), with the zero pads (``None`` when no slot has a
    pad) in the first variant. If ``d₀ ≠ 0``, that first h is 0. Otherwise
    ``defect(h) = −D·h``, and every h passes iff D is 0. If not, the first
    h with ``D·h ≠ 0`` is the unit vector at D's last nonzero column j, by
    the argument of (2) with the columns of D in place of the entries of d,
    and its defect is ``−D_j``. The defect does not read the pads, so a
    variant that passes is followed by one that passes too. The witness is
    therefore the first failing outcome of the full enumeration.
    ``enumerated`` counts the outcomes of every slot variant visited,
    ``q^(2K)`` pairs times the variant's pad vectors, as a full enumeration
    that stops after the first failing variant would.

    ``drop_server`` excludes one server's answer from decoding; it exists as
    a negative control and makes the check fail with a witness.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    joint_space = _ensure_budget(graph, field, message_length, pad_length, budget)
    if drop_server is not None:
        graph._check_vertex(drop_server)
    q = field.modulus
    k = graph.n_edges
    pad_rows, message_rows = _answer_rows(graph, q)
    kept = {n - 1 for n in range(1, graph.n_vertices + 1) if n != drop_server}
    pad_weights = [sum(column) % q for column in zip(*[pad_rows[i] for i in kept])]
    pad_shift = pad_length > 0 and any(pad_weights)
    # the pad vectors of each slot variant, the padded one first
    pad_counts = [q**k] * (pad_length > 0) + [1] * (pad_length < message_length)
    zero = (0,) * k
    targets = _resolve_targets(graph, targets)
    zero_rows, changes = _mask_model(graph, q, targets, message_rows)
    # D's last nonzero column j, with the unit h at j and its defect −D_j
    slope = None
    for j in reversed(range(k)):
        column = [-sum(c) % q for c in zip(*[r for n, r in changes[j].items() if n in kept])]
        if any(column):
            slope = zero[:j] + (1,) + zero[j + 1:], column
            break

    results = []
    for target in targets:
        rows = zero_rows[target]
        weights = map(sum, zip(*[rows[i] for i in kept]))
        d0 = [(int(e == target - 1) - w) % q for e, w in enumerate(weights)]
        probe = (zero, d0) if any(d0) else slope
        failure = witness = None
        if pad_shift:
            failure = zero, zero, _last_unit(pad_weights), True
        elif probe:
            coeffs, d = probe
            failure = coeffs, _last_unit(d), zero if pad_length else None, pad_length > 0
        if failure:
            witness = _reliability_witness(
                graph, field, message_length, pad_length, target, drop_server, failure
            )
        results.append(
            CheckResult(
                check="reliability",
                instance={"target": target, "slots": message_length, "joint_space": joint_space},
                passed=failure is None,
                enumerated=q ** (2 * k) * (pad_counts[0] if failure else sum(pad_counts)),
                witness=witness,
            )
        )
    return results


def _last_unit(vector):
    """The unit vector at the last nonzero entry of ``vector``: the first
    vector in ``field.iter_vectors`` order with a nonzero dot product
    against it (``check_reliability``)."""
    last = max(e for e, x in enumerate(vector) if x)
    return tuple(int(e == last) for e in range(len(vector)))


def _answer_rows(graph, q):
    """The linear form of every server's answer in one slot, read off the
    protocol's answer function (``_answer_slots``) on two identity
    placements.

    Returns ``(pad_rows, message_rows)``. ``pad_rows[n - 1][e - 1]`` is
    server ``n``'s answer to the unit pad at ``e`` (zero messages) under a
    zero query row. ``message_rows(queries)[n - 1][e - 1]`` is its answer to
    the unit message at ``e`` (no pads) under its query row
    ``queries[n - 1]``. A server that does not hold ``e`` answers 0. An
    answer is linear in the messages and pads (``_answer_slots``), so server
    ``n`` answers messages ``W`` and pads ``Z`` with
    ``sum_e W_e·message_rows(queries)[n - 1][e - 1] + Z_e·pad_rows[n - 1][e - 1]``
    mod q. A server's row reads the queries only through its own query row,
    so ``message_rows`` keeps it per ``(server, query row)``.

    Both come from the K×K identity, placed once as K-symbol messages with
    no pads and once as K-symbol pads with zero K-symbol messages: in
    either, edge e's symbol t is 1 if t = e − 1 and 0 otherwise.
    ``_answer_slots`` answers slot t from slot t's query and the held
    symbols of slot t alone, the slot independence that the checks'
    per-slot proofs also read. In slot t, a server holds the symbols of a
    one-slot store with the unit message (or pad) at edge t + 1 if it holds
    that edge, and zero symbols otherwise, to which a linear answer is 0.
    So one call with the server's query row in every slot returns its
    message row, slot t standing for edge t + 1, and one call with a zero
    row in every slot returns its pad row. Each call builds these two
    placements and no other store.
    """
    k = graph.n_edges
    identity = [tuple(int(t == e) for t in range(k)) for e in range(k)]
    message_stores = _place(graph, identity, [()] * k)
    pad_stores = _place(graph, [(0,) * k] * k, identity)
    memo = {}

    def message_rows(queries):
        for n, row in enumerate(queries, start=1):
            if (n, row) not in memo:
                memo[n, row] = _answer_slots(message_stores[n - 1], (row,) * k, q)
        return [memo[key] for key in enumerate(queries, start=1)]

    pad_rows = [_answer_slots(s, ((0,) * len(s.held),) * k, q) for s in pad_stores]
    return pad_rows, message_rows


def _mask_model(graph, q, targets, message_rows):
    """The affine mask model of one call: every target's message rows
    (``_answer_rows``) at the zero mask vector h, and each unit h's change
    to them, which is the same for every target.

    Returns ``(zero_rows, changes)``. ``zero_rows[θ]`` lists every server's
    message row under θ's queries at h = 0. ``changes[i]`` maps the index
    ``n - 1`` of each server whose query row moves under the unit h at edge
    ``i + 1`` to the change of its message row mod q. Every other server's
    row is unchanged, since ``message_rows`` reads a server's row off its
    own query row alone; in the shipped query rule only the edge's two
    holders move. So under θ's queries at h, server n's message row is
    ``zero_rows[θ][n - 1]`` plus ``h_i·changes[i][n - 1]`` for each i whose
    change holds n, mod q, for every θ. Column e of those rows therefore
    reads h only at the i whose change is nonzero at e, e alone in the
    shipped rule: the locality on which database privacy's local search
    rests. Proof: ``protocol._queries`` reads each server's row off
    ``_signed_table(h, q)``, whose entries are h and −h mod q, so the row is
    linear in h; ``_add_selector`` then adds 1 at one position fixed by θ,
    a constant. A message row is ``_answer_slots``' answers ``sum(c·W)`` to
    the unit messages under the query row, linear in that row. So the rows
    are affine in h, and their change from h = 0 is linear in h and reads
    nothing of θ: it is fixed by its values at the unit vectors, probed
    under the first target. That is one probe per target and one per unit
    h, 2K for a call of K targets. Affinity is assumed, not checked: the
    tests compare both checks that read the model with tabulations of every
    outcome of ``iter_transcript_outcomes``.
    """
    zero, first = (0,) * graph.n_edges, targets[0]
    queries = {target: _queries(graph, q, target, zero) for target in targets}
    zero_rows = {target: message_rows(row) for target, row in queries.items()}
    changes = []
    for i in range(graph.n_edges):
        moved = _queries(graph, q, first, zero[:i] + (1,) + zero[i + 1:])
        moved_rows = message_rows(moved)
        changes.append({
            n: tuple([(a - b) % q for a, b in zip(moved_rows[n], zero_rows[first][n])])
            for n, (row, row0) in enumerate(zip(moved, queries[first])) if row != row0
        })
    return zero_rows, changes


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
) -> dict:
    """Exact count table ``{view: count}`` of one server's view of a round.

    The view is ``(queries per slot, answer, stored messages, stored
    pads)``. It is a function of only the variables on the server's own
    incident edges, and every other message, pad and coefficient scales all
    counts by one common factor, so enumerating the incident-edge variables
    reproduces the joint marginal exactly (up to that factor, which is the
    same for every target). Every count is positive; the table's total is
    the sum of its values.

    ``mask_queries=False`` sends the raw selector with no mask coefficients
    — a sabotaged scheme used as a negative control.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    graph._check_edge(target)
    graph._check_vertex(server)
    key = _selector_key(graph, server, target)
    slot_queries = _slot_queries(graph, field, server, mask_queries)
    queries = _query_counts(slot_queries, field.modulus, message_length, key)
    return _view_counts(graph, field, message_length, pad_length, server, queries)


def _slot_queries(graph, field, server, mask_queries) -> list:
    """Every single-slot query ``server`` receives before the selector, one
    per vector of its held mask coefficients. ``mask_queries=False`` sends
    the raw selector: the query with every coefficient zero. Each query is
    read as ``protocol._queries`` reads it, by the server's signed getter
    off the signed table, here of its held coefficients alone."""
    held, signs = graph._incidence[server - 1]
    delta = len(held)
    gather = _signed_getter(range(delta), signs, delta)
    coeff_space = field.iter_vectors(delta) if mask_queries else [(0,) * delta]
    return [gather(_signed_table(coeffs, field.modulus)) for coeffs in coeff_space]


def _query_counts(slot_queries, q, message_length, key) -> Counter:
    """Count the per-slot query tuples a server receives in a round whose
    target has its selector key ``key`` (``_selector_key``), given its
    selector-free single-slot queries (``_slot_queries``)."""
    if key is not None:
        slot_queries = [_add_selector(query, key, q) for query in slot_queries]
    return Counter(itertools.product(slot_queries, repeat=message_length))


def _view_counts(graph, field, message_length, pad_length, server, query_counts) -> dict:
    """The view table of a server's query counts: every view
    ``(queries, answer, messages, pads)`` over all held messages and pads,
    counted as its query tuple. Each answer is the protocol's answer
    function (``_answer_slots``) on the store of those messages and pads,
    so the table assumes nothing of how an answer is built."""
    held, signs = graph._incidence[server - 1]
    message_space = itertools.product(field.iter_vectors(message_length), repeat=len(held))
    pad_space = list(itertools.product(field.iter_vectors(pad_length), repeat=len(held)))
    stores = [ServerStore(server, held, signs, w, z) for w in message_space for z in pad_space]
    views = {}
    for queries, count in query_counts.items():
        for store in stores:
            answer = _answer_slots(store, queries, field.modulus)
            views[queries, answer, store.messages, store.pads] = count
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

    Each server's tables are decided on its single-slot query tables. Its
    view is ``(queries, answer, messages, pads)`` on its held edges, where
    the answer is ``_answer_slots`` of the other three, and the mask
    coefficients are drawn independently of the messages and pads. So a
    view's count is its query tuple's count if the answer is right and 0
    otherwise (``_view_counts``), and summing a view table over answers,
    messages and pads gives the L-slot query table times
    ``q^(deg·(L + L'))``. Two targets' view tables are therefore equal
    exactly when their L-slot query tables are. The slots' coefficients are
    drawn independently, so an L-slot query tuple's count is the product of
    its entries' single-slot counts, and the L-slot tables of two targets
    with single-slot tables A and B are equal iff A = B: if ``A[y] ≠ B[y]``,
    the tuples ``(y, …, y)`` count ``A[y]^L ≠ B[y]^L``. The query tables are
    counted over the whole held coefficient space, so an unmasked selector
    fails because its counts differ, not by an argument. A server's query
    depends on the target only through ``_selector_key``, so it builds its
    q^deg selector-free single-slot queries once (``_slot_queries``) and
    counts one ``Counter`` of them per distinct key (at most
    ``1 + degree``), each with that key's selector added, and no view is
    listed.

    A failure's witness is the first cell, in sorted order, at which the
    two view tables differ, with its two counts. A query tuple whose counts
    differ has every entry in the keys of A or B, since a product with an
    entry outside them is 0 in both tables. Let m be the smallest of those
    keys, and x the smallest at which A and B differ. Then ``(m, …, m, x)``
    is the smallest differing tuple: if ``A[m] ≠ B[m]``, then x = m, and
    every tuple of keys is at least ``(m, …, m)``; otherwise
    ``(m, …, m, y)`` differs iff ``A[y] ≠ B[y]``, so it is smallest at y = x,
    and a tuple with an earlier entry other than m is larger. Within a query
    tuple, zero messages and zero pads give the zero answer
    (``protocol._answer_slots`` is linear), which is the smallest answer,
    and zero messages and pads are then the smallest. So the witness view is
    ``((m, …, m, x), 0, zero messages, zero pads)``, and its counts are
    ``A[m]^(L−1)·A[x]`` and ``B[m]^(L−1)·B[x]``. ``enumerated`` is the size
    of the view table, ``(Σ A)^L · q^(deg·(L + L'))``.

    ``mask_queries=False`` is a negative control that sends the raw selector
    (no mask coefficients); the check must then fail at the selector-holding
    servers.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    _ensure_budget(graph, field, message_length, pad_length, budget)
    results = []
    for server in range(1, graph.n_vertices + 1):
        slot_queries = _slot_queries(graph, field, server, mask_queries)
        # a query has one entry per held message
        degree = len(slot_queries[0])
        keys = {t: _selector_key(graph, server, t) for t in range(1, graph.n_edges + 1)}
        tables = {
            key: _query_counts(slot_queries, field.modulus, 1, key)
            for key in set(keys.values())
        }
        reference = tables[keys[1]]
        # the zero answer, messages and pads of the witness view
        zeros = (
            (0,) * message_length, ((0,) * message_length,) * degree, ((0,) * pad_length,) * degree
        )
        witnesses = {}
        for key, table in tables.items():
            if table != reference:
                queries = reference.keys() | table.keys()
                m = min(queries)
                x = min(y for y in queries if reference[y] != table[y])
                witnesses[key] = {
                    "view": repr((m * (message_length - 1) + x, *zeros)),
                    "reference_count": reference[m] ** (message_length - 1) * reference[x],
                    "target_count": table[m] ** (message_length - 1) * table[x],
                }
        views_per_query = field.modulus ** (degree * (message_length + pad_length))
        enumerated = sum(reference.values()) ** message_length * views_per_query
        for target in range(2, graph.n_edges + 1):
            witness = witnesses.get(keys[target])
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

    For every target θ and every non-empty subset S of the other messages,
    the subset's contents ``W_S`` are paired against everything the user
    sees or could be handed out of band: all answers, all queries, the mask
    coefficients, every pad except the probed subset's own, and every
    message except the target and the subset.

    The verdict is a rank test over F_q, over every mask coefficient
    vector h of one slot under the affine mask model below. Proof: the
    slots are drawn independently, and a slot's answers read only its own
    messages, pads and coefficients, so ``W_S`` is independent of the view
    iff it is so in every slot. The
    slots come in two variants, with a pad symbol and without one (when
    pads are shorter than messages). Fix a slot and h. By the linearity of
    ``_answer_slots``, the answers are ``M·W + P·Z``, where the columns of M
    and P are the answers to unit messages and unit pads
    (``_answer_rows``), and ``P = 0`` in a slot without a pad. Condition
    on h, on the pads outside S and on the messages outside S and θ: they
    are in the view, independent of ``W_S``, and every value has positive
    probability; the queries are a function of h. Given ``W_S = w`` the
    answers, less a known constant c, are ``M_S·w + M_θ·W_θ + P_S·Z_S``
    with ``(W_θ, Z_S)`` uniform, so they are uniform on the coset
    ``c + M_S·w + V``, ``V = col[M_θ | P_S]``. Their law is free of w iff
    all these cosets coincide, that is iff ``col(M_S) ⊆ V``: S leaks at h
    iff appending ``M_S`` raises the rank of ``[M_θ | P_S]``. The span
    without ``P_S`` lies in the span with it, so a slot without a pad leaks
    wherever a padded one does; it decides whenever there is one, and it is
    the last slot's variant either way.

    Edge e ≠ θ passes at h iff ``M_e ∈ span(M_θ, P_e)``, with ``P_e`` left
    out in a slot without a pad: the test of the subset {e}. For e in S,
    ``span(M_θ, P_e) ⊆ span(M_θ, P_S)``, so a subset leaks at h only where
    one of its edges fails. Without a pad the span is ``span(M_θ)`` for
    every subset, so a subset leaks at h exactly where one of its edges
    fails.

    The tests read h through the mask model (``_mask_model``): column e is
    ``M_e(h) = c_e + Σ_{i∈dep(e)} h_i·Δ_{i,e}``, where ``c_e`` is column e
    at h = 0 under θ's queries, ``Δ_{i,e}`` is column e of the unit h at
    edge i's change, and ``dep(e)`` holds the i with ``Δ_{i,e} ≠ 0`` (in
    the shipped code, e alone). Let ``B_e`` be ``(P_e)`` in a padded
    deciding slot and empty otherwise. If ``c_e`` and every ``Δ_{i,e}`` lie
    in ``span(B_e)``, so does ``M_e(h)`` at every h, and e passes
    everywhere: one memoized rank test. The decision assumes the model's
    affinity, as reliability does: a query rule or answer function that is
    right at h = 0 and at every unit h but not affine would pass. The tests
    check this check against a tabulation of every outcome of
    ``iter_transcript_outcomes``.

    Every other verdict is found in local work. In ``protocol._queries``,
    each h_e first appears at e's smaller holder, with sign +1 and no
    selector (``_selector_key``), and every later entry is fixed by entries
    before it: it is ``-h_e``, plus 1 at the selector. So two query tuples
    first differ at a first appearance, and they sort as h does when h is
    read in the order of those first appearances: the edges by their
    smaller holder, then by index. The test of S at h reads only ``M_θ``
    and ``M_S``, so only the entries of h in ``dep(θ) ∪ dep(S)``. Setting
    every other entry of a leaking h to 0 keeps the verdict and gives an h
    no later in that order, so S's first leaking h is zero elsewhere: the
    first leaking assignment of those entries, read in that order. An edge
    that fails the span test finds its first failing h so, among
    ``q^|dep(θ) ∪ dep(e)|`` assignments, q² in the shipped code. A subset
    none of whose edges fails anywhere passes. Otherwise the earliest first
    failure h among its edges is its first leaking h without a pad. With a
    pad, S leaks nowhere before h: if it leaks at h, h is its first leaking
    h, and if not, S searches its own local assignments.

    A leaking subset's witness is the first cell, left values and then
    right values in sorted order, of its joint table of ``W_S`` (left)
    against the view ``(answers, queries, pads outside S, messages outside
    S and θ, coefficients)`` (right) that fails ``count(l, r)·total ==
    count(l)·count(r)``. It is read off the same cosets, ``V_t`` in slot t,
    independent across slots. At a view whose h leaks in no slot, the
    answers' law given ``W_S`` is free of it, so no cell of that view
    fails. At a view whose h leaks in some slot, with zero answers and zero
    pads and messages outside S (so c = 0), the answers given ``W_S = 0``
    are 0 with probability ``Π_t 1/|V_t|``, and over a uniform ``W_S`` with
    ``Π_t Pr[M_S·w ∈ V_t]/|V_t|``, which the leaking slot makes smaller:
    that cell fails. So the left is the first value, all zero. Zero answers
    are the smallest answers and occur (with zero messages and pads), and
    among them the rights are ordered by their per-slot query tuple, whose
    queries determine h for a fixed target. So the right is the zero
    answers, the smallest query tuple ``Q*`` with a leaking slot, zero pads
    and messages, and the coefficients of ``Q*``. Let m be the smallest
    single-slot query, the queries of h = 0, and x the smallest at which S
    leaks in the last slot's variant, which leaks wherever any slot does:
    the queries of S's first leaking h. ``Q*`` is m in every slot but the
    last, and x there. Any other tuple with a leaking slot is larger: its
    first entry other than m comes before the last slot, or it leaks at the
    last slot with an entry of at least x, or it leaks at a slot holding m,
    and then x = m. The counts are nullities, one term per slot at its own
    h and variant. The pair count solves ``M_θ·W_θ + P_S·Z_S = 0`` in every
    slot, ``q^nullity[M_θ | P_S]`` solutions each; the right count also
    frees ``W_S``, ``q^nullity[M_S | M_θ | P_S]`` each; the left count is
    ``total / q^(|S|·L)``. Queries are built only for a leaking subset's
    witness, once per h and target. No outcome is listed; ``enumerated`` is
    the size of the table, ``state_space_size``, for every subset.
    """
    pad_length = _resolve_pad_length(message_length, pad_length)
    total = _ensure_budget(graph, field, message_length, pad_length, budget)
    k, q = graph.n_edges, field.modulus
    pad_rows, message_rows = _answer_rows(graph, q)
    pad_columns = list(zip(*pad_rows))
    # the deciding slot variant, the last slot's: one without a pad if there is one
    padded = pad_length == message_length

    def span(columns, target, subset, has_pad):
        """``[M_θ | P_S]`` of one slot, ``P_S`` left out without a pad."""
        return (columns[target - 1], *(pad_columns[e - 1] for e in subset if has_pad))

    ranks = {}

    def rank(vectors):
        """``_rank``, memoized on the vectors."""
        if vectors not in ranks:
            ranks[vectors] = _rank(vectors, q)
        return ranks[vectors]

    def leaks(basis, vectors):
        """Whether appending ``vectors`` raises the rank of ``basis``."""
        return rank((*basis, *vectors)) > rank(basis)

    targets = _resolve_targets(graph, targets)
    zero_rows, changes = _mask_model(graph, q, targets, message_rows)
    # deps[e - 1] maps each i in dep(e) to Δ_{i,e}, the change of column e
    deps = [{} for _ in range(k)]
    for i, change in enumerate(changes):
        for j in {j for row in change.values() for j, x in enumerate(row) if x}:
            deps[j][i] = tuple(change[n][j] if n in change else 0 for n in range(graph.n_vertices))
    # the edges in query order, each at its smaller holder
    order = sorted(range(k), key=lambda e: (graph.edges[e][0], e))

    def leaks_at(columns, target, subset, h):
        """Whether ``subset`` leaks at h in the deciding variant, given the
        message columns at h = 0: the columns it reads, moved by h."""
        moved = {}
        for e in (target, *subset):
            column = columns[e - 1]
            for i, delta in deps[e - 1].items():
                if h[i]:
                    column = tuple((c + h[i] * d) % q for c, d in zip(column, delta))
            moved[e - 1] = column
        return leaks(span(moved, target, subset, padded), [moved[e - 1] for e in subset])

    def first_leak(columns, target, subset):
        """The first h in query order at which ``subset`` leaks, or None:
        its first leaking assignment of dep(θ) ∪ dep(S), zero elsewhere."""
        read = set(deps[target - 1]).union(*(deps[e - 1] for e in subset))
        local = [i for i in order if i in read]
        for values in field.iter_vectors(len(local)):
            assigned = dict(zip(local, values))
            h = tuple(assigned.get(i, 0) for i in range(k))
            if leaks_at(columns, target, subset, h):
                return h
        return None

    def witness(target, subset, first, last):
        """The first failing cell of a leaking subset's table, from the
        smallest single-slot query and the smallest leaking one, each with
        its coefficients."""
        zero_message, zero_pad = (0,) * message_length, (0,) * pad_length
        slots = [(first, t < pad_length) for t in range(message_length - 1)] + [(last, padded)]
        pair_nullity = right_nullity = 0
        for (queries, _), has_pad in slots:
            columns = list(zip(*message_rows(queries)))
            basis = span(columns, target, subset, has_pad)
            joint = (*basis, *(columns[e - 1] for e in subset))
            pair_nullity += len(basis) - rank(basis)
            right_nullity += len(joint) - rank(joint)
        rest = k - len(subset)
        return {
            "left": (zero_message,) * len(subset),
            "right": (
                (zero_message,) * graph.n_vertices,
                tuple(queries for (queries, _), _ in slots),
                (zero_pad,) * rest,
                (zero_message,) * (rest - 1),
                tuple(coeffs for (_, coeffs), _ in slots),
            ),
            "pair_count": q**pair_nullity,
            "left_count": total // q ** (len(subset) * message_length),
            "right_count": q**right_nullity,
            "total": total,
        }

    zero = (0,) * k
    results = []
    for target in targets:
        others = [e for e in range(1, k + 1) if e != target]
        subsets = [s for size in range(1, k) for s in itertools.combinations(others, size)]
        columns = list(zip(*zero_rows[target]))
        # the first failing h, or None, of each edge outside its pad's span
        firsts = {
            e: first_leak(columns, target, (e,)) for e in others
            if leaks((pad_columns[e - 1],) if padded else (), (columns[e - 1], *deps[e - 1].values()))
        }
        masks, witnesses = {}, {}
        for subset in subsets:
            failing = [firsts[e] for e in subset if firsts.get(e)]
            if not failing:
                continue
            h = min(failing, key=lambda g: [g[i] for i in order])
            if padded and not leaks_at(columns, target, subset, h):
                h = first_leak(columns, target, subset)
            if h is not None:
                for g in (zero, h):
                    if g not in masks:
                        masks[g] = _queries(graph, q, target, g), g
                witnesses[subset] = witness(target, subset, masks[zero], masks[h])
        for subset in subsets:
            results.append(
                CheckResult(
                    check="database-privacy",
                    instance={"target": target, "subset": list(subset)},
                    passed=subset not in witnesses,
                    enumerated=total,
                    witness=witnesses.get(subset),
                )
            )
    return results


def _rank(vectors, q) -> int:
    """The rank of ``vectors`` over F_q (q prime), by Gaussian elimination
    mod q.

    ``rows`` holds ``(pivot, row)`` pairs: each row is 1 at its pivot and 0
    at the pivots of the rows before it. Reducing a vector by the rows in
    order leaves it 0 at every pivot, with its difference from the input in
    the span of the rows. A nonzero combination of the rows is nonzero at
    the pivot of the first row it uses, so the rows are independent and a
    reduced vector lies in their span iff it is 0. A nonzero reduced vector
    adds a row at its first nonzero entry, so the rows span the vectors
    seen, and their number is the rank.
    """
    rows = []
    for vector in vectors:
        for pivot, row in rows:
            c = vector[pivot]
            if c:
                vector = [(x - c * r) % q for x, r in zip(vector, row)]
        for pivot, x in enumerate(vector):
            if x:
                inverse = pow(x, -1, q)
                rows.append((pivot, [y * inverse % q for y in vector]))
                break
    return len(rows)


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
