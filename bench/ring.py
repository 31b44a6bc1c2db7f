"""retrieve-ring: one client retrieving from a 256-server ring, closed loop.

cycle-256 over F_(2^31-1) with 8-symbol messages: a sparse graph with many
servers, where query generation dominates a round because the graph layer
scans every edge for every server on every slot. A graph index must show
here; the auditor is never called.
"""

import cProfile
import random
import time

from common import (
    Result,
    Tracer,
    call_counts,
    loglog_slope,
    median,
    more_passes,
    self_peak_rss_mib,
    tail_note,
)

N_SERVERS = 256
MODULUS = 2**31 - 1
MESSAGE_LENGTH = 8
SEGMENT_ROUNDS = 50
SETUP_REPEATS = 15
# set-ups are spread over the run, so that one slow stretch of the machine
# does not decide their median
SETUPS_PER_SEGMENT = 4
SCALING_SIZES = (250, 500, 1000)
SCALING_ROUNDS = 2
TRACED_ROUNDS = 20
BASELINE_CYCLE1000_S = 0.67  # ROADMAP baseline for one cycle-1000, L=8 round


def _setup(gs, seed):
    graph = gs.cycle_graph(N_SERVERS)
    field = gs.PrimeField(MODULUS)
    return gs.init_system(graph, field, MESSAGE_LENGTH, random.Random(seed))


def _check_round(res, state, target, transcript):
    res.verify(
        transcript.decoded == state.message(target)
        and transcript.downloaded_symbols == state.graph.n_vertices * state.message_length,
        f"round for message {target}",
    )


def run(seed: int, seconds: float) -> Result:
    import graphspir as gs

    res = Result()
    rng = random.Random(seed + 1)
    setups, latencies, walls = [], [], []
    started = time.perf_counter()
    while more_passes(walls, started, seconds):
        for _ in range(SETUPS_PER_SEGMENT):
            t0 = time.perf_counter()
            state = _setup(gs, seed)
            setups.append(time.perf_counter() - t0)
        segment_start = time.perf_counter()
        for _ in range(SEGMENT_ROUNDS):
            target = rng.randrange(1, N_SERVERS + 1)
            t0 = time.perf_counter()
            transcript = gs.run_round(state, target, rng)
            latencies.append(time.perf_counter() - t0)
            _check_round(res, state, target, transcript)
        walls.append(time.perf_counter() - segment_start)

    res.put("setup_s", median(setups), "s",
            f"median of {len(setups)} x (cycle_graph + PrimeField + init_system)")
    res.put("latency_p50_ms", median(latencies) * 1e3, "ms",
            f"round_p50_ms over {len(latencies)} rounds")
    res.put("throughput_per_s", median([SEGMENT_ROUNDS / w for w in walls]), "1/s",
            f"rounds_per_s, median over {len(walls)} segments of {SEGMENT_ROUNDS} rounds")
    res.notes.append(tail_note("round_tail_ms", latencies))
    res.put("peak_rss_mib", self_peak_rss_mib(), "MiB", "benchmark process")
    res.repeats.update(setup=len(setups), rounds=len(latencies), segments=len(walls))
    return res


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _replay(gs, tracer, state, target, rng, request):
    """One round layer by layer, each call in its own span.

    Draws the coefficients exactly as ``run_round`` does, so the result can
    be compared against ``run_round_with_coeffs`` on the same coefficients.
    """
    graph, field = state.graph, state.field
    with tracer.span("round", request=request) as root:
        coeffs_per_slot = []
        for _ in range(state.message_length):
            with tracer.span("field.sample_vector", root.id, request):
                coeffs_per_slot.append(field.sample_vector(rng, graph.n_edges))
        queries_per_slot = []
        for coeffs in coeffs_per_slot:
            with tracer.span("protocol.gen_queries", root.id, request):
                queries_per_slot.append(gs.gen_queries(graph, field, target, coeffs))
        answers = []
        for store in state.stores:
            row = []
            for t in range(state.message_length):
                with tracer.span("protocol.server_answer_slot", root.id, request):
                    row.append(
                        gs.server_answer_slot(store, queries_per_slot[t][store.server - 1], field, t)
                    )
            answers.append(tuple(row))
        with tracer.span("protocol.decode", root.id, request):
            decoded = gs.decode(field, answers)
    return tuple(coeffs_per_slot), tuple(queries_per_slot), tuple(answers), decoded


def trace(seed: int, res: Result):
    import graphspir as gs

    builds, inits = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        graph = gs.cycle_graph(N_SERVERS)
        t1 = time.perf_counter()
        field = gs.PrimeField(MODULUS)
        t2 = time.perf_counter()
        state = gs.init_system(graph, field, MESSAGE_LENGTH, random.Random(seed))
        t3 = time.perf_counter()
        builds.append(t1 - t0)
        inits.append(t3 - t2)
    res.put("graph.build_ms", median(builds) * 1e3, "ms", "cycle_graph(256)")
    res.put("protocol.init_system_ms", median(inits) * 1e3, "ms", "cycle-256, L=8")

    rng = random.Random(seed + 1)
    tracer = Tracer()
    untraced = []
    replay_ok = True
    for request in range(TRACED_ROUNDS):
        target = rng.randrange(1, N_SERVERS + 1)
        t0 = time.perf_counter()
        transcript = gs.run_round(state, target, rng)
        untraced.append(time.perf_counter() - t0)
        _check_round(res, state, target, transcript)

        target = rng.randrange(1, N_SERVERS + 1)
        coeffs, queries, answers, decoded = _replay(gs, tracer, state, target, rng, request)
        reference = gs.run_round_with_coeffs(state, target, coeffs)
        same = (reference.queries, reference.answers, reference.decoded) == (queries, answers, decoded)
        replay_ok = replay_ok and same
        res.verify(same, f"layer-by-layer replay of message {target}")
        _check_round(res, state, target, reference)

    def per_round(name):
        return median([sum(tracer.durations(name, r)) for r in range(TRACED_ROUNDS)]) * 1e3

    traced_p50 = median(tracer.durations("round")) * 1e3
    untraced_p50 = median(untraced) * 1e3
    res.put("field.sample_vector_ms", per_round("field.sample_vector"), "ms", "per round")
    res.put("protocol.gen_queries_ms", per_round("protocol.gen_queries"), "ms", "per round")
    res.put("protocol.server_answer_ms", per_round("protocol.server_answer_slot"), "ms",
            f"per round, {N_SERVERS * MESSAGE_LENGTH} server_answer_slot calls")
    res.put("protocol.decode_ms", per_round("protocol.decode"), "ms", "per round")
    res.put("protocol.download_symbols", reference.downloaded_symbols, "count",
            f"per round; N*L = {N_SERVERS * MESSAGE_LENGTH}")
    res.put("trace.round_p50_ms", traced_p50, "ms", f"median of {TRACED_ROUNDS} replayed rounds")
    res.put("trace.untraced_round_p50_ms", untraced_p50, "ms", f"median of {TRACED_ROUNDS} run_round calls")
    res.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms", "traced minus untraced round p50")
    res.notes.append(f"replay matches run_round_with_coeffs: {replay_ok}")
    res.notes.append("ring span summary (name: count, total s, self s):")
    for name, (count, total, own) in tracer.summary().items():
        res.notes.append(f"  {name}: {count}, {total:.4f}, {own:.4f}")

    profiled = 2
    profile = cProfile.Profile()
    profile.enable()
    for target in range(1, profiled + 1):
        gs.run_round(state, target, rng)
    profile.disable()
    counts = call_counts(profile, ("field.check", "graph.incident_edges"))
    res.put("field.check.calls_per_round", counts["field.check"] / profiled, "count", "cProfile")
    res.put("graph.incident_edges.calls_per_round", counts["graph.incident_edges"] / profiled,
            "count", "cProfile")
    res.repeats.update(traced_rounds=TRACED_ROUNDS, profiled_rounds=profiled)
    _scaling(gs, seed, res)


def _scaling(gs, seed, res):
    """Per-layer cost on cycle-250/500/1000 and its log-log slope in K."""
    field = gs.PrimeField(MODULUS)
    rng = random.Random(seed + 2)
    gen, init, cap, rounds = [], [], [], []
    for n in SCALING_SIZES:
        graph = gs.cycle_graph(n)
        t0 = time.perf_counter()
        state = gs.init_system(graph, field, MESSAGE_LENGTH, rng)
        init.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        gs.capacity_report(graph, f"cycle-{n}")
        cap.append(time.perf_counter() - t0)
        tracer = Tracer()
        times = []
        for request in range(SCALING_ROUNDS):
            target = rng.randrange(1, n + 1)
            t0 = time.perf_counter()
            transcript = gs.run_round(state, target, rng)
            times.append(time.perf_counter() - t0)
            _check_round(res, state, target, transcript)
            target = rng.randrange(1, n + 1)
            _, _, _, decoded = _replay(gs, tracer, state, target, rng, request)
            res.verify(decoded == state.message(target), f"cycle-{n} replay of message {target}")
        gen.append(median([sum(tracer.durations("protocol.gen_queries", r)) for r in range(SCALING_ROUNDS)]))
        rounds.append(median(times))
    sizes = [gs.cycle_graph(n).n_edges for n in SCALING_SIZES]
    res.put("protocol.gen_queries.exp_K", loglog_slope(sizes, gen), "1", f"K = {sizes}")
    res.put("protocol.init_system.exp_K", loglog_slope(sizes, init), "1", f"K = {sizes}")
    res.put("capacity.report.exp_K", loglog_slope(sizes, cap), "1", f"K = {sizes}")
    res.put("protocol.round_cycle1000_ms", rounds[-1] * 1e3, "ms",
            f"ROADMAP baseline {BASELINE_CYCLE1000_S * 1e3:.0f} ms")
    res.repeats.update(scaling_rounds=SCALING_ROUNDS)
