"""audit-sweep: every within-budget configuration of the acceptance sweep.

The graphs are tiny (K <= 6), so graph scans cost almost nothing; what
dominates is per-outcome overhead in the exhaustive checks. The sweep is
frozen here, not imported from the tests, so that editing a test never
changes the benchmark. The seed only fixes the order of the check calls.
"""

import cProfile
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    Result,
    call_counts,
    median,
    more_passes,
    program_env,
    self_peak_rss_mib,
    tail_note,
)

GRAPHS = {
    "path-3": ("path", 3),
    "path-4": ("path", 4),
    "cycle-3": ("cycle", 3),
    "cycle-4": ("cycle", 4),
    "cycle-5": ("cycle", 5),
    "star-4": ("star", 4),
    "complete-4": ("complete", 4),
}
PAW_EDGES = ((1, 2), (1, 3), (2, 3), (3, 4))  # triangle with a pendant vertex

RELIABILITY = [
    ("path-3", 2, 1), ("path-3", 2, 2), ("path-3", 3, 1), ("path-3", 3, 2),
    ("path-4", 2, 1), ("path-4", 2, 2), ("path-4", 3, 1),
    ("cycle-3", 2, 1), ("cycle-3", 2, 2), ("cycle-3", 3, 1),
    ("cycle-4", 2, 1), ("cycle-4", 2, 2), ("cycle-4", 3, 1),
    ("star-4", 2, 1), ("star-4", 2, 2), ("star-4", 3, 1),
    ("paw-4", 2, 1), ("paw-4", 2, 2), ("paw-4", 3, 1),
    ("complete-4", 2, 1),
]
USER_PRIVACY = [
    (name, q)
    for name in ("path-3", "path-4", "cycle-3", "cycle-4", "star-4", "paw-4", "complete-4")
    for q in (2, 3)
    if not (name == "complete-4" and q == 3)
]
DATABASE_PRIVACY = ["path-3", "cycle-3", "star-4", "paw-4", "cycle-4"]
PROBES_PER_PASS = 4  # spread over the run, like the ring's set-ups
CHECKS = ("reliability", "user_privacy", "database_privacy")


def build_inputs(gs):
    """The sweep's graphs and fields, as its set-up builds them."""
    graphs = {name: gs.from_family(family, n) for name, (family, n) in GRAPHS.items()}
    graphs["paw-4"] = gs.build_graph(4, PAW_EDGES)
    fields = {q: gs.PrimeField(q) for q in (2, 3)}
    return graphs, fields


@dataclass
class Call:
    """One check call and the verdicts it must produce."""

    kind: str
    graph: str
    q: int
    length: int
    kwargs: dict = field(default_factory=dict)
    expect: str = "pass"

    def label(self):
        extra = "".join(f" {k}={v}" for k, v in self.kwargs.items())
        return f"{self.kind} {self.graph} q={self.q} L={self.length}{extra}"


def sweep_calls():
    calls = [Call("reliability", g, q, length) for g, q, length in RELIABILITY]
    calls += [Call("user_privacy", g, q, 1) for g, q in USER_PRIVACY]
    calls += [Call("database_privacy", g, 2, 1) for g in DATABASE_PRIVACY]
    calls += [
        Call("database_privacy", "path-3", 2, 1, {"pad_length": 0}, "leak"),
        Call("reliability", "path-3", 2, 1, {"pad_length": 0}),
        Call("reliability", "path-3", 2, 1, {"drop_server": 2}, "fail"),
        Call("user_privacy", "path-3", 2, 1, {"mask_queries": False}, "selector"),
        Call("database_privacy", "cycle-5", 2, 1, {"targets": [1]}),
    ]
    return calls


def _invoke(gs, call, graphs, fields):
    check = getattr(gs, f"check_{call.kind}")
    return check(graphs[call.graph], fields[call.q], call.length, **call.kwargs)


def _expected_count(call, graph):
    k = graph.n_edges
    targets = len(call.kwargs.get("targets", range(k)))
    if call.kind == "reliability":
        return targets
    if call.kind == "user_privacy":
        return graph.n_vertices * (k - 1)
    return targets * (2 ** (k - 1) - 1)


def verdict_ok(call, graph, results) -> bool:
    """Whether a call's verdicts are exactly the expected ones."""
    if len(results) != _expected_count(call, graph):
        return False
    if call.expect == "pass":
        return all(c.passed for c in results)
    if call.expect == "leak":
        failed = [c for c in results if not c.passed]
        return bool(failed) and all(c.witness is not None for c in failed)
    if call.expect == "fail":
        return all(not c.passed and c.witness is not None for c in results)
    # unmasked selector: the view changes exactly at the targets' larger holders
    holders = {graph.message_holders(t)[1] for t in range(1, graph.n_edges + 1)}
    failing = {c.instance["server"] for c in results if not c.passed}
    return failing == holders


_PROBE = """
import time
t0 = time.perf_counter()
import graphspir
t1 = time.perf_counter()
from audit import build_inputs
t2 = time.perf_counter()
build_inputs(graphspir)
print(t1 - t0 + time.perf_counter() - t2)
"""


def _setup_probe() -> float:
    """Import plus input building, timed inside a fresh interpreter."""
    env = program_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout)


def _ordered_calls(seed):
    calls = sweep_calls()
    random.Random(seed).shuffle(calls)
    return calls


def run(seed: int, seconds: float) -> Result:
    import graphspir as gs

    res = Result()
    _setup_probe()  # warm the bytecode cache; not counted
    graphs, fields = build_inputs(gs)
    calls = _ordered_calls(seed)

    setups, latencies, passes = [], [], []
    started = time.perf_counter()
    while more_passes(passes, started, seconds):
        setups += [_setup_probe() for _ in range(PROBES_PER_PASS)]
        pass_start = time.perf_counter()
        for call in calls:
            t0 = time.perf_counter()
            results = _invoke(gs, call, graphs, fields)
            latencies.append(time.perf_counter() - t0)
            res.verify(verdict_ok(call, graphs[call.graph], results), call.label())
        passes.append(time.perf_counter() - pass_start)

    res.put("setup_s", median(setups), "s",
            f"median of {len(setups)} fresh interpreters (import + build graphs and fields)")
    res.put("latency_p50_ms", median(latencies) * 1e3, "ms",
            f"per check call, {len(latencies)} calls")
    res.put("throughput_per_s", median([len(calls) / w for w in passes]), "1/s",
            f"check calls per second, median over {len(passes)} passes of {len(calls)} calls")
    res.put("peak_rss_mib", self_peak_rss_mib(), "MiB", "benchmark process")
    res.notes.append(tail_note("check_tail_ms", latencies))
    res.notes.append(f"audit_wall_s: {median(passes):.4f} s (median of {len(passes)} passes)")
    res.repeats.update(setup=len(setups), passes=len(passes), calls=len(latencies))
    return res


def trace(seed: int, res: Result):
    import graphspir as gs

    graphs, fields = build_inputs(gs)
    calls = _ordered_calls(seed)

    spent = dict.fromkeys(CHECKS, 0.0)
    for call in calls:
        t0 = time.perf_counter()
        results = _invoke(gs, call, graphs, fields)
        spent[call.kind] += time.perf_counter() - t0
        res.verify(verdict_ok(call, graphs[call.graph], results), call.label())
    for kind in CHECKS:
        res.put(f"auditor.{kind}_s", spent[kind], "s", "one untraced pass")

    t0 = time.perf_counter()
    for name, q in USER_PRIVACY:
        graph = graphs[name]
        for server in range(1, graph.n_vertices + 1):
            for target in range(1, graph.n_edges + 1):
                gs.server_view_table(graph, fields[q], 1, target, server)
    res.put("auditor.server_view_table_s", time.perf_counter() - t0, "s",
            "every view table of the user-privacy sweep")

    t0 = time.perf_counter()
    outcomes = sum(1 for _ in gs.iter_transcript_outcomes(graphs["cycle-5"], fields[2], 1, 1))
    res.put("auditor.enumerate_s", time.perf_counter() - t0, "s",
            f"drain iter_transcript_outcomes, cycle-5/F2 target 1 ({outcomes} outcomes)")
    res.verify(outcomes == 2**15, "cycle-5 outcome count")

    enumerated = dict.fromkeys(CHECKS, 0)
    peak = dict.fromkeys(CHECKS, 0)
    profile = cProfile.Profile()
    tracemalloc.start()
    try:
        for call in calls:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            profile.enable()
            results = _invoke(gs, call, graphs, fields)
            profile.disable()
            peak[call.kind] = max(peak[call.kind], tracemalloc.get_traced_memory()[1] - before)
            enumerated[call.kind] += sum(c.enumerated for c in results)
            res.verify(verdict_ok(call, graphs[call.graph], results), call.label())
            del results
    finally:
        tracemalloc.stop()
    for kind in CHECKS:
        res.put(f"auditor.{kind}.enumerated", enumerated[kind], "count", "one pass")
        res.put(f"auditor.{kind}.peak_mib", peak[kind] / 2**20, "MiB",
                "largest tracemalloc peak of one call")
    counts = call_counts(profile, ("field.check", "graph.incident_edges"))
    res.put("field.check.calls_per_pass", counts["field.check"], "count", "cProfile, one pass")
    res.put("graph.incident_edges.calls_per_pass", counts["graph.incident_edges"], "count",
            "cProfile, one pass")
