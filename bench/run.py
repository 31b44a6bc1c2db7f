"""graphspir benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload retrieve-ring --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``retrieve-ring`` -- closed loop of ``run_round`` on cycle-256 (``ring.py``);
* ``audit-sweep`` -- the acceptance sweep's check calls (``audit.py``);
* ``cli-mix`` -- ``graphspir`` subprocesses with pinned stdout digests
  (``climix.py``);
* ``all`` -- the three above, each in its own process, one after another.

Every workload reports the same end-to-end metrics for its own unit of work
(a round, a check call, a CLI invocation): ``setup_s``, ``latency_p50_ms``,
``throughput_per_s`` and ``peak_rss_mib``, as medians over segments or
passes of the run; set-up samples are spread over the run as well, because
the shared machines this runs on slow the CPU for seconds at a time. The lines
before the result also give the per-workload names (``round_p50_ms``,
``audit_wall_s``, ``cli_run_s``, ...), the latency tail (the highest
percentile with ten samples beyond it, printed but not gated, since such
stalls decide it) and the fail ratio.

``--trace 1`` runs the traced suite instead, the same for every workload:
spans around the benchmark's own calls into ``field``, ``graph``,
``protocol``, ``auditor``, ``capacity`` and ``cli``, exact call counts from
cProfile, tracemalloc peaks per check, and a cycle-250/500/1000 scaling
sweep. Each per-layer metric is printed with the end-to-end metric and
workload it should move (``MOVES``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Every output is verified; a wrong decode, an
unexpected verdict, a wrong exit code or a stdout digest mismatch counts as
a failed operation.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import audit
import climix
import common
import ring

WORKLOADS = {"retrieve-ring": ring, "audit-sweep": audit, "cli-mix": climix}

MOVES = {
    "field.sample_vector_ms": "latency_p50_ms on retrieve-ring",
    "field.check.calls_per_round": "latency_p50_ms on retrieve-ring",
    "field.check.calls_per_pass": "throughput_per_s on audit-sweep",
    "graph.build_ms": "setup_s on retrieve-ring",
    "graph.incident_edges.calls_per_round": "latency_p50_ms on retrieve-ring",
    "graph.incident_edges.calls_per_pass": "none predicted on audit-sweep",
    "protocol.init_system_ms": "setup_s on retrieve-ring",
    "protocol.gen_queries_ms": "latency_p50_ms and throughput_per_s on retrieve-ring",
    "protocol.server_answer_ms": "latency_p50_ms and throughput_per_s on retrieve-ring",
    "protocol.decode_ms": "latency_p50_ms and throughput_per_s on retrieve-ring",
    "protocol.download_symbols": "must stay N*L = 2048 on retrieve-ring",
    "protocol.gen_queries.exp_K": "latency_p50_ms on retrieve-ring",
    "protocol.init_system.exp_K": "setup_s on retrieve-ring",
    "protocol.round_cycle1000_ms": "latency_p50_ms on retrieve-ring",
    "trace.round_p50_ms": "none (traced latency_p50_ms on retrieve-ring)",
    "trace.untraced_round_p50_ms": "none (untraced latency_p50_ms on retrieve-ring)",
    "trace.overhead_ms": "none (tracing overhead)",
    "auditor.reliability_s": "throughput_per_s on audit-sweep",
    "auditor.user_privacy_s": "throughput_per_s on audit-sweep",
    "auditor.database_privacy_s": "throughput_per_s on audit-sweep",
    "auditor.server_view_table_s": "throughput_per_s on audit-sweep",
    "auditor.enumerate_s": "throughput_per_s on audit-sweep",
    "auditor.reliability.enumerated": "peak_rss_mib on audit-sweep",
    "auditor.user_privacy.enumerated": "peak_rss_mib on audit-sweep",
    "auditor.database_privacy.enumerated": "peak_rss_mib on audit-sweep",
    "auditor.reliability.peak_mib": "peak_rss_mib on audit-sweep",
    "auditor.user_privacy.peak_mib": "peak_rss_mib on audit-sweep",
    "auditor.database_privacy.peak_mib": "peak_rss_mib on audit-sweep",
    "capacity.report_cycle2000_ms": "latency_p50_ms on cli-mix",
    "capacity.report_complete120_ms": "latency_p50_ms on cli-mix",
    "capacity.report.exp_K": "latency_p50_ms on cli-mix",
    "cli.cmd_run_s": "throughput_per_s on cli-mix",
    "cli.emit_s": "throughput_per_s on cli-mix",
    "cli.process_overhead_s": "throughput_per_s and setup_s on cli-mix",
    "cli.run.stdout_bytes": "throughput_per_s and peak_rss_mib on cli-mix",
    "cli.audit.stdout_bytes": "throughput_per_s on cli-mix",
    "cli.capacity.stdout_bytes": "throughput_per_s on cli-mix",
}


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(res: common.Result, wanted, meta: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    missing = [m["name"] for m in wanted if m["name"] not in res.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for m in wanted:
        unit = res.metrics[m["name"]][1]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for note in res.notes:
        print(note)
    for m in wanted:
        value, unit, note = res.metrics[m["name"]]
        moves = f"; moves {MOVES[m['name']]}" if m["name"] in MOVES else ""
        print(f"{m['name']:38} {value:>14.6g} {unit:5} {note}{moves}")
    print(f"fail_ratio {res.failed / res.attempted:g} ({res.failed}/{res.attempted})")
    for what in res.failures[:20]:
        print(f"FAILED: {what}")
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            m["name"]: {"value": res.metrics[m["name"]][0], "unit": m["unit"]} for m in wanted
        },
    }


def run_all(args) -> dict:
    """Each workload in its own process, so that peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout.splitlines()
        print(f"== {name}")
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()

    if args.workload == "all" and not args.trace:
        print(json.dumps(run_all(args)))
        return 0

    if args.trace:
        res = common.Result()
        for module in WORKLOADS.values():
            module.trace(args.seed, res)
        wanted = spec["per_layer"]
    else:
        res = WORKLOADS[args.workload].run(args.seed, args.seconds)
        wanted = spec["end_to_end"]
    meta = {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": res.repeats,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    print(json.dumps(report(res, wanted, meta)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
