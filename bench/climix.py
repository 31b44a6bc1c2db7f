"""cli-mix: `graphspir` subprocesses run one at a time.

The only workload that exercises the cli and capacity layers. `run` on a
dense graph covers every target and writes 22 MB of JSON, so a change that
speeds up rounds but inflates transcripts or output shows here. Each
invocation's stdout must hash to the digest pinned below: the CLI's JSON
stays byte-identical. The seed only fixes the order of the invocations.
"""

import contextlib
import hashlib
import random
import time

from common import Result, graphspir_argv, median, more_passes, run_child, tail_note

# (arguments, expected exit code, sha256 of stdout)
MIX = [
    (("run", "--family", "complete", "--n", "30", "--q", "65521", "--length", "2", "--seed", "1"),
     0, "e50c05c85e8f13721dcea2d2a0d384f38d0e08f9be476c74afe5ad211f717bbb"),
    (("audit", "--family", "cycle", "--n", "4", "--q", "2"),
     0, "16be53ef917870a7382a86678ce49c073bb6710040b140de190ca5110d282238"),
    (("audit", "--family", "path", "--n", "3", "--q", "2", "--degrade-pads"),
     0, "18da8f21bb18c21c75c821f140280ef77f8f1628a75cfe3c8dd08a9b9518b833"),
    (("capacity", "--family", "cycle", "--n", "2000"),
     0, "0e1813f31fe54134af126103a950575f09d06ee91dd7fb0d11cac017a5e36de2"),
    (("capacity", "--family", "complete", "--n", "120"),
     0, "9c06a4eab5294ed895941b11f7c440a241d0d0bbc5b8bdb088a3000e6796c8df"),
]
# interpreter start + import + argparse, and nothing else
TRIVIAL = (("capacity", "--family", "path", "--n", "2"),
           0, "774c043a254ba7cc659a079d7ec19d6f707b41ce92836abaf608da5c1f6066f1")
COMMANDS = ("run", "audit", "capacity")
SETUPS_PER_PASS = 2  # spread over the run, like the ring's set-ups
CAPACITY_REPEATS = 3
IN_PROCESS_REPEATS = 2


def invoke(res: Result, spec):
    """Run one pinned invocation and verify its exit code and stdout digest."""
    args, exit_code, sha256 = spec
    child = run_child(graphspir_argv(*args))
    res.verify(
        child.exit_code == exit_code and child.stdout_sha256 == sha256,
        f"graphspir {' '.join(args)}: exit {child.exit_code}, sha256 {child.stdout_sha256}",
    )
    return child


def run(seed: int, seconds: float) -> Result:
    res = Result()
    invoke(res, TRIVIAL)  # warm the bytecode cache; not counted
    mix = list(MIX)
    random.Random(seed).shuffle(mix)

    setups, latencies, passes, pass_rss = [], [], [], []
    per_command = {c: [] for c in COMMANDS}
    started = time.perf_counter()
    while more_passes(passes, started, seconds):
        setups += [invoke(res, TRIVIAL).wall_s for _ in range(SETUPS_PER_PASS)]
        pass_start = time.perf_counter()
        spent = dict.fromkeys(COMMANDS, 0.0)
        rss = 0.0
        for spec in mix:
            child = invoke(res, spec)
            latencies.append(child.wall_s)
            spent[spec[0][0]] += child.wall_s
            rss = max(rss, child.peak_rss_mib)
        passes.append(time.perf_counter() - pass_start)
        pass_rss.append(rss)
        for command, value in spent.items():
            per_command[command].append(value)

    res.put("setup_s", median(setups), "s",
            f"median of {len(setups)} x graphspir {' '.join(TRIVIAL[0])}")
    res.put("latency_p50_ms", median(latencies) * 1e3, "ms",
            f"per invocation, {len(latencies)} invocations")
    res.put("throughput_per_s", median([len(mix) / w for w in passes]), "1/s",
            f"invocations per second, median over {len(passes)} passes of {len(mix)}")
    res.put("peak_rss_mib", median(pass_rss), "MiB",
            "largest child peak RSS of a pass, median over passes")
    res.notes.append(tail_note("invocation_tail_ms", latencies))
    for command, values in per_command.items():
        res.notes.append(f"cli_{command}_s: {median(values):.4f} s (median of {len(values)} passes)")
    res.repeats.update(setup=len(setups), passes=len(passes), invocations=len(latencies))
    return res


class _Sink:
    """A text stream that keeps what it is given, for hashing after timing."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def sha256(self):
        digest = hashlib.sha256()
        for part in self.parts:
            digest.update(part.encode())
        return digest.hexdigest()


def trace(seed: int, res: Result):
    import graphspir as gs
    from graphspir import cli

    stdout_bytes = dict.fromkeys(COMMANDS, 0)
    mix = list(MIX)
    random.Random(seed).shuffle(mix)
    for spec in mix:
        child = invoke(res, spec)
        stdout_bytes[spec[0][0]] += child.stdout_bytes
        if spec[0][0] == "run":
            process_s = child.wall_s
    for command, n_bytes in stdout_bytes.items():
        res.put(f"cli.{command}.stdout_bytes", n_bytes, "bytes", "summed over the mix")

    for family, n in (("cycle", 2000), ("complete", 120)):
        graph = gs.from_family(family, n)
        times = []
        for _ in range(CAPACITY_REPEATS):
            t0 = time.perf_counter()
            gs.capacity_report(graph, f"{family}-{n}")
            times.append(time.perf_counter() - t0)
        res.put(f"capacity.report_{family}{n}_ms", median(times) * 1e3, "ms", "in-process")

    args, _, sha256 = MIX[0]
    config = cli.RunConfig(
        command="run", family="complete", n=30, degree=None, edge_list=None,
        modulus=65521, message_length=2, target="all", seed=1,
        budget=gs.DEFAULT_BUDGET, degrade_pads=False, fmt="json", output=None,
    )
    main_times, cmd_times = [], []
    for _ in range(IN_PROCESS_REPEATS):
        sink = _Sink()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(list(args))
        main_times.append(time.perf_counter() - t0)
        res.verify(code == 0 and sink.sha256() == sha256, "in-process cli.main run")
        del sink
        t0 = time.perf_counter()
        code, payload = cli.cmd_run(config)
        cmd_times.append(time.perf_counter() - t0)
        res.verify(code == 0 and payload["all_correct"], "in-process cli.cmd_run")
        del payload
    main_s, cmd_s = median(main_times), median(cmd_times)
    res.put("cli.cmd_run_s", cmd_s, "s", "in-process cmd_run, complete-30")
    res.put("cli.emit_s", main_s - cmd_s, "s", "in-process main minus cmd_run")
    res.put("cli.process_overhead_s", process_s - main_s, "s",
            "subprocess wall minus in-process main")
