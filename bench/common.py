"""Shared pieces of the benchmark: locating the program, statistics, spans,
child-process measurement and the result record every workload fills in."""

import hashlib
import math
import os
import pstats
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Runs one command and reports its exit code, peak RSS (KiB) and wall time
# on stderr. Linux charges a child with its parent's RSS high-water mark at
# exec, so a child spawned straight from the benchmark process would read at
# least as large as the benchmark. This launcher starts with `-S`, stays
# near 8 MiB, and is the parent every measured command is spawned from.
_LAUNCHER = r"""
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(2, f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} {wall!r}\n".encode())
"""


class MissingProgram(RuntimeError):
    pass


def require_program():
    """Put the checkout's ``src`` first on the import path, or refuse to run."""
    if not (SRC / "graphspir" / "__init__.py").is_file():
        raise MissingProgram(f"no graphspir package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for child interpreters that must import the checkout's graphspir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


@dataclass
class ChildRun:
    exit_code: int
    peak_rss_mib: float
    wall_s: float
    stdout_bytes: int
    stdout_sha256: str


def run_child(argv) -> ChildRun:
    """Run ``argv`` under the launcher, hashing its stdout as it streams.

    Stdout is never buffered whole, so the benchmark process stays small
    however large the output is.
    """
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", _LAUNCHER, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=program_env(),
    )
    with proc:
        digest = hashlib.sha256()
        n_bytes = 0
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            n_bytes += len(chunk)
        report = proc.stderr.read().decode()
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed for {argv!r}: {report!r}")
    exit_code, rss_kib, wall = report.split()
    return ChildRun(int(exit_code), int(rss_kib) / 1024, float(wall), n_bytes, digest.hexdigest())


def graphspir_argv(*args) -> list:
    """The installed ``graphspir`` entry point, run from the checkout's source."""
    return [
        sys.executable,
        "-c",
        "import sys; from graphspir.cli import main; sys.exit(main())",
        *args,
    ]


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def tail(values):
    """The highest percentile of the ladder with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)``.
    """
    n = len(values)
    for p in TAIL_LADDER:
        beyond = n * (100 - p) / 100
        if beyond >= 10 or p == TAIL_LADDER[-1]:
            return p, percentile(values, p), beyond


def tail_note(label, values) -> str:
    """The tail of ``values`` (seconds) as a printed line, with its sample count."""
    p, value, beyond = tail(values)
    return f"{label}: {value * 1e3:.4f} ms = p{p:g} of {len(values)} ({beyond:g} beyond)"


def more_passes(passes, started, seconds) -> bool:
    """Whether another pass of a fixed work list fits in the measured time.

    Always runs at least one; stops before a pass that, at the speed of the
    last one, would end after ``seconds``. Passes are never cut short, so
    every run measures the same mix.
    """
    if not passes:
        return True
    return time.perf_counter() - started + passes[-1] <= seconds


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def call_counts(profile, names) -> dict:
    """Exact call counts, from a cProfile run, of graphspir functions named
    ``module.function``."""
    counts = dict.fromkeys(names, 0)
    for (filename, _, func), row in pstats.Stats(profile).stats.items():
        path = Path(filename)
        key = f"{path.stem}.{func}"
        if key in counts and path.parent.name == "graphspir":
            counts[key] += row[1]
    return counts


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(name, start, end, parent, request)`` tuples.

    ``span`` returns a context manager whose ``id`` can parent later spans;
    spans of one retrieval round share the round's request id.
    """

    def __init__(self):
        self.spans = []

    def span(self, name, parent=None, request=None):
        return _Span(self, name, parent, request)

    def durations(self, name, request=None):
        return [
            end - start
            for n, start, end, _, req in self.spans
            if n == name and (request is None or req == request)
        ]

    def summary(self):
        """Per span name: count, total time and self time (minus child spans)."""
        child_time = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        rows = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            count, total, own = rows.get(name, (0, 0.0, 0.0))
            rows[name] = (count + 1, total + end - start, own + end - start - child_time.get(i, 0.0))
        return rows


class _Span:
    __slots__ = ("tracer", "name", "parent", "request", "start", "id")

    def __init__(self, tracer, name, parent, request):
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.request = request
        self.id = None

    def __enter__(self):
        self.id = len(self.tracer.spans)
        self.tracer.spans.append(None)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans[self.id] = (self.name, self.start, end, self.parent, self.request)
        return False


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """What one run measured and verified."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit, note)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    repeats: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def verify(self, ok: bool, what: str):
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def put(self, name: str, value, unit: str, note: str = ""):
        self.metrics[name] = (value, unit, note)
