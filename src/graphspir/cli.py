"""Command-line front end: run rounds, audit schemes, report capacities.

Output is JSON by default (``--format text`` for a plain rendering) and is
byte-identical across invocations with the same configuration and seed.
Every input is validated before the first byte is written, and the report
is written as it is produced: ``run`` decides its verdicts in a first pass
and replays its rounds from the seed as it writes them, so its memory does
not grow with the number of targets.
Exit codes: 0 success / all checks passed, 1 usage or validation error,
2 audit or decode failure, 3 enumeration budget exceeded.
"""

import argparse
import contextlib
import itertools
import json
import os
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .auditor import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    run_audit,
)
from .capacity import capacity_report
from .field import PrimeField
from .graph import FAMILIES, Graph, from_family, parse_edge_list
from .protocol import init_system, run_round, transcript_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """One command's inputs; these field defaults are the CLI's only defaults."""

    command: str
    family: str | None = None
    n: int | None = None
    degree: int | None = None
    edge_list: str | None = None
    modulus: int = 0
    message_length: int = 1
    target: str = "all"
    seed: int = 0
    budget: int = DEFAULT_BUDGET
    degrade_pads: bool = False
    fmt: str = "json"
    output: str | None = None


def _int_at_least(low: int, kind: str):
    """An argparse type: an int of at least ``low``, or a refusal that calls
    for a ``kind`` integer."""
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {raw!r}")
        return value
    return parse


# the check on --length, --budget and GRAPH_SPIR_BUDGET
_positive_int = _int_at_least(1, "positive")


def _env_budget() -> int:
    try:
        return _positive_int(os.environ["GRAPH_SPIR_BUDGET"])
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"GRAPH_SPIR_BUDGET {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphspir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, needs_field=True):
        # a flag that is not given leaves its RunConfig field at its default
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        source = p.add_argument_group("graph source")
        source.add_argument("--family", choices=FAMILIES, help="generated topology")
        source.add_argument("--n", type=int, help="vertex count for --family")
        source.add_argument("--d", type=int, dest="degree", help="degree for --family regular")
        source.add_argument("--edge-list", help="path to an edge-list file (first line 'N K', then 'u v' lines, '#' comments)")
        if needs_field:
            p.add_argument("--q", type=int, required=True, dest="modulus", metavar="Q", help="prime field modulus")
            p.add_argument(
                "--length", type=_positive_int, dest="message_length", metavar="LENGTH",
                help="symbols per message (default 1)",
            )
            p.add_argument(
                "--theta",
                dest="target",
                metavar="THETA",
                help=(
                    "target message index, or 'all' (default); for audits this "
                    "restricts reliability and database privacy, while user "
                    "privacy always compares every target"
                ),
            )
        p.add_argument("--format", choices=("json", "text"), dest="fmt")
        p.add_argument("--output", help="write the report here instead of stdout")
        return p

    run_p = add_command("run", "execute retrieval rounds and verify decoding")
    # random.Random seeds from a negative int's absolute value, so -1 would
    # replay the rounds of 1
    run_p.add_argument("--seed", type=_int_at_least(0, "non-negative"), help="rng seed (default 0)")

    audit_p = add_command("audit", "exhaustively audit reliability and both privacy constraints")
    audit_p.add_argument(
        "--budget", type=_positive_int,
        help="outcome budget (default GRAPH_SPIR_BUDGET or 2**24)",
    )
    audit_p.add_argument(
        "--degrade-pads",
        action="store_true",
        help="audit the zero-pad scheme instead; expects database privacy to fail while reliability holds",
    )

    add_command("capacity", "report exact rate and capacity values", needs_field=False)
    return parser


def _load_graph(cfg: RunConfig) -> tuple[Graph, str]:
    for flag, value in (("--family", cfg.family), ("--n", cfg.n), ("--d", cfg.degree)):
        if cfg.edge_list and value is not None:
            raise UsageError(f"give either {flag} or --edge-list, not both")
    if cfg.family:
        if cfg.n is None:
            raise UsageError("--family needs --n")
        graph = from_family(cfg.family, cfg.n, cfg.degree)
        # from_family took a degree only for a family that needs one
        degree = "" if cfg.degree is None else f"-d{cfg.degree}"
        return graph, f"{cfg.family}-{cfg.n}{degree}"
    if cfg.edge_list:
        try:
            with open(cfg.edge_list) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {cfg.edge_list}: {exc}")
        return parse_edge_list(text), cfg.edge_list
    raise UsageError("a graph is required: --family ... --n ... or --edge-list FILE")


def _targets(cfg: RunConfig, graph: Graph) -> list[int]:
    if cfg.target == "all":
        return list(range(1, graph.n_edges + 1))
    try:
        target = int(cfg.target)
    except ValueError:
        raise UsageError(f"--theta must be an integer or 'all', got {cfg.target!r}")
    if not 1 <= target <= graph.n_edges:
        raise UsageError(f"--theta {target} out of range 1..{graph.n_edges}")
    return [target]


def _replay(graph: Graph, field: PrimeField, cfg: RunConfig, targets):
    """Every round of a run, in order, from the rng state ``cfg.seed``
    gives: one ``(transcript, expected message)`` pair at a time."""
    rng = random.Random(cfg.seed)
    state = init_system(graph, field, cfg.message_length, rng)
    for target in targets:
        yield run_round(state, target, rng), state.message(target)


def _round_records(graph: Graph, field: PrimeField, cfg: RunConfig, targets, verdicts):
    """The round records of a run, replayed from the seed one at a time.

    ``verdicts`` holds each round's ``correct`` from the first pass, which
    decided ``all_correct``; a replayed round that disagrees raises rather
    than let that header stand."""
    replay = _replay(graph, field, cfg, targets)
    for verdict, (transcript, expected) in zip(verdicts, replay):
        record = transcript_to_dict(transcript)
        record["expected"] = list(expected)
        record["correct"] = transcript.decoded == expected
        record["rate"] = str(
            Fraction(cfg.message_length, transcript.downloaded_symbols)
        )
        if record["correct"] != verdict:
            raise RuntimeError(
                f"replayed round for message {transcript.target} disagrees with the first pass"
            )
        yield record


def cmd_run(cfg: RunConfig) -> tuple[int, dict]:
    """Decide every round's verdict in a first pass that keeps one bool per
    round. ``payload["rounds"]`` is an iterator that replays the rounds as
    it is written, so it can be read once."""
    graph, name = _load_graph(cfg)
    field = PrimeField(cfg.modulus)
    targets = _targets(cfg, graph)
    verdicts = [
        transcript.decoded == expected
        for transcript, expected in _replay(graph, field, cfg, targets)
    ]
    all_correct = all(verdicts)
    payload = {
        "command": "run",
        "graph": name,
        "servers": graph.n_vertices,
        "messages": graph.n_edges,
        "modulus": field.modulus,
        "message_length": cfg.message_length,
        "seed": cfg.seed,
        "rounds": _round_records(graph, field, cfg, targets, verdicts),
        "all_correct": all_correct,
    }
    return (EXIT_OK if all_correct else EXIT_FAILURE), payload


def cmd_audit(cfg: RunConfig) -> tuple[int, dict]:
    graph, name = _load_graph(cfg)
    field = PrimeField(cfg.modulus)
    pad_length = 0 if cfg.degrade_pads else cfg.message_length
    targets = None if cfg.target == "all" else _targets(cfg, graph)
    report = run_audit(
        graph,
        field,
        cfg.message_length,
        budget=cfg.budget,
        pad_length=pad_length,
        graph_name=name,
        targets=targets,
    )
    payload = {"command": "audit", "degraded_pads": cfg.degrade_pads}
    payload.update(report.to_dict())
    if cfg.degrade_pads:
        reliability_ok = all(
            c.passed for c in report.checks if c.check == "reliability"
        )
        database_broken = any(
            not c.passed for c in report.checks if c.check == "database-privacy"
        )
        expectation_met = reliability_ok and database_broken
        payload["expectation"] = {
            "reliability_passes": reliability_ok,
            "database_privacy_fails": database_broken,
            "met": expectation_met,
        }
        return (EXIT_OK if expectation_met else EXIT_FAILURE), payload
    return (EXIT_OK if report.all_passed else EXIT_FAILURE), payload


def cmd_capacity(cfg: RunConfig) -> tuple[int, dict]:
    graph, name = _load_graph(cfg)
    report = capacity_report(graph, graph_name=name)
    payload = {"command": "capacity"}
    payload.update(report.to_dict())
    return EXIT_OK, payload


def _json_chunks(value, pad: str = ""):
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, in
    pieces, for ``value`` nested at indent ``pad``. Dict keys are strs.

    Given an indent, CPython's json falls back to its pure-Python encoder,
    so containers are laid out here and only scalars go through
    ``json.dumps``; a list of ints is one join. Any other iterable, such as
    a run's rounds, is written as a list one item at a time.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        head = "{\n"
        for key in sorted(value):
            yield f"{head}{inner}{json.dumps(key)}: "
            yield from _json_chunks(value[key], inner)
            head = ",\n"
        yield "{}" if head == "{\n" else f"\n{pad}}}"
    elif isinstance(value, (str, int, float)) or value is None:
        yield json.dumps(value)
    # type, not isinstance: bools are ints, but print as true and false
    elif isinstance(value, (list, tuple)) and value and set(map(type, value)) == {int}:
        newline = "\n" + inner
        yield f"[{newline}{(',' + newline).join(map(str, value))}\n{pad}]"
    else:
        head = "[\n"
        for item in value:
            yield head + inner
            yield from _json_chunks(item, inner)
            head = ",\n"
        yield "[]" if head == "[\n" else f"\n{pad}]"


def _text_lines(payload: dict, indent: str = ""):
    """The plain rendering of ``payload``, one line at a time; a list or an
    iterator of dicts renders item by item."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        elif isinstance(value, Iterator) or (
            isinstance(value, list) and value and isinstance(value[0], dict)
        ):
            yield f"{indent}{key}:"
            for i, item in enumerate(value):
                if i:
                    yield f"{indent}  -"
                yield from _text_lines(item, indent + "  ")
        else:
            yield f"{indent}{key}: {json.dumps(value, sort_keys=True)}"


def _emit(payload: dict, fmt: str, fh):
    """Write the report to ``fh`` as it is produced."""
    if fmt == "json":
        chunks = itertools.chain(_json_chunks(payload), "\n")
    else:
        chunks = (line + "\n" for line in _text_lines(payload))
    # one write per 8 KiB, not per chunk
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= 1 << 13:
            fh.write("".join(batch))
            batch, size = [], 0
    fh.write("".join(batch))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "audit" and "budget" not in args and "GRAPH_SPIR_BUDGET" in os.environ:
            args.budget = _env_budget()
        cfg = RunConfig(**vars(args))
        command = {"run": cmd_run, "audit": cmd_audit, "capacity": cmd_capacity}[cfg.command]
        code, payload = command(cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # opened only once every input has been validated
        out = open(cfg.output, "w") if cfg.output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write {cfg.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with out as fh:
            _emit(payload, cfg.fmt, fh)
            fh.flush()
    except BrokenPipeError:
        # the reader stopped reading: end quietly, and send the interpreter's
        # last flush to devnull ("Note on SIGPIPE" in Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
