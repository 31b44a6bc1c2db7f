"""Command-line front end: run rounds, audit schemes, report capacities.

Output is JSON by default (``--format text`` for a plain rendering) and is
byte-identical across invocations with the same configuration and seed.
Exit codes: 0 success / all checks passed, 1 usage or validation error,
2 audit or decode failure, 3 enumeration budget exceeded.
"""

import argparse
import json
import os
import random
import sys
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
    command: str
    family: str | None
    n: int | None
    degree: int | None
    edge_list: str | None
    modulus: int
    message_length: int
    target: str
    seed: int
    budget: int
    degrade_pads: bool
    fmt: str
    output: str | None


def _env_budget() -> int:
    raw = os.environ.get("GRAPH_SPIR_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
        return value
    except ValueError:
        raise UsageError(f"GRAPH_SPIR_BUDGET must be a positive integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphspir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_field=True):
        source = p.add_argument_group("graph source")
        source.add_argument("--family", choices=FAMILIES, help="generated topology")
        source.add_argument("--n", type=int, help="vertex count for --family")
        source.add_argument("--d", type=int, dest="degree", help="degree for --family regular")
        source.add_argument("--edge-list", help="path to an edge-list file (first line 'N K', then 'u v' lines, '#' comments)")
        if needs_field:
            p.add_argument("--q", type=int, required=True, help="prime field modulus")
            p.add_argument("--length", type=int, default=1, help="symbols per message (default 1)")
            p.add_argument(
                "--theta",
                default="all",
                help=(
                    "target message index, or 'all' (default); for audits this "
                    "restricts reliability and database privacy, while user "
                    "privacy always compares every target"
                ),
            )
            p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
            p.add_argument("--budget", type=int, default=None, help="audit outcome budget (default GRAPH_SPIR_BUDGET or 2**24)")
        p.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
        p.add_argument("--output", help="write the report here instead of stdout")

    run_p = sub.add_parser("run", help="execute retrieval rounds and verify decoding")
    add_common(run_p)

    audit_p = sub.add_parser("audit", help="exhaustively audit reliability and both privacy constraints")
    add_common(audit_p)
    audit_p.add_argument(
        "--degrade-pads",
        action="store_true",
        help="audit the zero-pad scheme instead; expects database privacy to fail while reliability holds",
    )

    cap_p = sub.add_parser("capacity", help="report exact rate and capacity values")
    add_common(cap_p, needs_field=False)

    return parser


def _config_from_args(args) -> RunConfig:
    flag_budget = getattr(args, "budget", None)
    if flag_budget is not None and flag_budget < 1:
        raise UsageError(f"--budget must be a positive integer, got {flag_budget}")
    message_length = getattr(args, "length", 1)
    if message_length < 1:
        raise UsageError(f"--length must be >= 1, got {message_length}")
    return RunConfig(
        command=args.command,
        family=getattr(args, "family", None),
        n=getattr(args, "n", None),
        degree=getattr(args, "degree", None),
        edge_list=getattr(args, "edge_list", None),
        modulus=getattr(args, "q", 0),
        message_length=message_length,
        target=str(getattr(args, "theta", "all")),
        seed=getattr(args, "seed", 0),
        budget=flag_budget if flag_budget is not None else _env_budget(),
        degrade_pads=getattr(args, "degrade_pads", False),
        fmt=args.fmt,
        output=args.output,
    )


def _load_graph(cfg: RunConfig) -> tuple[Graph, str]:
    if cfg.family and cfg.edge_list:
        raise UsageError("give either --family or --edge-list, not both")
    if cfg.family:
        if cfg.n is None:
            raise UsageError("--family needs --n")
        graph = from_family(cfg.family, cfg.n, cfg.degree)
        name = f"{cfg.family}-{cfg.n}"
        if cfg.family == "regular":
            name += f"-d{cfg.degree}"
        return graph, name
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


def cmd_run(cfg: RunConfig) -> tuple[int, dict]:
    graph, name = _load_graph(cfg)
    field = PrimeField(cfg.modulus)
    targets = _targets(cfg, graph)
    rng = random.Random(cfg.seed)
    state = init_system(graph, field, cfg.message_length, rng)
    rounds = []
    all_correct = True
    for target in targets:
        transcript = run_round(state, target, rng)
        expected = state.message(target)
        correct = transcript.decoded == expected
        all_correct = all_correct and correct
        record = transcript_to_dict(transcript)
        record["expected"] = list(expected)
        record["correct"] = correct
        record["rate"] = str(
            Fraction(cfg.message_length, transcript.downloaded_symbols)
        )
        rounds.append(record)
    payload = {
        "command": "run",
        "graph": name,
        "servers": graph.n_vertices,
        "messages": graph.n_edges,
        "modulus": field.modulus,
        "message_length": cfg.message_length,
        "seed": cfg.seed,
        "rounds": rounds,
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


def _render_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + "  "))
                lines.append(f"{indent}  -")
            lines.pop()
        else:
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)


def _emit(payload: dict, cfg: RunConfig):
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(payload) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.command == "run":
            code, payload = cmd_run(cfg)
        elif cfg.command == "audit":
            code, payload = cmd_audit(cfg)
        else:
            code, payload = cmd_capacity(cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(payload, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
