"""Tests of the benchmark itself (not of graphspir).

    python3 -m pytest bench/test_bench.py
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import audit
import climix
import common
import ring
import run

common.require_program()
import graphspir as gs  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_is_well_formed_and_mapped():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in spec[key])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]
    assert [m["name"] for m in spec["per_layer"]] == list(run.MOVES)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert common.tail(values)[0] == 99
    assert common.tail(values)[1] == pytest.approx(common.percentile(values, 99))
    assert common.tail(values[:199])[0] == 90
    assert common.tail(values[:5])[0] == 50


def test_child_peak_rss_does_not_depend_on_run_order_or_parent_size():
    first = climix.invoke(common.Result(), climix.TRIVIAL).peak_rss_mib
    big = climix.invoke(common.Result(), climix.MIX[0])
    ballast = bytearray(b"\x01") * (64 << 20)
    after = climix.invoke(common.Result(), climix.TRIVIAL).peak_rss_mib
    del ballast
    assert big.peak_rss_mib > 100
    assert common.self_peak_rss_mib() > first + 32
    assert abs(after - first) < 1.0


def test_layer_by_layer_replay_matches_the_protocol():
    state = gs.init_system(gs.cycle_graph(7), gs.PrimeField(101), 3, random.Random(3))
    rng = random.Random(4)
    tracer = common.Tracer()
    for request in range(5):
        target = rng.randrange(1, 8)
        coeffs, queries, answers, decoded = ring._replay(gs, tracer, state, target, rng, request)
        reference = gs.run_round_with_coeffs(state, target, coeffs)
        assert (queries, answers, decoded) == (reference.queries, reference.answers, reference.decoded)
        assert decoded == state.message(target)
    counts = {name: count for name, (count, _, _) in tracer.summary().items()}
    assert counts == {
        "round": 5,
        "field.sample_vector": 15,
        "protocol.gen_queries": 15,
        "protocol.server_answer_slot": 5 * 7 * 3,
        "protocol.decode": 5,
    }


def test_audit_verdicts_are_checked_against_expectations():
    graphs, fields = audit.build_inputs(gs)
    calls = {c.label(): c for c in audit.sweep_calls()}
    assert len(calls) == 43
    for label, call in calls.items():
        if call.graph == "path-3" and call.q == 2 and call.length == 1:
            results = audit._invoke(gs, call, graphs, fields)
            assert audit.verdict_ok(call, graphs["path-3"], results), label
    leak = calls["database_privacy path-3 q=2 L=1 pad_length=0"]
    results = audit._invoke(gs, leak, graphs, fields)
    honest = audit.Call("database_privacy", "path-3", 2, 1)
    assert not audit.verdict_ok(honest, graphs["path-3"], results)


def test_result_line_of_a_short_run():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "retrieve-ring",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=common.ROOT, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
