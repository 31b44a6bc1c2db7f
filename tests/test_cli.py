"""Command-line interface: exit codes, determinism, formats, environment."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import graphspir.cli as cli
import graphspir.protocol as protocol
from graphspir import DEFAULT_BUDGET, AuditReport, CheckResult
from graphspir.cli import EXIT_BUDGET, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert out, f"no stdout; stderr was: {err}"
    return code, json.loads(out)


class TestRunCommand:
    def test_single_target(self, capsys):
        code, payload = run_json(
            capsys,
            ["run", "--family", "path", "--n", "3", "--q", "5",
             "--theta", "2", "--seed", "7"],
        )
        assert code == EXIT_OK
        assert payload["all_correct"] is True
        (record,) = payload["rounds"]
        assert record["target"] == 2
        assert record["decoded"] == record["expected"]
        assert record["correct"] is True
        assert record["rate"] == "1/3"

    def test_all_targets(self, capsys):
        code, payload = run_json(
            capsys,
            ["run", "--family", "star", "--n", "4", "--q", "2", "--theta", "all"],
        )
        assert code == EXIT_OK
        assert len(payload["rounds"]) == 3
        assert all(r["correct"] for r in payload["rounds"])
        assert all(r["rate"] == "1/4" for r in payload["rounds"])

    def test_multi_symbol_rate(self, capsys):
        code, payload = run_json(
            capsys,
            ["run", "--family", "cycle", "--n", "4", "--q", "3",
             "--length", "2", "--theta", "1"],
        )
        assert code == EXIT_OK
        (record,) = payload["rounds"]
        assert record["downloaded_symbols"] == 8
        assert record["rate"] == "1/4"

    def test_non_prime_modulus(self, capsys):
        code, out, err = run_cli(
            capsys, ["run", "--family", "path", "--n", "3", "--q", "4"]
        )
        assert code == EXIT_USAGE
        assert "prime" in err

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_length_must_be_positive(self, capsys, command):
        code, _, err = run_cli(
            capsys, [command, "--family", "path", "--n", "3", "--q", "5", "--length", "0"]
        )
        assert code == EXIT_USAGE
        assert "--length" in err

    def test_missing_graph_source(self, capsys):
        code, out, err = run_cli(capsys, ["run", "--q", "5"])
        assert code == EXIT_USAGE
        assert "--family" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, ["run", "--family", "tree", "--n", "3", "--q", "5"])
        assert code == EXIT_USAGE

    def test_target_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["run", "--family", "path", "--n", "3", "--q", "5", "--theta", "9"],
        )
        assert code == EXIT_USAGE
        assert "out of range" in err

    def test_regular_family_needs_degree(self, capsys):
        code, _, _ = run_cli(
            capsys, ["run", "--family", "regular", "--n", "4", "--q", "5"]
        )
        assert code == EXIT_USAGE
        code, payload = run_json(
            capsys,
            ["run", "--family", "regular", "--n", "4", "--d", "3", "--q", "5"],
        )
        assert code == EXIT_OK
        assert payload["graph"] == "regular-4-d3"


class TestAuditCommand:
    def test_ring_graph_passes(self, capsys):
        code, payload = run_json(
            capsys, ["audit", "--family", "cycle", "--n", "3", "--q", "2"]
        )
        assert code == EXIT_OK
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 18
        reliability = [
            c for c in payload["checks"] if c["check"] == "reliability"
        ]
        assert all(c["instance"]["joint_space"] == 512 for c in reliability)

    def test_theta_restricts_per_target_checks(self, capsys):
        code, payload = run_json(
            capsys,
            ["audit", "--family", "cycle", "--n", "3", "--q", "3", "--theta", "2"],
        )
        assert code == EXIT_OK
        reliability = [
            c for c in payload["checks"] if c["check"] == "reliability"
        ]
        assert [c["instance"]["target"] for c in reliability] == [2]
        user = [c for c in payload["checks"] if c["check"] == "user-privacy"]
        assert len(user) == 6  # unrestricted by design

    def test_degraded_pads_expectation(self, capsys):
        code, payload = run_json(
            capsys,
            ["audit", "--family", "path", "--n", "3", "--q", "2", "--degrade-pads"],
        )
        assert code == EXIT_OK
        assert payload["pad_length"] == 0
        assert payload["all_passed"] is False
        assert payload["expectation"] == {
            "reliability_passes": True,
            "database_privacy_fails": True,
            "met": True,
        }

    def test_budget_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys, ["audit", "--family", "complete", "--n", "5", "--q", "3"]
        )
        assert code == EXIT_BUDGET
        assert out == ""
        assert str(3 ** 30) in err

    def test_budget_flag(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["audit", "--family", "cycle", "--n", "3", "--q", "2",
             "--budget", "100"],
        )
        assert code == EXIT_BUDGET
        assert "512" in err
        code, _, _ = run_cli(
            capsys,
            ["audit", "--family", "cycle", "--n", "3", "--q", "2",
             "--budget", "512"],
        )
        assert code == EXIT_OK

    def test_budget_flag_must_be_positive(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["audit", "--family", "path", "--n", "3", "--q", "2", "--budget", "0"],
        )
        assert code == EXIT_USAGE

    def test_failing_audit_exits_two(self, capsys, monkeypatch):
        report = AuditReport(
            graph_name="path-3",
            modulus=2,
            message_length=1,
            pad_length=1,
            budget=100,
            checks=(
                CheckResult(
                    check="reliability",
                    instance={"target": 1},
                    passed=False,
                    enumerated=64,
                    witness=None,
                ),
            ),
        )
        monkeypatch.setattr(cli, "run_audit", lambda *a, **k: report)
        code, payload = run_json(
            capsys, ["audit", "--family", "path", "--n", "3", "--q", "2"]
        )
        assert code == EXIT_FAILURE
        assert payload["all_passed"] is False

    def test_unmet_degrade_expectation_exits_two(self, capsys, monkeypatch):
        report = AuditReport(
            graph_name="path-3",
            modulus=2,
            message_length=1,
            pad_length=0,
            budget=100,
            checks=(
                CheckResult(
                    check="database-privacy",
                    instance={"target": 1, "subset": [2]},
                    passed=True,
                    enumerated=16,
                    witness=None,
                ),
            ),
        )
        monkeypatch.setattr(cli, "run_audit", lambda *a, **k: report)
        code, payload = run_json(
            capsys,
            ["audit", "--family", "path", "--n", "3", "--q", "2", "--degrade-pads"],
        )
        assert code == EXIT_FAILURE
        assert payload["expectation"]["met"] is False


# sha256 of the JSON on stdout; each round, verdict, enumerated count and
# witness is part of it, so any change to the results shows here
STDOUT_DIGESTS = {
    "cycle4": (
        ["audit", "--family", "cycle", "--n", "4", "--q", "2"],
        "16be53ef917870a7382a86678ce49c073bb6710040b140de190ca5110d282238",
    ),
    "path3-degraded": (
        ["audit", "--family", "path", "--n", "3", "--q", "2", "--degrade-pads"],
        "18da8f21bb18c21c75c821f140280ef77f8f1628a75cfe3c8dd08a9b9518b833",
    ),
    "cycle3-q3-degraded": (
        ["audit", "--family", "cycle", "--n", "3", "--q", "3", "--degrade-pads"],
        "db4d83e86b40354b3c3c346913ce88c5da189e66bb029563e9c98eef527a73bf",
    ),
    "path3-L2": (
        ["audit", "--family", "path", "--n", "3", "--q", "2", "--length", "2"],
        "1caf4e62e1df5c794f9425a9270c51cbe84c7e912426c6fac79bc979f0a69986",
    ),
    "cycle4-degraded": (
        ["audit", "--family", "cycle", "--n", "4", "--q", "2", "--degrade-pads"],
        "2003f9755f1f7f8be46db64d550f9cde17fc85d1e6fd5eb27b6d67d9f69d0b29",
    ),
    "star4-degraded": (
        ["audit", "--family", "star", "--n", "4", "--q", "2", "--degrade-pads"],
        "90688b72dc8284d62108f1403c6cdf61b556b548a47b056e49555e853c97f196",
    ),
    "star4-q3": (
        ["audit", "--family", "star", "--n", "4", "--q", "3"],
        "316bf62b6cd85f2e33c38a9de317d5a664c5549ab61a65e5a356acad74806a49",
    ),
    # K = 6: 186 failing database-privacy checks, each with its witness
    "complete4-degraded": (
        ["audit", "--family", "complete", "--n", "4", "--q", "2", "--degrade-pads"],
        "dab20894d945a831d16dbd4fb84621d09d5f9debd86b273ab9788d3af8b01384",
    ),
    # K = 6 at q = 3, a joint space of 3^18 outcomes beyond the default budget
    "complete4-q3": (
        ["audit", "--family", "complete", "--n", "4", "--q", "3", "--budget", "1099511627776"],
        "3828294f7a4651897141c7a51455e61dd6baf848eb80387af1d65ae857041026",
    ),
    # honest dense audits beyond the default budget: every edge of every
    # target passes for every mask vector at once, and no target walks them
    "complete5-budget": (
        ["audit", "--family", "complete", "--n", "5", "--q", "2", "--budget", "1099511627776"],
        "eba88b2d69001fc4ed9859f14e9ac4f7420e45afcb3121bc6d4f4ed0da072689",
    ),
    "cycle10-budget": (
        ["audit", "--family", "cycle", "--n", "10", "--q", "2", "--budget", "1099511627776"],
        "eb7d9cb9ea3cdc97724cd62b20acaa302d10143ef1d7169dbe299ba71ee625a9",
    ),
    # leaking audits of every target: a cycle's closing edge (1, n) is read
    # second in query order, so the read order of h differs from its edge order
    "cycle6-q3-degraded": (
        ["audit", "--family", "cycle", "--n", "6", "--q", "3", "--degrade-pads"],
        "fd73d4060cdbc1c897ca9723274b7b157f591804cfa48b56ed615c212598dc8f",
    ),
    "cycle8-degraded": (
        ["audit", "--family", "cycle", "--n", "8", "--q", "2", "--degrade-pads"],
        "8d9ea91d00663d5ceb1730db48e6fb6d8ccacbdfb535b9363c2c9ab53c5e13ff",
    ),
    # two bare slots: 15 witnesses, each from a table of 2^20 outcomes
    "cycle5-L2-degraded-theta1": (
        ["audit", "--family", "cycle", "--n", "5", "--q", "2", "--degrade-pads",
         "--length", "2", "--theta", "1"],
        "48024a389293257657e8f68041f2e85445114eec40e1960f5dc4a4d215275bed",
    ),
    "run-path3-q5": (
        ["run", "--family", "path", "--n", "3", "--q", "5", "--seed", "7"],
        "b09441cceadbe675f2dc3488c654a3e613c91d86a1b0a7fb665f11f27487edca",
    ),
    # every target over two slots, streamed in both formats
    "run-complete5-L2": (
        ["run", "--family", "complete", "--n", "5", "--q", "7", "--length", "2", "--seed", "3"],
        "5e4c4605f794980fe5c7da3530d7e3fa397140f86edd84f715de8341f876697e",
    ),
    "run-complete5-L2-text": (
        ["run", "--family", "complete", "--n", "5", "--q", "7", "--length", "2", "--seed", "3",
         "--format", "text"],
        "af517d61ec4cde2967766173d7cd3c0a35b5c726092f5d9c30a250b3fc55bde8",
    ),
    # symbols drawn from a 17-bit modulus, where about half of all draws are redrawn
    "run-cycle6-q65537-L3": (
        ["run", "--family", "cycle", "--n", "6", "--q", "65537", "--length", "3", "--seed", "5"],
        "04c506141863c593ea220ac1af087efea308120b89a881da92f09f14e5cf0584",
    ),
    "run-cycle40-q65537-L4": (
        ["run", "--family", "cycle", "--n", "40", "--q", "65537", "--length", "4", "--seed", "1"],
        "9b2319ec87b8a3f0322c44224041071f4543c67189a2250a4160320c52d771d6",
    ),
    # the shape of the benchmark's ring: 256 servers, a 31-bit modulus, 8 slots
    "run-cycle256-q2147483647-L8-theta1": (
        ["run", "--family", "cycle", "--n", "256", "--q", "2147483647", "--length", "8",
         "--theta", "1", "--seed", "1"],
        "6eebea927ec658df03427b1205ecd53bd3394298a4a732b687c3f549ff62877a",
    ),
    # degree-1 leaves around an 11-edge hub
    "run-star12-q65521-L3": (
        ["run", "--family", "star", "--n", "12", "--q", "65521", "--length", "3", "--seed", "2"],
        "476348908129f228e2f6cc4110586a74a61429f341a1825689c4d9d87654e40a",
    ),
    "capacity-cycle5": (
        ["capacity", "--family", "cycle", "--n", "5"],
        "c9aee21a2acabb1a546f21c841a477c4baec1d8432aedf626513cf45442e24c0",
    ),
    # audits rendered as text, where each check's instance is a nested mapping
    "path3-degraded-text": (
        ["audit", "--family", "path", "--n", "3", "--q", "2", "--degrade-pads",
         "--format", "text"],
        "ebb1a26bb3be37abd14daa718e228079a85161152edc67413d0653ba08768f71",
    ),
    "cycle4-text": (
        ["audit", "--family", "cycle", "--n", "4", "--q", "2", "--format", "text"],
        "687dea53d841ff901ebc5aa8ac95332e55d4aabc5c139a0888855e0d2a4900b5",
    ),
}


class TestAuditDigests:
    """The audit digests (two as text), seven pinned ``run`` outputs and one
    ``capacity``."""

    @pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS.values(), ids=STDOUT_DIGESTS.keys())
    def test_stdout_is_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEnvironmentBudget:
    def test_env_var_lowers_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPH_SPIR_BUDGET", "100")
        code, _, _ = run_cli(
            capsys, ["audit", "--family", "cycle", "--n", "3", "--q", "2"]
        )
        assert code == EXIT_BUDGET

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPH_SPIR_BUDGET", "100")
        code, _, _ = run_cli(
            capsys,
            ["audit", "--family", "cycle", "--n", "3", "--q", "2",
             "--budget", "1024"],
        )
        assert code == EXIT_OK

    def test_invalid_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("GRAPH_SPIR_BUDGET", "lots")
        code, _, err = run_cli(
            capsys, ["audit", "--family", "cycle", "--n", "3", "--q", "2"]
        )
        assert code == EXIT_USAGE
        assert "GRAPH_SPIR_BUDGET" in err


class TestFlagsPerCommand:
    """Each command accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--family", "path", "--n", "3", "--q", "2", "--seed", "1"],
            ["run", "--family", "path", "--n", "3", "--q", "2", "--budget", "5"],
        ],
        ids=["audit-seed", "run-budget"],
    )
    def test_a_flag_the_command_ignores_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert argv[-2] in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--family", "path", "--n", "3", "--q", "5", "--seed", "7"],
            ["capacity", "--family", "cycle", "--n", "5"],
        ],
        ids=["run", "capacity"],
    )
    def test_only_audit_reads_the_budget_variable(self, capsys, monkeypatch, argv):
        # audit refuses this value: TestEnvironmentBudget.test_invalid_env_value
        plain = run_cli(capsys, argv)
        monkeypatch.setenv("GRAPH_SPIR_BUDGET", "lots")
        assert run_cli(capsys, argv) == plain
        assert plain[0] == EXIT_OK

    @pytest.mark.parametrize("flag", [["--n", "7"], ["--d", "4"]])
    @pytest.mark.parametrize("command", [["capacity"], ["run", "--q", "5"], ["audit", "--q", "2"]])
    def test_family_flags_with_an_edge_list_are_refused(self, capsys, tmp_path, command, flag):
        listing = tmp_path / "p3.edges"
        listing.write_text("3 2\n1 2\n2 3\n")
        code, out, err = run_cli(capsys, [*command, "--edge-list", str(listing), *flag])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: give either {flag[0]} or --edge-list")

    def test_a_degree_outside_the_regular_family_is_refused(self, capsys):
        code, out, err = run_cli(capsys, ["capacity", "--family", "cycle", "--n", "5", "--d", "3"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "only the regular family takes a degree" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_negative_seed_is_refused(self, capsys, fmt):
        # random.Random(-1) draws what random.Random(1) draws
        code, out, err = run_cli(
            capsys, ["run", "--family", "path", "--n", "3", "--q", "5", "--seed", "-1",
                     "--format", fmt],
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert "--seed" in err

    def test_seed_zero_is_the_default(self, capsys):
        argv = ["run", "--family", "path", "--n", "3", "--q", "5"]
        default = run_cli(capsys, argv)
        assert default[0] == EXIT_OK
        assert run_cli(capsys, [*argv, "--seed", "0"]) == default

    def test_cmd_run_takes_the_benchmark_config(self):
        """The keyword config that ``bench/climix.py`` hands ``cmd_run``
        writes what ``main`` writes for the same command line."""
        config = cli.RunConfig(
            command="run", family="complete", n=30, degree=None, edge_list=None,
            modulus=65521, message_length=2, target="all", seed=1,
            budget=DEFAULT_BUDGET, degrade_pads=False, fmt="json", output=None,
        )
        code, payload = cli.cmd_run(config)
        direct = _HashingSink()
        cli._emit(payload, config.fmt, direct)
        assert code == EXIT_OK
        through_main = _HashingSink()
        with contextlib.redirect_stdout(through_main):
            code = main(["run", "--family", "complete", "--n", "30", "--q", "65521",
                         "--length", "2", "--seed", "1"])
        assert code == EXIT_OK
        assert direct.digest.hexdigest() == through_main.digest.hexdigest() == (
            "e50c05c85e8f13721dcea2d2a0d384f38d0e08f9be476c74afe5ad211f717bbb"
        )


# capacity edge lists, written under their bare names so the "graph" field
# does not depend on the test's directory
CAPACITY_EDGE_LISTS = {
    "paw.edges": "4 4\n1 2\n1 3\n2 3\n3 4\n",
    "tree5.edges": "5 4\n1 2\n1 3\n3 4\n3 5\n",
    "k22.edges": "4 4\n1 3\n1 4\n2 3\n2 4\n",
    "path4-reversed.edges": "4 3\n2 1\n3 2\n4 3\n",
}


def _capacity_argv(key):
    if key in CAPACITY_EDGE_LISTS:
        return ["--edge-list", key]
    family, n, *degree = key.split("-")
    return ["--family", family, "--n", n, *(["--d", degree[0][1:]] if degree else [])]


# sha256 of ``capacity`` stdout as (JSON, text), for every topology class:
# trivial, path, cycle, other regular and the rest, from families and files
CAPACITY_DIGESTS = {
    "path-2": (
        "774c043a254ba7cc659a079d7ec19d6f707b41ce92836abaf608da5c1f6066f1",
        "6ded426308a5aaf332f4fb58fad0220185e62ff964c804ee2368e6683dd02daf",
    ),
    "path-3": (
        "c81d537b3fbfa014e0feb9f368e822accb974ad738aed5d841334c97dbff53e8",
        "33b3a9271539381ea7d53d0447a218d319e9a30cbc56cc5782ecdbc3a285de73",
    ),
    "path-7": (
        "8af1d6518193d55bd405d40e0113628e93bc9b1b9cab01843a8d4f468794ec78",
        "aabaeecc6a163d7df835aeaf41dbb78c0170ed7254528bc3df87835719a1ca28",
    ),
    "cycle-3": (
        "ee22f5a70af06ce2027d8a8f28c0a79ab497c06cb78d1863bde0be58ec89b6a5",
        "f81b26c035f93b7391800a9f80de0be2f2e154d562b45388396917317f1d370c",
    ),
    "cycle-4": (
        "6bca7f09822989da450c8f27fd4f8007e4685942a7329d8e0bbe57833b3abada",
        "a2fc763495b4eb4b891fe7364c2055b756f2286e43634ea66d040cec846650c8",
    ),
    "cycle-9": (
        "835887364ab081edc406406f1e17fa3f482b9fba4d2168da5311dd40b0337b5d",
        "a1deacdfa02cb25ee2f8695a847a1e992b527f36f7767b618176a48bf9ca40c6",
    ),
    "star-3": (
        "773b6f507efd0cbb7b4f57c0733f0e360acf8abacdd58dcf57bec45de9cd3cd4",
        "71acbb7f3d8b14941a02dfc89d91fba4e281e50d90a4b9e53befb3fc047c9f83",
    ),
    "star-4": (
        "3c794e3e3906ec23dd120a6abc48cebe060d1f0e1904fcb46c04003fa7587b90",
        "07ee57ad9991c52ede17b2d0234d94ec3bb084c864315c96cada70e13688bc9e",
    ),
    "star-6": (
        "61baa63babfdd1839bfdffabf9aef7b94e77009f787b9ed7e5dbd8ec2a4d94ed",
        "fdce654acc9aec3394bbe0abf9afad264f0bfb0e40e063f45263c045137e8d1e",
    ),
    "complete-2": (
        "2d9beec45976f754d05d49818d2098567954e8787675c79428d76433998c5a96",
        "44a5969a16dfb2dd780b0096824cfccac67f1f8b259a6a09170a830f6272a7fb",
    ),
    "complete-3": (
        "383c144785dffb80481b2f286adc0f00b2eaa53f317973d30c75efbbdce102c1",
        "16cfb2c296d10531111e652809f6c98f93fe8230b31884670ec70e409c8b9908",
    ),
    "complete-4": (
        "e04718fc60dd545839a638f7155b7e4216b66945c85e3db8313d2312f54ccd21",
        "32ec4e2ffcc8c176e3b11c111fdc13a53e8ebeea9d9d36180035aaafb32d038d",
    ),
    "complete-8": (
        "d2df0ab43af1319df5476a336835df781d7760ed78b084987b2af4cedccf4397",
        "3e98c6919b9955a3cbb410a110dd75eee1af793f39a910c10f2a1c148d6176e4",
    ),
    "regular-6-d2": (
        "9f590aa2e340d0b560f38b4ed660d22a1919686c8b44a22f54a8af9b75fe1d84",
        "e352f28ec389ae6e669f51acce6fbf16d5eb6213c6a1b6ba510a07cb6a2f9d94",
    ),
    "regular-6-d3": (
        "dd5e54ed22343ffe19cf105a313df20c981e3eca14d9062599f37f19046a5ae1",
        "76b120a4b4f5a27b1f7007b1c980bb582f4c54f0d6f97f02ef35b849590196e5",
    ),
    "regular-8-d4": (
        "8f1972d47d45d0ff239c68a68fe3fdfe9684d1e35bf78d5e34816f5ceb0836c8",
        "52695be6068167b3537f5bfad88693edcf533df5d958eab97989867316b0d82c",
    ),
    "regular-10-d5": (
        "3231102858d24032d1c492f7a66b2a236edcac29d3f61af5f23c94c3892fa911",
        "3af6f0813809fda8194755230b6e47745f393c0e39b5fd2eb9e4ba94b8279599",
    ),
    "paw.edges": (
        "fb746da1877e944e185fc4929fa0b63d40d1cbfaed7f048b8b03d2fdef81dac4",
        "6404d17dd7c435e19c770b7d98843d813602f8f32c63623f72f9af8e156133ec",
    ),
    "tree5.edges": (
        "d99b07c076212d408c865bb71009937bf415d35ae7488adbfd681f707afca21a",
        "356e22ac99581bafb7f5aef3e3cbd21ba61901a48ac86d11e7bacbee4e995bff",
    ),
    "k22.edges": (
        "6965d0694725087ec1f6cfce4d222308b0329d310adacd76e5b70f8fc8b6c6c0",
        "7f2d18ca30ba893b4bd3337051bf4270a67de1737b9b34a56dd1babb07e3fc3c",
    ),
    "path4-reversed.edges": (
        "1a13b35a20faf6ad94055851b852be94afd1d7837b9ab911143e719ed4f774b0",
        "bf3f9b500d38385a75072c826fd0ce6606a4b1ffa5f60748f09ea5f2231915cb",
    ),
}


class TestCapacityDigests:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("key", CAPACITY_DIGESTS)
    def test_stdout_is_pinned(self, capsys, monkeypatch, tmp_path, key, fmt):
        monkeypatch.chdir(tmp_path)
        for name, text in CAPACITY_EDGE_LISTS.items():
            (tmp_path / name).write_text(text)
        code, out, _ = run_cli(capsys, ["capacity", *_capacity_argv(key), "--format", fmt])
        assert code == EXIT_OK
        digest = CAPACITY_DIGESTS[key][fmt == "text"]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCapacityCommand:
    def test_path(self, capsys):
        code, payload = run_json(
            capsys, ["capacity", "--family", "path", "--n", "6"]
        )
        assert code == EXIT_OK
        assert payload["capacity"] == "1/6"
        assert payload["pir_reference"] == "1/3"

    def test_cycle(self, capsys):
        code, payload = run_json(
            capsys, ["capacity", "--family", "cycle", "--n", "4"]
        )
        assert code == EXIT_OK
        assert payload["capacity"] == "1/4"
        assert payload["pir_reference"] == "2/5"

    def test_edge_list_file_with_unknown_capacity(self, capsys, tmp_path):
        listing = tmp_path / "paw.edges"
        listing.write_text("4 4\n1 2\n1 3\n2 3\n3 4\n")  # the paw graph
        code, payload = run_json(capsys, ["capacity", "--edge-list", str(listing)])
        assert code == EXIT_OK
        assert payload["capacity"] is None
        assert payload["achievable_rate"] == "1/4"
        assert payload["graph"] == str(listing)

    def test_missing_edge_list_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["capacity", "--edge-list", str(tmp_path / "absent.edges")]
        )
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_family_without_a_vertex_count(self, capsys):
        code, out, err = run_cli(capsys, ["capacity", "--family", "path"])
        assert code == EXIT_USAGE == 1
        assert out == ""
        assert err == "error: --family needs --n\n"


class TestOutputModes:
    def test_byte_identical_reruns(self, capsys):
        argv = ["run", "--family", "cycle", "--n", "4", "--q", "5",
                "--theta", "all", "--seed", "13"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        argv = ["audit", "--family", "path", "--n", "3", "--q", "3"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        destination = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            ["audit", "--family", "path", "--n", "3", "--q", "2",
             "--output", str(destination)],
        )
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(destination.read_text())
        assert payload["all_passed"] is True

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, where):
        destination = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, ["capacity", "--family", "path", "--n", "3", "--output", str(destination)]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: cannot write {destination}: ")
        assert "Traceback" not in err

    def test_run_output_file_is_pinned(self, capsys, tmp_path):
        destination = tmp_path / "run.json"
        code, out, _ = run_cli(
            capsys,
            ["run", "--family", "complete", "--n", "5", "--q", "7", "--length", "2",
             "--seed", "3", "--theta", "2", "--output", str(destination)],
        )
        assert code == EXIT_OK
        assert out == ""
        assert hashlib.sha256(destination.read_bytes()).hexdigest() == (
            "b5093c46cfbcfa62f51087d329a54a1c67ffe6d47a57102e89cf1b69c9c4a6f2"
        )

    def test_closed_pipe_ends_the_output_quietly(self):
        """A reader that stops early, as ``| head -c 100`` does, ends the
        output with the command's own exit code and no traceback."""
        src = str(Path(cli.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; from graphspir.cli import main; sys.exit(main())",
             "run", "--family", "complete", "--n", "12", "--q", "5", "--length", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        # the whole output is 474 KB, more than a pipe buffers
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_OK
        assert b"Traceback" not in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["capacity", "--family", "path", "--n", "4", "--format", "text"],
        )
        assert code == EXIT_OK
        assert "capacity: \"1/4\"" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "graphspir" in capsys.readouterr().out

    def test_conflicting_graph_sources(self, capsys, tmp_path):
        listing = tmp_path / "g.edges"
        listing.write_text("3 2\n1 2\n2 3\n")
        code, _, err = run_cli(
            capsys,
            ["run", "--family", "path", "--n", "3", "--q", "5",
             "--edge-list", str(listing)],
        )
        assert code == EXIT_USAGE
        assert "not both" in err


class _HashingSink:
    """A stdout that hashes what it is given and keeps none of it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def _traced_peak(argv) -> int:
    """The tracemalloc peak of ``main(argv)``, with stdout hashed away."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_HashingSink()):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    return peak


class TestStreamedRun:
    """``run`` decides its verdicts in a first pass and replays the rounds
    from the seed as it writes them."""

    def test_wrong_answers_fail_every_round(self, capsys, monkeypatch):
        answer = protocol._answer_slots
        monkeypatch.setattr(
            protocol, "_answer_slots",
            lambda store, queries, q, slot=0: tuple(
                (a + (store.server == 1)) % q for a in answer(store, queries, q, slot)
            ),
        )
        code, payload = run_json(
            capsys, ["run", "--family", "cycle", "--n", "4", "--q", "5", "--length", "2"]
        )
        assert code == EXIT_FAILURE
        assert payload["all_correct"] is False
        assert len(payload["rounds"]) == 4
        assert all(r["correct"] is False for r in payload["rounds"])

    def test_replay_that_disagrees_raises(self, monkeypatch):
        # path-3, both targets: 3 servers answer 1 slot per round, so the
        # first pass makes 6 calls; every later answer is off by one
        answer = protocol._answer_slots
        calls = []

        def drifting(store, queries, q, slot=0):
            calls.append(store.server)
            return tuple((a + (len(calls) > 6)) % q for a in answer(store, queries, q, slot))

        monkeypatch.setattr(protocol, "_answer_slots", drifting)
        with pytest.raises(RuntimeError, match="first pass"):
            main(["run", "--family", "path", "--n", "3", "--q", "5"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "path", "--n", "3", "--q", "5", "--theta", "9"],
            ["--family", "path", "--n", "3", "--q", "5", "--theta", "first"],
            ["--family", "path", "--n", "3", "--q", "4"],
            ["--family", "path", "--n", "3", "--q", "5", "--length", "0"],
            ["--family", "path", "--n", "1", "--q", "5"],
            ["--q", "5"],
        ],
        ids=["theta-out-of-range", "theta-not-int", "q-not-prime", "length-0", "bad-graph", "no-graph"],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_invalid_input_writes_nothing(self, capsys, tmp_path, argv, fmt):
        destination = tmp_path / "run.out"
        code, out, _ = run_cli(capsys, ["run", *argv, "--format", fmt])
        assert code == EXIT_USAGE
        assert out == ""
        code, out, _ = run_cli(capsys, ["run", *argv, "--format", fmt, "--output", str(destination)])
        assert code == EXIT_USAGE
        assert out == ""
        assert not destination.exists()

    def test_memory_does_not_grow_with_targets(self):
        argv = ["run", "--family", "complete", "--n", "12", "--q", "65521", "--length", "2"]
        for _ in range(2):  # fill imports, caches and CPython's free lists first
            _traced_peak(argv)
        one_round = _traced_peak(argv + ["--theta", "1"])
        every_round = _traced_peak(argv)  # 66 rounds
        assert every_round <= 2 * one_round


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        [1, -2, 3],
        [True, 1, 0],
        [1, 2.5, None],
        (4, 5),
        {"z": 1, "a": [1, [2, 3], {"k": "v"}], "m": None, "é": "ü\n\"", "f": 1.5e300},
        [[0] * 3, [(1, 2), [True, False]], "x"],
    ],
)
def test_json_chunks_match_json_dumps(value):
    assert "".join(cli._json_chunks(value)) == json.dumps(value, indent=2, sort_keys=True)


def test_json_chunks_write_an_iterable_item_by_item():
    items = iter([{"b": [1, 2], "a": True}, [3]])
    assert "".join(cli._json_chunks({"rounds": items})) == json.dumps(
        {"rounds": [{"b": [1, 2], "a": True}, [3]]}, indent=2, sort_keys=True
    )
