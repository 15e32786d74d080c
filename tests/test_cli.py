"""Command-line behavior: exit codes, output formats, determinism."""

import argparse
import collections
import json
import re
import subprocess
import sys

import pytest

from catnet.cli import RunConfig, build_parser, config_from_args, emit_report, main, run_verify
from catnet.network import ResourceLedger
from catnet.protocols import ProtocolReport

FAST = ["--branches", "sampled", "--samples", "3"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_protocol_json(capsys):
    code, out, _ = run_main(["verify", "nonlocal-cnot", *FAST], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["protocol"] == "nonlocal-cnot"
    assert reports[0]["verified"] is True


def test_verify_text_format(capsys):
    code, out, _ = run_main(["verify", "teleport", "--format", "text", *FAST], capsys)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert "protocol" in header and "verified" in header
    assert any("yes" in row for row in rows)


def test_demo_prints_message_trace(capsys):
    code, out, _ = run_main(["demo", "nonlocal-cnot", "--seed", "3"], capsys)
    assert code == 0
    assert "messages:" in out
    assert "->" in out


def test_qft_defaults_to_sampled(capsys):
    code, out, _ = run_main(["qft", "--samples", "4", "--seed", "1"], capsys)
    assert code == 0
    (report,) = json.loads(out)
    assert report["verified"] is True
    assert report["branches_tested"] == 4


def test_qft_bad_split_exits_2(capsys):
    code, _, err = run_main(["qft", "--n", "5", "--m", "2"], capsys)
    assert code == 2
    assert "must divide" in err


def test_exhaustive_sweep_too_wide_exits_2(capsys, monkeypatch):
    """2^32 branches would run for hours: refused before any run, pointing at sampling."""
    import catnet.verify as verify

    def no_runs(*args):
        raise AssertionError("a run was built")

    monkeypatch.setattr(verify, "_run", no_runs)
    code, out, err = run_main(["verify", "qft", "--n", "6", "--m", "3", "--branches", "exhaustive"], capsys)
    assert code == 2
    assert out == ""
    assert "--branches sampled" in err


@pytest.mark.parametrize("command", [["verify", "qft"], ["demo", "qft"], ["qft"], ["report"]])
def test_transform_above_dense_bound_exits_2(command, capsys, monkeypatch):
    """A transform whose input would exceed CHUNK_AMPLITUDES (n = 21) is
    refused before its input is drawn: each draw fails fast if reached."""
    from catnet import qstate

    def guarded(draw):
        def call(n, *args):
            assert n <= 20, f"drew a {n}-qubit input"
            return draw(n, *args)

        return call

    for name in ("random_vector", "random_vectors"):
        monkeypatch.setattr(qstate, name, guarded(getattr(qstate, name)))
    code, out, err = run_main([*command, "--n", "21", "--m", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "2^21 amplitudes exceeds" in err


def test_run_that_raises_is_a_labelled_failure(capsys, monkeypatch):
    """With the entangler's X corrections dropped, runs break the model's
    rules (divergent probes, a cat that is not one); each such run is a
    failure under its label range, and every report is still emitted."""
    from catnet import primitives
    from catnet.gates import IDENTITY

    monkeypatch.setattr(primitives, "X", IDENTITY)
    code, out, _ = run_main(["verify", "all"], capsys)
    reports = json.loads(out)
    assert code == 1
    assert len(reports) == 11
    raised = [f for r in reports for f in r["details"]["failures"] if "error" in f]
    assert raised and all(f["error"] and f["message"] for f in raised)
    assert any(".." in f["case"] for f in raised)


def test_missing_unnamed_section_is_labelled_by_its_verifier(capsys, monkeypatch):
    """A verifier whose main section is unnamed and never reported (every
    run raised) names the failure after itself, so no failure of `verify
    all` has an empty label."""
    from catnet import primitives
    from catnet.gates import IDENTITY

    monkeypatch.setattr(primitives, "X", IDENTITY)
    code, out, _ = run_main(["verify", "all"], capsys)
    reports = json.loads(out)
    assert code == 1
    failures = {r["protocol"]: r["details"]["failures"] for r in reports}
    assert all(f["case"] for fs in failures.values() for f in fs)
    missing = {name for name, fs in failures.items() if {"case": name, "missing_section": ""} in fs}
    assert missing >= {"nonlocal-cnot", "teleport", "distributed-swap", "multi-control", "parallel-control"}


@pytest.mark.parametrize(
    "protocol, samples, branches",
    [("nonlocal-cnot", 5, 10), ("nonlocal-cnot", 45, 40), ("decompose-c4x", 100, 131), ("amortized", 100, 96)],
    ids=["5-10", "45-40", "decompose-c4x", "amortized"],
)
def test_samples_are_spread_over_inputs(protocol, samples, branches, capsys):
    """--samples N is a total: a protocol gives each of its inputs N //
    inputs runs, and at least one. nonlocal-cnot has 10 inputs,
    decompose-c4x 67 distributed ones (its 64 monolithic basis states
    measure nothing and run once each), and amortized 12 over its 4 cases."""
    argv = ["verify", protocol, "--branches", "sampled", "--samples", str(samples)]
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert json.loads(out)[0]["branches_tested"] == branches


def test_unknown_protocol_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verified_false_exits_1(capsys, monkeypatch):
    import catnet.cli as cli

    bad = ProtocolReport(name="teleport", ledger=ResourceLedger(), rounds=0, verified=False)
    monkeypatch.setattr(cli, "verify_protocol", lambda *a, **k: bad)
    code, out, _ = run_main(["verify", "teleport"], capsys)
    assert code == 1
    assert json.loads(out)[0]["verified"] is False


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_main(["verify", "nonlocal-cnot", *FAST, "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    on_disk = target.read_text(encoding="utf-8")
    assert on_disk.endswith("\n")
    assert json.loads(on_disk)[0]["protocol"] == "nonlocal-cnot"


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, _, err = run_main(
        ["verify", "nonlocal-cnot", *FAST, "--output", str(tmp_path)], capsys
    )
    assert code == 2
    assert "cannot write" in err


def test_emit_report_empty_list_is_stable():
    assert emit_report([], "json") == "[]"


def _branches_help(parser, command):
    """The --branches help text of a subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    return next(a.help for a in sub._actions if a.dest == "branches")


def test_branches_default_depends_on_command():
    """The default mode differs by command, and each command's --branches
    help names it: "default: M" or "default: M, but N for C" names the mode
    that config_from_args picks for every invocation checked here."""
    parser = build_parser()
    assert config_from_args(parser.parse_args(["verify", "teleport"])).branches == "exhaustive"
    assert config_from_args(parser.parse_args(["verify", "qft"])).branches == "sampled"
    assert config_from_args(parser.parse_args(["qft"])).branches == "sampled"
    assert config_from_args(parser.parse_args(["report"])).branches == "exhaustive"
    args = parser.parse_args(["qft", "--branches", "exhaustive"])
    assert config_from_args(args).branches == "exhaustive"
    for argv in (["verify", "qft"], ["verify", "all"], ["verify", "teleport"], ["qft"], ["report"]):
        text = _branches_help(parser, argv[0])
        named = re.fullmatch(r"forced-branch enumeration mode \(default: (\w+)(?:, but (\w+) for ([\w -]+))?\)", text)
        assert named, text
        default, other, where = named.groups()
        said = other if where == " ".join(argv) else default
        assert said == config_from_args(parser.parse_args(argv)).branches, (argv, text)


def test_run_verify_unknown_protocol_raises():
    with pytest.raises(ValueError):
        run_verify(RunConfig(command="verify", protocol="no-such-thing"))


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["qft", "--n", "4", "--m", "2", "--seed", "9", "--samples", "5"]
    _, first, _ = run_main(argv, capsys)
    _, second, _ = run_main(argv, capsys)
    assert first == second


def test_console_entry_point_byte_identical():
    cmd = [
        sys.executable,
        "-m",
        "catnet.cli",
        "verify",
        "cat-roundtrip",
        "--seed",
        "7",
        "--branches",
        "sampled",
        "--samples",
        "4",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip().startswith(b"[")


def test_demo_qft_runs_one_branch():
    config = config_from_args(build_parser().parse_args(["demo", "qft", "--seed", "2"]))
    status, (report,) = run_verify(config)
    assert status == 0
    assert report.branches_tested == 1


@pytest.mark.parametrize("command", [["report"], ["verify", "all"]])
def test_sweep_of_everything_passes_qft_options(command, monkeypatch, capsys):
    """Regression: report and verify all dropped --n and --m, so the qft
    sweep silently ran its 4-qubit, 2-machine default."""
    from catnet import verify

    seen = {}

    def recorder(name):
        def run(**kwargs):
            seen[name] = kwargs
            return ProtocolReport(name=name, ledger=ResourceLedger(), rounds=0, verified=True)

        return run

    monkeypatch.setattr(verify, "VERIFIERS", {name: recorder(name) for name in verify.VERIFIERS})
    argv = [*command, "--n", "6", "--m", "3", "--branches", "sampled", "--samples", "5"]
    code, _, _ = run_main(argv, capsys)
    assert code == 0
    common = {"seed": 0, "branches": "sampled", "samples": 5}
    assert seen["qft"] == {**common, "n": 6, "m": 3, "amortized": False}
    assert seen["teleport"] == common


@pytest.mark.parametrize("command", [["report"], ["verify", "all"]])
def test_sweep_of_everything_keeps_each_sample_count(command, monkeypatch, capsys):
    """Regression: without --samples, every verifier was handed 200 samples
    instead of running its own default count."""
    from catnet import verify

    seen = {}

    def recorder(name):
        def run(**kwargs):
            seen[name] = kwargs
            return ProtocolReport(name=name, ledger=ResourceLedger(), rounds=0, verified=True)

        return run

    monkeypatch.setattr(verify, "VERIFIERS", {name: recorder(name) for name in verify.VERIFIERS})
    code, _, _ = run_main([*command, "--branches", "sampled"], capsys)
    assert code == 0
    assert set(seen) == set(verify.VERIFIERS)
    assert all("samples" not in kwargs for kwargs in seen.values())
    assert seen["teleport"] == {"seed": 0, "branches": "sampled"}


# the nine small exhaustive verifiers the benchmark's protocol-suite runs
SUITE = [
    "nonlocal-cnot",
    "teleport",
    "cat-roundtrip",
    "refresh",
    "distributed-swap",
    "multi-control",
    "decompose-c4x",
    "amortized",
    "parallel-control",
]


@pytest.mark.parametrize("seed", [1, 7])
def test_protocol_suite_traffic(seed, tmp_path, monkeypatch):
    """The nine small verifiers through the CLI's JSON path, as the
    benchmark's protocol-suite runs them, make 259 gate applications (149
    permutation, 34 diagonal, 76 general), 120 probes and 67 measurements
    on 22 networks, whatever the seed. No protocol checks itself in a
    sweep, so none of these gates replays an ideal."""
    from catnet import qstate
    from catnet.network import Network

    counts = collections.Counter()
    apply_gate, probe, measure, init = qstate.apply_gate, qstate.partial_state_check, qstate.measure, Network.__init__

    def counted(fn, name=None):
        """fn, counting each call under `name`, or a gate's kind if None."""

        def call(*args, **kwargs):
            counts[name or args[1].kind] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(qstate, "apply_gate", counted(apply_gate))
    monkeypatch.setattr(qstate, "partial_state_check", counted(probe, "probe"))
    monkeypatch.setattr(qstate, "measure", counted(measure, "measure"))
    monkeypatch.setattr(Network, "__init__", counted(init, "network"))
    codes = [main(["verify", name, "--seed", str(seed), "--output", str(tmp_path / f"{name}.json")]) for name in SUITE]
    assert codes == [0] * len(SUITE)
    assert counts == {"permutation": 149, "diagonal": 34, "general": 76, "probe": 120, "measure": 67, "network": 22}


def test_workers_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "qft", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "teleport", "--branches", "sampled", "--samples", "-3"],
        ["verify", "qft", "--samples", "0"],
    ],
)
def test_samples_below_one_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_samples_with_exhaustive_branches_exit_2(capsys):
    """Regression: the exhaustive sweep silently ignored --samples."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "teleport", "--samples", "7"])
    assert exc.value.code == 2
    assert "--branches sampled" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--branches", "sampled"], ["--samples", "2"], ["--format", "json"], ["--format", "text"]]
)
def test_demo_rejects_sweep_flags(flags, capsys):
    """Regression: demo accepted --branches and --samples and then overrode
    them, and accepted --format and printed its text trace anyway."""
    with pytest.raises(SystemExit) as exc:
        main(["demo", "teleport", *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--n", "4"], ["--m", "2"], ["--amortized"], ["--n", "6", "--amortized"]])
def test_qft_options_rejected_for_other_protocols(flags, capsys):
    """Regression: demo accepted --n, --m and --amortized for any protocol and ignored them."""
    for command in ("verify", "demo"):
        with pytest.raises(SystemExit) as exc:
            main([command, "teleport", *flags])
        assert exc.value.code == 2
        assert "qft sweep only" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    """A rejected call leaves nothing behind in the shared parser: the next
    valid call prints what it prints in a fresh process."""
    argv = ["verify", "nonlocal-cnot", *FAST]
    _, first, _ = run_main(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "teleport", "--samples", "7"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again, _ = run_main(argv, capsys)
    assert code == 0 and again == first
    assert build_parser() is build_parser()
    fresh = subprocess.run([sys.executable, "-m", "catnet.cli", *argv], capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0 and fresh.stdout == first


@pytest.mark.parametrize(
    "argv",
    [["verify", "ghz"], ["verify", "teleport"], ["demo", "teleport"], ["qft"], ["report"]],
    ids=" ".join,
)
def test_negative_seed_exits_2(argv, capsys):
    """Every command refuses a negative seed before any run, naming the flag."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--seed must be non-negative, got -1" in err
