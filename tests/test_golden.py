"""Golden CLI output: the JSON of every small verifier, of both exhaustive
QFT sweeps and of four sampled sweeps (the default `verify qft`, the 6/2
and 6/3 transforms and a sampled `verify teleport`), checked in from earlier
releases and compared byte for byte. The sampled files pin the seed's inputs and the outcomes
drawn from random.Random(seed), message bits included.

Only `max_infidelity` may move, and by at most 1e-12: it is a rounding-level
maximum over many rows, so a kernel that reorders floating-point work may
shift it by an ulp. Everything else (ledgers, rounds, branch counts, message
logs, verdicts, exit codes) must come out exactly as recorded.
"""

import re
from pathlib import Path

import pytest

from catnet.cli import main

GOLDEN = Path(__file__).parent / "golden"
INFIDELITY = re.compile(r'"max_infidelity": ([^,\n]+)')

COMMANDS = {
    f"verify-{name}.json": ["verify", name]
    for name in [
        "nonlocal-cnot", "teleport", "cat-roundtrip", "ghz", "refresh",
        "distributed-swap", "multi-control", "decompose-c4x", "amortized", "parallel-control",
    ]
}
COMMANDS["verify-qft-exhaustive.json"] = ["verify", "qft", "--branches", "exhaustive"]
COMMANDS["verify-qft-amortized-exhaustive.json"] = ["verify", "qft", "--amortized", "--branches", "exhaustive"]
# sampled sweeps: these pin which inputs and outcomes a seed draws
COMMANDS["verify-qft-sampled.json"] = ["verify", "qft"]
COMMANDS["verify-teleport-sampled.json"] = ["verify", "teleport", "--branches", "sampled"]
COMMANDS["verify-qft-6-2-sampled.json"] = ["verify", "qft", "--n", "6", "--m", "2"]
COMMANDS["verify-qft-6-3-sampled.json"] = ["verify", "qft", "--n", "6", "--m", "3"]


@pytest.mark.parametrize("filename", sorted(COMMANDS))
def test_cli_json_matches_golden(filename, capsys):
    code = main([*COMMANDS[filename], "--seed", "0"])
    out = capsys.readouterr().out
    want = (GOLDEN / filename).read_text(encoding="utf-8")
    assert code == 0
    assert INFIDELITY.sub("", out) == INFIDELITY.sub("", want)
    got, expected = INFIDELITY.findall(out), INFIDELITY.findall(want)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert abs(float(a) - float(b)) <= 1e-12, (a, b)
