"""Faults put into the protocols on purpose. A verifier must report each
one as a labelled failure: `verified` false and an entry that names the
failing positions, in exhaustive and in sampled mode, with no traceback,
and the CLI exits 1."""

import pytest

from catnet import qft
from catnet.cli import main
from catnet.verify import verify_qft

DIVERGES = "BranchDivergenceError"


@pytest.fixture
def no_reset_after_distribution(monkeypatch):
    """The transform leaves each distribution's two pair qubits measured:
    the next distribution then probes a channel qubit that reads 0 on some
    rows and 1 on others."""
    monkeypatch.setattr(qft, "reset_channel_qubits", lambda net, records: [])


@pytest.mark.parametrize(
    "branches,label",
    [("exhaustive", "branch000000000000..branch111111111111"), ("sampled", "sample0..sample199")],
)
def test_transform_without_channel_resets_is_a_labelled_failure(no_reset_after_distribution, branches, label):
    rep = verify_qft(n=4, m=2, amortized=True, branches=branches)
    assert rep.verified is False
    errors = [f for f in rep.details["failures"] if "error" in f]
    assert [(f["case"], f["error"]) for f in errors] == [(label, DIVERGES)]
    assert "M1.channel[0]" in errors[0]["message"]


def test_transform_without_channel_resets_exits_1(no_reset_after_distribution, capsys):
    assert main(["verify", "qft"]) == 1
    out, err = capsys.readouterr()
    assert DIVERGES in out and "Traceback" not in out + err
