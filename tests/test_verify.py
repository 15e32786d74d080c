"""The verifier layer's own machinery: the gate embedding its ideals are
built from, the matrix-free ideals of parallel control and the transform,
the per-row |0> check, the size refusal of the transform sweep, and that
a sweep's verdict comes from its Case alone, never from a protocol's own
oracle."""

import collections
import itertools
import random

import numpy as np
import pytest

from catnet import protocols, qstate, verify
from catnet.gates import CNOT, H, X, Z, ControlledSpec, make_controlled, make_rk
from catnet.network import CHANNEL, REGISTER, QubitAddress
from catnet.protocols import C4X
from reference import embed, qft_matrix
from test_cli import SUITE
from test_qft import dft_sum_oracle


@pytest.mark.parametrize("n", range(1, 7))
def test_embed_matches_kron_reference(n):
    rng = random.Random(n)
    for arity in range(1, min(3, n) + 1):
        for targets in itertools.permutations(range(n), arity):
            gate = verify._random_unitary(2**arity, rng)
            assert np.array_equal(verify._embed(gate, n, list(targets)), embed(gate, n, list(targets)))


def test_embed_matches_kron_reference_on_the_verifiers_gates():
    assert np.array_equal(verify._embed(C4X.matrix, 6, [0, 1, 2, 3, 5]), embed(C4X.matrix, 6, [0, 1, 2, 3, 5]))
    for g in (H, make_rk(2), X, Z, CNOT):
        cg = make_controlled(ControlledSpec(1, g)).matrix
        for targets in itertools.permutations(range(3), g.arity + 1):
            assert np.array_equal(verify._embed(cg, 3, list(targets)), embed(cg, 3, list(targets)))


def test_parallel_control_ideal_is_the_controlled_product(monkeypatch):
    """The matrix-free ideal maps a stack as the dense block diagonal
    |0><0| (x) I + |1><1| (x) U1 (x) U2 (x) U3 does."""
    seen = []
    monkeypatch.setattr(verify, "_verify", lambda sweep, cases, *a, **k: seen.extend(cases))
    verify.verify_parallel_control(seed=3)
    rng = random.Random(3)
    u1, u2, u3 = (verify._random_unitary(dim, rng) for dim in (4, 8, 4))
    on = np.diag([0.0, 1.0])
    want = np.kron(np.eye(2) - on, np.eye(128)) + np.kron(on, np.kron(np.kron(u1, u2), u3))
    stack = np.array([a for _, _, a in seen[0].inputs] + list(qstate.random_vectors(8, 5, random.Random(4))))
    got = seen[0].ideal(stack)
    assert got.shape == stack.shape
    assert np.allclose(got, stack @ want.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_transform_ideal_is_the_defining_matrix(n):
    stack = qstate.random_vectors(n, 3, random.Random(n))
    got = verify._transform(stack)
    assert np.allclose(got, stack @ qft_matrix(n).T, rtol=0, atol=1e-12)
    if n <= 6:
        assert np.allclose(got, stack @ dft_sum_oracle(n).T, rtol=0, atol=1e-12)


def test_transform_sweep_verifies_past_ten_qubits():
    report = verify.verify_protocol("qft", n=12, m=3, samples=2, branches="sampled")
    assert report.verified and report.branches_tested == 2
    assert report.max_infidelity <= 1e-10


@pytest.fixture
def no_dense_transform(monkeypatch):
    """Fail fast, instead of allocating, if a transform above the bound gets
    as far as drawing its input."""

    def guarded(draw):
        def call(n, *args):
            assert n <= 20, f"drew a {n}-qubit input"
            return draw(n, *args)

        return call

    for name in ("random_vector", "random_vectors"):
        monkeypatch.setattr(qstate, name, guarded(getattr(qstate, name)))


def test_transform_above_dense_bound_is_refused(no_dense_transform):
    with pytest.raises(ValueError, match=r"2\^21 amplitudes exceeds"):
        verify.verify_protocol("qft", n=21, m=1)
    with pytest.raises(ValueError, match=r"2\^21 amplitudes exceeds"):
        verify.verify_all(n=21, m=3)


def test_qubit_left_set_is_reported_on_its_row_only():
    """Two basis inputs ride one run as rows; a CNOT onto the channel sets
    it on input1's row alone, which fails its |0> check by name."""
    reg, chan = QubitAddress("A", REGISTER, 0), QubitAddress("A", CHANNEL, 0)

    def run(net):
        net.local_apply(CNOT, [reg, chan])
        return []

    inputs = [("input0", 0, np.array([1.0, 0.0])), ("input1", 1, np.array([0.0, 1.0]))]
    sweep = verify._Sweep("reset")
    verify._drive(sweep, verify.Case([("A", 1, 1)], 0, inputs, run, [reg], verify._apply(np.eye(2)), zero=[chan]), "exhaustive")
    assert sweep.max_infidelity <= 1e-12  # the register kept each input
    assert sweep.failures == [{"case": "input1", "not_reset": "A.channel[0]"}]


def test_no_sweep_runs_a_protocol_oracle(monkeypatch):
    """A sweep judges each run by its Case alone: neither every verifier in
    sampled mode nor the nine small ones in exhaustive mode run a
    protocol's own oracle, or copy a state for one to replay."""
    calls = collections.Counter()

    def counted(fn, name):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(protocols._Scope, "oracle_infidelity", counted(protocols._Scope.oracle_infidelity, "oracle"))
    monkeypatch.setattr(qstate.StateVector, "copy", counted(qstate.StateVector.copy, "copy"))
    reports = verify.verify_all(branches="sampled") + [verify.VERIFIERS[name](branches="exhaustive") for name in SUITE]
    assert all(rep.verified for rep in reports)
    assert calls == {}


def test_every_qubit_a_protocol_would_compare_is_in_its_case(monkeypatch):
    """Nothing a protocol's own oracle would compare goes unchecked by the
    sweep: every address a report leaves outside its `exclude` lies in the
    logical or zero list of the case that ran it. cat-roundtrip runs the
    primitives themselves, and its reports carry no ideal."""
    compared, running = [], []
    drive, report = verify._drive, protocols._Scope.report

    def driving(sweep, case, branches):
        running[:] = [sweep.name, case]
        return drive(sweep, case, branches)

    def reporting(self, name, ideal, exclude=(), **kwargs):
        skip = set(exclude)
        compared.append((*running, name, {a for a in self.net.ownership if a not in skip}))
        return report(self, name, ideal, exclude, **kwargs)

    monkeypatch.setattr(verify, "_drive", driving)
    monkeypatch.setattr(protocols._Scope, "report", reporting)
    verify.verify_all(branches="sampled")
    checked = set()
    for verifier, case, protocol, kept in compared:
        if verifier != "cat-roundtrip":
            checked.add(verifier)
            assert kept <= {*case.logical, *case.zero}, (verifier, protocol, sorted(map(str, kept)))
    assert checked == set(verify.VERIFIERS) - {"cat-roundtrip"}


@pytest.mark.parametrize("branches", ["exhaustive", "sampled"])
def test_every_report_logs_messages_exactly_when_it_sends_cbits(branches):
    """A verifier's message log is empty exactly when its ledger charges no
    cbits; the cat round trip once charged 2 cbits and logged none."""
    for rep in verify.verify_all(branches=branches):
        assert (rep.as_dict()["message_log"] == []) == (rep.ledger.cbits_sent == 0), rep.name
