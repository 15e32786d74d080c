"""Command-line front end.

Four commands:

  verify <protocol|all>   run a protocol's branch sweep, exit 0 iff verified
  demo <protocol>         a sampled sweep, one run per input and case, with
                          the messages of the first run that sent any
  qft                     distributed Fourier transform sweep (--n, --m)
  report                  run everything and emit one merged document

Reports are emitted as JSON (stable field names, sorted keys, fixed
indentation, so identical seeds give byte-identical output) or as an
aligned text table.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from .protocols import ProtocolReport
from .verify import VERIFIERS, verify_all, verify_protocol

PROTOCOLS = sorted(VERIFIERS)


@dataclass
class RunConfig:
    command: str
    protocol: str = "all"
    seed: int = 0
    branches: str = "exhaustive"
    samples: int | None = None
    n: int = 4
    m: int = 2
    amortized: bool = False
    output: str | None = None
    format: str = "json"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="catnet",
        description="Verify entanglement-mediated distributed gate protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, branches: str | None) -> None:
        """The shared flags; the sweep flags too unless `branches`, the
        text that names the default enumeration mode, is None."""
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        if branches is not None:
            p.add_argument(
                "--branches",
                choices=["exhaustive", "sampled"],
                default=None,
                help=f"forced-branch enumeration mode (default: {branches})",
            )
            p.add_argument(
                "--samples",
                type=int,
                default=None,
                help="sampled runs in all, at least 1, spread over a protocol's inputs and cases with at"
                " least one run each (default: each protocol's own count)",
            )
            p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run one protocol's verification sweep")
    p_verify.add_argument("protocol", choices=PROTOCOLS + ["all"])
    p_verify.add_argument("--n", type=int, default=None, help="qubits (qft only, default 4)")
    p_verify.add_argument("--m", type=int, default=None, help="machines (qft only, default 2)")
    p_verify.add_argument("--amortized", action="store_true", help="qft only")
    common(p_verify, "exhaustive, but sampled for verify qft")

    p_demo = sub.add_parser(
        "demo", help="a sampled sweep, one run per input and case, with the messages of the first run that sent any"
    )
    p_demo.add_argument("protocol", choices=PROTOCOLS)
    p_demo.add_argument("--n", type=int, default=None, help="qubits (qft only, default 4)")
    p_demo.add_argument("--m", type=int, default=None, help="machines (qft only, default 2)")
    p_demo.add_argument("--amortized", action="store_true", help="qft only")
    common(p_demo, None)

    p_qft = sub.add_parser("qft", help="distributed Fourier transform sweep")
    p_qft.add_argument("--n", type=int, default=4, help="total qubits (multiple of --m)")
    p_qft.add_argument("--m", type=int, default=2, help="number of machines")
    p_qft.add_argument("--amortized", action="store_true", help="regroup repeated control lines")
    common(p_qft, "sampled")

    p_report = sub.add_parser("report", help="verify every protocol, emit one document")
    p_report.add_argument("--n", type=int, default=4)
    p_report.add_argument("--m", type=int, default=2)
    common(p_report, "exhaustive")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run the arguments ask for; ValueError for a flag that would do nothing."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    protocol = getattr(args, "protocol", "qft" if args.command == "qft" else "all")
    branches = getattr(args, "branches", None)
    if branches is None:
        # the 4-qubit transform already has 2^16 forced branches; keep the
        # default invocation quick and leave the full sweep opt-in
        branches = "sampled" if protocol == "qft" else "exhaustive"
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    if samples is not None and branches == "exhaustive":
        raise ValueError("--samples applies to sampled branches only; add --branches sampled")
    n, m = getattr(args, "n", None), getattr(args, "m", None)
    if args.command in ("verify", "demo") and protocol not in ("qft", "all"):
        if n is not None or m is not None or args.amortized:
            raise ValueError(f"--n, --m and --amortized apply to the qft sweep only, not {protocol}")
    return RunConfig(
        command=args.command,
        protocol=protocol,
        seed=args.seed,
        branches=branches,
        samples=samples,
        n=4 if n is None else n,
        m=2 if m is None else m,
        amortized=getattr(args, "amortized", False),
        output=args.output,
        format=getattr(args, "format", "json"),
    )


def run_verify(config: RunConfig) -> tuple[int, list[ProtocolReport]]:
    """Run the configured sweep(s); exit status 0 iff everything verified."""
    kwargs: dict[str, Any] = {"seed": config.seed, "branches": config.branches}
    if config.samples is not None:
        kwargs["samples"] = config.samples
    if config.command == "demo":
        kwargs.update(branches="sampled", samples=1)
    qft_options = {"n": config.n, "m": config.m, "amortized": config.amortized}
    if config.protocol == "all":
        reports = verify_all(**kwargs, **qft_options)
    elif config.protocol == "qft":
        reports = [verify_protocol("qft", **kwargs, **qft_options)]
    else:
        reports = [verify_protocol(config.protocol, **kwargs)]
    status = 0 if all(r.verified for r in reports) else 1
    return status, reports


_TEXT_COLUMNS = [
    ("protocol", "{:<18}"),
    ("branches", "{:>10}"),
    ("ebits", "{:>6}"),
    ("cbits", "{:>6}"),
    ("moved", "{:>6}"),
    ("rounds", "{:>7}"),
    ("max-infid", "{:>12}"),
    ("verified", "{:>9}"),
]


def _text_table(reports: Sequence[ProtocolReport]) -> list[str]:
    lines = ["  ".join(fmt.format(title) for title, fmt in _TEXT_COLUMNS)]
    for r in reports:
        led = r.ledger.as_dict()
        infid = "-" if r.max_infidelity is None else f"{r.max_infidelity:.3e}"
        verified = {True: "yes", False: "NO", None: "-"}[r.verified]
        cells = [
            r.name,
            str(r.branches_tested),
            str(led["ebits"]),
            str(led["cbits"]),
            str(led["qubits_transported"]),
            str(r.rounds),
            infid,
            verified,
        ]
        lines.append("  ".join(fmt.format(c) for (_, fmt), c in zip(_TEXT_COLUMNS, cells)))
    return lines


def emit_report(reports: Sequence[ProtocolReport], format: str = "json") -> str:
    """Serialize reports; identical inputs give byte-identical output."""
    if format == "json":
        return json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True)
    lines = _text_table(reports)
    for r in reports:
        failures = r.details.get("failures", [])
        for f in failures:
            lines.append(f"  [FAIL] {r.name}: {json.dumps(f, sort_keys=True)}")
    return "\n".join(lines)


def _demo_trace(report: ProtocolReport) -> str:
    lines = _text_table([report])
    lines.append("messages:")
    log = report.as_dict()["message_log"]
    if not log:
        lines.append("  (none)")
    for msg in log:
        lines.append(f"  {msg['from']} -> {','.join(msg['to'])}: {msg['bit']}  [{msg['tag']}]")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        status, reports = run_verify(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if config.command == "demo":
        document = _demo_trace(reports[0])
    else:
        document = emit_report(reports, config.format)

    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(document)
    return status


if __name__ == "__main__":
    sys.exit(main())
