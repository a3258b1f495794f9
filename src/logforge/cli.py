"""Command line entry point.

Subcommands: validate, transform, simulate, dataset, fixture, oracle.
Exit codes: 0 success, 1 validation/diagnostic failure, 2 I/O or schema
errors.  Diagnostics go to stderr as one JSON object per line so they can be
asserted on in CI; all file writes are atomic.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

from . import dataset as ds
from . import fixtures, logio, oracle
from .nets import Net, validate_net
from .patterns import PatternApplication, UnknownPattern, applications_from_json
from .serialize import SCHEMA_VERSION, net_digest
from .simulate import ConfigInvalid, SimConfig, reject_unknown_keys, run
from .transform import InvalidMapping, OrderViolation, apply_sequence


def _emit_diagnostic(code: str, element: str, message: str) -> None:
    sys.stderr.write(json.dumps({"code": code, "element": element,
                                 "message": message}, sort_keys=True) + "\n")


@dataclass
class InvalidModel(Exception):
    """A model that `validate_net` rejects."""
    diagnostics: list


def _read_model(path: str) -> Net:
    """The model in `path`; one that `validate_net` rejects raises InvalidModel."""
    net = logio.read_model(path)
    if diagnostics := validate_net(net):
        raise InvalidModel(diagnostics)
    return net


def _cmd_validate(args) -> int:
    _read_model(args.model)
    return 0


def _read_applications(path: str) -> list[PatternApplication]:
    """A versioned {"applications": [...]} document, or a bare list; a defect is a ParseError."""
    doc = logio.load_json(path)
    try:
        if type(doc) is dict:
            logio.check_version(doc, path)
            reject_unknown_keys(doc, frozenset(("schema_version", "applications")),
                                "applications document")
            doc = doc.get("applications")
        if type(doc) is not list:
            raise ConfigInvalid("expected a list of pattern applications")
        return applications_from_json(doc, "applications")
    except ConfigInvalid as e:
        raise logio.ParseError(str(e), path) from None


def _cmd_transform(args) -> int:
    net = _read_model(args.model)
    apps = _read_applications(args.apply)
    transformed, ledger = apply_sequence(net, apps)
    logio.write_model(transformed, args.out)
    if args.ledger:
        logio.write_json(ledger.to_dict(), args.ledger)
    return 0


def _cmd_simulate(args) -> int:
    net = _read_model(args.model)
    config = SimConfig.from_dict(logio.read_json(args.config)) if args.config else SimConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    logio.write_run(run(net, config), args.out)
    return 0


def _cmd_dataset(args) -> int:
    net = _read_model(args.model)
    grid = ds.GridSpec.from_dict(logio.read_json(args.grid))
    if args.seed is not None:
        grid.master_seed = args.seed
    ds.generate(net, grid, args.out, jobs=args.jobs, keep_going=args.keep_going)
    return 0


def _cmd_fixture(args) -> int:
    net, grid = fixtures.fixture(args.name)
    if args.seed is not None:
        grid.master_seed = args.seed
    logio.write_model(net, os.path.join(args.out, "m0.json"))
    logio.write_json(grid.to_dict(), os.path.join(args.out, "grid.json"))
    return 0


def _cmd_oracle_align(args) -> int:
    m0 = _read_model(args.model)
    net = _read_model(args.net) if args.net else None
    digests = {"m0": net_digest(m0)}
    if net is not None:
        digests["ml"] = net_digest(net)
    trace = logio.read_trace(args.trace, net=net, digests=digests)
    log = logio.read_observed_jsonl(args.log)
    alignment = oracle.gt_alignment(m0, trace, log)
    oracle.write_alignment(alignment, args.out)
    return 0


def _cmd_oracle_report(args) -> int:
    trace = logio.read_trace(args.trace)
    report = oracle.deviation_report(trace)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out:
        logio.atomic_write(args.out, text + "\n")
    else:
        print(text)
    return 0


def _cmd_oracle_score(args) -> int:
    candidate = oracle.read_alignment(args.candidate)
    gt = oracle.read_alignment(args.gt)
    print(f"{oracle.move_distance(candidate, gt):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logforge",
        description="Synthetic process data with ground truth: pattern-transformed "
                    "typed Petri nets, simulated into fully linked event logs.")
    parser.add_argument("--version", action="version",
                        version=f"logforge schema {SCHEMA_VERSION}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check a model file against the net invariants")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("transform", help="apply pattern applications to a model")
    p.add_argument("--model", required=True)
    p.add_argument("--apply", required=True, help="JSON list of pattern applications")
    p.add_argument("--out", required=True)
    p.add_argument("--ledger", default=None)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("simulate", help="play out a model into trace + observed log")
    p.add_argument("--model", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("dataset", help="generate the full grid of logs")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override the grid master seed")
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(fn=_cmd_dataset)

    p = sub.add_parser("fixture", help="write a bundled base model and grid")
    p.add_argument("--name", required=True, choices=fixtures.FIXTURES)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("oracle", help="ground-truth alignments, reports, scoring")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    pa = osub.add_parser("align")
    pa.add_argument("--model", required=True,
                    help="the base (expected-behavior) model; its digest must be the trace's m0")
    pa.add_argument("--net", default=None,
                    help="optional transformed model for trace validation; its digest must be "
                         "the trace's ml")
    pa.add_argument("--trace", required=True)
    pa.add_argument("--log", required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(fn=_cmd_oracle_align)
    pr = osub.add_parser("report")
    pr.add_argument("--trace", required=True)
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=_cmd_oracle_report)
    psc = osub.add_parser("score")
    psc.add_argument("--candidate", required=True)
    psc.add_argument("--gt", required=True)
    psc.set_defaults(fn=_cmd_oracle_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidMapping, InvalidModel) as e:
        for d in e.diagnostics:
            _emit_diagnostic(d.code, d.element, d.message)
        return 1
    except (OrderViolation, UnknownPattern, ConfigInvalid,
            fixtures.UnknownFixture, ds.GenerationError, logio.ModelDigestMismatch,
            oracle.LogTraceMismatch, oracle.CoverageMismatch) as e:
        _emit_diagnostic(type(e).__name__, "", str(e))
        return 1
    except (logio.ParseError, logio.SchemaVersionMismatch) as e:
        _emit_diagnostic(type(e).__name__, "", str(e))
        return 2
    except OSError as e:
        _emit_diagnostic("IOError", getattr(e, "filename", "") or "", str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
