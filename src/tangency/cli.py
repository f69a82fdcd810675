"""Batch command-line driver.

Subcommands:

* ``prove henon`` -- run the full tangency certification for the Henon
  family; exit 0 iff the verdict is VERIFIED.
* ``check-toy``   -- run the analytic model's certificate suite (covering
  chain, linear-link cones, switch blocks, transversality determinant).

A machine-readable JSON report goes to --report (or stdout when omitted);
a human summary always goes to stdout.  Exit codes: 0 verified,
1 inconclusive (failure locus printed), 2 bad configuration or usage (an
unwritable --report path included), 3 internal enclosure inconsistency (a
bug, locus printed to stderr; no report is written).  A reader that closes
stdout early (``| head``) cuts the output short, not the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from tangency import kernels as _k
from tangency import report as report_mod
from tangency.cones import check_cone_link, rump_positive_definite
from tangency.covering import EnclosureError, VerificationInconclusive, check_chain
from tangency.henon import HenonConfig, run_proof
from tangency.hset import _check_grid
from tangency.interval import Interval, IntervalError
from tangency.toy import (
    ToyParams,
    build_toy_chain,
    linear_link_indices,
    switch_cone_blocks,
    transversality_determinant,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tangency",
        description=(
            "Rigorous certification of quadratic homoclinic tangencies "
            "unfolding generically in planar map families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="run a full tangency certification")
    prove.add_argument("family", choices=["henon"], help="map family to certify")
    prove.add_argument("--param-radius", type=float, default=None,
                       help="parameter interval radius (default 1e-5)")
    prove.add_argument("--grid", type=int, default=None,
                       help="wall subdivision count per axis (default 1)")
    prove.add_argument("--config", type=str, default=None,
                       help="JSON file with configuration overrides")
    prove.add_argument("--report", type=str, default=None,
                       help="path for the JSON report (stdout when omitted)")

    toy = sub.add_parser("check-toy", help="run the analytic model suite")
    toy.add_argument("--lam", type=float, default=2.0)
    toy.add_argument("--mu", type=float, default=0.5)
    toy.add_argument("--delta", type=float, default=0.5)
    toy.add_argument("--eps", type=float, default=0.01)
    toy.add_argument("--grid", type=int, default=1)
    toy.add_argument("--report", type=str, default=None)
    return parser


def _usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _usage_error(f"cannot read config file {path}: {exc}")


def _henon_config(args):
    overrides = {}
    if args.config:
        overrides = _load_config_file(args.config)
        if not isinstance(overrides, dict):
            _usage_error(f"config file {args.config} must hold a JSON object")
    for key in ("param_radius", "grid"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    corr = overrides.pop("correspondences", None)
    config = HenonConfig()
    keys = {f.name for f in dataclasses.fields(HenonConfig)}
    for key, val in overrides.items():
        if key not in keys:
            _usage_error(f"unknown configuration key {key!r}")
        setattr(config, key, val)
    if corr is not None:
        # A key must spell its index canonically: int() alone reads "01" and
        # "1" as one link, and "1_0" as link 10.
        try:
            config.correspondences = {int(k): v for k, v in corr.items()}
            canonical = all(k == str(int(k)) for k in corr)
        except (AttributeError, ValueError):  # not an object, or a key not an int
            canonical = False
        if not canonical:
            _usage_error("correspondences must map integer link indices to pairings")
    try:
        config.validate()
    except ValueError as exc:
        _usage_error(str(exc))
    return config


def _say(text):
    """Print to stdout.  Once the reader has closed the pipe, stdout is
    pointed at os.devnull, so the rest of the output, and the flush at
    interpreter exit, are dropped without a traceback and the verdict's exit
    code stands (see "Note on SIGPIPE" in the signal module's docs)."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report, path):
    text = report_mod.dumps(report)
    if not path:
        _say(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        _usage_error(f"cannot write report {path}: {exc}")


def _config_echo(config):
    return {
        "param_radius": config.param_radius,
        "grid": config.grid,
    }


def _certified_stages(certified):
    """Report stages of the certificates an inconclusive proof carries: a
    list per chain stage, one dict per disk."""
    return {
        key: [c.to_dict() for c in certs]
        if isinstance(certs, (list, tuple)) else certs.to_dict()
        for key, certs in certified.items()
    }


def _cmd_prove(args):
    config = _henon_config(args)
    t0 = time.perf_counter()
    try:
        cert = run_proof(config)
    except VerificationInconclusive as exc:
        elapsed = time.perf_counter() - t0
        report = report_mod.build_report(
            kind="proof",
            config=_config_echo(config),
            stages=_certified_stages(exc.certified),
            verdict="INCONCLUSIVE",
            timings={"total": elapsed},
            failure={"stage": exc.stage, "locus": exc.locus, "detail": exc.detail},
        )
        _emit(report, args.report)
        _say(f"INCONCLUSIVE at {exc.stage}: {exc.locus}")
        if exc.detail:
            _say(f"  {exc.detail}")
        return 1
    elapsed = time.perf_counter() - t0
    cert_dict = cert.to_dict()
    report = report_mod.build_report(
        kind="proof",
        config=_config_echo(config),
        stages={
            "covering": cert_dict["coverings"],
            "cones": cert_dict["cones"],
            "stable_disk": cert_dict["stable_disk"],
            "unstable_disk": cert_dict["unstable_disk"],
        },
        verdict="VERIFIED",
        timings={**cert.timings, "total": elapsed},
        extras={
            "conclusion": cert_dict["conclusion"],
            "hsets": cert_dict["hsets"],
            "forms": cert_dict["forms"],
        },
    )
    _emit(report, args.report)
    n_cov = len(cert.coverings)
    n_cone = len(cert.cones)
    _say(f"covering chain: {n_cov} relations certified")
    _say(f"cone conditions: {n_cone} links certified")
    for disk in (cert.stable_disk, cert.unstable_disk):
        c = disk.constants
        _say(
            "%s disk: A >= %.12g, M <= %.12g, L <= %.12g, delta in [%.12g, %.12g]"
            % (disk.side, c.a_lower, c.m_upper, c.l_upper, *c.delta)
        )
    _say(f"verdict: VERIFIED ({elapsed:.2f} s)")
    _say(cert.conclusion["statement"])
    return 0


def _cmd_check_toy(args):
    try:
        params = ToyParams(lam=args.lam, mu=args.mu, delta=args.delta,
                           eps=args.eps).validate()
        _check_grid(args.grid)
    except IntervalError as exc:
        _usage_error(str(exc))
    t0 = time.perf_counter()
    stages = {}
    failure = None
    verdict = "VERIFIED"
    chain = build_toy_chain(params)
    try:
        with _k.upward():
            coverings = check_chain(list(chain.sets), list(chain.maps), grid=args.grid)
            stages["covering"] = [c.to_dict() for c in coverings]

            cone_certs = []
            for idx in linear_link_indices(chain):
                try:
                    cone_certs.append(check_cone_link(
                        coverings[idx], chain.forms[idx], chain.forms[idx + 1]))
                except VerificationInconclusive as exc:
                    exc.certified = {"cones_linear_links": tuple(cone_certs)}
                    raise
            stages["cones_linear_links"] = [c.to_dict() for c in cone_certs]

            q1, q2 = switch_cone_blocks()
            r1 = rump_positive_definite(q1)
            r2 = rump_positive_definite(q2)
            stages["switch_blocks"] = {
                "Q1": r1.to_dict(),
                "Q2": r2.to_dict(),
            }
            if not (r1.positive_definite and r2.positive_definite):
                raise VerificationInconclusive(
                    "toy-switch", "tangency-point cone blocks", "not positive definite"
                )

            det = transversality_determinant(2.0, 3.0, 7.0)
            residual = det - Interval(2.0) * Interval(3.0)
            stages["transversality"] = {
                "det_sample": [det.lo, det.hi],
                "identity_residual": [residual.lo, residual.hi],
            }
            if not residual.contains(0.0):
                raise VerificationInconclusive(
                    "toy-transversality", "determinant identity", "residual excludes 0"
                )
    except VerificationInconclusive as exc:
        verdict = "INCONCLUSIVE"
        stages.update(_certified_stages(exc.certified))
        failure = {"stage": exc.stage, "locus": exc.locus, "detail": exc.detail}
    elapsed = time.perf_counter() - t0
    report = report_mod.build_report(
        kind="toy-check",
        config={
            "lam": params.lam,
            "mu": params.mu,
            "delta": params.delta,
            "eps": params.eps,
            "grid": args.grid,
        },
        stages=stages,
        verdict=verdict,
        timings={"total": elapsed},
        failure=failure,
        extras={"flags": list(chain.flags)},
    )
    _emit(report, args.report)
    if verdict == "VERIFIED":
        n = len(stages["covering"])
        _say(f"toy chain: {n} coverings, "
             f"{len(stages['cones_linear_links'])} linear-link cones, "
             "switch blocks and determinant identity certified")
        _say(f"verdict: VERIFIED ({elapsed:.2f} s)")
        return 0
    _say(f"INCONCLUSIVE at {failure['stage']}: {failure['locus']}")
    return 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"prove": _cmd_prove, "check-toy": _cmd_check_toy}
    try:
        return commands[args.command](args)
    except EnclosureError as exc:
        print(f"error: enclosure inconsistency at {exc.stage}: {exc.locus}",
              file=sys.stderr)
        print(f"  {exc.detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
