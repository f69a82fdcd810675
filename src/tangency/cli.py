"""Batch command line: argument parsing and I/O only.

Subcommands:

* ``prove henon`` -- run the full tangency certification for the Henon
  family (henon.run_proof); exit 0 iff the verdict is VERIFIED.
* ``check-toy``   -- run the analytic model's certificate suite
  (toy.check_toy: covering chain, linear-link cones, switch blocks read off
  N_k's and M_s's cone forms, transversality read off the switch map).

Both run through one report path (_report), which times the driver, then
builds, writes and prints the report of either verdict; the report holds
the stage certificates themselves, which report.dumps encodes.  A
machine-readable JSON report goes to --report (or stdout when omitted); a
human summary always goes to stdout.  Exit codes: 0 verified, 1
inconclusive (failure locus and detail printed), 2 bad configuration or
usage (an unwritable --report path included), 3 internal enclosure
inconsistency (a bug, locus printed to stderr; no report is written).  A
reader that closes stdout early (``| head``) cuts the output short, not the
exit code.

The parser is built once, at import (_PARSER), and main parses with it, so
main may be called repeatedly in one process.  Each subcommand imports only
its own driver, when it runs: _cmd_prove imports tangency.henon and
_cmd_check_toy tangency.toy, at round-to-nearest, before the driver's
upward block, so importing this module loads neither.  A call leaves no cyclic
garbage: every object it allocates is freed by reference counting
(argparse's usage message excepted, whose help formatter is a cycle).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from tangency import report as report_mod
from tangency.covering import EnclosureError, VerificationInconclusive
from tangency.interval import IntervalError


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes an argument spelling a negative float,
    in any spelling float() reads ("-5e-1", "-1E6", "-.5", "-inf"), as a
    value, not as an option; argparse's own test knows only "-5" and
    "-0.5".  No option of this CLI starts with "-" and a digit."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def _build_parser():
    parser = _Parser(
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


def _henon_config(args, config):
    """config, a default HenonConfig, with the --config file's and the
    options' overrides set, validated."""
    overrides = {}
    if args.config:
        overrides = _load_config_file(args.config)
        if not isinstance(overrides, dict):
            _usage_error(f"config file {args.config} must hold a JSON object")
    for key in ("param_radius", "grid"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    corr = overrides.pop("correspondences", None)
    for key, val in overrides.items():
        if key not in config.FIELDS:
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


def _report(path, kind, config, driver, summary, extras=None):
    """Time driver(), then build, emit and print the report of its verdict.

    driver() calls henon.run_proof or toy.check_toy, whose result is taken
    as it is: the certificates by report stage, the stage timings and the
    VERIFIED report's further keys.  Or it raises covering.run_stages'
    VerificationInconclusive, which carries the stages certified before the
    failure and the time of every stage that ran, the failing one included:
    the report of either verdict has its stage timings and "total".
    summary(stages, more, verdict_line) gives a VERIFIED run's stdout
    lines; extras are report keys of either verdict.
    """
    t0 = time.perf_counter()
    try:
        stages, timings, more = driver()
        failure = None
    except VerificationInconclusive as exc:
        stages, timings, more = exc.certified, exc.timings, {}
        failure = {"stage": exc.stage, "locus": exc.locus, "detail": exc.detail}
    elapsed = time.perf_counter() - t0
    report = {"kind": kind, "config": config, "stages": stages,
              "verdict": "INCONCLUSIVE" if failure else "VERIFIED",
              "timings": {**timings, "total": elapsed}}
    if failure:
        report["failure"] = failure
    report.update(extras or {}, **more)
    _emit(report, path)
    if failure:
        _say(f"INCONCLUSIVE at {failure['stage']}: {failure['locus']}")
        if failure["detail"]:
            _say(f"  {failure['detail']}")
        return 1
    for line in summary(stages, more, f"verdict: VERIFIED ({elapsed:.2f} s)"):
        _say(line)
    return 0


def _cmd_prove(args):
    from tangency.henon import HenonConfig, run_proof

    config = _henon_config(args, HenonConfig())

    def summary(stages, more, verdict):
        lines = [f"covering chain: {len(stages['covering'])} relations certified",
                 f"cone conditions: {len(stages['cones'])} links certified"]
        for disk in (stages["stable_disk"], stages["unstable_disk"]):
            c = disk.constants
            lines.append(
                "%s disk: A >= %.12g, M <= %.12g, L <= %.12g, delta in [%.12g, %.12g]"
                % (disk.side, c.a_lower, c.m_upper, c.l_upper, *c.delta)
            )
        return lines + [verdict, more["conclusion"]["statement"]]

    return _report(args.report, "proof", _config_echo(config),
                   lambda: run_proof(config), summary)


def _cmd_check_toy(args):
    from tangency.toy import FLAGS, ToyParams, check_toy

    try:
        params = ToyParams(lam=args.lam, mu=args.mu, delta=args.delta,
                           eps=args.eps, grid=args.grid).validate()
    except IntervalError as exc:
        _usage_error(str(exc))

    def summary(stages, _more, verdict):
        return [f"toy chain: {len(stages['covering'])} coverings, "
                f"{len(stages['cones_linear_links'])} linear-link cones, "
                "switch blocks and transversality certified", verdict]

    echo = {"lam": params.lam, "mu": params.mu, "delta": params.delta,
            "eps": params.eps, "grid": params.grid}
    return _report(args.report, "toy-check", echo,
                   lambda: check_toy(params), summary, extras={"flags": list(FLAGS)})


_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
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
