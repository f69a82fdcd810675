#!/usr/bin/env python3
"""Digests of the reports and stdout of a fixed set of CLI calls on a tree.

    python tools/report_digest.py SRC [--draws N]

runs ``tangency.cli.main`` in-process, with the source tree ``SRC`` (the
directory holding the ``tangency`` package) first on ``sys.path``, for:

* ``prove henon`` at grids 1, 2 and 3;
* ``prove henon`` at ``--param-radius 1.1e-5`` and at ``5e-6``, both
  INCONCLUSIVE;
* ``prove henon --config`` with the 15 pairings the default proof detects,
  given (its report digest is the default call's), and with link 9's signs
  flipped, INCONCLUSIVE at ``N9=>N10``; each config file is written to a
  temporary directory, printed as ``<tmp>/NAME`` so that two runs diff;
* ``check-toy`` at the defaults, at ``--grid 2``, at
  ``--lam -3 --mu -0.4`` and at ``--lam -3e0 --mu -4e-1``, whose report
  digest is the ``--lam -3 --mu -0.4`` call's;
* ``check-toy --mu 0.99``, INCONCLUSIVE at ``chain-build`` with no
  stages (no chain end length up to its cap meets the entry target);
* the first N draws (default 150) of the benchmark's ``toy`` workload at
  seed 7, ``perfbench/workloads.make("toy", 7)``.

Each call prints one line: its argv, its exit code, a digest of its report,
a digest of its stdout and one digest per report stage, ``name=digest`` in
report order, so that a diff names the stage that moved.  The report and
stage digests drop ``timings``, write every float as its hex string and
keep key order; the stdout digest drops the ``verdict:`` line, which
carries the elapsed time.  A last line gives a digest of all the lines
before it.  Two trees are compared by diffing two runs:

    diff <(python tools/report_digest.py ../parent/src) \\
         <(python tools/report_digest.py src)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FIXED_CALLS = (
    ["prove", "henon", "--grid", "1"],
    ["prove", "henon", "--grid", "2"],
    ["prove", "henon", "--grid", "3"],
    ["prove", "henon", "--param-radius", "1.1e-5"],
    ["prove", "henon", "--param-radius", "5e-6"],
    ["prove", "henon", "--config", "<tmp>/pairings.json"],
    ["prove", "henon", "--config", "<tmp>/flipped.json"],
    ["check-toy"],
    ["check-toy", "--grid", "2"],
    ["check-toy", "--lam", "-3", "--mu", "-0.4"],
    ["check-toy", "--lam", "-3e0", "--mu", "-4e-1"],
    ["check-toy", "--mu", "0.99"],
)

# The pairing of each link of the default Henon proof, link index ->
# [[src_axis, tgt_axis, sign], ...].
PAIRINGS = {
    **{link: [[0, 0, 1], [3, 3, 1]] for link in range(8)},
    8: [[0, 2, 1], [3, 0, 1]],
    9: [[0, 0, 1], [2, 2, 1]],
    10: [[0, 0, -1], [2, 2, 1]],
    **{link: [[0, 0, 1], [2, 2, 1]] for link in range(11, 15)},
}
CONFIGS = {
    "pairings.json": {"correspondences": PAIRINGS},
    "flipped.json": {"correspondences": {
        **PAIRINGS, 9: [[i, j, -sign] for i, j, sign in PAIRINGS[9]],
    }},
}


def _bits(obj):
    """obj with every float as its hex string, dict order kept."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_bits(v) for v in obj]
    return obj


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(text):
    """The digest of the report and its stage digests, "name=digest" joined
    by spaces ("-" for no stage)."""
    report = json.loads(text)
    report.pop("timings", None)
    stages = " ".join(f"{name}={_digest(json.dumps(_bits(stage)))}"
                      for name, stage in report["stages"].items())
    return _digest(json.dumps(_bits(report))), stages or "-"


def stdout_digest(text):
    kept = [line for line in text.splitlines() if not line.startswith("verdict:")]
    return _digest("\n".join(kept))


def run(main, argv, path):
    """(exit code, report digest, stage digests, stdout digest) of one call
    writing its report to path; "-" for a report the call did not write."""
    if os.path.exists(path):
        os.remove(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv + ["--report", path])
        except SystemExit as exc:
            code = exc.code
    report = stages = "-"
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            report, stages = report_digest(fh.read())
    return code, report, stages, stdout_digest(out.getvalue())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="source tree holding the tangency package")
    parser.add_argument("--draws", type=int, default=150,
                        help="toy workload draws to run (default 150)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(PERFBENCH))
    from tangency.cli import main as cli_main
    import workloads

    toy = workloads.make("toy", 7)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        path = os.path.join(tmp, "report.json")
        calls = [list(c) for c in FIXED_CALLS]
        # The workload's argv ends with its own --report pair; drop it.
        calls += [toy.argv(i, path)[:-2] for i in range(args.draws)]
        for call in calls:
            argv = [arg.replace("<tmp>", tmp) for arg in call]
            code, report, stages, stdout = run(cli_main, argv, path)
            line = (f"{' '.join(call)}\texit {code}\treport {report}"
                    f"\tstdout {stdout}\tstages {stages}")
            lines.append(line)
            print(line, flush=True)
    print(f"total {_digest(chr(10).join(lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
