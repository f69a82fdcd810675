#!/usr/bin/env python3
"""Layer and end-to-end timings of source trees, as one JSON document.

    python tools/bench_layers.py --tree parent=../parent/src --tree change=src \\
        --runs 9 > BENCH_11.json

Each run starts a fresh interpreter per tree, with the tree first on
``sys.path``; the trees alternate which goes first from one run to the next.
Inside a run every measurement is taken once untimed (warm-up), then timed
``--repeat`` times: one call of interval ``sin``, ``cos`` and ``atan`` is the
mean of a ``--calls``-call loop, on a thin chart-domain argument and on one
``1e-5`` wide; the matrix, jet and cone layers are the mean of a
``--calls // 10``-call loop (a covering link of a ``--calls // 200``-call
loop) on the grid-1 Henon chain: ``inverse_enclosure`` of N1's 4x4
``coord``, a 4x4 ``mat_mul`` (N1's ``inv_coord`` times the chart Jacobian
over N0), ``ChartMap.derivative`` over N0's box, a thin ``ChartMap.apply``
on N0's center with every output (the image angle included),
``hset.local_derivative`` of that Jacobian from N0 to N1, one 4x4
``rump_positive_definite`` (the cone matrix of N0=>N1) and
``check_covering`` on N0=>N1, whose walls never read the image angle, and
on N9=>N10, two of whose walls do; ``report.dumps``
of the grid-1 ``prove henon`` report, as parsed back from the file it
wrote, is the mean of a ``--calls // 200``-call loop; and
``run_proof()`` at grid 1 and grid 2 is one call, whose per-stage
``timings`` (build, covering, cones, disks) are recorded beside its
total.  The document holds, per tree and measurement, the minimum over
all timed runs.

The layer loops pass IntervalVector boxes to ``ChartMap.derivative`` and
the ``ChartMap`` itself to ``check_covering``, as ``run_proof`` does; the
sin, cos, atan, matrix, jet, cone and covering loops run inside one
``kernels.upward()`` block, as the proof runs them.  So it compares only
source trees whose ``tangency.kernels`` has ``upward`` and whose
``check_covering`` takes the ``ChartMap`` unwrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

T = 1.2345678  # a chart-domain angle, quadrant k = 1
WIDE = 1e-5


def _best(f, repeat, number=1):
    """The minimum over repeat timings of number calls of f, per call."""
    f()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            f()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def _grid1_report():
    """The grid-1 ``prove henon`` report, parsed back from its file."""
    from tangency import report
    from tangency.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["prove", "henon", "--report", path])
        with open(path, encoding="utf-8") as fh:
            return report.loads(fh.read())


def _one_run(calls, repeat):
    from tangency import report
    from tangency.cones import cone_matrix, rump_positive_definite
    from tangency.covering import check_covering
    from tangency.henon import HenonConfig, build_chain, henon_family, run_proof
    from tangency.hset import local_derivative
    from tangency.interval import Interval
    from tangency.kernels import upward
    from tangency.linalg import IntervalVector, inverse_enclosure
    from tangency.projective import ChartMap

    out = {}
    with upward():
        for kind, x in (("thin", Interval(T)), ("wide", Interval(T, T + WIDE))):
            for name in ("sin", "cos", "atan"):
                out[f"interval.{name}_{kind}_us"] = _best(getattr(x, name), repeat, calls) * 1e6

    chain = build_chain()
    chart = ChartMap(henon_family())
    src, tgt = chain.sets[0], chain.sets[1]
    center = IntervalVector(src.center)
    with upward():
        box = src.box()
        _, jacobian = chart.derivative(box)
        link = check_covering(src, tgt, chart)
        v = cone_matrix(link.local_jacobian, chain.forms[0], chain.forms[1])
    doc = _grid1_report()
    layers = (
        ("linalg.inverse_enclosure_4x4_us", lambda: inverse_enclosure(tgt.coord),
         calls // 10),
        ("linalg.mat_mul_4x4_us", lambda: tgt.inv_coord.mat_mul(jacobian), calls // 10),
        ("projective.derivative_us", lambda: chart.derivative(box), calls // 10),
        ("projective.apply_thin_us", lambda: chart.apply(center), calls // 10),
        ("hset.local_derivative_us", lambda: local_derivative(src, tgt, jacobian),
         calls // 10),
        ("cones.rump_4x4_us", lambda: rump_positive_definite(v), calls // 10),
        ("covering.link_N0_N1_us",
         lambda: check_covering(src, tgt, chart), calls // 200),
        ("covering.link_N9_N10_us",
         lambda: check_covering(chain.sets[9], chain.sets[10], chart), calls // 200),
    )
    with upward():
        for key, f, number in layers:
            out[key] = _best(f, repeat, max(number, 1)) * 1e6
    out["report.dumps_us"] = _best(lambda: report.dumps(doc), repeat, max(calls // 200, 1)) * 1e6

    for grid in (1, 2):
        config = HenonConfig(grid=grid)
        run_proof(config)
        for _ in range(repeat):
            t0 = time.perf_counter()
            cert = run_proof(config)
            times = {f"run_proof.grid{grid}_s": time.perf_counter() - t0}
            for stage, seconds in cert.timings.items():
                times[f"run_proof.grid{grid}.{stage}_s"] = seconds
            for key, seconds in times.items():
                out[key] = min(seconds, out.get(key, seconds))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tree", action="append", default=[],
                        help="NAME=SRC_DIR, the directory holding the tangency package")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(_one_run(args.calls, args.repeat)))
        return
    trees = [spec.split("=", 1) for spec in args.tree]
    best = {name: {} for name, _ in trees}
    for run in range(args.runs):
        order = trees if run % 2 == 0 else trees[::-1]
        for name, src in order:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            done = subprocess.run(
                [sys.executable, __file__, "--one", "--calls", str(args.calls),
                 "--repeat", str(args.repeat)],
                env=env, check=True, capture_output=True, text=True,
            )
            for key, value in json.loads(done.stdout).items():
                best[name][key] = min(value, best[name].get(key, value))
    print(json.dumps({
        "command": " ".join(["python", "tools/bench_layers.py"] + sys.argv[1:]),
        "statistic": f"min of {args.runs * args.repeat} warm runs "
                     f"({args.runs} interpreters x {args.repeat})",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "results": best,
    }, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
