#!/usr/bin/env python3
"""Layer and end-to-end timings of source trees, as one JSON document.

    python tools/bench_layers.py --tree parent=../parent/src --tree change=src \\
        --runs 9 > BENCH_38.json

Each run starts a fresh interpreter per tree, with the tree first on
``sys.path``; the trees alternate which goes first from one run to the next.
Inside a run every measurement is taken once untimed (warm-up), then timed
``--repeat`` times, and the run keeps the minimum.  The layers are the mean
of a ``--calls // 10``-call loop (a covering link of a ``--calls // 200``-call
loop) on the grid-1 Henon chain, built to nearest as ``run_proof`` builds
it: ``inverse_enclosure`` of N1's 4x4
``coord``, a 4x4 matrix product (N1's ``inv_coord`` times the chart
Jacobian over N0: ``linalg.mat_mul`` on rows of pairs),
``ChartMap.derivative`` over N0's box, the chart's direction row
alone (``ChartMap.derivative`` on output 2 over N9's box: the slope row, or
the angle row on a tree with the angle chart), a thin ``ChartMap.apply`` on
N0's center with every output (the image direction included),
one ``HSet`` built from N1's rows (center, ``coord``, diameters and
unstable axes), the cone matrix of N0=>N1 (``cones.cone_matrix`` of its covering
certificate's local_jacobian and the forms of N0 and N1), one 4x4
``rump_positive_definite`` (of that cone matrix), the same test on the
default toy chain's N0=>N1 cone matrix (diagonal), and
``check_covering`` on N0=>N1, whose walls never read the image direction,
and on N9=>N10, two of whose walls do; ``check_covering`` on the default
toy chain's N0=>N1, a linear link, and on its switch link N4=>M5, with
the chain's own maps, ``build_toy_chain()`` at the defaults, built to
nearest as ``check-toy`` builds it, the disk constants
(``manifold.verify_disk_us``, one stable-side ``verify_disk`` at grid 1:
its self-covering, cone certificate and constants), and ``report.dumps``
of the grid-1 ``prove henon`` report, as parsed back from the file it wrote, are each the
mean of a ``--calls // 200``-call loop; ``prove henon`` at grid 1 and
grid 2 is one CLI call, whose report's ``timings`` (build, covering,
cones, disks and the driver's total) are recorded; and ``check_toy_s`` is one
``check-toy`` CLI call at the defaults, report file included.  Beside the
timings, ``gc.cyclic_prove_henon`` and ``gc.cyclic_check_toy`` count the
unreachable objects that one CLI call at the defaults leaves for the
cyclic garbage collector (the count ``gc.collect()`` returns after a
warm-up call and one call with the collector off), and
``gc.young_per_100_check_toy`` and ``gc.full_per_100_check_toy`` the
collections of generation 0 and of generation 2 run during 100
``check-toy`` calls; ``gc.young_per_100_prove_henon`` and
``gc.full_per_1000_prove_henon`` count them during 1000 ``prove henon``
calls, per 100 and per 1000 calls.  ``covering.subbox_us`` is the sub-box
evaluations of one grid-1 proof: every ``covering._image_normalized`` call
that ``run_proof()`` makes (its arguments recorded once by wrapping it),
replayed in order in an upward block.  ``kernels.acc_term_ns`` is one
dot-product term, ``acc = iadd(acc, imul(a, b))``, in an upward block, the
mean of a ``--calls * 50``-term loop on (lo, hi) pairs.  A layer is timed only
where the tree has what it calls; where it does not (an ImportError or
AttributeError while the layer is set up), the tree's value is null.

Each run also times fresh interpreters, each value the minimum over
``--repeat`` of them, started one after another:
``cli_process_ms.prove_henon``, ``.prove_henon_grid2`` and ``.check_toy``
are one CLI call each, as the ``tangency`` script makes it, and
``import_ms`` is ``import tangency.cli`` less ``python -c pass``.  Each is
taken twice: ``.pyc``, with the bytecode cache that one untimed call of
each wrote under a temporary ``PYTHONPYCACHEPREFIX``, and ``.no_pyc``,
with ``PYTHONDONTWRITEBYTECODE`` set, so that every call compiles the
package.  Both run a copy of the package made, without its
``__pycache__``, in a temporary directory, so the tree measured stays
clean.

The document holds, per tree and measurement, ``min``, the minimum over all
runs, and the ``median`` and ``spread``, the interquartile range over the
median, of the runs' values: a difference between two trees that is not
well above both spreads is noise.

The layer loops build the chart map as ``ChartMap(forward)``, of the
first of ``henon_family()``'s two evaluators, pass boxes to
``ChartMap.derivative`` and ``ChartMap.apply`` as the map protocol takes
them, tuples of ``(lo, hi)`` pairs, and the ``ChartMap`` itself to
``check_covering`` and ``verify_disk``, as ``run_proof`` does; the
matrix layers take the chart Jacobian's rows of pairs.
The matrix, chart map, cone, covering and disk loops run inside one
``kernels.upward()`` block, as the proof runs them.  So it compares only
source trees whose ``tangency.kernels`` has ``upward``, whose
``check_covering`` takes the ``ChartMap`` unwrapped, whose map protocol
speaks pairs and whose ``ChartMap`` takes one evaluator.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from functools import partial


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


def _prove_report(grid=1):
    """The ``prove henon`` report at grid, parsed back from its file."""
    from tangency import report
    from tangency.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["prove", "henon", "--grid", str(grid), "--report", path])
        with open(path, encoding="utf-8") as fh:
            return report.loads(fh.read())


def _cli_call(argv):
    """One CLI call, its report written to a temporary file."""
    from tangency.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv + ["--report", os.path.join(tmp, "report.json")])


def _check_toy():
    """One ``check-toy`` CLI call at the defaults."""
    _cli_call(["check-toy"])


def _cyclic_garbage(argv):
    """The count of unreachable objects that one CLI call, after a warm-up
    call, leaves for the cyclic garbage collector."""
    _cli_call(argv)
    gc.collect()
    gc.disable()
    try:
        _cli_call(argv)
        return gc.collect()
    finally:
        gc.enable()


def _gc_collections(argv, calls):
    """(young, full): the collections of generation 0 and of generation 2
    that the collector runs during calls CLI calls of argv."""
    gc.collect()
    before = gc.get_stats()
    for _ in range(calls):
        _cli_call(argv)
    after = gc.get_stats()
    return tuple(after[gen]["collections"] - before[gen]["collections"] for gen in (0, 2))


def _subbox_calls():
    """The arguments of every ``covering._image_normalized`` call of one
    grid-1 ``run_proof()``, in order, recorded by wrapping it for that
    run."""
    from tangency import covering
    from tangency.henon import run_proof

    calls = []
    evaluate = covering._image_normalized

    def recording(*args):
        calls.append(args)
        return evaluate(*args)

    covering._image_normalized = recording
    try:
        run_proof()
    finally:
        covering._image_normalized = evaluate
    return calls


def _subboxes(calls):
    """The sub-box evaluations of calls, replayed in order."""
    from tangency.covering import _image_normalized

    def run():
        for args in calls:
            _image_normalized(*args)
    return run


def _acc_term_timer():
    """A timeit.Timer of one dot-product term, acc = iadd(acc, imul(a, b)),
    on (lo, hi) pairs.  Built outside any upward block, since it compiles
    its source."""
    return timeit.Timer("acc = iadd(acc, imul(a, b))", setup=(
        "from tangency.kernels import iadd, imul\n"
        "a, b, acc = (1.5, 2.5), (-0.25, 0.75), (0.0, 0.0)"))


_CLI = "import sys; from tangency.cli import main; sys.exit(main(sys.argv[1:]))"
_PROCESS_CALLS = (
    ("pass", ["-c", "pass"]),
    ("import", ["-c", "import tangency.cli"]),
    ("prove_henon", ["-c", _CLI, "prove", "henon"]),
    ("prove_henon_grid2", ["-c", _CLI, "prove", "henon", "--grid", "2"]),
    ("check_toy", ["-c", _CLI, "check-toy"]),
)


def _process_call(args, env, cwd):
    """The wall time in ms of one fresh interpreter running args."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable] + args, env=env, cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * 1e3


def _process_ms(processes):
    """``cli_process_ms.<call>.<cache>`` and ``import_ms.<cache>``, in ms,
    each the minimum over processes fresh interpreters (module docstring),
    run on a copy of the package in a temporary directory."""
    import tangency

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.dirname(tangency.__file__), os.path.join(src, "tangency"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        envs = {"pyc": dict(base, PYTHONPATH=src,
                            PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache")),
                "no_pyc": dict(base, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")}
        for cache, env in envs.items():
            if cache == "pyc":
                for _, args in _PROCESS_CALLS:
                    _process_call(args, env, tmp)
            best = {}
            for _ in range(processes):
                for name, args in _PROCESS_CALLS:
                    best[name] = min(_process_call(args, env, tmp), best.get(name, float("inf")))
            out[f"import_ms.{cache}"] = best["import"] - best["pass"]
            for name, _ in _PROCESS_CALLS[2:]:
                out[f"cli_process_ms.{name}.{cache}"] = best[name]
    return out


def _resolve(module, name):
    """tangency.<module>.<name>; ImportError or AttributeError if the tree
    does not have it."""
    return getattr(importlib.import_module(f"tangency.{module}"), name)


def _layers(calls):
    """(key, setup, number) per layer: setup(), called in an upward block,
    returns the callable to time, with every function it calls resolved, so
    it raises ImportError or AttributeError on a tree without one."""
    from tangency.henon import build_chain, henon_family, projected_disk_data
    from tangency.kernels import nearest, upward
    from tangency.projective import ChartMap
    from tangency.toy import build_toy_chain

    with nearest():  # the chains and the disk's set, as the CLI builds them
        chain = build_chain()
        toy = build_toy_chain()
        stable = projected_disk_data(chain, "stable")
    chart = ChartMap(henon_family()[0])
    src, tgt, n9, n10 = chain.sets[0], chain.sets[1], chain.sets[9], chain.sets[10]
    center = tuple([(c, c) for c in src.center])
    with upward():
        box, box9 = src.box(), n9.box()
        jacobian = chart.derivative(box)[1]

    def mat_mul():
        return partial(_resolve("linalg", "mat_mul"), tgt.inv_coord, jacobian)

    def cone():
        link = _resolve("covering", "check_covering")(src, tgt, chart)
        return partial(_resolve("cones", "cone_matrix"),
                       link.local_jacobian, chain.forms[0], chain.forms[1])

    def rump():
        return partial(_resolve("cones", "rump_positive_definite"), cone()())

    def toy_link(idx):
        return partial(_resolve("covering", "check_covering"),
                       toy.sets[idx], toy.sets[idx + 1], toy.maps[idx])

    def toy_build():
        build = _resolve("toy", "build_toy_chain")

        def run():
            with nearest():
                return build()
        return run

    def toy_rump():
        link = _resolve("covering", "check_covering")(toy.sets[0], toy.sets[1], toy.maps[0])
        v = _resolve("cones", "cone_matrix")(link.local_jacobian, toy.forms[0], toy.forms[1])
        return partial(_resolve("cones", "rump_positive_definite"), v)

    def disk():
        ntilde, qtilde, param, p_coeff = stable
        return partial(_resolve("manifold", "verify_disk"),
                       "stable", ntilde, qtilde, chart, param, p_coeff)

    many, few = calls // 10, calls // 200
    return (
        ("linalg.inverse_enclosure_4x4_us",
         lambda: partial(_resolve("linalg", "inverse_enclosure"), tgt.coord), many),
        ("linalg.mat_mul_4x4_us", mat_mul, many),
        ("projective.derivative_us", lambda: partial(chart.derivative, box), many),
        ("projective.slope_row_us", lambda: partial(chart.derivative, box9, (2,)), many),
        ("projective.apply_thin_us", lambda: partial(chart.apply, center), many),
        ("hset.build_us",
         lambda: partial(_resolve("hset", "HSet"), tgt.name, tgt.center, tgt.coord,
                         tgt.diam, tgt.unstable), many),
        ("cones.cone_matrix_us", cone, many),
        ("cones.rump_4x4_us", rump, many),
        ("cones.rump_toy_link_us", toy_rump, many),
        ("covering.link_N0_N1_us",
         lambda: partial(_resolve("covering", "check_covering"), src, tgt, chart), few),
        ("covering.link_N9_N10_us",
         lambda: partial(_resolve("covering", "check_covering"), n9, n10, chart), few),
        ("toy.link_linear_us", lambda: toy_link(0), few),
        ("toy.link_switch_us", lambda: toy_link(toy.k), few),
        ("toy.build_chain_us", toy_build, few),
        ("manifold.verify_disk_us", disk, few),
    )


def _one_run(calls, repeat):
    from tangency import report
    from tangency.kernels import upward

    out = {}
    subbox_calls = _subbox_calls()
    acc_term = _acc_term_timer()
    terms = calls * 50
    with upward():
        out["kernels.acc_term_ns"] = _best(partial(acc_term.timeit, terms), repeat) / terms * 1e9
        out["covering.subbox_us"] = _best(_subboxes(subbox_calls), repeat) * 1e6
        for key, setup, number in _layers(calls):
            try:
                f = setup()
            except (ImportError, AttributeError):
                out[key] = None
                continue
            out[key] = _best(f, repeat, max(number, 1)) * 1e6
    doc = _prove_report()
    out["report.dumps_us"] = _best(lambda: report.dumps(doc), repeat, max(calls // 200, 1)) * 1e6
    out["check_toy_s"] = _best(_check_toy, repeat)
    out["gc.cyclic_prove_henon"] = _cyclic_garbage(["prove", "henon"])
    out["gc.cyclic_check_toy"] = _cyclic_garbage(["check-toy"])
    young, full = _gc_collections(["check-toy"], 100)
    out["gc.young_per_100_check_toy"] = young
    out["gc.full_per_100_check_toy"] = full
    young, full = _gc_collections(["prove", "henon"], 1000)
    out["gc.young_per_100_prove_henon"] = young / 10
    out["gc.full_per_1000_prove_henon"] = full

    for grid in (1, 2):
        _prove_report(grid)
        for _ in range(repeat):
            # The report's timings: the driver's "total" and its stages'.
            timings = _prove_report(grid)["timings"]
            times = {f"run_proof.grid{grid}_s": timings.pop("total")}
            for stage, seconds in timings.items():
                times[f"run_proof.grid{grid}.{stage}_s"] = seconds
            for key, seconds in times.items():
                out[key] = min(seconds, out.get(key, seconds))
    out.update(_process_ms(repeat))
    return out


def _summary(values):
    """min, median and spread, (q3 - q1) / median, of one measurement's
    per-run values; null where the tree does not have the layer.  The
    spread is 0 where q1 = q3 and null where only the median is 0."""
    if any(v is None for v in values):
        return None
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = 0.0 if q3 == q1 else (q3 - q1) / median if median else None
    return {"min": min(values), "median": median, "spread": spread}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--tree", action="append", default=[],
                        help="NAME=SRC_DIR, the directory holding the tangency package")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(_one_run(args.calls, args.repeat)))
        return
    trees = [spec.split("=", 1) for spec in args.tree]
    runs = {name: {} for name, _ in trees}
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
                runs[name].setdefault(key, []).append(value)
    print(json.dumps({
        "command": " ".join(["python", "tools/bench_layers.py"] + sys.argv[1:]),
        "statistic": f"min of {args.runs * args.repeat} warm runs "
                     f"({args.runs} interpreters x {args.repeat}); median and "
                     "spread, (q3 - q1) / median, over the interpreters' minima",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "results": {name: {key: _summary(values) for key, values in keys.items()}
                    for name, keys in runs.items()},
    }, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
