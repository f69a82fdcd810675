#!/usr/bin/env python3
"""Benchmark of the tangency CLI: time to a certified verdict.

Drives ``tangency.cli.main`` in-process as a closed loop (one client, one
process, one op at a time).  Each op is a full CLI call, report write
included; its outputs are checked after the op, outside the timed interval.

    python3 perfbench/run.py --workload henon-g1 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``henon-g1`` (the reference proof), ``henon-g2`` (the scaling proof) and
``toy`` (the analytic model with seeded parameters); ``all`` runs the three
in turn, each in its own process.

``--trace 0`` measures the end-to-end metrics.  Times are normalized to the
machine's speed, measured by a fixed reference loop between ops (speed.py);
the raw wall times are reported beside them under ``wall.*``.  ``--trace 1``
measures a few untraced ops, then wraps every layer from outside the package
(tracer.py) and reports per-layer metrics from traced ops, the tracing
overhead, and the wrapper-coverage, determinism and stage cross-checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(run metadata, every op time, per-op counters) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; traced runs also
write their spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters started per run to time set-up, spread evenly over the
# run; the median is reported.  One more is started first and discarded: it
# writes the bytecode cache.
SETUP_SAMPLES = 11
# Share of a traced run spent on untraced ops, the base of the overhead ratio.
UNTRACED_SHARE = 1.0 / 3.0
# verdict_s.tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "margin.exit_min": "1",
    "margin.cone_pivot_min": "1",
}


# -- run metadata -------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 of the package sources, to tell builds apart without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tangency").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(args, backend):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": backend,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loop": "closed, 1 client, 1 process, 1 op at a time",
    }


# -- measurement helpers ------------------------------------------------------


# A fresh interpreter imports the CLI between two runs of the speed loop, so
# that its set-up time is normalized with the speed of the CPU it ran on.
SETUP_CHILD = """
from speed import reference_loop
before = reference_loop()
import tangency.cli
print(before, reference_loop())
"""


def setup_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def time_setup(env):
    """(wall, normalized) seconds from a fresh interpreter to tangency.cli
    imported; the child's two speed-loop runs are not counted."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                         check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         text=True)
    wall = time.perf_counter() - t0
    before, after = (float(x) for x in out.stdout.split())
    wall -= before + after
    return wall, wall * speed.REFERENCE_S / (0.5 * (before + after))


def tail(values):
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with TAIL_BEYOND samples beyond it; the maximum when the run
    has too few samples for any percentile from the median up."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


class OpRunner:
    """Runs and checks single ops of one workload."""

    def __init__(self, workload, cli, report_mod):
        self.workload = workload
        self.cli = cli
        # Checks use the functions as imported, never a traced wrapper.
        self._loads = report_mod.loads
        self._dumps = report_mod.dumps
        self.report_path = OUT / f"op-report-{workload.name}.json"
        self.attempted = 0
        self.failures = []  # (op index, reasons)
        self.side_seconds = 0.0  # time spent outside ops: checks, probes

    def run(self, i):
        """One op: returns (seconds, report or None)."""
        self.report_path.unlink(missing_ok=True)
        argv = self.workload.argv(i, str(self.report_path))
        stdout = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that crashes is a failed op, not a crash
            rc = None
            error = traceback.format_exc()
        t1 = time.perf_counter()
        self.attempted += 1
        reasons, report = self.check(rc, stdout.getvalue(), error)
        if reasons:
            self.failures.append((i, reasons))
        self.side_seconds += time.perf_counter() - t1
        return t1 - t0, report

    def check(self, rc, stdout, error):
        if error is not None:
            return [f"exception: {error.strip().splitlines()[-1]}"], None
        reasons = [] if rc == 0 else [f"exit code {rc}"]
        try:
            text = self.report_path.read_text(encoding="utf-8")
            report = self._loads(text)
            again = self._dumps(report)
            if again != text.rstrip("\n") or not workloads.same_bits(
                    self._loads(again), report):
                reasons.append("report does not round-trip bit-exactly")
            reasons += self.workload.check(report, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reasons.append(f"unreadable report: {exc!r}")
            report = None
        return reasons, (None if reasons else report)


def import_tangency():
    sys.path.insert(0, str(SRC))
    import tangency
    import tangency.cli
    import tangency.report

    return {name: mod for name, mod in sys.modules.items()
            if name == "tangency" or name.startswith("tangency.")}


def loop(runner, start_index, seconds, on_op, between=None):
    """Closed loop of ops over `seconds` of measured time.

    Measured time is wall time minus the time spent outside ops (output
    checks, on_op, between).  An op is started while the last one still fits.
    Returns the next op index and the measured time.
    """
    t_start = time.perf_counter()
    side_start = runner.side_seconds

    def measured():
        return time.perf_counter() - t_start - (runner.side_seconds - side_start)

    i = start_index
    last = 0.0
    while i == start_index or measured() + last <= seconds:
        if between is not None:
            t0 = time.perf_counter()
            between(measured())
            runner.side_seconds += time.perf_counter() - t0
        last, report = runner.run(i)
        t0 = time.perf_counter()
        on_op(i, last, report)
        runner.side_seconds += time.perf_counter() - t0
        i += 1
    return i, measured()


# -- end-to-end run -----------------------------------------------------------


def run_end_to_end(args, workload):
    env = setup_env()
    time_setup(env)  # fills the bytecode cache; not a sample
    modules = import_tangency()
    runner = OpRunner(workload, modules["tangency.cli"], modules["tangency.report"])
    _, warm_report = runner.run(0)  # warm-up op, checked but not timed
    margins = [workload.margins(warm_report)] if warm_report else []
    meter = speed.SpeedMeter()
    wall, latencies, setup_wall, setup_s = [], [], [], []

    def between(measured):
        # set-up samples spread evenly over the run, bracketed like the ops
        if len(setup_s) < SETUP_SAMPLES and (
                measured >= len(setup_s) * args.seconds / SETUP_SAMPLES):
            wall_s, normalized_s = time_setup(env)
            setup_wall.append(wall_s)
            setup_s.append(normalized_s)

    def on_op(i, seconds, report):
        wall.append(seconds)
        latencies.append(meter.normalize(seconds))
        if report is not None and i < workloads.MARGIN_OPS:
            margins.append(workload.margins(report))

    _, measured = loop(runner, 1, args.seconds, on_op, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail_value, tail_pct, tail_beyond = tail(latencies)
    metrics = {
        "verdict_s.p50": statistics.median(latencies),
        "verdict_s.tail": tail_value,
        "verdicts_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "margin.exit_min": _median_of(margins, "exit"),
        "margin.cone_pivot_min": _median_of(margins, "cone_pivot"),
    }
    details = {
        "failed_ratio": len(runner.failures) / runner.attempted,
        "verdict_s.tail_percentile": tail_pct,
        "verdict_s.tail_samples_beyond": tail_beyond,
        "verdict_s.samples": len(latencies),
        "wall.verdict_s.p50": statistics.median(wall),
        "wall.verdict_s.tail": tail(wall)[0],
        "wall.verdicts_per_s": len(wall) / measured,
        "wall.setup_s": statistics.median(setup_wall),
        "speed_loop_s.median": statistics.median(meter.loops),
        "measured_s": measured,
        "margin_ops": len(margins),
        "latencies_s": latencies,
        "wall_latencies_s": wall,
        "setup_samples_s": setup_s,
        "wall_setup_samples_s": setup_wall,
    }
    if margins and "disk" in margins[0]:
        details["margin.disk_min"] = _median_of(margins, "disk")
    return modules["tangency"].BACKEND, runner, metrics, END_TO_END_UNITS, details


def _median_of(margins, key):
    vals = [m[key] for m in margins]
    return statistics.median(vals) if vals else 0.0


# -- traced run ---------------------------------------------------------------

ALL_NONZERO = (
    "covering.links", "covering.link_ms", "covering.self_s", "covering.detect_s",
    "covering.wall_boxes", "covering.interior_boxes", "covering.image_evals",
    "covering.jacobian_evals", "covering.search_share",
    "jets.ops", "jets.self_s",
    "interval.constructions", "interval.sqrt_calls",
    "kernels.directed_calls", "kernels.interval_calls",
    "linalg.mat_mul_calls", "linalg.mat_mul_us", "linalg.mat_vec_calls",
    "linalg.inverse_enclosure_calls", "linalg.self_s",
    "hset.transform_calls", "hset.self_s",
    "cones.links", "cones.rump_tests", "cones.rump_us", "cones.cholesky_runs",
    "cones.self_s", "report.dumps_s", "report.bytes", "cli.self_s",
)
HENON_NONZERO = (
    "henon.self_s", "henon.build_chain_s", "henon.covering_stage_s", "henon.cones_stage_s",
    "henon.disks_stage_s", "projective.apply_calls", "projective.apply_us",
    "projective.derivative_calls", "projective.derivative_us", "projective.self_s",
    "jets.elementary_calls", "interval.sin_calls", "interval.cos_calls",
    "interval.atan_calls", "interval.elementary_s", "interval.sin_us",
    "manifold.disks", "manifold.bisection_steps", "manifold.eigen_bound_s",
    "manifold.self_s", "manifold.disk_margin_min",
)
TOY_NONZERO = ("toy.build_chain_calls", "toy.build_chain_s")
# The toy maps are linear or polynomial: no trig and no projective chart.
TOY_ZERO = ("interval.sin_calls", "interval.cos_calls", "interval.atan_calls",
            "projective.apply_calls", "projective.derivative_calls")



def _unit(name):
    suffix = name.rsplit(".", 1)[1]
    for end, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("bytes", "bytes"),
                      ("_ratio", "1"), ("_share", "1"), ("_min", "1")):
        if suffix.endswith(end):
            return unit
    return "count"


PER_LAYER_UNITS = {name: _unit(name) for name in (
    *ALL_NONZERO, *HENON_NONZERO, *TOY_NONZERO, "covering.hull_fallbacks",
    "cones.cholesky_failed", "cones.refine_retries", "henon.build_ratio",
    "henon.covering_ratio", "henon.cones_ratio", "henon.disks_ratio",
    "trace.overhead_ratio")}

# Henon stages: the report's own timings key, the span timed from outside,
# and the per-layer metric of that span.
STAGES = (("build", "henon.build_chain", "henon.build_chain_s"),
          ("covering", "henon.covering_stage", "henon.covering_stage_s"),
          ("cones", "henon.cones_stage", "henon.cones_stage_s"),
          ("disks", "henon.disks_stage", "henon.disks_stage_s"))


def layer_metrics(profile, report, margins):
    """Per-layer metrics of one traced op."""
    counts = profile["counts"]
    spans = profile["spans"]

    def count(key):
        return counts.get(key, 0)

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(layer):
        return sum(v[2] for n, v in spans.items() if n.split(".", 1)[0] == layer)

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    evals = count("covering.image_evals") + count("covering.jacobian_evals")
    m = {
        "henon.build_chain_s": incl("henon.build_chain"),
        "henon.covering_stage_s": incl("henon.covering_stage"),
        "henon.cones_stage_s": incl("henon.cones_stage"),
        "henon.disks_stage_s": incl("henon.disks_stage"),
        "covering.links": calls("covering.check_covering"),
        "covering.link_ms": per(incl("covering.check_covering"),
                                calls("covering.check_covering"), 1e3),
        "covering.self_s": self_s("covering"),
        "covering.detect_s": incl("covering.detect_correspondence"),
        "covering.wall_boxes": count("covering.wall_boxes"),
        "covering.interior_boxes": count("covering.interior_boxes"),
        "covering.image_evals": count("covering.image_evals"),
        "covering.jacobian_evals": count("covering.jacobian_evals"),
        "covering.search_share": per(count("covering.search_evals"), evals, 1.0),
        "covering.hull_fallbacks": count("covering.hull_fallbacks"),
        "projective.apply_calls": calls("projective.apply"),
        "projective.apply_us": per(incl("projective.apply"),
                                   calls("projective.apply"), 1e6),
        "projective.derivative_calls": calls("projective.derivative",
                                             "projective.derivative3"),
        "projective.derivative_us": per(
            incl("projective.derivative", "projective.derivative3"),
            calls("projective.derivative", "projective.derivative3"), 1e6),
        "projective.self_s": self_s("projective"),
        "jets.ops": calls("jets.op"),
        "jets.elementary_calls": calls("jets.elementary"),
        "jets.self_s": self_s("jets"),
        "interval.constructions": count("interval.constructions"),
        "interval.sin_calls": calls("interval.sin"),
        "interval.cos_calls": calls("interval.cos"),
        "interval.atan_calls": calls("interval.atan"),
        "interval.sqrt_calls": calls("interval.sqrt"),
        "interval.elementary_s": incl("interval.sin", "interval.cos",
                                      "interval.atan", "interval.sqrt"),
        "interval.sin_us": per(incl("interval.sin"), calls("interval.sin"), 1e6),
        "kernels.directed_calls": count("kernels.directed_calls"),
        "kernels.interval_calls": count("kernels.interval_calls"),
        "linalg.mat_mul_calls": calls("linalg.mat_mul"),
        "linalg.mat_mul_us": per(incl("linalg.mat_mul"), calls("linalg.mat_mul"), 1e6),
        "linalg.mat_vec_calls": calls("linalg.mat_vec"),
        "linalg.inverse_enclosure_calls": calls("linalg.inverse_enclosure"),
        "linalg.self_s": self_s("linalg"),
        "hset.transform_calls": calls("hset.to_local", "hset.to_normalized",
                                      "hset.from_normalized", "hset.from_local",
                                      "hset.box"),
        "hset.self_s": self_s("hset"),
        "cones.links": calls("cones.check_cone_link"),
        "cones.rump_tests": calls("cones.rump_positive_definite"),
        "cones.rump_us": per(incl("cones.rump_positive_definite"),
                             calls("cones.rump_positive_definite"), 1e6),
        "cones.cholesky_runs": calls("cones.cholesky"),
        "cones.cholesky_failed": count("cones.cholesky_failed"),
        # A link's first Rump test is the plan; any further one is a retry.
        "cones.refine_retries": max(0, count("cones.rump_tests_in_link")
                                    - calls("cones.check_cone_link")),
        "cones.self_s": self_s("cones"),
        "manifold.disks": calls("manifold.verify_disk"),
        "manifold.bisection_steps": count("manifold.bisection_steps"),
        "manifold.eigen_bound_s": incl("manifold.eigen_lower_bound"),
        "manifold.self_s": self_s("manifold"),
        "henon.self_s": self_s("henon"),
        "manifold.disk_margin_min": margins.get("disk", 0.0) if margins else 0.0,
        "toy.build_chain_calls": calls("toy.build_toy_chain"),
        "toy.build_chain_s": incl("toy.build_toy_chain"),
        "report.dumps_s": incl("report.dumps"),
        "report.bytes": count("report.bytes"),
        "cli.self_s": self_s("cli"),
    }
    timings = (report or {}).get("timings", {})
    for stage, span, _ in STAGES:
        program = timings.get(stage)
        m[f"henon.{stage}_ratio"] = per(incl(span), program, 1.0) if program else 0.0
    return m


def work_counts(profile):
    """Every count in an op profile, for the determinism check."""
    out = {f"counter:{k}": v for k, v in profile["counts"].items()}
    out.update({f"calls:{n}": v[0] for n, v in profile["spans"].items()})
    return out


def run_traced(args, workload):
    modules = import_tangency()
    runner = OpRunner(workload, modules["tangency.cli"], modules["tangency.report"])
    runner.run(0)  # warm-up op
    meter = speed.SpeedMeter()

    untraced = []
    next_i, _ = loop(runner, 1, args.seconds * UNTRACED_SHARE,
                     lambda i, s, r: untraced.append(meter.normalize(s)))

    tracer = Tracer()
    tracer.install(modules)
    traced = []  # (index, normalized seconds, speed factor, profile, report)

    def record(i, seconds, report):
        normalized = meter.normalize(seconds)
        traced.append((i, normalized, normalized / seconds, tracer.op_profile(), report))
        tracer.begin_op()

    tracer.begin_op()
    try:
        loop(runner, next_i, args.seconds * (1.0 - UNTRACED_SHARE), record)
        # Determinism: the last traced op once more, same inputs.
        last_i, _, _, last_profile, _ = traced[-1]
        runner.run(last_i)
        repeat_profile = tracer.op_profile()
    finally:
        tracer.uninstall()

    # Span times are normalized with their op's speed factor, like op times.
    per_op = []
    for _, _, factor, profile, report in traced:
        row = layer_metrics(profile, report, workload.margins(report) if report else None)
        per_op.append({k: v * factor if PER_LAYER_UNITS[k] in ("s", "ms", "us") else v
                       for k, v in row.items()})
    metrics = {k: statistics.median(op[k] for op in per_op) for k in PER_LAYER_UNITS
               if k != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = (
        statistics.median(t[1] for t in traced) / statistics.median(untraced))

    checks = trace_checks(workload.name, metrics, tracer,
                          work_counts(last_profile), work_counts(repeat_profile))
    stage_check = {
        stage: {"outside_s": metrics[metric],
                "program_s": statistics.median(
                    factor * (report or {}).get("timings", {}).get(stage, 0.0)
                    for _, _, factor, _, report in traced),
                "ratio": metrics[f"henon.{stage}_ratio"]}
        for stage, _, metric in STAGES
    } if workload.name.startswith("henon") else {}
    details = {
        "untraced_s": untraced,
        "traced_s": [t[1] for t in traced],
        "traced_ops": len(traced),
        "spans": tracer.span_count,
        "stage_cross_check": stage_check,
        "trace_checks": checks,
        "per_op": per_op,
    }
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload.name}-seed{args.seed}.spans.json.gz",
                {"workload": workload.name, "seed": args.seed})
    return modules["tangency"].BACKEND, runner, metrics, PER_LAYER_UNITS, details


# Counters that depend on measured times, not on work: the report carries its
# own timings, whose printed width varies.
TIMING_DEPENDENT = ("counter:report.bytes",)


def trace_checks(name, metrics, tracer, counts_a, counts_b):
    """Wrapper coverage and determinism of the work counts."""
    required = ALL_NONZERO + (TOY_NONZERO if name == "toy" else HENON_NONZERO)
    zero_missing = sorted(k for k in required if not metrics[k] > 0)
    nonzero_on_toy = sorted(k for k in TOY_ZERO if name == "toy" and metrics[k] != 0)
    differing = {
        k: [counts_a.get(k), counts_b.get(k)]
        for k in sorted(set(counts_a) | set(counts_b))
        if counts_a.get(k) != counts_b.get(k)
    }
    return {
        "coverage_ok": not (zero_missing or nonzero_on_toy or tracer.missing),
        "zero_but_required": zero_missing,
        "nonzero_but_must_be_zero": nonzero_on_toy,
        "wrap_targets_missing": tracer.missing,
        "determinism_ok": not set(differing) - set(TIMING_DEPENDENT),
        "differing_counts": differing,
    }


# -- driver -------------------------------------------------------------------


def run_one(args):
    workload = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        backend, runner, metrics, units, details = run_traced(args, workload)
    else:
        backend, runner, metrics, units, details = run_end_to_end(args, workload)
    meta = run_metadata(args, backend)
    failed = len(runner.failures)
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": runner.attempted,
        "failed": failed,
        "failures": [{"op": i, "reasons": r} for i, r in runner.failures[:20]],
        "details": details,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    for k, v in metrics.items():
        print(f"{args.workload:9s} {k:32s} {v!r} {units[k]}")
    if not args.trace:
        for k, unit in (("failed_ratio", "1"),
                        ("margin.disk_min", "1"), ("wall.verdict_s.p50", "s"),
                        ("wall.verdicts_per_s", "1/s"), ("wall.setup_s", "s")):
            if k in details:
                print(f"{args.workload:9s} {k:32s} {details[k]!r} {unit}")
        print(f"{args.workload:9s} verdict_s.tail is p{details['verdict_s.tail_percentile']}"
              f" of {details['verdict_s.samples']} ops"
              f" ({details['verdict_s.tail_samples_beyond']} beyond it)")
    else:
        for stage, row in details["stage_cross_check"].items():
            print(f"{args.workload:9s} stage {stage:9s} outside {row['outside_s']!r} s"
                  f" report {row['program_s']!r} s ratio {row['ratio']!r}")
        checks = details["trace_checks"]
        print(f"{args.workload:9s} trace checks: coverage "
              f"{'ok' if checks['coverage_ok'] else 'FAILED'}, determinism "
              f"{'ok' if checks['determinism_ok'] else 'FAILED'}")
        for key in ("zero_but_required", "nonzero_but_must_be_zero",
                    "wrap_targets_missing", "differing_counts"):
            if checks[key]:
                print(f"{args.workload:9s}   {key}: {checks[key]}")
    for i, reasons in runner.failures[:5]:
        print(f"{args.workload:9s} op {i} failed: {'; '.join(reasons)}", file=sys.stderr)
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args):
    """Every workload in turn, each in a fresh process of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tangency" / "cli.py").is_file():
        print(f"error: no tangency sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
