"""Out-of-tree tracing of the tangency layers.

The tracer wraps the public functions and methods of each module under
``src/tangency`` from outside the package: nothing under ``src/`` is edited.
A module-level function is replaced wherever a ``tangency`` module holds a
reference to it, so by-name imports (``from tangency.cones import
rump_positive_definite`` in ``manifold`` and ``cli``) see the wrapper too.
Methods are replaced on their class; the directed-rounding kernels are
replaced on ``tangency.kernels`` only, because that is where ``interval``,
``covering`` and ``cones`` look them up (the backend modules call their own
functions directly).

Two kinds of wrapper exist:

* spans -- timed, for boundaries crossed at most a few hundred thousand times
  per op.  Each span records (op, id, parent, name, start, end); a span's
  self time is its duration minus the time covered by its child spans;
* counters -- untimed, for interval constructions and kernels (0.4-2M calls
  per op).  Their cost lands in the self time of the calling layer.

Spans are kept in compact in-memory columns and written out once, when the
benchmark ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter

# Span names are "<layer>.<boundary>"; the layer is the tangency module.
SPAN_TARGETS = (
    # (owner, attribute, span name); owner is "module" or "module:Class".
    ("cli", "main", "cli.main"),
    ("henon", "run_proof", "henon.run_proof"),
    ("henon", "build_chain", "henon.build_chain"),
    ("covering", "check_chain", "covering.check_chain"),
    ("covering", "check_covering", "covering.check_covering"),
    ("covering", "detect_correspondence", "covering.detect_correspondence"),
    ("projective:ChartMap", "apply", "projective.apply"),
    ("projective:ChartMap", "derivative", "projective.derivative"),
    ("projective:ChartMap", "derivative3", "projective.derivative3"),
    ("linalg:IntervalMatrix", "mat_mul", "linalg.mat_mul"),
    ("linalg:IntervalMatrix", "mat_vec", "linalg.mat_vec"),
    ("linalg", "inverse_enclosure", "linalg.inverse_enclosure"),
    ("hset:HSet", "to_local", "hset.to_local"),
    ("hset:HSet", "to_normalized", "hset.to_normalized"),
    ("hset:HSet", "from_normalized", "hset.from_normalized"),
    ("hset:HSet", "from_local", "hset.from_local"),
    ("hset:HSet", "box", "hset.box"),
    ("cones", "check_cone_chain", "cones.check_cone_chain"),
    ("cones", "check_cone_link", "cones.check_cone_link"),
    ("cones", "cone_matrix", "cones.cone_matrix"),
    ("cones", "rump_positive_definite", "cones.rump_positive_definite"),
    ("cones", "interval_cholesky_min_pivot", "cones.cholesky"),
    ("manifold", "verify_disk", "manifold.verify_disk"),
    ("manifold", "eigen_lower_bound", "manifold.eigen_lower_bound"),
    ("toy", "build_toy_chain", "toy.build_toy_chain"),
    ("report", "dumps", "report.dumps"),
    ("interval:Interval", "sin", "interval.sin"),
    ("interval:Interval", "cos", "interval.cos"),
    ("interval:Interval", "atan", "interval.atan"),
    ("interval:Interval", "sqrt", "interval.sqrt"),
)

JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__", "sqr")
JET_ELEMENTARY = ("sin", "cos", "atan", "sqrt")

DIRECTED_KERNELS = ("add_down", "add_up", "sub_down", "sub_up", "mul_down",
                    "mul_up", "div_down", "div_up", "sqrt_down", "sqrt_up")
INTERVAL_KERNELS = ("iadd", "isub", "imul", "idiv", "isqr", "isqrt")

# The Henon driver's stages, timed at the calls run_proof makes by name.
STAGE_TARGETS = (
    ("henon", "check_chain", "henon.covering_stage"),
    ("henon", "check_cone_chain", "henon.cones_stage"),
    ("henon", "verify_disk", "henon.disks_stage"),
)

_BACKEND_MODULES = ("tangency._pyops", "tangency._fastops")


class Tracer:
    """Spans and counters for one benchmark process, reset per op."""

    def __init__(self):
        self._names = []
        self._index = {}
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._op = -1
        self._restore = []
        self.missing = []  # wrap targets not found in the package
        # span columns, kept for the whole run
        self._col_op = array("l")
        self._col_id = array("q")
        self._col_parent = array("q")
        self._col_name = array("l")
        self._col_start = array("d")
        self._col_end = array("d")
        # per-op aggregates
        self.counts = Counter()
        self._calls = []
        self._incl = []
        self._excl = []
        self._depth = Counter()  # open spans per name, for "under X" counters

    # -- span bookkeeping ---------------------------------------------------

    def _name_index(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
            self._calls.append(0)
            self._incl.append(0.0)
            self._excl.append(0.0)
        return idx

    def begin_op(self):
        self._op += 1
        self.counts.clear()
        for i in range(len(self._names)):
            self._calls[i] = 0
            self._incl[i] = 0.0
            self._excl[i] = 0.0

    def op_profile(self):
        """Snapshot of the current op: counters and per-span aggregates."""
        spans = {}
        for idx, name in enumerate(self._names):
            if self._calls[idx]:
                spans[name] = (self._calls[idx], self._incl[idx], self._excl[idx])
        return {"counts": dict(self.counts), "spans": spans}

    def span(self, name, fn, on_enter=None, on_exit=None):
        """Wrap fn in a timed span; on_enter() runs when the span opens and
        on_exit(result) when the call returns."""
        idx = self._name_index(name)
        stack = self._stack
        clock = time.perf_counter
        depth = self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[idx] += 1
            if on_enter is not None:
                on_enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[idx] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tracer._record(sid, parent, idx, t0, t1, dur, dur - frame[1])
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def _record(self, sid, parent, idx, t0, t1, dur, self_time):
        self._col_op.append(self._op)
        self._col_id.append(sid)
        self._col_parent.append(parent)
        self._col_name.append(idx)
        self._col_start.append(t0)
        self._col_end.append(t1)
        self._calls[idx] += 1
        self._incl[idx] += dur
        self._excl[idx] += self_time

    def open_spans(self, name):
        """How many spans called name are open (0 if the name is unknown)."""
        idx = self._index.get(name)
        return 0 if idx is None else self._depth[idx]

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    @property
    def span_count(self):
        return len(self._col_id)

    def dump(self, path, meta):
        """Write every recorded span as gzip-compressed JSON, one array per
        column, streamed in chunks so that no list of all spans is built."""
        columns = (("op", self._col_op), ("id", self._col_id),
                   ("parent", self._col_parent), ("name", self._col_name),
                   ("start", self._col_start), ("end", self._col_end))
        head = json.dumps({"meta": meta, "names": self._names})
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(head[:-1] + ', "spans": {')
            for k, (key, col) in enumerate(columns):
                fh.write(f'{", " if k else ""}"{key}": [')
                for start in range(0, len(col), 1 << 16):
                    if start:
                        fh.write(",")
                    fh.write(",".join(map(repr, col[start:start + (1 << 16)])))
                fh.write("]")
            fh.write("}}\n")

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_function(self, modules, module_name, attr, make):
        """Replace a module function wherever a tangency module refers to it."""
        home = modules.get(f"tangency.{module_name}")
        orig = getattr(home, attr, None) if home is not None else None
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(orig)
        for mod_name, mod in modules.items():
            if mod_name in _BACKEND_MODULES:
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, name, wrapper)

    def _wrap_method(self, modules, module_name, cls_name, attr, make):
        cls = getattr(modules.get(f"tangency.{module_name}"), cls_name, None)
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        self._patch(cls, attr, make(orig))

    def _span_maker(self, name, on_enter=None, on_exit=None):
        return lambda fn: self.span(name, fn, on_enter, on_exit)

    def install(self, modules):
        """Wrap every traced boundary; modules maps names to tangency modules."""
        interval = modules.get("tangency.interval")
        hooks = _Hooks(self, getattr(interval, "IntervalError", ValueError))
        for owner, attr, name in SPAN_TARGETS:
            make = self._span_maker(name, *hooks.for_span(name))
            if ":" in owner:
                module_name, cls_name = owner.split(":")
                self._wrap_method(modules, module_name, cls_name, attr, make)
            else:
                self._wrap_function(modules, owner, attr, make)

        # Stage spans wrap the (already wrapped) references henon holds.
        henon = modules.get("tangency.henon")
        for module_name, attr, name in STAGE_TARGETS:
            inner = getattr(henon, attr, None) if henon is not None else None
            if inner is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(henon, attr, self.span(name, inner))

        for attr in JET_OPS:
            self._wrap_method(modules, "jets", "Jet", attr, self._span_maker("jets.op"))
        for attr in JET_ELEMENTARY:
            self._wrap_method(modules, "jets", "Jet", attr,
                              self._span_maker("jets.elementary"))

        self._wrap_method(modules, "covering", "BoxMap", "__call__", hooks.box_map_call)
        self._wrap_method(modules, "covering", "BoxMap", "derivative",
                          hooks.box_map_derivative)
        self._wrap_method(modules, "hset", "HSet", "walls",
                          lambda fn: hooks.box_list("covering.wall_boxes", fn))
        self._wrap_method(modules, "hset", "HSet", "subboxes",
                          lambda fn: hooks.box_list("covering.interior_boxes", fn))
        self._wrap_method(modules, "interval", "Interval", "__init__",
                          hooks.interval_init)

        kernels = modules.get("tangency.kernels")
        for names, key in ((DIRECTED_KERNELS, "kernels.directed_calls"),
                           (INTERVAL_KERNELS, "kernels.interval_calls")):
            for attr in names:
                fn = getattr(kernels, attr, None)
                if fn is None:
                    self.missing.append(f"kernels.{attr}")
                    continue
                self._patch(kernels, attr, self.counted(key, fn))

    def uninstall(self):
        """Undo every patch, newest first, restoring the original objects."""
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


class _Hooks:
    """Counters attached to wrapped boundaries (see the per-layer table)."""

    def __init__(self, tracer, interval_error):
        self.counts = tracer.counts
        self.under = lambda name: tracer.open_spans(name) > 0
        self.interval_error = interval_error

    def for_span(self, name):
        counts = self.counts
        under = self.under
        if name == "cones.rump_positive_definite":
            def on_enter():
                counts["cones.rump_tests_in_link"] += under("cones.check_cone_link")
                counts["manifold.bisection_steps"] += under(
                    "manifold.eigen_lower_bound")
            return on_enter, None
        if name == "cones.cholesky":
            def on_exit(result):
                counts["cones.cholesky_failed"] += result is None
            return None, on_exit
        if name == "report.dumps":
            def on_exit(result):
                counts["report.bytes"] += len(result)
            return None, on_exit
        return None, None

    def box_map_call(self, orig):
        counts = self.counts
        under = self.under
        interval_error = self.interval_error

        @functools.wraps(orig)
        def wrapper(self_, box):
            counts["covering.image_evals"] += 1
            if under("covering.detect_correspondence"):
                counts["covering.search_evals"] += 1
            try:
                return orig(self_, box)
            except interval_error:
                counts["covering.hull_fallbacks"] += 1
                raise

        return wrapper

    def box_map_derivative(self, orig):
        counts = self.counts
        under = self.under

        @functools.wraps(orig)
        def wrapper(self_, box):
            counts["covering.jacobian_evals"] += 1
            if under("covering.detect_correspondence"):
                counts["covering.search_evals"] += 1
            return orig(self_, box)

        return wrapper

    def box_list(self, key, orig):
        counts = self.counts
        under = self.under

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            boxes = orig(*args, **kwargs)
            if under("covering.check_covering"):
                counts[key] += len(boxes)
            return boxes

        return wrapper

    def interval_init(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(self_, lo, hi=None):
            counts["interval.constructions"] += 1
            orig(self_, lo, hi)

        return wrapper
