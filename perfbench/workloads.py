"""Workloads of the tangency benchmark: op generation and output checks.

Each op is one ``tangency`` CLI call.  The checks read the report the op
wrote and run outside the timed interval; every failed check makes the op a
failed op.

Why these workloads (pure-Python backend, 2 cores):

* ``henon-g1`` -- ``prove henon`` at its defaults (grid 1, radius 1e-5),
  about 0.6 s.  The reference proof, the one users run.  Correspondence
  search (``detect_correspondence``) and sin/cos/atan are a large share;
  disks and cones are about 20%, so the Rump/A-bisection work is visible.
* ``henon-g2`` -- ``prove henon --grid 2``, about 3 s, with about 5x the
  wall images of g1 (836 vs 153).  Covering is about 90% of the time and the
  search share is small; derivatives are taken on sub-boxes, so caching
  whole-set work cannot help.  It is the control for g1-only savings.  It is
  not in BENCHMARK.json: a run of at most a minute holds about ten of its
  ops, and the machine's speed drifts within one op, so the speed loop run
  between ops (speed.py) cannot normalize it.  Its run-to-run spread of the
  median was 10-24% in five runs of 30 s, beyond any bound worth gating on.
* ``toy`` -- ``check-toy`` with (lam, mu, delta, eps) drawn from the seed,
  about 0.1 s.  Linear or polynomial maps, order-1 jets and no sin/cos/atan:
  ``Interval``/``linalg`` wrapper overhead dominates (``mat_mul`` about 40%).
  It uses the covering and cone layers with cheap maps, so it is the control
  for trig and ``projective`` changes.

The Henon inputs are the fixed reference; the seed does not change them.
Only a narrow radius band verifies (8e-6 and 1.1e-5 are INCONCLUSIVE at
N8=>N9 and N9=>N10): that is the certified statement, not noise to sample.
"""

from __future__ import annotations

import random
import struct

# Disk-constant reference values and acceptance bands, copied from
# tests/test_acceptance.py (criteria 3 and 4).
STABLE_A = 0.099394300936541294
STABLE_M = 0.084042214456891598
STABLE_L = 0.0070394636406844067
UNSTABLE_A = 0.1877584261322994
UNSTABLE_M = 0.2795983187542756
UNSTABLE_L = 0.015049353557694945

HENON_STATEMENT = (
    "quadratic homoclinic tangency unfolding generically verified "
    "for a in 1.3145271093265 +- 1e-05, b = -0.3"
)
HENON_DISKS = (
    # (stage, A reference, M reference, L reference, 4D-form parameter coefficient)
    ("stable_disk", STABLE_A, STABLE_M, STABLE_L, 2.0 * 1.5**-6),
    ("unstable_disk", UNSTABLE_A, UNSTABLE_M, UNSTABLE_L, 2.0 * 1.5**-8),
)

# The parameter axis of the 4D chart; its exit margins are pinned by the
# box sizes (exactly 0.01 on the Henon chain) and would hide any loosening.
PARAM_AXIS = 3

# Toy parameter box.  Every draw from it verifies at this version, with
# chains of 9-12 coverings.
TOY_RANGES = (
    ("lam", 1.5, 4.0),
    ("mu", 0.2, 0.6),
    ("delta", 0.3, 0.7),
    ("eps", 0.005, 0.05),
)
# Toy draws come in Latin-hypercube blocks of this size, so that a block
# covers the parameter box evenly.  The margins are the median over the first
# MARGIN_OPS ops (the first block): a fixed set of inputs per seed, however
# many ops a run completes.
TOY_BLOCK = 128
MARGIN_OPS = TOY_BLOCK


class Workload:
    """A named op stream; argv(i) is the i-th op's CLI arguments."""

    name = ""

    def __init__(self, seed):
        self.seed = seed

    def argv(self, i, report_path):
        raise NotImplementedError

    def check(self, report, stdout):
        """Failure reasons for one op's report (an empty list when correct)."""
        raise NotImplementedError

    def margins(self, report):
        raise NotImplementedError


class Henon(Workload):
    def __init__(self, seed, grid):
        super().__init__(seed)
        self.grid = grid
        self.name = f"henon-g{grid}"

    def argv(self, i, report_path):
        # The seed does not change the reference proof: only a narrow radius
        # band verifies, so its inputs are fixed.
        extra = [] if self.grid == 1 else ["--grid", str(self.grid)]
        return ["prove", "henon", *extra, "--report", report_path]

    def check(self, report, stdout):
        bad = []
        if report.get("verdict") != "VERIFIED" or "verdict: VERIFIED" not in stdout:
            return [f"verdict {report.get('verdict')!r}"]
        statement = report.get("conclusion", {}).get("statement")
        if statement != HENON_STATEMENT:
            bad.append(f"statement {statement!r}")
        stages = report["stages"]
        if len(stages["covering"]) != 15:
            bad.append(f"{len(stages['covering'])} coverings, want 15")
        if len(stages["cones"]) != 15:
            bad.append(f"{len(stages['cones'])} cones, want 15")
        for cone in stages["cones"]:
            rump = cone["rump"]
            pivots = [v["min_pivot"] for v in rump["vertices"]]
            if not rump["positive_definite"] or len(pivots) != 8 or not all(
                p is not None and p > 0.0 for p in pivots
            ):
                bad.append(f"cone {cone['link']}: not 8 positive vertex pivots")
        for stage, a_ref, m_ref, l_ref, coeff in HENON_DISKS:
            disk = stages[stage]
            c = disk["constants"]
            if not (c["A_lower"] >= 0.9 * a_ref and c["M_upper"] <= 1.2 * m_ref
                    and c["L_upper"] <= 1.5 * l_ref):
                bad.append(f"{stage}: A/M/L outside the acceptance bands")
            if not (c["Gamma"] > 0.0 and c["Gamma_check_lower"] > 0.0):
                bad.append(f"{stage}: Gamma not certified")
            if disk["param_coefficient"] != coeff:
                bad.append(f"{stage}: parameter coefficient {disk['param_coefficient']}")
            if not disk["comparison_lower"] > 1.0:
                bad.append(f"{stage}: comparison_lower {disk['comparison_lower']} <= 1")
        return bad

    def margins(self, report):
        stages = report["stages"]
        coverings = list(stages["covering"])
        coverings += [stages[s]["self_covering"] for s in ("stable_disk", "unstable_disk")]
        return {
            "exit": exit_margin_min(coverings),
            "cone_pivot": min(_pivots(stages["cones"])),
            "disk": min(stages[s]["comparison_lower"] - 1.0
                        for s in ("stable_disk", "unstable_disk")),
        }


class Toy(Workload):
    name = "toy"

    def __init__(self, seed):
        super().__init__(seed)
        self._rng = random.Random(seed)
        self._params = []

    def params(self, i):
        while len(self._params) <= i:
            self._params.extend(latin_hypercube(self._rng, TOY_BLOCK))
        return self._params[i]

    def argv(self, i, report_path):
        out = ["check-toy"]
        for (name, _, _), value in zip(TOY_RANGES, self.params(i)):
            out += [f"--{name}", repr(value)]
        return out + ["--report", report_path]

    def check(self, report, stdout):
        if report.get("verdict") != "VERIFIED" or "verdict: VERIFIED" not in stdout:
            return [f"verdict {report.get('verdict')!r}"]
        stages = report["stages"]
        bad = []
        if len(stages["cones_linear_links"]) != len(stages["covering"]) - 1:
            bad.append("cone count is not one per linear link")
        for block, rump in stages["switch_blocks"].items():
            if not rump["positive_definite"]:
                bad.append(f"switch block {block} not positive definite")
        return bad

    def margins(self, report):
        stages = report["stages"]
        cones = list(stages["cones_linear_links"])
        cones += [{"rump": r} for r in stages["switch_blocks"].values()]
        return {
            "exit": exit_margin_min(stages["covering"]),
            "cone_pivot": min(_pivots(cones)),
        }


def latin_hypercube(rng, n):
    """n stratified draws from TOY_RANGES: one per stratum of every axis."""
    columns = []
    for _, lo, hi in TOY_RANGES:
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([lo + (hi - lo) * (k + rng.random()) / n for k in strata])
    return [tuple(row) for row in zip(*columns)]


def make(name, seed):
    if name == "henon-g1":
        return Henon(seed, 1)
    if name == "henon-g2":
        return Henon(seed, 2)
    if name == "toy":
        return Toy(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("henon-g1", "henon-g2", "toy")


def exit_margin_min(coverings):
    """Tightest exit margin over walls whose target axis is not the parameter."""
    margins = []
    for cov in coverings:
        for src_axis, tgt_axis, _sign in cov["correspondence"]:
            if tgt_axis == PARAM_AXIS:
                continue
            for side in "+-":
                margins.append(cov["exit_margins"][f"{src_axis}{side}"])
    return min(margins)


def _pivots(cones):
    for cone in cones:
        for vertex in cone["rump"]["vertices"]:
            yield vertex["min_pivot"]


def same_bits(a, b):
    """Structural equality with floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return a == b
