"""Rigorous verification of covering relations between h-sets.

A covering ``N => M`` under a map F is certified through the standard
sufficient wall conditions: with a bijection sigma between the unstable axes
of N and M and orientation signs eps,

* every sub-box of the wall {z_i = +1} of N maps to a point whose
  sigma(i)-th normalized target coordinate satisfies eps_i . w > 1 strictly,
  and symmetrically < -1 on {z_i = -1} (exit conditions);
* the image of all of N has every stable normalized target coordinate
  strictly inside (-1, 1) (entry condition).

These imply the covering relation via the linear homotopy to the diagonal
model map with degree +-1.  Failure is always inconclusive, never a
disproof: interval methods cannot refute.

F is any object with the two methods of the map protocol, on ambient
boxes, tuples of checked (lo, hi) pairs, and increasing output indices
``outputs``:

* ``F.apply(box, outputs)`` encloses those entries of the image of box, as
  a tuple of pairs; the checker calls it on the thin midpoint of each
  sub-box;
* ``F.derivative(box, outputs)`` returns ``(image, jacobian)``: those
  entries of the image enclosure, a tuple of pairs, and those rows of DF
  over box, a tuple of rows of pairs, from one evaluation.

A map returns exactly the entries and rows asked for; ``outputs=None``
means every output (projective.ChartMap is such a map).  A box is
checked where it is built (hset.HSet.from_normalized), a map checks the
pairs it computes, and the checker checks the counts a map returns.
Everything from the sub-boxes to the certificate, its local_jacobian
included, is (lo, hi) pairs, and no interval object is built on the way.
Every sub-box is evaluated once, by _image_normalized on the target rows
it is read on: its thin midpoint image and its enclosure, both on those
rows only.  The
interior sub-boxes are read on every row and evaluated first.  The pairing
of the unstable axes, unless given, is then read off the hull of their
local-frame Jacobians (detect_correspondence): a search on certified data
that maps nothing and certifies nothing.  The exit condition of a wall reads
only the target coordinate it is paired with, so each wall sub-box is
enclosed on that row of the target frame only, and F on the outputs that
row reads; every bit it reads is the one the full image would give.
Whatever else a map checks on its image (the chart map: that the image
direction stays in the slope chart) is still checked on the interior
sub-boxes, which cover the walls and read every output.

check_covering gathers the sub-boxes and the frame changes onto each set of
target rows (hset.RowsRead, fetched once per link and row set), evaluates
the interior sub-boxes, pairs the axes, evaluates the wall sub-boxes, then
checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations

from tangency import kernels as _k
from tangency.interval import Interval, IntervalError, check_pairs, pair_mid


class _LocatedError(Exception):
    def __init__(self, stage, locus, detail=""):
        self.stage = stage
        self.locus = locus
        self.detail = detail
        super().__init__(f"{stage}: {locus}" + (f" ({detail})" if detail else ""))


class VerificationInconclusive(_LocatedError):
    """A rigorous check did not go through; carries the failure locus, in
    ``certified`` (report stage -> certificates) what was certified before
    the failure, and in ``timings`` the time of each stage run_stages ran."""

    def __init__(self, stage, locus, detail="", certified=None):
        super().__init__(stage, locus, detail)
        self.certified = certified or {}
        self.timings = {}


class EnclosureError(_LocatedError):
    """Two enclosures of one quantity are disjoint: a bug in a map or in the
    checker, never a verdict.  Deliberately not an IntervalError."""


@dataclass(frozen=True)
class CoveringCertificate:
    source: str
    target: str
    correspondence: tuple  # ((src_axis, tgt_axis, sign), ...)
    grid: int
    exit_margins: dict = field(compare=False)  # (axis, side) -> float
    entry_margin: float
    # DF over the source in the un-normalized local frames, as rows of
    # (lo, hi) pairs: M_tgt^-1 DF M_src in the first n columns, M_tgt^-1
    # times any further (parameter) columns of DF, hulled over the entry
    # check's sub-boxes.  The cone checks and the disk constants read it.
    # Not serialized.
    local_jacobian: tuple = field(compare=False, repr=False)

    def min_exit_margin(self):
        return min(self.exit_margins.values())

    def to_dict(self):
        return {
            "type": "covering",
            "source": self.source,
            "target": self.target,
            "correspondence": [list(c) for c in self.correspondence],
            "grid": self.grid,
            "exit_margins": {
                f"{axis}{'+' if side > 0 else '-'}": m
                for (axis, side), m in sorted(self.exit_margins.items())
            },
            "entry_margin": self.entry_margin,
        }


def _image_normalized(src, tgt, fmap, zbox, read):
    """Normalized-coordinate image enclosure of a normalized sub-box on the
    rows of read (a tgt.rows_read), as a dict axis -> (lo, hi), and those
    rows of the local-frame derivative over it (what the certificate's
    local_jacobian hulls), as a tuple of rows of (lo, hi) pairs.  Everything
    between the map's returns runs on pairs in one pass, in loops written
    out over the nonzero patterns of read and of src's frame: the thin and
    hull images are normalized together, then each row's local-frame row,
    scaled row and mean-value entry are computed in one loop.  Each vector or row is
    checked once, before it enters a product or is returned, and every
    check runs before the two images are intersected.  The terms are those
    of the interval vector and matrix products of the tests' oracle
    (tests/linalg_oracle.py), in their order, so the results are theirs bit
    for bit.

    Evaluated in mean-value form,

        g(z)  in  g(mid z) + [D_tgt^-1 M_tgt^-1 DF(B) M_src D_src] (z - mid z),

    because the naive composition through the ambient box hull loses the
    correlation between the planar coordinates that the frames are built to
    diagonalize (an unstable excursion would wrongly leak into the stable
    coordinates).  The hull image, which fmap.derivative returns with DF(B),
    is tighter where nonlinear terms dominate (the mean-value slope doubles a
    pure square); the two are intersected.  DF may carry columns beyond the
    first src.n (a parameter held in an interval); the slope uses the first
    src.n local columns only.  Row j of g, of the slope and of the hull image
    reads only row j of M_tgt^-1, so the rows left out are never computed,
    and the rows computed are the same bits as in the full image.

    zbox is a sub-box (box, mid, delta_terms) of hset: g(mid z) is
    fmap.apply on its thin midpoint mid, and z - mid z enters through its
    delta_terms.  Those rows of M_tgt^-1 read only the ambient coordinates
    read.cols; every other column of them is an exact zero, whose term the
    products skip.  So fmap is evaluated,
    thin and enclosure alike, on the outputs read.cols only, and the rows
    computed keep every bit.  For the chart map this drops the image
    direction's slope on walls whose paired target row does not read it,
    and with it the check that the image direction stays in the chart.
    That check is not lost: the interior sub-boxes cover the whole source
    set, walls included, and read every output.  A map that returns other
    than len(read.cols) image entries or Jacobian rows breaks the map
    protocol (module docstring): TypeError, a bug and never a verdict.
    """
    isub, imul, idiv, iadd = _k.isub, _k.imul, _k.idiv, _k.iadd
    cols = read.cols
    box, mid, delta = zbox
    value = fmap.apply(src.from_normalized(mid), cols)
    image, jac = fmap.derivative(src.from_normalized(box), cols)
    if not len(value) == len(image) == len(jac) == len(cols):
        raise TypeError(
            f"{src.name}=>{tgt.name}: asked for the outputs {cols}, the map "
            f"returned {len(value)} thin image entries, {len(image)} enclosure "
            f"entries and {len(jac)} Jacobian rows"
        )
    n = src.n
    if len(jac[0]) < n:
        raise IntervalError("shape mismatch in matrix product")
    # The thin image and the hull image, normalized together: on each row,
    # the terms of M_tgt^-1 (p - c) over the row's nonzero pattern, in
    # mat_vec's order, divided by the row's diameter.
    center = read.center
    thin_diff = check_pairs([isub(a, c) for a, c in zip(value, center)])
    hull_diff = check_pairs([isub(a, c) for a, c in zip(image, center)])
    thin = []
    hull = []
    for row, d in zip(read.terms, read.diam):
        acc = h_acc = (0.0, 0.0)
        for k, a in row:
            b = thin_diff[k]
            if b[0] or b[1]:
                acc = iadd(acc, imul(a, b))
            b = hull_diff[k]
            if b[0] or b[1]:
                h_acc = iadd(h_acc, imul(a, b))
        thin.append(idiv(acc, (d, d)))
        hull.append(idiv(h_acc, (d, d)))
    check_pairs(thin)
    check_pairs(hull)
    jac_cols = tuple(zip(*jac))
    frame_cols, src_diam = src.basis.cols, src.diam
    local = []
    mean_value = []
    for row, d_tgt, thin_j in zip(read.terms, read.diam, thin):
        # T_j = (row j of M_tgt^-1) . DF, then its local-frame row
        # T_j[:n] . M_src followed by T_j[n:], each checked: mat_mul's
        # terms, the frame's column pattern as the left factor of the
        # second product's (imul is commutative bit for bit).
        t = []
        for col in jac_cols:
            acc = (0.0, 0.0)
            for k, a in row:
                b = col[k]
                if b[0] or b[1]:
                    acc = iadd(acc, imul(a, b))
            t.append(acc)
        check_pairs(t)
        local_row = []
        for col in frame_cols:
            acc = (0.0, 0.0)
            for k, a in col:
                b = t[k]
                if b[0] or b[1]:
                    acc = iadd(acc, imul(a, b))
            local_row.append(acc)
        check_pairs(local_row)
        scaled = check_pairs([idiv(imul(e, (d_src, d_src)), (d_tgt, d_tgt))
                              for e, d_src in zip(local_row, src_diam)])
        local.append(tuple(local_row + t[n:]))
        # The mean-value entry: the terms of scaled.mat_vec(z - mid z), the
        # delta's nonzero entries as the left factors of their products.
        acc = (0.0, 0.0)
        for k, a in delta:
            b = scaled[k]
            if b[0] or b[1]:
                acc = iadd(acc, imul(a, b))
        mean_value.append(iadd(thin_j, acc))
    check_pairs(mean_value)
    out = {}
    for axis, (m_lo, m_hi), (h_lo, h_hi) in zip(read.rows, mean_value, hull):
        if not (m_lo <= h_hi and h_lo <= m_hi):
            raise EnclosureError(
                "covering",
                f"{src.name}=>{tgt.name}",
                f"mean-value image {Interval(m_lo, m_hi)!r} and hull image "
                f"{Interval(h_lo, h_hi)!r} of axis {axis} are disjoint on "
                f"sub-box {[Interval(lo, hi) for lo, hi in box]!r}",
            )
        out[axis] = (max(m_lo, h_lo), min(m_hi, h_hi))
    return out, tuple(local)


def detect_correspondence(src, tgt, local):
    """Deterministic unstable-axis pairing read off local, the hull of the
    local-frame derivative over the source set, as rows of (lo, hi) pairs,
    one per target axis: the certificate's local_jacobian.

    The score of source axis i and target axis j is s_ij, the midpoint of
    local[j][i] times src.diam[i] / tgt.diam[j]: the slope of the normalized
    target coordinate j along the normalized source coordinate i.  The first
    pairing of the unstable axes with the largest sum of |s_ij| wins, each
    pair signed as its s_ij.  No map is called; the margin check afterwards,
    on certified images, is what actually decides.
    """
    u_src = src.unstable
    u_tgt = tgt.unstable
    if len(u_src) != len(u_tgt):
        raise IntervalError("unstable dimension mismatch")
    slope = {
        (i, j): pair_mid(*local[j][i]) * src.diam[i] / tgt.diam[j]
        for i in u_src
        for j in u_tgt
    }
    best = max(
        permutations(u_tgt),
        key=lambda perm: sum(abs(slope[(i, j)]) for i, j in zip(u_src, perm)),
    )
    return tuple((i, j, 1 if slope[(i, j)] >= 0.0 else -1) for i, j in zip(u_src, best))


def checked_correspondence(src_unstable, tgt_unstable, correspondence):
    """A given pairing as a tuple of (src_axis, tgt_axis, sign) int triples;
    IntervalError unless it pairs exactly src_unstable with tgt_unstable with
    signs +-1 (an axis left out would leave its walls unchecked)."""
    try:
        pairing = tuple(tuple(c) for c in correspondence)
    except TypeError:
        pairing = None
    if (
        pairing is None
        or not all(len(c) == 3 and all(type(k) is int for k in c) for c in pairing)
        or sorted(c[0] for c in pairing) != sorted(src_unstable)
        or sorted(c[1] for c in pairing) != sorted(tgt_unstable)
        or any(c[2] not in (1, -1) for c in pairing)
    ):
        raise IntervalError(
            f"correspondence {correspondence!r} does not pair the unstable axes "
            f"{tuple(src_unstable)} with {tuple(tgt_unstable)} with signs +-1"
        )
    return pairing


def check_covering(src, tgt, fmap, grid=1, correspondence=None):
    """Certify src => tgt under fmap or raise VerificationInconclusive.

    fmap follows the map protocol (module docstring).  grid (an int)
    subdivides wall faces and the entry check per axis.  Gather: the wall
    and interior sub-boxes and, fetched once for the link, a hset.RowsRead
    per set of target rows they are read on.  Evaluate: each sub-box gets
    one _image_normalized, a thin midpoint image and an enclosure on its
    rows.  The interior sub-boxes go first, on every row, which the entry
    check, the cones and the disks read; the hull of their local-frame
    derivatives, hence over the whole source set, is the certificate's
    local_jacobian, and the pairing, unless given, is read off it.  Each
    wall sub-box is then evaluated on its paired row, the one its exit
    margin reads.  Check: the exit and entry margins.  A sub-box that cannot
    be evaluated makes the link inconclusive before any margin is read, an
    interior one before any wall is mapped.  A given pairing must pair
    exactly the unstable axes of src and tgt (see checked_correspondence).
    """
    link = f"{src.name}=>{tgt.name}"
    if len(src.unstable) != len(tgt.unstable):
        raise IntervalError(f"{link}: unstable dimension mismatch")
    if correspondence is not None:
        correspondence = checked_correspondence(
            src.unstable, tgt.unstable, correspondence
        )

    def inconclusive(detail):
        return VerificationInconclusive("covering", link, detail)

    def locus(wall, box_idx):
        where = "interior" if wall is None else f"wall z_{wall[0]}={wall[1]:+d}"
        return f"{where} box {box_idx}"

    def located(wall, box_idx, zbox, read):
        try:
            return _image_normalized(src, tgt, fmap, zbox, read)
        except IntervalError as exc:
            raise inconclusive(f"{locus(wall, box_idx)}: {exc}")

    # Gather.
    walls = {
        (i, side): src.walls(i, side, grid) for i in src.unstable for side in (1, -1)
    }
    row_reads = {j: tgt.rows_read((j,)) for j in tgt.unstable}
    every_row = tgt.rows_read(range(tgt.n))

    # Evaluate.
    interior_images = [
        located(None, box_idx, zbox, every_row)
        for box_idx, zbox in enumerate(src.subboxes(grid))
    ]
    # The hull of their local-frame derivatives; at grid 1 the one
    # sub-box's.  Of equal bounds the first is kept, as min and max keep it.
    local_hull = interior_images[0][1]
    if len(interior_images) > 1:
        hull = [list(row) for row in local_hull]
        for _, local in interior_images[1:]:
            for hull_row, row in zip(hull, local):
                for c, (lo, hi) in enumerate(row):
                    h_lo, h_hi = hull_row[c]
                    if lo < h_lo or hi > h_hi:
                        hull_row[c] = (lo if lo < h_lo else h_lo,
                                       hi if hi > h_hi else h_hi)
        local_hull = tuple([tuple(row) for row in hull])
    if correspondence is None:
        correspondence = detect_correspondence(src, tgt, local_hull)
    paired = {i: j for i, j, _ in correspondence}
    wall_images = {
        wall: [
            located(wall, box_idx, zbox, row_reads[paired[wall[0]]])[0][paired[wall[0]]]
            for box_idx, zbox in enumerate(boxes)
        ]
        for wall, boxes in walls.items()
    }

    # Check.
    exit_margins = {}
    for i, j, sign in correspondence:
        for side in (1, -1):
            worst = None
            for box_idx, (lo, hi) in enumerate(wall_images[(i, side)]):
                if sign < 0:
                    lo, hi = -hi, -lo
                margin = _k.sub_down(lo, 1.0) if side > 0 else _k.sub_down(-1.0, hi)
                worst = margin if worst is None else min(worst, margin)
                if margin <= 0.0:
                    raise inconclusive(f"exit failed on {locus((i, side), box_idx)} "
                                       f"(margin {margin})")
            exit_margins[(i, side)] = worst

    entry_margin = None
    for box_idx, (img, _) in enumerate(interior_images):
        for j in tgt.stable:
            lo, hi = img[j]
            margin = min(_k.sub_down(1.0, hi), _k.add_down(lo, 1.0))
            entry_margin = margin if entry_margin is None else min(entry_margin, margin)
            if margin <= 0.0:
                raise inconclusive(f"entry failed on stable axis {j} box {box_idx} "
                                   f"(margin {margin})")

    return CoveringCertificate(
        source=src.name,
        target=tgt.name,
        correspondence=correspondence,
        grid=grid,
        exit_margins=exit_margins,
        entry_margin=entry_margin,
        local_jacobian=local_hull,
    )


def certify_each(stage, check, cases):
    """The certificates check(*case) of the cases, in order.

    The first inconclusive case aborts, its exception carrying in
    ``certified`` the certificates found before it, under ``stage``.
    """
    certs = []
    for case in cases:
        try:
            certs.append(check(*case))
        except VerificationInconclusive as exc:
            exc.certified = {stage: tuple(certs)}
            raise
    return certs


def run_stages(build):
    """Run a driver's stages: (what build() built, certificates by report
    stage, timings by name).

    build() runs to nearest, timed as "build", and returns what it built and
    its stage entries (report stage, timing name, failure stage, locus, fn).
    Each fn(certificates so far) runs in turn in one kernels.upward() block,
    timed under its timing name; times of one name add up.  An IntervalError
    in fn is its failure stage's VerificationInconclusive at its locus (an
    EnclosureError is not one and passes through).  A VerificationInconclusive
    leaves carrying in ``certified`` every stage before it and its own partial
    certificates, and in ``timings`` the time of every entry that ran.
    """
    certified, timings = {}, {}
    t0 = time.perf_counter()
    try:
        try:
            built, entries = build()
        finally:
            timings["build"] = time.perf_counter() - t0
        with _k.upward():
            for key, name, stage, locus, fn in entries:
                t0 = time.perf_counter()
                try:
                    certified[key] = fn(certified)
                except IntervalError as exc:
                    raise VerificationInconclusive(stage, locus, str(exc))
                finally:
                    timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0
    except VerificationInconclusive as exc:
        exc.certified = {**certified, **exc.certified}
        exc.timings = timings
        raise
    return built, certified, timings


def check_chain(sets, maps, grid=1, correspondences=None):
    """Certify every consecutive covering in a chain of h-sets.

    maps holds one map per link (maps[i] takes sets[i] to sets[i + 1]);
    every link is checked at the same int grid.  correspondences optionally
    maps a link index to its pairing.  The first inconclusive link aborts
    with its diagnostics and the links certified before it.
    """
    if len(sets) < 2:
        raise IntervalError("a chain needs at least two h-sets")
    if len(maps) != len(sets) - 1:
        raise IntervalError("one map per link required")
    return certify_each("covering", check_covering, [
        (sets[idx], sets[idx + 1], fmap, grid,
         None if correspondences is None else correspondences.get(idx))
        for idx, fmap in enumerate(maps)
    ])
