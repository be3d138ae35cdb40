"""Vectorized large-population contact extraction.

:func:`repro.mobility.trajectory.contacts_from_trajectories` historically
solved the below-range quadratic once per overlapping segment pair in pure
Python — an O(n²·segments) sweep that caps populations at a few dozen nodes.
This module is the scalable engine behind its default ``engine="fast"`` path.
It works on :class:`~repro.mobility.trajectory.SegmentColumns` (every segment
of every node as flat NumPy columns) from start to finish:

1. **Broad phase** — segments are split into *pieces* of bounded
   displacement and hashed into a uniform spatial grid keyed on the
   piece's midpoint. Pieces of one cell are joined by a time-interval
   sweep, and pieces of two adjacent cells by a bipartite ``searchsorted``
   join that emits only cross-cell pairs, so far-apart or
   non-contemporaneous nodes never reach the quadratic solver. The join is
   conservative: two nodes within ``comm_range`` at time *t* always occupy
   pieces in cells at most one apart whose (quantized) time intervals
   overlap (see :func:`_candidate_segment_pairs`), so no contact can be
   lost.
2. **Narrow phase** — the below-range quadratic is evaluated for all
   surviving segment pairs in batched NumPy, replicating the scalar
   arithmetic of :func:`~repro.mobility.trajectory._window_below_range`
   operation-for-operation. Because IEEE-754 addition, multiplication,
   division and square root are correctly rounded in both scalar Python
   and NumPy float64, the produced windows are *bit-identical* to the
   ``engine="exact"`` reference, not merely close.
3. **Fold** — each pair's windows are merged, capped and filtered by an
   array fold (:func:`_fold_windows`) that makes the same comparisons and
   float operations as the scalar
   :func:`~repro.mobility.trajectory._merge_windows` path, and the columns
   go straight into :meth:`ContactTrace.from_arrays
   <repro.mobility.contact.ContactTrace.from_arrays>`. No
   :class:`~repro.mobility.contact.Contact` object is created until
   something reads the trace's contact list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mobility.contact import ContactTrace
from repro.mobility.trajectory import SegmentColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Sequence
    from typing import Any

    from numpy.typing import NDArray

    from repro.mobility.trajectory import Trajectory

    _Ints = NDArray[np.signedinteger[Any]]
    _Floats = NDArray[np.float64]

#: Time-axis quantization of the broad-phase interval joins. Piece times are
#: ranked on a 2³¹-step grid over the trace span; the floor quantization is
#: applied to both interval ends, so an overlap can only be *over*-reported
#: (extra candidates, discarded exactly by the narrow phase), never missed.
_TIME_QUANTS = np.int64(1) << 31

#: Forward half-neighbourhood of a grid cell: joining every cell group with
#: itself and these four offsets visits each adjacent cell pair exactly once.
_FORWARD_OFFSETS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _segmented_arange(counts: _Ints) -> _Ints:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    out: _Ints = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return out


def _range_pairs(rows: _Ints, lo: _Ints, hi: _Ints) -> tuple[_Ints, _Ints]:
    """Position pairs ``(rows[k], p)`` for every ``p`` in ``[lo[k], hi[k])``."""
    counts = hi - lo
    firsts: _Ints = np.repeat(rows, counts)
    # p = lo[k] + (running index - pairs emitted before row k)
    shift = lo - (np.cumsum(counts) - counts)
    seconds: _Ints = np.arange(firsts.size, dtype=np.int64) + np.repeat(shift, counts)
    return firsts, seconds


def _candidate_segment_pairs(
    segments: SegmentColumns, comm_range: float, *, cell_size: float | None = None
) -> tuple[_Ints, _Ints]:
    """Broad phase: segment index pairs that *might* come within range.

    Conservative by construction. Every piece has displacement at most
    ``L`` (the piece cap), so any of its points lies within ``L/2`` of its
    midpoint. If nodes A and B are within ``comm_range`` at time ``t``,
    the pieces containing ``t`` have midpoints at most
    ``L/2 + comm_range + L/2 = L + comm_range`` apart — which is the grid
    pitch — so their anchor cells differ by at most one per axis, and
    their time intervals share ``t`` (floor quantization preserves
    interval overlap).

    Pieces are sorted by ``(cell, qlo)``, so one ``searchsorted`` key
    ``group * 2³¹ + qlo`` locates every time-overlapping partner. Within a
    cell, the partners of piece ``i`` are the run after it that starts no
    later than ``qhi[i]``. Across a cell ``g`` and its forward neighbour
    ``h``, overlapping pairs split into two disjoint cases, each one run
    of the other cell: ``qlo_j`` in ``[qlo_i, qhi_i]`` for ``i`` in ``g``,
    and ``qlo_i`` in ``(qlo_j, qhi_j]`` for ``j`` in ``h``. Together they
    are exactly the time-overlapping cross pairs, each emitted once, so no
    in-range pair is ever pruned and no same-cell pair is swept only to be
    discarded.
    """
    node, t0, t1, x0, y0, x1, y1 = segments
    nseg = t0.size
    if nseg < 2:
        none = np.empty(0, dtype=np.int64)
        return none, none

    tmin = float(t0.min())
    tmax = float(t1.max())
    span = max(tmax - tmin, 1e-9)
    extent = max(
        float(max(x0.max(), x1.max()) - min(x0.min(), x1.min())),
        float(max(y0.max(), y1.max()) - min(y0.min(), y1.min())),
        1e-9,
    )
    # Piece displacement cap L; grid pitch L + comm_range (any positive L is
    # correct — the knob trades pieces against candidate count).
    L = cell_size if cell_size is not None else max(2.0 * comm_range, extent / 256.0)
    cell = L + comm_range

    # --- split segments into pieces of displacement <= L --------------------
    seg_len = np.hypot(x1 - x0, y1 - y0)
    pieces_per_seg = np.maximum(1, np.ceil(seg_len / L).astype(np.int64))
    piece_seg = np.repeat(np.arange(nseg, dtype=np.int64), pieces_per_seg)
    k = pieces_per_seg[piece_seg].astype(np.float64)
    piece_idx = _segmented_arange(pieces_per_seg)
    f0 = piece_idx / k
    f1 = (piece_idx + 1) / k
    st0, st1 = t0[piece_seg], t1[piece_seg]
    pt0 = st0 + f0 * (st1 - st0)
    pt1 = st0 + f1 * (st1 - st0)
    fm = (f0 + f1) * 0.5
    ax = x0[piece_seg] + fm * (x1[piece_seg] - x0[piece_seg])
    ay = y0[piece_seg] + fm * (y1[piece_seg] - y0[piece_seg])

    # anchor cells, +1 shift so neighbour offsets never wrap across rows
    cx = np.floor(ax / cell).astype(np.int64)
    cy = np.floor(ay / cell).astype(np.int64)
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    nyp = int(cy.max()) + 2
    cellkey = cx * nyp + cy

    # quantized piece intervals (floor on both ends: overlap-preserving)
    scale = float(_TIME_QUANTS - 1) / span
    qlo = np.clip(((pt0 - tmin) * scale).astype(np.int64), 0, _TIME_QUANTS - 1)
    qhi = np.clip(((pt1 - tmin) * scale).astype(np.int64), 0, _TIME_QUANTS - 1)

    order = np.lexsort((qlo, cellkey))
    ck = cellkey[order]
    ql = qlo[order]
    qh = qhi[order]
    pseg = piece_seg[order]

    new_group = np.empty(ck.size, dtype=np.bool_)
    new_group[0] = True
    np.not_equal(ck[1:], ck[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    cells = ck[new_group]
    key = group * _TIME_QUANTS + ql  # sorted: the join's search key

    # within a cell: the run after each piece starting by its qhi
    pos = np.arange(ck.size, dtype=np.int64)
    parts = [
        _range_pairs(pos, pos + 1, np.searchsorted(key, key - ql + qh, side="right"))
    ]
    # across a cell and its forward neighbour: the two disjoint cases
    for ox, oy in _FORWARD_OFFSETS:
        target = cells + (ox * nyp + oy)
        nbr = np.minimum(np.searchsorted(cells, target), cells.size - 1)
        has = cells[nbr] == target
        if not has.any():
            continue
        forward = np.full(cells.size, -1, dtype=np.int64)
        forward[has] = nbr[has]
        backward = np.full(cells.size, -1, dtype=np.int64)
        backward[nbr[has]] = np.flatnonzero(has)
        # qlo_j in [qlo_i, qhi_i]: i in this cell, j in the forward one
        rows = np.flatnonzero(forward[group] >= 0)
        base = forward[group[rows]] * _TIME_QUANTS
        lo = np.searchsorted(key, base + ql[rows], side="left")
        hi = np.searchsorted(key, base + qh[rows], side="right")
        parts.append(_range_pairs(rows, lo, hi))
        # qlo_i in (qlo_j, qhi_j]: j in this cell, i in the backward one
        rows = np.flatnonzero(backward[group] >= 0)
        base = backward[group[rows]] * _TIME_QUANTS
        lo = np.searchsorted(key, base + ql[rows], side="right")
        hi = np.searchsorted(key, base + qh[rows], side="right")
        parts.append(_range_pairs(rows, lo, hi))

    a_seg = pseg[np.concatenate([first for first, _ in parts])]
    b_seg = pseg[np.concatenate([second for _, second in parts])]

    # Drop same-node pairs, canonicalise, and de-duplicate across cells.
    keep = node[a_seg] != node[b_seg]
    a_seg, b_seg = a_seg[keep], b_seg[keep]
    pair_code = np.minimum(a_seg, b_seg) * np.int64(nseg) + np.maximum(a_seg, b_seg)
    pair_code.sort()
    if pair_code.size:
        first_seen = np.empty(pair_code.size, dtype=np.bool_)
        first_seen[0] = True
        np.not_equal(pair_code[1:], pair_code[:-1], out=first_seen[1:])
        pair_code = pair_code[first_seen]
    seg_a: _Ints = pair_code // nseg
    seg_b: _Ints = pair_code % nseg
    return seg_a, seg_b


def _batched_windows(
    A: _Ints, B: _Ints, segments: SegmentColumns, range_sq: float
) -> tuple[_Floats, _Floats, _Ints, _Ints]:
    """Narrow phase: below-range windows for candidate segment pairs.

    Replicates :func:`repro.mobility.trajectory._window_below_range`
    operation-for-operation in float64 so results are bit-identical to the
    scalar reference. Returns ``(start, end, node_a, node_b)`` arrays with
    ``node_a < node_b``.
    """
    node, t0, t1, x0, y0, x1, y1 = segments
    empty = (
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    ov0 = np.maximum(t0[A], t0[B])
    ov1 = np.minimum(t1[A], t1[B])
    m = ov1 > ov0
    A, B, ov0, ov1 = A[m], B[m], ov0[m], ov1[m]
    if A.size == 0:
        return empty

    # positions at the overlap start (Segment.position arithmetic)
    sa = (ov0 - t0[A]) / (t1[A] - t0[A])
    ax = x0[A] + sa * (x1[A] - x0[A])
    ay = y0[A] + sa * (y1[A] - y0[A])
    sb = (ov0 - t0[B]) / (t1[B] - t0[B])
    bx = x0[B] + sb * (x1[B] - x0[B])
    by = y0[B] + sb * (y1[B] - y0[B])
    # relative velocity (Segment.vx / .vy arithmetic)
    dvx = (x1[A] - x0[A]) / (t1[A] - t0[A]) - (x1[B] - x0[B]) / (t1[B] - t0[B])
    dvy = (y1[A] - y0[A]) / (t1[A] - t0[A]) - (y1[B] - y0[B]) / (t1[B] - t0[B])
    dx = ax - bx
    dy = ay - by

    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - range_sq
    span = ov1 - ov0

    const = a < 1e-15  # no relative motion: distance constant
    starts_parts: list[_Floats] = []
    ends_parts: list[_Floats] = []
    na_parts: list[_Ints] = []
    nb_parts: list[_Ints] = []

    mc = const & (c <= 0.0)
    if mc.any():
        starts_parts.append(ov0[mc])
        ends_parts.append(ov1[mc])
        na_parts.append(node[A[mc]])
        nb_parts.append(node[B[mc]])

    mq = ~const
    if mq.any():
        aq, bq, cq = a[mq], b[mq], c[mq]
        disc = bq * bq - 4.0 * aq * cq
        pos = disc >= 0.0
        if pos.any():
            aq, bq = aq[pos], bq[pos]
            sqrt_disc = np.sqrt(disc[pos])
            s_lo = (-bq - sqrt_disc) / (2.0 * aq)
            s_hi = (-bq + sqrt_disc) / (2.0 * aq)
            lo = np.maximum(s_lo, 0.0)
            hi = np.minimum(s_hi, span[mq][pos])
            ok = hi > lo
            if ok.any():
                base = ov0[mq][pos][ok]
                starts_parts.append(base + lo[ok])
                ends_parts.append(base + hi[ok])
                na_parts.append(node[A[mq][pos][ok]])
                nb_parts.append(node[B[mq][pos][ok]])

    if not starts_parts:
        return empty
    starts = np.concatenate(starts_parts)
    ends = np.concatenate(ends_parts)
    na = np.concatenate(na_parts)
    nb = np.concatenate(nb_parts)
    swap = na > nb
    lo_node: _Ints = np.where(swap, nb, na)
    hi_node: _Ints = np.where(swap, na, nb)
    return starts, ends, lo_node, hi_node


def _fold_windows(
    starts: _Floats,
    ends: _Floats,
    na: _Ints,
    nb: _Ints,
    *,
    contact_cap: float | None,
    min_duration: float,
) -> tuple[_Floats, _Floats, _Ints, _Ints]:
    """Merge each pair's windows into contacts, as ``(start, end, a, b)`` columns.

    The array form of the scalar fold: windows sorted by
    ``(a, b, start, end)``, fused while ``start <= cur_e + 1e-9`` (the gap
    of :func:`~repro.mobility.trajectory._merge_windows`), then each
    contact's end capped at ``start + contact_cap`` and contacts shorter
    than ``min_duration`` dropped.

    The scalar fold's ``cur_e`` — the largest end of the contact being
    built — equals the running maximum end over *all* earlier windows of
    the pair: every earlier contact of the pair ended more than 1e-9
    before the current one's first start. So a window starts a new
    contact exactly when ``start > running_max + 1e-9``. The running max
    is exact: the ends are ranked densely and offset by pair, so one
    ``maximum.accumulate`` never crosses a pair boundary and compares
    only ranks. Every float operation (``+ 1e-9``, the cap's addition,
    the duration's subtraction) is the scalar fold's, so the columns are
    bit-identical to it. Returned in ``(start, end, a, b)`` order.
    """
    if starts.size == 0:
        return starts, ends, na, nb
    order = np.lexsort((ends, starts, nb, na))
    ws, we, wa, wb = starts[order], ends[order], na[order], nb[order]
    pair_start = np.empty(ws.size, dtype=np.bool_)
    pair_start[0] = True
    pair_start[1:] = (wa[1:] != wa[:-1]) | (wb[1:] != wb[:-1])
    end_values, end_rank = np.unique(we, return_inverse=True)
    offset = (np.cumsum(pair_start) - 1) * end_values.size
    running_max = end_values[np.maximum.accumulate(offset + end_rank) - offset]
    contact_start = pair_start.copy()
    contact_start[1:] |= ws[1:] > running_max[:-1] + 1e-9
    first = np.flatnonzero(contact_start)
    cs, ca, cb = ws[first], wa[first], wb[first]
    ce: _Floats = np.maximum.reduceat(we, first)
    if contact_cap is not None:
        ce = np.minimum(ce, cs + contact_cap)
    keep = ce - cs >= min_duration
    cs, ce, ca, cb = cs[keep], ce[keep], ca[keep], cb[keep]
    final = np.lexsort((cb, ca, ce, cs))
    return cs[final], ce[final], ca[final], cb[final]


def extract_contacts_fast(
    segments: SegmentColumns | Sequence[Trajectory],
    comm_range: float,
    *,
    contact_cap: float | None = 500.0,
    min_duration: float = 1.0,
    horizon: float | None = None,
    name: str = "",
    cell_size: float | None = None,
) -> ContactTrace:
    """Vectorized equivalent of the scalar ``engine="exact"`` extraction.

    Prefer calling
    :func:`repro.mobility.trajectory.contacts_from_trajectories` (which
    validates inputs and dispatches here by default); this entry point
    exposes the broad-phase tuning knob for benchmarks. The trace is
    built from columns (:meth:`ContactTrace.from_arrays
    <repro.mobility.contact.ContactTrace.from_arrays>`), so its
    :class:`~repro.mobility.contact.Contact` objects exist only once
    something reads them.

    Args:
        segments: The population as segment columns, or one trajectory
            per node.
        cell_size: Override the broad-phase piece displacement cap in
            metres (grid pitch is ``cell_size + comm_range``; default
            ``max(2 * comm_range, extent / 256)``). Any positive value
            yields the same contacts — the knob trades hash table size
            against candidate pair count, never correctness.
    """
    if not isinstance(segments, SegmentColumns):
        segments = SegmentColumns.from_trajectories(segments)
    seg_a, seg_b = _candidate_segment_pairs(segments, comm_range, cell_size=cell_size)
    starts, ends, na, nb = _fold_windows(
        *_batched_windows(seg_a, seg_b, segments, comm_range * comm_range),
        contact_cap=contact_cap,
        min_duration=min_duration,
    )
    if horizon is None:
        horizon = segments.end_time
    horizon = max(horizon, float(ends.max()) if ends.size else 0.0)
    return ContactTrace.from_arrays(
        starts,
        ends,
        na,
        nb,
        num_nodes=segments.num_nodes,
        horizon=horizon,
        name=name,
    )
