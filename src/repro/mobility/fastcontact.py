"""Contact extraction: segment columns in, a columnar contact trace out.

:func:`contacts_from_trajectories` finds every maximal window in which two
nodes are within radio range. It works on
:class:`~repro.mobility.trajectory.SegmentColumns` (every segment of every
node as flat NumPy columns) from start to finish:

1. **Broad phase, one block at a time** — segments are split into
   *pieces* of bounded displacement, hashed into a uniform spatial grid
   keyed on the piece's midpoint, and sorted by (cell, quantized start).
   Pieces of one cell are joined by a time-interval sweep, and pieces of
   two adjacent cells by a bipartite ``searchsorted`` join that emits
   only cross-cell pairs, so far-apart or non-contemporaneous nodes never
   reach the quadratic solver. The join is conservative: two nodes within
   ``comm_range`` at time *t* always occupy pieces in cells at most one
   apart whose (quantized) time intervals overlap (see
   :func:`_candidate_segment_pairs`), so no contact can be lost. The
   sorted order is cut into blocks of :data:`_BLOCK_ROWS` pieces, and each
   block's piece pairs are reduced to distinct cross-node segment pairs
   and handed on before the next block is joined, so memory holds one
   block's candidates at a time, never the whole population's.
2. **Narrow phase** — on each overlapping segment pair the squared
   distance is a quadratic in time, and the below-range window comes from
   its roots, solved for a block's pairs in batched NumPy. The arithmetic
   is that of the scalar per-pair extractor kept as the tests' oracle
   (``window_below_range`` in ``tests/oracles/scalar_contacts.py``),
   operation for operation. IEEE-754 addition, multiplication, division
   and square root are correctly rounded in both scalar Python and NumPy
   float64, so the windows are *bit-identical* to the oracle's, not merely
   close. Only the windows outlive a block. A segment pair met in two
   blocks gives the same window twice, and the fold absorbs the copy.
3. **Fold** — each pair's windows are merged, capped and filtered by an
   array fold (:func:`_fold_windows`) that makes the same comparisons and
   float operations as the oracle's ``merge_windows``, and the columns go
   straight into :meth:`ContactTrace.from_arrays
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
    from collections.abc import Iterator
    from typing import Any

    from numpy.typing import NDArray

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

#: Rows of the sorted piece order whose candidate pairs are emitted,
#: de-duplicated and narrowed together. Only one block's candidates are in
#: memory at a time; smaller blocks narrow more segment pairs twice (at 200
#: nodes, 30% more pairs at 4,096 rows and 8% at 16,384). 4,096 rows was
#: the fastest or tied among 1,024–16,384 at 200 nodes and 2,048–8,192 at
#: 800 nodes, on a shared 2-vCPU VM.
_BLOCK_ROWS = 4096


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


def _sorted_pieces(
    segments: SegmentColumns, comm_range: float, cell_size: float | None
) -> tuple[_Ints, _Ints, _Ints, _Ints]:
    """Pieces sorted by ``(cell, qlo)``, and the cells each cell joins.

    Returns ``(key, qhi, piece_seg, partners)`` in sorted order. ``key``
    is ``group * 2³¹ + qlo``, where ``group`` ranks the piece's cell.
    ``partners[s, g]`` is the group that slot ``s`` of group ``g`` joins,
    or -1: slot 0 is the cell itself, slots 1–4 its forward neighbours,
    and slots 5–8 the cells whose forward neighbour it is. The per-piece
    geometry is freed on return.
    """
    _, t0, t1, x0, y0, x1, y1 = segments
    nseg = t0.size
    tmin = float(t0.min())
    tmax = float(t1.max())
    span = max(tmax - tmin, 1e-9)
    extent = max(
        float(max(x0.max(), x1.max()) - min(x0.min(), x1.min())),
        float(max(y0.max(), y1.max()) - min(y0.min(), y1.min())),
        1e-9,
    )
    # Piece displacement cap L; grid pitch L + comm_range. Any positive L is
    # correct and only trades pieces against candidate count; a cell_size
    # overrides the default (the tests show the contacts do not change).
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

    new_group = np.empty(ck.size, dtype=np.bool_)
    new_group[0] = True
    np.not_equal(ck[1:], ck[:-1], out=new_group[1:])
    cells = ck[new_group]
    key = (np.cumsum(new_group) - 1) * _TIME_QUANTS + qlo[order]  # sorted

    partners = np.full((9, cells.size), -1, dtype=np.int64)
    partners[0] = np.arange(cells.size)
    for slot, (ox, oy) in enumerate(_FORWARD_OFFSETS, start=1):
        target = cells + (ox * nyp + oy)
        nbr = np.minimum(np.searchsorted(cells, target), cells.size - 1)
        has = cells[nbr] == target
        partners[slot, has] = nbr[has]
        partners[slot + 4, nbr[has]] = np.flatnonzero(has)
    return key, qhi[order], piece_seg[order], partners


def _candidate_segment_pairs(
    segments: SegmentColumns, comm_range: float, *, cell_size: float | None = None
) -> Iterator[tuple[_Ints, _Ints]]:
    """Broad phase: segment index pairs that *might* come within range,
    one block of pieces at a time.

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

    Every piece pair is emitted from one of its two pieces, its *row*:
    ``i`` in the first two cases, ``j`` in the third. Cutting the sorted
    order into blocks of :data:`_BLOCK_ROWS` rows therefore shares the
    pairs out among the blocks and loses none. Each yield is one block's
    distinct cross-node segment pairs. A segment pair whose piece pairs
    have rows in two blocks is yielded by both; its windows come out
    identical, and :func:`_fold_windows` merges a window that repeats one
    it has already taken.
    """
    if segments.t0.size < 2:
        return
    key, qh, piece_seg, partners = _sorted_pieces(segments, comm_range, cell_size)
    for first_row in range(0, key.size, _BLOCK_ROWS):
        yield _block_pairs(segments.node, key, qh, piece_seg, partners, first_row)


def _block_pairs(
    node: _Ints, key: _Ints, qh: _Ints, piece_seg: _Ints, partners: _Ints, first_row: int
) -> tuple[_Ints, _Ints]:
    """The distinct cross-node segment pairs of one block of rows,
    canonical (``a < b``) and sorted."""
    block = key[first_row : first_row + _BLOCK_ROWS]
    group = block // _TIME_QUANTS
    cand = partners[:, group]
    slot, row = np.nonzero(cand >= 0)
    partner = cand[slot, row]
    base = partner * _TIME_QUANTS
    # a forward neighbour's run starts at qlo_i, a backward one's after it:
    # on integer keys, searchsorted(v, "right") is searchsorted(v + 1, "left")
    lo = np.searchsorted(key, base + (block[row] - group[row] * _TIME_QUANTS) + (slot > 4))
    row += first_row
    hi = np.searchsorted(key, base + qh[row], side="right")
    own = slot == 0
    lo[own] = row[own] + 1
    first, second = _range_pairs(row, lo, hi)
    a_seg, b_seg = piece_seg[first], piece_seg[second]

    # Drop same-node pairs, canonicalise, and de-duplicate within the block.
    keep = node[a_seg] != node[b_seg]
    a_seg, b_seg = a_seg[keep], b_seg[keep]
    nseg = np.int64(node.size)
    pair_code = np.minimum(a_seg, b_seg) * nseg + np.maximum(a_seg, b_seg)
    pair_code.sort()
    if pair_code.size:
        first_seen = np.empty(pair_code.size, dtype=np.bool_)
        first_seen[0] = True
        np.not_equal(pair_code[1:], pair_code[:-1], out=first_seen[1:])
        pair_code = pair_code[first_seen]
    return pair_code // nseg, pair_code % nseg


def _segment_motion(segments: SegmentColumns) -> tuple[_Floats, ...]:
    """Per-segment ``(duration, dx, dy, vx, vy)``, computed as the
    oracle's ``Segment`` computes them. Done once per extraction, so a
    segment's many candidate pairs only gather them."""
    _, t0, t1, x0, y0, x1, y1 = segments
    duration, dx, dy = t1 - t0, x1 - x0, y1 - y0
    return duration, dx, dy, dx / duration, dy / duration


def _batched_windows(
    A: _Ints,
    B: _Ints,
    segments: SegmentColumns,
    motion: tuple[_Floats, ...],
    range_sq: float,
) -> tuple[_Floats, _Floats, _Ints, _Ints]:
    """Narrow phase: below-range windows for candidate segment pairs.

    Replicates the oracle's ``window_below_range`` operation for
    operation in float64, so the windows are bit-identical to it.
    ``motion`` is :func:`_segment_motion` of ``segments``. Returns
    ``(start, end, node_a, node_b)`` arrays with ``node_a < node_b``.
    """
    node, t0, t1, x0, y0, _, _ = segments
    duration, seg_dx, seg_dy, vx, vy = motion
    ov0 = np.maximum(t0[A], t0[B])
    ov1 = np.minimum(t1[A], t1[B])
    m = ov1 > ov0
    A, B, ov0, ov1 = A[m], B[m], ov0[m], ov1[m]

    # positions at the overlap start (Segment.position arithmetic)
    sa = (ov0 - t0[A]) / duration[A]
    ax = x0[A] + sa * seg_dx[A]
    ay = y0[A] + sa * seg_dy[A]
    sb = (ov0 - t0[B]) / duration[B]
    bx = x0[B] + sb * seg_dx[B]
    by = y0[B] + sb * seg_dy[B]
    # relative velocity (Segment.vx / .vy arithmetic)
    dvx = vx[A] - vx[B]
    dvy = vy[A] - vy[B]
    dx = ax - bx
    dy = ay - by

    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dx * dvx + dy * dvy)
    c = dx * dx + dy * dy - range_sq
    disc = b * b - 4.0 * a * c  # read only where a >= 1e-15

    const = a < 1e-15  # no relative motion: distance constant
    flat = np.flatnonzero(const & (c <= 0.0))
    quad = np.flatnonzero(~const & (disc >= 0.0))
    aq, bq = a[quad], b[quad]
    sqrt_disc = np.sqrt(disc[quad])
    lo = np.maximum((-bq - sqrt_disc) / (2.0 * aq), 0.0)
    hi = np.minimum((-bq + sqrt_disc) / (2.0 * aq), ov1[quad] - ov0[quad])
    ok = hi > lo
    quad, base = quad[ok], ov0[quad[ok]]
    starts = np.concatenate((ov0[flat], base + lo[ok]))
    ends = np.concatenate((ov1[flat], base + hi[ok]))
    rows = np.concatenate((flat, quad))
    na, nb = node[A[rows]], node[B[rows]]
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
    gap: float = 1e-9,
) -> tuple[_Floats, _Floats, _Ints, _Ints]:
    """Merge each pair's windows into contacts, as ``(start, end, a, b)`` columns.

    The array form of the scalar fold: windows sorted by
    ``(a, b, start, end)``, fused while ``start <= cur_e + gap`` (the
    ``gap`` of the oracle's ``merge_windows``, 1e-9 s
    for extracted contacts; :meth:`ContactTrace.coalesced
    <repro.mobility.contact.ContactTrace.coalesced>` fuses at 0), then
    each contact's end capped at ``start + contact_cap`` and contacts
    shorter than ``min_duration`` dropped.

    The scalar fold's ``cur_e`` — the largest end of the contact being
    built — equals the running maximum end over *all* earlier windows of
    the pair: every earlier contact of the pair ended more than ``gap``
    before the current one's first start. So a window starts a new
    contact exactly when ``start > running_max + gap``. The running max
    is exact: the ends are ranked densely and offset by pair, so one
    ``maximum.accumulate`` never crosses a pair boundary and compares
    only ranks. Every float operation (``+ gap``, the cap's addition,
    the duration's subtraction) is the scalar fold's, so the columns are
    bit-identical to it. A window that repeats an earlier one of its pair
    starts no later than the running maximum end, so it joins that
    contact and changes nothing. Returned in ``(start, end, a, b)`` order.
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
    contact_start[1:] |= ws[1:] > running_max[:-1] + gap
    first = np.flatnonzero(contact_start)
    cs, ca, cb = ws[first], wa[first], wb[first]
    ce: _Floats = np.maximum.reduceat(we, first)
    if contact_cap is not None:
        ce = np.minimum(ce, cs + contact_cap)
    keep = ce - cs >= min_duration
    cs, ce, ca, cb = cs[keep], ce[keep], ca[keep], cb[keep]
    final = np.lexsort((cb, ca, ce, cs))
    return cs[final], ce[final], ca[final], cb[final]


def _blockwise_windows(
    segments: SegmentColumns, comm_range: float, cell_size: float | None
) -> tuple[_Floats, _Floats, _Ints, _Ints]:
    """Every below-range window, as ``(start, end, a, b)`` columns: the
    narrow phase runs on each block of candidates as the broad phase
    yields it, so only the windows outlive a block."""
    motion = _segment_motion(segments)
    range_sq = comm_range * comm_range
    none = np.empty(0, dtype=np.int64)  # typed empty columns when no block runs
    found = [_batched_windows(none, none, segments, motion, range_sq)]
    for seg_a, seg_b in _candidate_segment_pairs(segments, comm_range, cell_size=cell_size):
        found.append(_batched_windows(seg_a, seg_b, segments, motion, range_sq))
    starts, ends, na, nb = (np.concatenate(column) for column in zip(*found, strict=True))
    return starts, ends, na, nb


def contacts_from_trajectories(
    columns: SegmentColumns,
    comm_range: float,
    *,
    contact_cap: float | None = 500.0,
    min_duration: float = 1.0,
    horizon: float | None = None,
    name: str = "",
) -> ContactTrace:
    """Extract the full contact trace of a population.

    Args:
        columns: Every node's segments, checked by
            :meth:`SegmentColumns.validated
            <repro.mobility.trajectory.SegmentColumns.validated>`.
        comm_range: Radio range in metres.
        contact_cap: Truncate each encounter to at most this many seconds
            (the paper caps encounters at 500 s); None disables.
        min_duration: Discard encounters shorter than this.
        horizon: Trace horizon; defaults to the latest trajectory end.

    Returns:
        A :class:`~repro.mobility.contact.ContactTrace` over the
        population, built from columns
        (:meth:`~repro.mobility.contact.ContactTrace.from_arrays`).
    """
    if not comm_range > 0:
        raise ValueError("comm_range must be positive")
    columns = columns.validated()
    starts, ends, na, nb = _fold_windows(
        *_blockwise_windows(columns, comm_range, None),
        contact_cap=contact_cap,
        min_duration=min_duration,
    )
    if horizon is None:
        horizon = columns.end_time
    horizon = max(horizon, float(ends.max()) if ends.size else 0.0)
    return ContactTrace.from_arrays(
        starts,
        ends,
        na,
        nb,
        num_nodes=columns.num_nodes,
        horizon=horizon,
        name=name,
    )
