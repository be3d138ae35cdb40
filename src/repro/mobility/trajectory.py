"""Piecewise-linear trajectories as segment columns.

A node's movement is a sequence of time segments, each either a pause
(endpoints equal) or a constant-velocity move. :class:`SegmentColumns`
holds every segment of a population as parallel NumPy columns: the form
the mobility models write and the contact extractor
(:func:`repro.mobility.fastcontact.contacts_from_trajectories`) reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray


class SegmentColumns(NamedTuple):
    """Every segment of a population as parallel columns.

    Row ``k`` is one segment of node ``node[k]``. Each node's segments are
    consecutive rows in time order, and the nodes come in blocks
    ``0, 1, ..., n-1``. Both RWP models' ``generate_segments()`` write
    this form directly, one row per pause or move.
    """

    node: NDArray[np.int64]
    t0: NDArray[np.float64]
    t1: NDArray[np.float64]
    x0: NDArray[np.float64]
    y0: NDArray[np.float64]
    x1: NDArray[np.float64]
    y1: NDArray[np.float64]

    @property
    def num_nodes(self) -> int:
        """Number of node blocks."""
        if len(self.node) == 0:
            return 0
        return int(np.count_nonzero(np.diff(self.node))) + 1

    @property
    def end_time(self) -> float:
        """Latest end of any node's trajectory (its last segment's ``t1``)."""
        last = np.append(self.node[1:] != self.node[:-1], True)
        return float(self.t1[last].max())

    def validated(self) -> SegmentColumns:
        """The columns as int64/float64 arrays, checked.

        Checks ``t1 > t0`` on every row, node ids ``0..n-1`` in
        consecutive blocks, and each node's segments contiguous in time
        (1e-9 s) and space (1e-6 m): the tolerances of the per-object
        ``Segment`` and ``Trajectory`` in ``tests/oracles/scalar_contacts.py``.

        Raises:
            ValueError: naming the first broken invariant.
        """
        node = np.asarray(self.node)
        if node.ndim != 1 or not np.issubdtype(node.dtype, np.integer):
            raise ValueError("segment node column must be 1-D integers")
        cols = SegmentColumns(
            node.astype(np.int64, copy=False),
            *(np.asarray(column, dtype=np.float64) for column in self[1:]),
        )
        node, t0, t1, x0, y0, x1, y1 = cols
        if any(c.ndim != 1 or len(c) != len(node) for c in cols):
            raise ValueError("segment columns must be 1-D and of equal length")
        if len(node) == 0:
            raise ValueError("segment columns hold no segments")
        bad = np.flatnonzero(~(t1 > t0))
        if bad.size:
            k = bad[0]
            raise ValueError(f"segment requires t1 > t0, got [{t0[k]}, {t1[k]}]")
        step = np.diff(node)
        if node[0] != 0 or not np.all((step == 0) | (step == 1)):
            raise ValueError("segment node ids must be 0..n-1 in consecutive blocks")
        same = step == 0
        gap = np.flatnonzero(
            same & ~_isclose(t1[:-1], t0[1:], rel_tol=0.0, abs_tol=1e-9)
        )
        if gap.size:
            k = gap[0]
            raise ValueError(f"segments not contiguous: {t1[k]} -> {t0[k + 1]}")
        jump = same & ~(
            _isclose(x1[:-1], x0[1:], rel_tol=1e-9, abs_tol=1e-6)
            & _isclose(y1[:-1], y0[1:], rel_tol=1e-9, abs_tol=1e-6)
        )
        if jump.any():
            raise ValueError("segments not spatially contiguous")
        return cols


def _isclose(
    a: NDArray[np.float64], b: NDArray[np.float64], *, rel_tol: float, abs_tol: float
) -> NDArray[np.bool_]:
    """Element-wise :func:`math.isclose` (same tolerance rule, same infinities)."""
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.abs(a - b)
        tol = np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(b)), abs_tol)
        return (a == b) | (np.isfinite(diff) & (diff <= tol))
