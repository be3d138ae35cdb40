"""On-disk contact trace formats.

Two formats are supported:

1. **Canonical format** (``read_contact_trace`` / ``write_contact_trace``) —
   the library's own format. Header directives then one contact per line::

       # repro contact trace v1
       nodes 12
       horizon 524162
       # a   b   start     end
       3     9   3568.0    3882.0
       ...

2. **CRAWDAD-Haggle-style adapter** (``read_haggle_trace``) — whitespace
   columns ``id1 id2 start end [count ...]`` with 1-based device ids and no
   header, matching the published ``cambridge/haggle/imote`` contact listings.
   Extra columns are ignored, so the genuine dataset drops in unchanged.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TextIO

from repro.ioutil import atomic_write
from repro.mobility.contact import Contact, ContactTrace

_MAGIC = "# repro contact trace v1"


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed."""

    def __init__(self, message: str, *, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _open_text(source: str | Path | TextIO) -> tuple[TextIO, bool]:
    """Return (stream, should_close)."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def write_contact_trace(trace: ContactTrace, dest: str | Path | TextIO) -> None:
    """Write a trace in the canonical format.

    A path destination is written atomically (temp file + rename), so a
    crash mid-write never leaves a truncated trace under the target name.
    """
    if isinstance(dest, (str, Path)):
        atomic_write(dest, lambda stream: _write_canonical(trace, stream))
        return
    _write_canonical(trace, dest)


def _write_canonical(trace: ContactTrace, stream: TextIO) -> None:
    stream.write(_MAGIC + "\n")
    if trace.name:
        stream.write(f"# name: {trace.name}\n")
    stream.write(f"nodes {trace.num_nodes}\n")
    # float() normalises NumPy scalars that mobility generators may
    # leave in contact fields (np.float64 repr is not parseable here).
    stream.write(f"horizon {float(trace.horizon)!r}\n")
    stream.write("# a b start end\n")
    for c in trace.contacts:
        stream.write(f"{int(c.a)} {int(c.b)} {float(c.start)!r} {float(c.end)!r}\n")


def read_contact_trace(source: str | Path | TextIO) -> ContactTrace:
    """Parse a canonical-format trace.

    Raises:
        TraceFormatError: on any malformed header or record, naming the
            line of the record or directive at fault.
    """
    stream, close = _open_text(source)
    try:
        num_nodes: int | None = None
        horizon: float | None = None
        name = ""
        contacts: list[Contact] = []
        record_lines: list[int] = []  # the line of each contact
        seen: dict[str, int] = {}  # directive -> its line
        first = stream.readline()
        if first.strip() != _MAGIC:
            raise TraceFormatError(
                f"missing magic header {_MAGIC!r} (got {first.strip()!r})", line_no=1
            )
        for line_no, raw in enumerate(stream, start=2):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# name:"):
                    name = line[len("# name:") :].strip()
                continue
            fields = line.split()
            if fields[0] in ("nodes", "horizon"):
                directive = fields[0]
                if len(fields) != 2:
                    raise TraceFormatError(
                        f"{directive} directive takes one value", line_no=line_no
                    )
                if directive in seen:
                    raise TraceFormatError(
                        f"repeated {directive} directive (first on line {seen[directive]})",
                        line_no=line_no,
                    )
                seen[directive] = line_no
                try:
                    if directive == "nodes":
                        num_nodes = int(fields[1])
                    else:
                        horizon = float(fields[1])
                except ValueError as exc:
                    raise TraceFormatError(
                        f"bad {directive} value {fields[1]!r}", line_no=line_no
                    ) from exc
                if num_nodes is not None and num_nodes < 2:
                    raise TraceFormatError(
                        f"need at least 2 nodes, got {num_nodes}", line_no=line_no
                    )
                if horizon is not None and not math.isfinite(horizon):
                    raise TraceFormatError(
                        f"horizon must be finite, got {horizon}", line_no=line_no
                    )
                continue
            if len(fields) != 4:
                raise TraceFormatError(
                    f"expected 'a b start end', got {len(fields)} fields", line_no=line_no
                )
            try:
                a, b = int(fields[0]), int(fields[1])
                start, end = float(fields[2]), float(fields[3])
            except ValueError as exc:
                raise TraceFormatError(f"unparsable record {line!r}", line_no=line_no) from exc
            try:
                contacts.append(Contact(start=start, end=end, a=a, b=b))
            except ValueError as exc:
                raise TraceFormatError(str(exc), line_no=line_no) from exc
            record_lines.append(line_no)
        if num_nodes is None:
            raise TraceFormatError("missing 'nodes' directive")
        for contact, line_no in zip(contacts, record_lines, strict=True):
            if not (0 <= contact.a < num_nodes and 0 <= contact.b < num_nodes):
                raise TraceFormatError(
                    f"contact {contact} references nodes outside [0, {num_nodes})",
                    line_no=line_no,
                )
        if horizon is not None and contacts:
            last = max(range(len(contacts)), key=lambda i: contacts[i].end)
            if horizon < contacts[last].end:
                raise TraceFormatError(
                    f"horizon {horizon} precedes the end {contacts[last].end} of the "
                    f"contact on line {record_lines[last]}",
                    line_no=seen["horizon"],
                )
        try:
            return ContactTrace(contacts, num_nodes, horizon=horizon, name=name)
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from exc
    finally:
        if close:
            stream.close()


def read_haggle_trace(
    source: str | Path | TextIO,
    *,
    num_nodes: int | None = None,
    one_based_ids: bool = True,
    horizon: float | None = None,
    name: str = "haggle",
) -> ContactTrace:
    """Parse a CRAWDAD-Haggle-style contact listing.

    Each non-comment line is ``id1 id2 start end [extra columns...]``. The
    published iMote listings use 1-based device ids; pass
    ``one_based_ids=False`` for 0-based variants.

    Args:
        num_nodes: Population size; inferred as ``max(id) + 1`` if omitted.
        horizon: Observation end; defaults to the last contact end.

    Raises:
        TraceFormatError: on malformed records.
    """
    stream, close = _open_text(source)
    try:
        contacts: list[Contact] = []
        for line_no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%", "//")):
                continue
            fields = line.split()
            if len(fields) < 4:
                raise TraceFormatError(
                    f"expected at least 4 columns, got {len(fields)}", line_no=line_no
                )
            try:
                a, b = int(fields[0]), int(fields[1])
                start, end = float(fields[2]), float(fields[3])
            except ValueError as exc:
                raise TraceFormatError(f"unparsable record {line!r}", line_no=line_no) from exc
            if one_based_ids:
                a -= 1
                b -= 1
            if a < 0 or b < 0:
                raise TraceFormatError(f"negative node id in {line!r}", line_no=line_no)
            if end <= start:
                # Haggle listings occasionally contain zero-length sightings;
                # they carry no exchange opportunity, so drop them.
                continue
            try:
                contacts.append(Contact(start=start, end=end, a=a, b=b))
            except ValueError as exc:
                raise TraceFormatError(str(exc), line_no=line_no) from exc
        if not contacts:
            raise TraceFormatError("trace contains no usable contacts")
        inferred = max(c.b for c in contacts) + 1
        n = num_nodes if num_nodes is not None else inferred
        if n < inferred:
            raise TraceFormatError(
                f"num_nodes={n} but records reference node {inferred - 1}"
            )
        try:
            return ContactTrace(contacts, n, horizon=horizon, name=name)
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from exc
    finally:
        if close:
            stream.close()


def write_haggle_trace(
    trace: ContactTrace, dest: str | Path | TextIO, *, one_based_ids: bool = True
) -> None:
    """Write a trace as Haggle-style ``id1 id2 start end`` rows.

    A path destination is written atomically, like
    :func:`write_contact_trace`.
    """
    off = 1 if one_based_ids else 0

    def _write(stream: TextIO) -> None:
        for c in trace.contacts:
            stream.write(f"{c.a + off} {c.b + off} {c.start!r} {c.end!r}\n")

    if isinstance(dest, (str, Path)):
        atomic_write(dest, _write)
        return
    _write(dest)

