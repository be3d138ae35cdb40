"""Per-cell checkpoint journal — sweep campaigns that survive crashes.

A multi-hour replication campaign used to be all-or-nothing: kill the
process at cell 199 of 200 and every completed :class:`RunResult` was
gone. The :class:`CheckpointJournal` fixes that with a *campaign
directory*:

``manifest.json``
    Written atomically once, up front. Carries the journal schema
    version and the **campaign fingerprint** — master seed, loads,
    replications, protocol labels, the content digest of every trace,
    engine — so a resume against the wrong campaign (different seed,
    different grid, different mobility) is refused instead of silently
    mixing results.

``journal.jsonl``
    Append-only; one JSON record per *completed* cell, flushed and
    fsynced before the cell counts as done::

        {"v": 2, "key": {"protocol": "<label>", "load": 5, "rep": 0},
         "result": {...RunResult.to_dict()...}}

    A crash can only tear the final record (a partial line with no
    terminating newline); on load that tail is dropped — and truncated
    away so later appends start clean — and the torn cell simply
    re-runs. A *terminated* record that fails to parse cannot come from
    a torn append, so it is treated as a poisoned journal and refused.

``traces/<key>.npz``
    The campaign's trace store (:meth:`CheckpointJournal.trace`): each
    trace the cells run on, as four columns plus its population,
    horizon, name and the JSON *recipe* that built it; ``<key>`` is the
    first 16 hex digits of the recipe's sha256. Each file is written
    atomically once and never rewritten, so a resume loads its traces
    instead of regenerating them. A stored trace that cannot be read, or
    whose recipe differs from the requested one, is refused — never
    silently rebuilt.

Resume is **exact**, not approximate: every cell's randomness derives
from its own ``(master_seed, protocol, load, rep)`` coordinates (see
:mod:`repro.core.sweep`), and :meth:`RunResult.to_dict` round-trips
every field losslessly through JSON, so a campaign killed mid-flight
and resumed reconstructs a :class:`~repro.core.results.SweepResult`
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import zipfile
from pathlib import Path
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, TextIO

import numpy as np

from repro.core.results import RunResult
from repro.ioutil import atomic_write, atomic_write_bytes
from repro.mobility.contact import ContactTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executors import Cell

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_COLUMNS",
    "TRACE_FORMAT",
    "CellKey",
    "CheckpointError",
    "CheckpointJournal",
    "cell_key",
]

#: Journal/manifest schema version; bumped on incompatible layout changes.
SCHEMA_VERSION = 2

#: Layout version of a stored trace file; part of every trace recipe.
TRACE_FORMAT = 1

#: Trace columns and their fixed dtypes, in ``contact_arrays`` order: the
#: layout of a stored trace and of a trace's fingerprint digest.
TRACE_COLUMNS = (("starts", "<f8"), ("ends", "<f8"), ("a", "<i8"), ("b", "<i8"))

#: ``(protocol label, load, rep)`` — a cell's coordinates in the journal.
#: The *label* (not the registry name) keys the record so two parameter
#: variants of one protocol (e.g. P-Q at different P) never collide.
CellKey = tuple[str, int, int]


class CheckpointError(RuntimeError):
    """A campaign directory cannot be (re)used: corrupt, mismatched, or
    already populated without ``resume``."""


def cell_key(cell: "Cell") -> CellKey:
    """The journal key of a sweep cell."""
    return (cell.protocol.label, cell.load, cell.rep)


class CheckpointJournal:
    """Crash-safe per-cell result journal over a campaign directory.

    Usage (``run_sweep`` does all of this for you)::

        journal = CheckpointJournal(directory, resume=True)
        trace = journal.trace(recipe, build)  # stored trace, or build()
        journal.begin(fingerprint)          # create/validate + load records
                                            # + store newly built traces
        cached = journal.get(key)           # skip journaled cells
        journal.record(key, result)         # as each new cell completes
        journal.close()

    Args:
        directory: The campaign directory (created on :meth:`begin`).
        resume: Continue an existing campaign. When False (default), a
            directory that already holds journaled cells is refused —
            an accidental re-run must not silently resume, and a
            deliberate resume must not silently start over.
    """

    MANIFEST_NAME = "manifest.json"
    JOURNAL_NAME = "journal.jsonl"
    TRACES_NAME = "traces"

    def __init__(self, directory: str | Path, *, resume: bool = False) -> None:
        self.directory = Path(directory)
        self.resume = resume
        #: True when a torn (half-written) trailing record was discarded.
        self.dropped_partial = False
        self._records: dict[CellKey, RunResult] = {}
        self._stream: TextIO | None = None
        #: Traces built through :meth:`trace`, by store path, with their
        #: recipe text; written by :meth:`begin` once the campaign is accepted.
        self._unsaved: dict[Path, tuple[str, ContactTrace]] = {}

    # ------------------------------------------------------------ lifecycle

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def traces_dir(self) -> Path:
        return self.directory / self.TRACES_NAME

    def begin(self, fingerprint: Mapping[str, object]) -> None:
        """Create or validate the campaign directory and load its records.

        Traces built through :meth:`trace` before this call are stored
        once the directory is accepted.

        Args:
            fingerprint: JSON-safe identity of the campaign (see
                :func:`repro.core.sweep.campaign_fingerprint`). A new
                directory stores it; an existing one must match it.

        Raises:
            CheckpointError: on schema/fingerprint mismatch, a poisoned
                journal, or an already-populated directory without
                ``resume=True``.
        """
        fingerprint = json.loads(json.dumps(dict(fingerprint)))
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            self._check_manifest(fingerprint)
        else:
            if self.journal_path.exists() and self.journal_path.stat().st_size:
                raise CheckpointError(
                    f"{self.directory}: journal without a manifest — the "
                    "campaign directory is corrupt; use a fresh directory"
                )
            atomic_write(
                self.manifest_path,
                lambda fh: json.dump(
                    {"schema": SCHEMA_VERSION, "campaign": fingerprint},
                    fh,
                    indent=2,
                ),
            )
        if self.journal_path.exists():
            self._load_journal()
        if self._records and not self.resume:
            raise CheckpointError(
                f"{self.directory} already holds {len(self._records)} "
                "journaled cell(s); pass resume=True (CLI: --resume) to "
                "continue the campaign, or point the checkpoint at a "
                "fresh directory"
            )
        self._save_traces()
        self._stream = open(self.journal_path, "a", encoding="utf-8")

    def close(self) -> None:
        """Close the append stream (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> CheckpointJournal:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------- reading

    def _check_manifest(self, fingerprint: dict[str, object]) -> None:
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CheckpointError(
                f"{self.manifest_path}: unreadable manifest: {exc}"
            ) from exc
        schema = manifest.get("schema") if isinstance(manifest, dict) else None
        if schema != SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.manifest_path}: schema version {schema!r} does not "
                f"match this build's {SCHEMA_VERSION} — the journal format "
                "changed; re-run the campaign in a fresh directory"
            )
        stored = manifest.get("campaign")
        if stored != fingerprint:
            raise CheckpointError(
                f"{self.directory}: campaign fingerprint mismatch — the "
                "checkpoint belongs to a different sweep (seed, grid, "
                "protocols, trace, or engine differ)\n"
                f"  journal: {json.dumps(stored, sort_keys=True)}\n"
                f"  request: {json.dumps(fingerprint, sort_keys=True)}"
            )

    def _load_journal(self) -> None:
        raw = self.journal_path.read_bytes()
        keep = raw
        if raw and not raw.endswith(b"\n"):
            # a torn append: drop (and truncate away) the partial tail so
            # the next append starts on a clean line boundary
            cut = raw.rfind(b"\n") + 1
            keep = raw[:cut]
            self.dropped_partial = True
        for line_no, line in enumerate(keep.decode("utf-8").splitlines(), start=1):
            if not line.strip():
                continue
            try:
                key, result = self._parse_record(line)
            except CheckpointError:
                raise
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"{self.journal_path}: poisoned journal record at line "
                    f"{line_no}: {exc}"
                ) from exc
            self._records[key] = result
        if self.dropped_partial:
            with open(self.journal_path, "rb+") as fh:
                fh.truncate(len(keep))

    def _parse_record(self, line: str) -> tuple[CellKey, RunResult]:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError(f"record is {type(record).__name__}, not an object")
        version = record.get("v")
        if version != SCHEMA_VERSION:
            raise CheckpointError(
                f"{self.journal_path}: record schema version {version!r} "
                f"does not match this build's {SCHEMA_VERSION}"
            )
        key_data = record["key"]
        key = (
            str(key_data["protocol"]),
            int(key_data["load"]),
            int(key_data["rep"]),
        )
        return key, RunResult.from_dict(record["result"])

    # ------------------------------------------------------------- writing

    def record(self, key: CellKey, result: RunResult) -> None:
        """Append one completed cell, durably (flush + fsync).

        Raises:
            CheckpointError: if called before :meth:`begin` or after
                :meth:`close`.
        """
        if self._stream is None:
            raise CheckpointError("journal is not open — call begin() first")
        line = json.dumps(
            {
                "v": SCHEMA_VERSION,
                "key": {"protocol": key[0], "load": key[1], "rep": key[2]},
                "result": result.to_dict(),
            },
            separators=(",", ":"),
        )
        self._stream.write(line + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._records[key] = result

    # ---------------------------------------------------------- trace store

    def trace(
        self, recipe: Mapping[str, object], build: Callable[[], ContactTrace]
    ) -> ContactTrace:
        """The trace ``recipe`` describes, loaded from the store or built.

        A stored trace comes back columnar (see
        :meth:`~repro.mobility.contact.ContactTrace.from_arrays`), with
        no per-contact objects. Otherwise ``build()`` runs, and
        :meth:`begin` stores its result once the campaign is accepted, so
        a refused resume writes nothing into another campaign's
        directory.

        Args:
            recipe: JSON-safe description that determines the trace
                completely (for a scenario: mobility spec and effective
                seed); the store adds :data:`TRACE_FORMAT` to it.
            build: Builds the trace when the store has none.

        Raises:
            CheckpointError: naming the file, when a stored trace cannot
                be read or records a different recipe.
        """
        text = json.dumps(
            {**recipe, "format": TRACE_FORMAT}, sort_keys=True, separators=(",", ":")
        )
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        path = self.traces_dir / f"{key}.npz"
        if path.exists():
            return self._load_trace(path, text)
        trace = build()
        self._unsaved[path] = (text, trace)
        return trace

    def _load_trace(self, path: Path, recipe: str) -> ContactTrace:
        try:
            with np.load(path, allow_pickle=False) as data:
                stored = str(data["recipe"].item())
                columns = [data[name] for name, _ in TRACE_COLUMNS]
                num_nodes = int(data["num_nodes"])
                horizon = float(data["horizon"])
                name = str(data["name"].item())
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: unreadable stored trace: {exc}") from exc
        if stored != recipe:
            raise CheckpointError(
                f"{path}: stored trace was built from {stored}, not the "
                f"requested {recipe} — the trace store is corrupt; use a "
                "fresh campaign directory"
            )
        dtypes = [column.dtype.str for column in columns]
        if dtypes != [dtype for _, dtype in TRACE_COLUMNS]:
            raise CheckpointError(f"{path}: stored trace columns have dtypes {dtypes}")
        try:
            return ContactTrace.from_arrays(
                *columns, num_nodes=num_nodes, horizon=horizon, name=name
            )
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid stored trace: {exc}") from exc

    def _save_traces(self) -> None:
        if self._unsaved:
            self.traces_dir.mkdir(exist_ok=True)
        for path, (recipe, trace) in self._unsaved.items():
            columns = {
                name: column.astype(dtype, copy=False)
                for (name, dtype), column in zip(
                    TRACE_COLUMNS, trace.contact_arrays(), strict=True
                )
            }
            write = functools.partial(
                np.savez,
                **columns,
                num_nodes=np.int64(trace.num_nodes),
                horizon=np.float64(trace.horizon),
                name=np.str_(trace.name),
                recipe=np.str_(recipe),
            )
            atomic_write_bytes(path, write)
        self._unsaved.clear()

    # -------------------------------------------------------------- access

    def get(self, key: CellKey) -> RunResult | None:
        """The journaled result for ``key``, or None if not yet recorded."""
        return self._records.get(key)

    def __contains__(self, key: CellKey) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> list[CellKey]:
        """Journaled cell keys, in journal (completion) order."""
        return list(self._records)
