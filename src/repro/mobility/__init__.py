"""Mobility substrate: everything that produces or consumes contact traces.

The unified framework of the paper evaluates every protocol on the *same*
mobility inputs. All mobility models in this package therefore reduce to one
common currency — a :class:`~repro.mobility.contact.ContactTrace`, i.e. a
time-ordered list of ``(node_a, node_b, start, end)`` encounters — which the
simulation core consumes without knowing where it came from.

Producers:

* :class:`~repro.mobility.synthetic.CampusTraceGenerator` — substitute for
  the CRAWDAD ``cambridge/haggle/imote/intel`` dataset (12 devices, 5 days).
* :class:`~repro.mobility.rwp.SubscriberPointRWP` — the paper's modified
  Random-Way-Point model (subscriber points, pause < 1000 s, 0–10 m/s).
* :class:`~repro.mobility.rwp.ClassicRWP` — textbook RWP over a free area.
* :func:`~repro.mobility.interval.generate_interval_scenario` — the
  controlled inter-encounter-interval scenarios of Fig. 14.
* :mod:`~repro.mobility.trace_file` — parsers/writers for on-disk traces,
  including a CRAWDAD-Haggle-style adapter so the genuine dataset drops in.

Trajectory-based producers accept an ``engine`` knob: ``"fast"`` (default)
routes contact extraction through the vectorized broad/narrow-phase
detector in :mod:`~repro.mobility.fastcontact`, ``"exact"`` through the
scalar reference sweep in :mod:`~repro.mobility.trajectory`; both yield
bit-identical traces.

Analysis:

* :mod:`~repro.mobility.stats` — inter-contact / duration statistics used by
  the synthetic generator's calibration tests and by EXPERIMENTS.md.
"""

from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.fastcontact import extract_contacts_fast
from repro.mobility.interval import IntervalScenarioConfig, generate_interval_scenario
from repro.mobility.rwp import ClassicRWP, RWPConfig, SubscriberPointRWP
from repro.mobility.stats import TraceStats, compute_trace_stats
from repro.mobility.synthetic import CampusTraceConfig, CampusTraceGenerator
from repro.mobility.trace_file import (
    TraceFormatError,
    read_contact_trace,
    read_haggle_trace,
    write_contact_trace,
)
from repro.mobility.trajectory import (
    CONTACT_ENGINES,
    Segment,
    SegmentColumns,
    Trajectory,
    contacts_from_trajectories,
)

__all__ = [
    "Contact",
    "ContactTrace",
    "CONTACT_ENGINES",
    "Segment",
    "SegmentColumns",
    "Trajectory",
    "contacts_from_trajectories",
    "extract_contacts_fast",
    "CampusTraceConfig",
    "CampusTraceGenerator",
    "ClassicRWP",
    "RWPConfig",
    "SubscriberPointRWP",
    "IntervalScenarioConfig",
    "generate_interval_scenario",
    "TraceStats",
    "compute_trace_stats",
    "TraceFormatError",
    "read_contact_trace",
    "read_haggle_trace",
    "write_contact_trace",
]
