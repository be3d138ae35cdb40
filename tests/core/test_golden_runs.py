"""Golden regression pins for the seed scenario, on every DES path that runs it.

These values were produced by the seed configuration (campus trace,
``seed=7``, 10-slot buffers, ``reject`` drop policy) and verified
bit-identical before and after the buffer-policy refactor. A kernel change
that shifts any simulation path — event ordering, RNG stream derivation,
metric integration, buffer admission — shows up here immediately. Each
case runs on the paths of the contact sweep :data:`GOLDEN_TIERS` lists
for its protocol: the sweep-all path (``kernel="event"``) always, and the
skip path (``kernel="soa"``) for every protocol it accepts. Each run must
match the pins, and the two paths' results must be byte-identical
(``repr``). ``dynamic_ttl`` runs on the sweep-all path only; its cases
assert that the skip path still refuses it.

The faulted pins (:data:`GOLDEN_FAULTED`) run the same scenario under the
disruption model (:mod:`repro.faults`): churn under each ``state_loss``
mode, lossy links (drops, mid-contact interruptions, transfer failures)
and all of them at once, for every protocol the kernel accepts. They pin
each result's churn counters and the sha256 of its ``repr`` on the tiers
:data:`FAULTED_TIERS` lists.

If a change *intentionally* alters simulation semantics, regenerate with::

    PYTHONPATH=src python - <<'EOF'
    from repro.core.protocols.registry import make_protocol_config
    from repro.core.sweep import SweepConfig, run_single
    from repro.mobility.synthetic import CampusTraceGenerator
    trace = CampusTraceGenerator(seed=7).generate()
    for (name, kwargs), (load, rep) in ...:  # see GOLDEN below
        print(run_single(trace, make_protocol_config(name, **kwargs),
                         load, rep, SweepConfig(master_seed=7)))
    EOF
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, run_single
from repro.faults import FaultSpec

#: Constructor kwargs for every pinned protocol: flooding, TTL and
#: anti-packets, the control-bearing ec and immunity, and the paper's three
#: enhancements at their Algorithm 1/2 defaults.
GOLDEN_PROTOCOLS: dict[str, dict[str, object]] = {
    "pure": {},
    "ttl": {"ttl": 300.0},
    "pq": {"p": 1.0, "q": 1.0, "anti_packets": True},
    "ec": {},
    "immunity": {},
    "dynamic_ttl": {},
    "ec_ttl": {},
    "cumulative_immunity": {},
}

#: The DES tiers each protocol's pins run on. The SoA kernel refuses
#: ``dynamic_ttl``, which re-arms every buffered copy at each encounter.
GOLDEN_TIERS: dict[str, tuple[str, ...]] = {
    "pure": ("event", "soa"),
    "ttl": ("event", "soa"),
    "pq": ("event", "soa"),
    "ec": ("event", "soa"),
    "immunity": ("event", "soa"),
    "dynamic_ttl": ("event",),
    "ec_ttl": ("event", "soa"),
    "cumulative_immunity": ("event", "soa"),
}

#: (protocol name, load, replication) → exact seed-scenario metrics.
GOLDEN: dict[tuple[str, int, int], dict[str, object]] = {
    ("pure", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=41,
        buffer_occupancy=0.09645330709440073,
        peak_occupancy=0.25833333333333336,
        duplication_rate=0.0946318698294398,
        end_time=9504.79563371244,
    ),
    ("pure", 30, 1): dict(
        delivered=30,
        delay=200638.0333761878,
        transmissions=130,
        buffer_occupancy=0.7822151639604117,
        peak_occupancy=0.8333333333333334,
        duplication_rate=0.11646657918739857,
        end_time=200638.0333761878,
    ),
    ("ttl", 10, 0): dict(
        delivered=10,
        delay=21239.336647955755,
        transmissions=39,
        buffer_occupancy=0.003667423638634794,
        peak_occupancy=0.03333333333333333,
        duplication_rate=0.08630447725195987,
        end_time=21239.336647955755,
    ),
    ("ttl", 30, 1): dict(
        delivered=30,
        delay=217142.23887968616,
        transmissions=510,
        buffer_occupancy=0.005895168217461815,
        peak_occupancy=0.09166666666666666,
        duplication_rate=0.08543936932736591,
        end_time=217142.23887968616,
    ),
    ("pq", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=30,
        buffer_occupancy=0.04834130565739798,
        peak_occupancy=0.12083333333333335,
        duplication_rate=0.09587998441010431,
        end_time=9504.79563371244,
    ),
    ("pq", 30, 1): dict(
        delivered=30,
        delay=46062.10360502355,
        transmissions=232,
        buffer_occupancy=0.22723092182253896,
        peak_occupancy=0.5283333333333337,
        duplication_rate=0.13439470267943393,
        end_time=46062.10360502355,
    ),
    ("ec", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=41,
        buffer_occupancy=0.09645330709440073,
        peak_occupancy=0.25833333333333336,
        duplication_rate=0.0946318698294398,
        end_time=9504.79563371244,
    ),
    ("ec", 30, 1): dict(
        delivered=30,
        delay=185445.126472493,
        transmissions=828,
        buffer_occupancy=0.7763815722510435,
        peak_occupancy=0.8333333333333334,
        duplication_rate=0.11677667946375138,
        end_time=185445.126472493,
        # EC's intrinsic eviction rule fires under load-30 pressure —
        # pinned so the refactored buffer path stays accounting-identical
        drops={"max-ec": 698},
    ),
    ("immunity", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=30,
        buffer_occupancy=0.04834130565739798,
        peak_occupancy=0.12083333333333335,
        duplication_rate=0.09587998441010431,
        end_time=9504.79563371244,
    ),
    ("immunity", 30, 1): dict(
        delivered=30,
        delay=46062.10360502355,
        transmissions=232,
        buffer_occupancy=0.22723092182253896,
        peak_occupancy=0.5283333333333337,
        duplication_rate=0.13439470267943393,
        end_time=46062.10360502355,
    ),
    ("dynamic_ttl", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=37,
        buffer_occupancy=0.03097717533356332,
        peak_occupancy=0.11666666666666667,
        duplication_rate=0.09377596756485004,
        end_time=9504.79563371244,
    ),
    ("dynamic_ttl", 30, 1): dict(
        delivered=30,
        delay=206207.78529773545,
        transmissions=876,
        buffer_occupancy=0.07623712544656663,
        peak_occupancy=0.2916666666666667,
        duplication_rate=0.09130175919944265,
        end_time=206207.78529773545,
    ),
    ("ec_ttl", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=41,
        buffer_occupancy=0.09645330709440073,
        peak_occupancy=0.25833333333333336,
        duplication_rate=0.0946318698294398,
        end_time=9504.79563371244,
    ),
    ("ec_ttl", 30, 1): dict(
        delivered=30,
        delay=116907.04275526725,
        transmissions=758,
        buffer_occupancy=0.7132603794934993,
        peak_occupancy=0.8333333333333334,
        duplication_rate=0.1274268936658606,
        end_time=116907.04275526725,
        drops={"max-ec": 542},
    ),
    ("cumulative_immunity", 10, 0): dict(
        delivered=10,
        delay=9504.79563371244,
        transmissions=30,
        buffer_occupancy=0.0265976083065743,
        peak_occupancy=0.0875,
        duplication_rate=0.09587998441010431,
        end_time=9504.79563371244,
    ),
    ("cumulative_immunity", 30, 1): dict(
        delivered=30,
        delay=46062.10360502355,
        transmissions=232,
        buffer_occupancy=0.1165097521004226,
        peak_occupancy=0.35333333333333333,
        duplication_rate=0.13439470267943393,
        end_time=46062.10360502355,
    ),
}

#: Every pin's drop table defaults to empty (reject policy, no evictions);
#: cells whose protocol evicts intrinsically pin the exact counts above.
for _expected in GOLDEN.values():
    _expected.setdefault("drops", {})

#: The pinned RunResult fields; exact equality, floats included.
GOLDEN_FIELDS = (
    "delivered",
    "delay",
    "transmissions",
    "buffer_occupancy",
    "peak_occupancy",
    "duplication_rate",
    "end_time",
    "drops",
)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-l{k[1]}-r{k[2]}")
def test_seed_scenario_metrics_pinned(campus_trace, key):
    name, load, rep = key
    expected = GOLDEN[key]

    def run(kernel):
        return run_single(
            campus_trace,
            make_protocol_config(name, **GOLDEN_PROTOCOLS[name]),
            load,
            rep,
            SweepConfig(master_seed=7, sim=SimulationConfig(kernel=kernel)),
        )

    results = {}
    for kernel in GOLDEN_TIERS[name]:
        result = run(kernel)
        assert result.delivery_ratio == 1.0, kernel
        # exact float equality: the golden values are this code's own
        # output, so any drift means the simulation kernel changed
        got = {fld: getattr(result, fld) for fld in GOLDEN_FIELDS}
        assert got == {fld: expected[fld] for fld in GOLDEN_FIELDS}, kernel
        # occupancy integral (mean × span) — the tradeoff study's quantity
        assert result.buffer_occupancy * result.end_time == pytest.approx(
            expected["buffer_occupancy"] * expected["end_time"], rel=1e-12
        ), kernel
        results[kernel] = result
    if "soa" in results:
        # the skip path is a speed path: byte-identical to the sweep-all one
        assert repr(results["soa"]) == repr(results["event"])
    else:
        # a sweep-all-only pin: the skip path must still refuse the
        # protocol, so a skip path that starts running it has to add its
        # tier above
        with pytest.raises(ValueError, match="kernel='soa' cannot execute"):
            run("soa")


# ------------------------------------------------------------------ faulted

_CHURN = dict(churn_rate=2e-4, mean_downtime=2000.0)
_LINKS = dict(contact_drop_prob=0.1, interrupt_prob=0.2, transfer_failure_prob=0.05)

#: The fault environments of the faulted pins.
FAULT_SPECS: dict[str, FaultSpec] = {
    **{
        f"churn-{mode}": FaultSpec(**_CHURN, state_loss=mode)
        for mode in ("none", "buffer", "knowledge", "all")
    },
    "links": FaultSpec(**_LINKS),
    "everything": FaultSpec(**_CHURN, state_loss="all", **_LINKS),
}

#: The protocols pinned under faults: every golden protocol but dynamic TTL.
FAULTED_PROTOCOLS = ("pure", "ttl", "pq", "ec", "immunity", "cumulative_immunity")

#: (protocol, fault spec, load, replication) of every faulted pin: each
#: protocol under each environment at load 10, plus the knowledge-store
#: protocols at load 30, where knowledge wipes cause re-infections.
FAULTED_CELLS: tuple[tuple[str, str, int, int], ...] = (
    *((name, spec, 10, 0) for spec in FAULT_SPECS for name in FAULTED_PROTOCOLS),
    *(
        (name, "churn-knowledge", 30, 1)
        for name in ("pq", "immunity", "cumulative_immunity")
    ),
)

#: The DES tiers the faulted pins run on.
FAULTED_TIERS: tuple[str, ...] = ("event", "soa")

#: cell → (delivered, transmissions, end_time, (crashes, missed contacts,
#: dropped contacts, interrupted transfers, failed transfers,
#: re-infections), first 16 hex digits of the sha256 of the result's repr).
GOLDEN_FAULTED: dict[tuple[str, str, int, int], tuple] = {
    ("pure", "churn-none", 10, 0): (
        10, 83, 33022.3722490032,
        (56, 110, 0, 4, 0, 0),
        "141e9a3014108637",
    ),
    ("ttl", "churn-none", 10, 0): (
        10, 40, 38948.32440793008,
        (68, 145, 0, 1, 0, 0),
        "ee7dc2be887decfd",
    ),
    ("pq", "churn-none", 10, 0): (
        10, 45, 29154.336042119958,
        (47, 96, 0, 1, 0, 0),
        "ae467af710a626e0",
    ),
    ("ec", "churn-none", 10, 0): (
        10, 83, 33022.3722490032,
        (56, 110, 0, 4, 0, 0),
        "e9f0c1b0c759e402",
    ),
    ("immunity", "churn-none", 10, 0): (
        10, 45, 29154.336042119958,
        (47, 96, 0, 1, 0, 0),
        "648ccfa02d71d3af",
    ),
    ("cumulative_immunity", "churn-none", 10, 0): (
        10, 45, 29154.336042119958,
        (47, 96, 0, 1, 0, 0),
        "8f039a423bf98053",
    ),
    ("pure", "churn-buffer", 10, 0): (
        5, 66, 524162.0,
        (879, 1641, 0, 4, 0, 0),
        "76f2925bad2d285e",
    ),
    ("ttl", "churn-buffer", 10, 0): (
        5, 10, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "dfbd919e6656db17",
    ),
    ("pq", "churn-buffer", 10, 0): (
        5, 19, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "96b14e52a09c0034",
    ),
    ("ec", "churn-buffer", 10, 0): (
        5, 66, 524162.0,
        (879, 1641, 0, 4, 0, 0),
        "ec348c4a111f8e3a",
    ),
    ("immunity", "churn-buffer", 10, 0): (
        5, 19, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "ebb1743979f90bc3",
    ),
    ("cumulative_immunity", "churn-buffer", 10, 0): (
        5, 19, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "158c21cb25fcb819",
    ),
    ("pure", "churn-knowledge", 10, 0): (
        10, 83, 33022.3722490032,
        (56, 110, 0, 4, 0, 0),
        "141e9a3014108637",
    ),
    ("ttl", "churn-knowledge", 10, 0): (
        10, 40, 38948.32440793008,
        (68, 145, 0, 1, 0, 0),
        "ee7dc2be887decfd",
    ),
    ("pq", "churn-knowledge", 10, 0): (
        10, 45, 29154.336042119958,
        (47, 96, 0, 1, 0, 0),
        "eff88fc5bc68fa93",
    ),
    ("ec", "churn-knowledge", 10, 0): (
        10, 83, 33022.3722490032,
        (56, 110, 0, 4, 0, 0),
        "e9f0c1b0c759e402",
    ),
    ("immunity", "churn-knowledge", 10, 0): (
        10, 45, 29154.336042119958,
        (47, 96, 0, 1, 0, 0),
        "68435bd03d11a2c5",
    ),
    ("cumulative_immunity", "churn-knowledge", 10, 0): (
        10, 45, 29154.336042119958,
        (47, 96, 0, 1, 0, 0),
        "0e560a683e6ed2c1",
    ),
    ("pure", "churn-all", 10, 0): (
        5, 66, 524162.0,
        (879, 1641, 0, 4, 0, 0),
        "76f2925bad2d285e",
    ),
    ("ttl", "churn-all", 10, 0): (
        5, 10, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "dfbd919e6656db17",
    ),
    ("pq", "churn-all", 10, 0): (
        5, 19, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "116a8f8658ebfdd2",
    ),
    ("ec", "churn-all", 10, 0): (
        5, 66, 524162.0,
        (879, 1641, 0, 4, 0, 0),
        "ec348c4a111f8e3a",
    ),
    ("immunity", "churn-all", 10, 0): (
        5, 19, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "80e8d2b7681ef0cc",
    ),
    ("cumulative_immunity", "churn-all", 10, 0): (
        5, 19, 524162.0,
        (879, 1641, 0, 1, 0, 0),
        "b04d99b558e73b06",
    ),
    ("pure", "links", 10, 0): (
        10, 71, 21439.336647955755,
        (0, 0, 15, 7, 6, 0),
        "593377d407b1d9f1",
    ),
    ("ttl", "links", 10, 0): (
        10, 36, 29154.336042119958,
        (0, 0, 16, 3, 3, 0),
        "aeacf4e282d66f37",
    ),
    ("pq", "links", 10, 0): (
        10, 44, 21239.336647955755,
        (0, 0, 14, 3, 3, 0),
        "beed0c2bcabde194",
    ),
    ("ec", "links", 10, 0): (
        10, 71, 21439.336647955755,
        (0, 0, 15, 7, 6, 0),
        "8ae9bbb5e7fbefb0",
    ),
    ("immunity", "links", 10, 0): (
        10, 44, 21239.336647955755,
        (0, 0, 14, 3, 3, 0),
        "1038c5870670064a",
    ),
    ("cumulative_immunity", "links", 10, 0): (
        10, 44, 21239.336647955755,
        (0, 0, 14, 3, 3, 0),
        "188de23f5536e805",
    ),
    ("pure", "everything", 10, 0): (
        5, 49, 524162.0,
        (879, 1494, 312, 12, 3, 0),
        "2561236d73ee6a04",
    ),
    ("ttl", "everything", 10, 0): (
        4, 9, 524162.0,
        (879, 1494, 312, 1, 1, 0),
        "f48fd34994f21019",
    ),
    ("pq", "everything", 10, 0): (
        5, 19, 524162.0,
        (879, 1494, 312, 1, 1, 0),
        "5f4068f3725a7634",
    ),
    ("ec", "everything", 10, 0): (
        5, 49, 524162.0,
        (879, 1494, 312, 12, 3, 0),
        "a1d9cd6c33e0e6ed",
    ),
    ("immunity", "everything", 10, 0): (
        5, 19, 524162.0,
        (879, 1494, 312, 1, 1, 0),
        "5ebe0644f49ff426",
    ),
    ("cumulative_immunity", "everything", 10, 0): (
        5, 19, 524162.0,
        (879, 1494, 312, 1, 1, 0),
        "07411fbad0d31a03",
    ),
    ("pq", "churn-knowledge", 30, 1): (
        30, 264, 111055.03125016569,
        (189, 371, 0, 12, 0, 13),
        "af62cd586b8a0f91",
    ),
    ("immunity", "churn-knowledge", 30, 1): (
        30, 264, 111055.03125016569,
        (189, 371, 0, 12, 0, 13),
        "60adebc8ab7aca14",
    ),
    ("cumulative_immunity", "churn-knowledge", 30, 1): (
        30, 265, 110955.03125016569,
        (188, 371, 0, 12, 0, 0),
        "bbbfcc7cf9949f7e",
    ),
}


@pytest.mark.parametrize("key", FAULTED_CELLS, ids=lambda k: f"{k[0]}-{k[1]}-l{k[2]}-r{k[3]}")
def test_faulted_scenario_pinned(campus_trace, key):
    name, spec, load, rep = key
    reprs = {}
    for kernel in FAULTED_TIERS:
        result = run_single(
            campus_trace,
            make_protocol_config(name, **GOLDEN_PROTOCOLS[name]),
            load,
            rep,
            SweepConfig(
                master_seed=7, sim=SimulationConfig(kernel=kernel, faults=FAULT_SPECS[spec])
            ),
        )
        churn = result.churn
        got = (
            result.delivered,
            result.transmissions,
            result.end_time,
            (
                churn["crashes"],
                churn["missed_contacts"],
                churn["dropped_contacts"],
                churn["interrupted_transfers"],
                churn["failed_transfers"],
                churn["reinfections"],
            ),
            hashlib.sha256(repr(result).encode()).hexdigest()[:16],
        )
        assert got == GOLDEN_FAULTED[key], kernel
        reprs[kernel] = repr(result)
    assert len(set(reprs.values())) == 1
