"""Golden regression pins for the seed scenario, on both DES tiers.

These values were produced by the seed configuration (campus trace,
``seed=7``, 10-slot buffers, ``reject`` drop policy) and verified
bit-identical before and after the buffer-policy refactor. A kernel change
that shifts any simulation path — event ordering, RNG stream derivation,
metric integration, buffer admission — shows up here immediately. Every
case runs on the event engine (``kernel="event"``) and on the SoA sweep
kernel (``kernel="soa"``): each must match the pins, and the two results
must be byte-identical (``repr``).

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

import pytest

from repro.core.protocols.registry import make_protocol_config
from repro.core.simulation import SimulationConfig
from repro.core.sweep import SweepConfig, run_single

#: Constructor kwargs for every pinned protocol: flooding, TTL and
#: anti-packets, plus the control-bearing ec and immunity.
GOLDEN_PROTOCOLS: dict[str, dict[str, object]] = {
    "pure": {},
    "ttl": {"ttl": 300.0},
    "pq": {"p": 1.0, "q": 1.0, "anti_packets": True},
    "ec": {},
    "immunity": {},
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
    results = {}
    for kernel in ("event", "soa"):
        result = run_single(
            campus_trace,
            make_protocol_config(name, **GOLDEN_PROTOCOLS[name]),
            load,
            rep,
            SweepConfig(master_seed=7, sim=SimulationConfig(kernel=kernel)),
        )
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
    # the SoA tier is a speed tier: byte-identical to the event engine
    assert repr(results["soa"]) == repr(results["event"])
