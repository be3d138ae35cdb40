#!/usr/bin/env python3
"""Buffer-contention workflow: sweep capacity × drop policy across protocols.

The paper's Figs 13-14 pit 10 relay slots against up to 50 offered bundles
with a fixed refuse-when-full rule. This example opens both knobs the way
the occupancy/delivery tradeoff literature does (Chen et al.,
arXiv:1601.06345): relay capacity becomes an axis (including a per-node
heterogeneous point — four high-capacity "ferry" nodes among constrained
ones) and the drop policy becomes an axis (reject / drop-tail /
drop-oldest / drop-youngest / drop-random).

``TradeoffConfig`` names the two axes; ``run_matrix_study`` (the runner
the churn-resilience study shares) puts the whole grid in one flat cell
list, so the parallel executor fans the entire study out at once; results
are bit-identical to a serial run.

Run:  python examples/buffer_tradeoff.py

The same study is registered as an experiment:
    python -m repro run tradeoff --scale quick --jobs 4
"""

from repro.analysis.tables import render_tradeoff_table
from repro.core.executors import ParallelExecutor
from repro.experiments.matrix import run_matrix_study
from repro.experiments.tradeoff import DEFAULT_PROTOCOLS, TradeoffConfig
from repro.scenarios import MobilitySpec


def main() -> None:
    config = TradeoffConfig(
        # Scalar capacities plus one heterogeneous point: nodes 8-11 are
        # ferries with 20 slots, everyone else gets 4.
        capacities=(5, 10, (4,) * 8 + (20,) * 4),
        policies=("reject", "drop-tail", "drop-oldest", "drop-random"),
        protocols=DEFAULT_PROTOCOLS,
        mobility=MobilitySpec("campus"),
        loads=(10, 30, 50),
        replications=3,
        seed=7,
    )
    study = run_matrix_study(config, executor=ParallelExecutor(jobs=2))
    print(render_tradeoff_table(study))

    # The reject column at capacity 10 IS the paper's configuration: the
    # same cells run through a plain sweep agree exactly.
    from repro.core.simulation import SimulationConfig
    from repro.core.sweep import SweepConfig, run_sweep

    baseline = run_sweep(
        config.mobility.build(seed=config.seed),
        [p.build() for p in config.protocols],
        SweepConfig(
            loads=config.loads,
            replications=config.replications,
            master_seed=config.seed,
            sim=SimulationConfig(buffer_capacity=10),
        ),
    )
    assert study.sweep(10, "reject").runs == baseline.runs
    print("\nreject @ capacity 10 == paper baseline: verified")


# Guarded so spawn-start-method platforms (macOS/Windows) can re-import
# this module in ProcessPool workers without re-running the study.
if __name__ == "__main__":
    main()
