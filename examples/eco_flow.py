#!/usr/bin/env python
"""ECO churn replay: the paper's 29 mid-project changes.

Builds a block, then replays the Section-3 change log through the ECO
engines -- functional patches formally verified against the golden
netlist, timing-fix ECOs closing setup/hold, and the post-silicon
metal-only spare-cell fix for the weak output buffer -- committing
every version to the design database.

Run:
    python examples/eco_flow.py
"""

import numpy as np

from repro.netlist import make_default_library, pipeline_block
from repro.sta import TimingAnalyzer, TimingConstraints
from repro.eco import (
    ChangeKind,
    DesignDatabase,
    apply_and_verify,
    close_timing,
    random_functional_change,
    sprinkle_spare_cells,
    strengthen_driver_metal_only,
)


def main() -> None:
    lib = make_default_library(0.25)
    rng = np.random.default_rng(9)
    module = pipeline_block("dsc_block", lib, stages=2, width=12,
                            cloud_gates=60, seed=9)
    db = DesignDatabase("dsc_block")
    db.commit(module, ChangeKind.SPEC_CHANGE, "initial netlist", day=0)

    print("replaying 10 combinational netlist ECOs (formally checked):")
    current = module
    for index in range(10):
        patch = random_functional_change(current, rng=rng,
                                         description=f"netlist ECO #{index+1}")
        application = apply_and_verify(current, patch,
                                       expect_equivalent=False)
        current = application.revised
        db.commit(current, ChangeKind.NETLIST_ECO, patch.description,
                  day=10 + index * 5, touched_instances=len(patch))
        print(f"  {patch.description:40s} verified different "
              f"({len(patch)} edits)")

    print("\ntiming-fix ECO (setup + hold closure):")
    base = TimingAnalyzer(
        current, TimingConstraints(clock_period_ps=100_000)
    ).analyze()
    period = (100_000 - base.wns_ps) * 0.95
    constraints = TimingConstraints(clock_period_ps=period, hold_ps=150)
    fixed, timing_report = close_timing(current, constraints)
    print(timing_report.format_report())
    db.commit(fixed, ChangeKind.TIMING_ECO, "setup/hold closure",
              day=70)

    print("\npost-silicon metal-only fix of the weak output buffer:")
    plan = sprinkle_spare_cells(fixed, count=16)
    victim = next(i.name for i in fixed.instances.values()
                  if i.cell.footprint == "BUF")
    metal = strengthen_driver_metal_only(
        fixed, plan, victim,
        description="strengthen weak output buffer (5% yield killer)",
    )
    print(metal.format_report())
    db.commit(fixed, ChangeKind.METAL_ECO, metal.description, day=240)

    print()
    print(db.churn_report())


if __name__ == "__main__":
    main()
