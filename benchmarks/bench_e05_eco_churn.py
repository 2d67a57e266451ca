"""E5 -- Change-order churn (Section 3).

Paper: "During the course, there are 3 spec changes involving
re-synthesis and FF modification, 10 netlist changes involving ECO of
combinational logic part, 3 ECO changes to fix setup/hold time
violation, and 13 versions of pin assignments."

Shape to reproduce: all 29 changes are absorbed through the ECO
engines with formal verification green at every step, and the change
log matches the paper's taxonomy exactly.  Every one of the 13 netlist
ECOs goes through the combinational equivalence checker: each
functional patch is proven different from its base, and each timing
ECO (resizing, Vt swaps, hold buffers) is proven equivalent to it.
"""

import numpy as np

from repro.netlist import make_default_library, pipeline_block
from repro.sta import TimingAnalyzer, TimingConstraints
from repro.eco import (
    ChangeKind,
    DesignDatabase,
    apply_and_verify,
    close_timing,
    paper_change_counts,
    random_functional_change,
)
from repro.formal import check_combinational_equivalence
from repro.package import (
    dsc_pad_ring,
    estimate_layers,
    optimize_assignment,
    scrambled_assignment,
    tfbga256,
)

from conftest import paper_row


def replay_churn(seed: int = 9):
    lib = make_default_library(0.25)
    rng = np.random.default_rng(seed)
    module = pipeline_block("blk", lib, stages=2, width=10,
                            cloud_gates=40, seed=seed)
    db = DesignDatabase("dsc")
    db.commit(module, ChangeKind.BASELINE, "baseline")
    current = module

    # 3 spec changes: larger functional edits (2 gate flips each).
    for index in range(3):
        for sub in range(2):
            patch = random_functional_change(
                current, rng=rng, description=f"spec{index}.{sub}"
            )
            current = apply_and_verify(
                current, patch, expect_equivalent=False
            ).revised
        db.commit(current, ChangeKind.SPEC_CHANGE, f"spec change {index}")

    # 10 combinational netlist ECOs.
    for index in range(10):
        patch = random_functional_change(
            current, rng=rng, description=f"eco{index}"
        )
        current = apply_and_verify(
            current, patch, expect_equivalent=False
        ).revised
        db.commit(current, ChangeKind.NETLIST_ECO, f"netlist ECO {index}")

    # 3 timing ECOs.
    base = TimingAnalyzer(
        current, TimingConstraints(clock_period_ps=100_000)
    ).analyze()
    for index, margin in enumerate((0.97, 0.95, 0.93)):
        period = (100_000 - base.wns_ps) * margin
        constraints = TimingConstraints(clock_period_ps=period, hold_ps=120)
        fixed, _ = close_timing(current, constraints, max_passes=4)
        verdict = check_combinational_equivalence(current, fixed)
        assert verdict.equivalent, verdict.format_report()
        current = fixed
        db.commit(current, ChangeKind.TIMING_ECO, f"timing ECO {index}")

    # 13 pin-assignment versions.
    package, ring = tfbga256(), dsc_pad_ring()
    assignment = scrambled_assignment(package, ring, seed=seed)
    layer_history = [estimate_layers(assignment)]
    for version in range(13):
        assignment, _ = optimize_assignment(
            assignment, iterations=350, seed=version,
            initial_temperature=0.25 if version == 0 else 0.02,
        )
        layer_history.append(estimate_layers(assignment))
        db.commit(current, ChangeKind.PIN_ASSIGNMENT,
                  f"pin assignment v{version + 1}")
    return db, layer_history


def test_e05_churn_replay(benchmark):
    db, layer_history = benchmark.pedantic(
        replay_churn, iterations=1, rounds=1
    )
    counts = db.count_by_kind()
    expected = paper_change_counts()

    for kind, paper_count in expected.items():
        measured = counts.get(kind, 0)
        paper_row("E5", kind.value, str(paper_count), str(measured))
        assert measured == paper_count, kind

    paper_row("E5", "total mid-project changes", "29",
              str(sum(expected.values())))
    paper_row("E5", "substrate layers across pin versions",
              "4 -> 2", f"{layer_history[0]} -> {layer_history[-1]}")
    assert layer_history[0] >= 4
    assert layer_history[-1] <= 2
    print()
    print(db.churn_report())
