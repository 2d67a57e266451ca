#!/usr/bin/env python
"""The customer hand-off toolkit: Verilog, VCD, diagnosis.

A design-service provider lives on artefact exchange: the customer
sends a gate-level Verilog netlist, sign-off arguments are settled
with waveforms, and failing silicon comes back as tester data to be
diagnosed.  This example exercises that toolchain:

1. write a block as structural Verilog and read it back (formally
   identical);
2. simulate it and export a VCD any waveform viewer opens;
3. play tester: inject a 'silicon' defect, observe only the failing
   patterns, and let dictionary diagnosis name the defective node.

Run:
    python examples/netlist_handoff.py
"""

from pathlib import Path

import numpy as np

from repro.netlist import (
    make_default_library,
    pipeline_block,
    read_verilog,
    verilog_text,
)
from repro.formal import check_combinational_equivalence
from repro.sim import LogicSimulator, save_vcd
from repro.dft import (
    CombinationalView,
    build_dictionary,
    collapse_faults,
    enumerate_faults,
    insert_scan,
)


def main() -> None:
    lib = make_default_library(0.25)
    block = pipeline_block("customer_block", lib, stages=2, width=10,
                           cloud_gates=40, seed=99)

    print("1. Verilog hand-off round-trip")
    text = verilog_text(block)
    verilog_path = Path(__file__).with_name("customer_block.v")
    verilog_path.write_text(text)
    restored = read_verilog(text, lib)
    verdict = check_combinational_equivalence(block, restored)
    print(f"   wrote {verilog_path.name} ({len(text.splitlines())} lines), "
          f"read back: {'EQUIVALENT' if verdict.equivalent else 'BROKEN'}")

    print("2. waveform export")
    sim = LogicSimulator(block)
    sim.set_inputs({"clk": 0, "rst_n": 0})
    sim.evaluate()
    sim.set_input("rst_n", 1)
    rng = np.random.default_rng(99)
    stimulus = [
        {f"in{i}": int(rng.integers(0, 2)) for i in range(10)}
        for _ in range(24)
    ]
    trace = sim.run(stimulus)
    vcd_path = Path(__file__).with_name("customer_block.vcd")
    changes = save_vcd(trace, str(vcd_path), module_name="customer_block")
    print(f"   wrote {vcd_path.name}: {changes} value changes over "
          f"{len(trace)} cycles")

    print("3. silicon debug: diagnose a defect from tester data")
    scanned, _ = insert_scan(block)
    view = CombinationalView(scanned)
    faults = collapse_faults(scanned, enumerate_faults(scanned))
    dictionary = build_dictionary(view, faults, n_batches=4, seed=99)
    defect = faults[len(faults) // 3]
    observed = dictionary.observe(defect)
    result = dictionary.diagnose(observed)
    print(f"   injected (hidden) defect: {defect}")
    print("   " + result.format_report().replace("\n", "\n   "))
    located = defect in result.exact_candidates
    print(f"   defect located: {'YES' if located else 'no'}")


if __name__ == "__main__":
    main()
