"""X1 -- Hierarchical DFT (Section 4).

Paper: later projects required "hierarchical DFT and physical
implementation".

Shape to reproduce: block-level scan + shared-TAM scheduling beats the
legacy flat chip-level chain flow on tester time, and parallel
sessions never lose to the serial full-width schedule.
"""

from repro.dft import schedule_block_tests
from repro.ip import dsc_block_test_specs

from conftest import paper_row


def test_x01_hierarchical_schedule(benchmark):
    specs = dsc_block_test_specs()
    schedule = benchmark(schedule_block_tests, specs, tam_width=8,
                         power_limit_mw=400.0)
    print()
    print(schedule.format_report())

    paper_row("X1", "digital blocks under test", "(all)",
              str(len(schedule.blocks)))
    paper_row("X1", "speedup vs flat chip-level chains", "> 1",
              f"{schedule.speedup_vs_flat:.2f}x")
    paper_row("X1", "speedup vs serial block tests", ">= 1",
              f"{schedule.speedup_vs_serial:.2f}x")
    assert schedule.speedup_vs_flat > 1.5
    assert schedule.speedup_vs_serial >= 1.0


def test_x01_tam_width_scaling(benchmark):
    specs = dsc_block_test_specs()

    def sweep():
        return {
            width: schedule_block_tests(specs, tam_width=width).total_cycles
            for width in (2, 4, 8, 16)
        }

    times = benchmark.pedantic(sweep, iterations=1, rounds=1)
    for width, cycles in times.items():
        paper_row("X1", f"test time at TAM width {width}", "(falls)",
                  f"{cycles} cycles")
    values = list(times.values())
    assert all(b <= a for a, b in zip(values, values[1:]))
