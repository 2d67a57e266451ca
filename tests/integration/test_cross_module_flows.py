"""Integration tests: flows that span multiple subsystems, mirroring
how the paper's teams actually chained the tools."""

import io

import numpy as np
import pytest

from repro.netlist import counter, make_default_library, pipeline_block
from repro.sim import LogicSimulator, save_vcd, write_vcd
from repro.dft import (
    CombinationalView,
    enumerate_faults,
    insert_scan,
    random_pattern_fault_sim,
)
from repro.oracles.faultsim import detect_mask, evaluate
from repro.sta import TimingAnalyzer, TimingConstraints
from repro.physical import AnnealingPlacer
from repro.eco import close_timing, sprinkle_spare_cells, \
    strengthen_driver_metal_only
from repro.formal import check_sequential_burn_in
from repro.jpeg import decode, encode_grayscale
from repro.soc import DscSoc, MEMORY_MAP


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


class TestManufacturingTestUsesAtpgPatterns:
    """DFT -> manufacturing: the probe test program is the ATPG
    pattern set, and it catches an injected silicon defect."""

    def test_atpg_patterns_catch_injected_defect(self, lib):
        block = pipeline_block("blk", lib, stages=2, width=10,
                               cloud_gates=40, seed=21)
        scanned, _ = insert_scan(block)
        view = CombinationalView(scanned)
        faults = enumerate_faults(scanned)
        rng = np.random.default_rng(21)
        result = random_pattern_fault_sim(
            view, faults, rng=rng, max_patterns=256
        )
        # "Silicon defect": pick a fault the pattern set detects.
        defect = next(iter(result.detected))
        detected_at_probe = False
        for packed in result.effective_patterns:
            width = 64
            good = evaluate(view, packed, width)
            if detect_mask(view, defect, good, width):
                detected_at_probe = True
                break
        assert detected_at_probe


class TestPhysicalSynthesisLoop:
    """place -> extract -> STA -> resize ECO -> formal, the Section-3
    'physical synthesis' inner loop."""

    def test_loop_closes_timing_and_preserves_function(self, lib):
        block = pipeline_block("blk", lib, stages=2, width=10,
                               cloud_gates=40, seed=22)
        placer = AnnealingPlacer(block, seed=22)
        placement, _ = placer.place(iterations=4000)
        caps = placer.wire_caps_ff(placement)

        base = TimingAnalyzer(
            block, TimingConstraints(clock_period_ps=1_000_000),
            net_wire_cap_ff=caps,
        ).analyze()
        period = (1_000_000 - base.wns_ps) * 0.96
        constraints = TimingConstraints(clock_period_ps=period,
                                        hold_ps=120)
        fixed, report = close_timing(block, constraints)
        final = TimingAnalyzer(
            fixed, constraints, net_wire_cap_ff=caps
        ).analyze()
        # Wire caps make it harder than the fanout model; the fix must
        # at least improve the fanout-model WNS and keep the function.
        assert report.wns_after_ps >= report.wns_before_ps
        assert check_sequential_burn_in(block, fixed, cycles=16).equivalent


class TestSiliconLifecycle:
    """tapeout (spares) -> yield killer -> metal ECO -> function
    preserved -> yield recovered: E8 across four subsystems."""

    def test_weak_pad_lifecycle(self, lib):
        chip = counter("io_block", lib, width=6)
        chip.add_port("pad", "output")
        chip.add_instance("io_buf", "PAD_OUT_4MA",
                          {"A": "q0", "PAD": "pad"})
        golden = chip.copy("golden")
        plan = sprinkle_spare_cells(chip, count=8)

        # Production: delay into the board load is too slow (the
        # manifestation of "insufficient driving strength").
        def pad_delay(module):
            analyzer = TimingAnalyzer(
                module, TimingConstraints(clock_period_ps=100_000),
                net_wire_cap_ff={"pad": 3000.0},
            )
            return analyzer.stage_delay_ps(module.instances["io_buf"])

        slow = pad_delay(chip)
        report = strengthen_driver_metal_only(chip, plan, "io_buf")
        fast = pad_delay(chip)
        assert fast < slow
        assert report.spares_consumed == 1
        # The metal ECO must not change function.
        assert check_sequential_burn_in(golden, chip,
                                        cycles=20).equivalent


class TestWaveformDebugFlow:
    """simulate -> VCD -> (viewer): the cross-team debug currency."""

    def test_counter_vcd_roundtrip(self, lib):
        cnt = counter("cnt", lib, width=4)
        sim = LogicSimulator(cnt)
        sim.set_inputs({"clk": 0, "rst_n": 0})
        sim.evaluate()
        sim.set_input("rst_n", 1)
        trace = sim.run([{} for _ in range(8)],
                        watch=[f"count{i}" for i in range(4)])
        buffer = io.StringIO()
        changes = write_vcd(trace, buffer, module_name="cnt")
        text = buffer.getvalue()
        assert changes > 0
        assert "$timescale" in text
        assert "$var wire 1" in text
        assert "count0" in text
        # count0 toggles every cycle: 8 changes for it alone.
        assert text.count("\n0") + text.count("\n1") >= 8

    def test_save_vcd_writes_file(self, lib, tmp_path):
        cnt = counter("cnt", lib, width=2)
        sim = LogicSimulator(cnt)
        sim.set_inputs({"clk": 0, "rst_n": 1})
        trace = sim.run([{} for _ in range(4)],
                        watch=["count0", "count1"])
        path = tmp_path / "wave.vcd"
        save_vcd(trace, str(path))
        assert path.exists()
        assert "$enddefinitions" in path.read_text()


class TestCameraToCardBytes:
    """jpeg codec -> SoC SD FIFO: the actual compressed bytes travel
    over the modelled bus to the card."""

    def test_jpeg_bytes_through_sd_fifo(self):
        image = np.clip(
            128 + 60 * np.sin(np.arange(32 * 32) / 17.0), 0, 255
        ).astype(np.uint8).reshape(32, 32)
        stream, _ = encode_grayscale(image, quality=80)

        soc = DscSoc()
        sd_base = MEMORY_MAP["sd_fifo"][0]
        received = bytearray()
        words = [int.from_bytes(stream[i:i + 4].ljust(4, b"\0"), "little")
                 for i in range(0, len(stream), 4)]
        for word in words:
            soc.bus.write("cpu", sd_base, word)
            # Card drains immediately (fast card).
            data = soc.bus.read("usb_master", sd_base).read_data
            received += int(data).to_bytes(4, "little")
        received = bytes(received[:len(stream)])
        assert received == stream
        assert decode(received).shape == (32, 32)
        assert not soc.bus.error_transactions()
