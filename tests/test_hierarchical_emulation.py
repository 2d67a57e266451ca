"""Tests for hierarchical test scheduling and verification planning."""

import pytest

from repro.dft import BlockTestSpec, schedule_block_tests
from repro.ip import dsc_block_test_specs
from repro.verification import (
    CampaignSpec,
    VerificationPlatform,
    best_strategy,
    plan_emulator_only,
    plan_hybrid,
    plan_simulator_only,
)


class TestBlockTestSpec:
    def test_more_chains_fewer_cycles(self):
        spec = BlockTestSpec("b", scan_flops=1000, patterns=100)
        assert spec.scan_cycles(8) < spec.scan_cycles(1)

    def test_scan_cycles_formula(self):
        spec = BlockTestSpec("b", scan_flops=100, patterns=10)
        # chain length 100 -> 10*(101)+100 = 1110
        assert spec.scan_cycles(1) == 1110

    def test_zero_chains_rejected(self):
        spec = BlockTestSpec("b", scan_flops=10, patterns=1)
        with pytest.raises(ValueError):
            spec.scan_cycles(0)

    def test_mbist_included(self):
        spec = BlockTestSpec("b", scan_flops=10, patterns=1,
                             mbist_cycles=5000)
        assert spec.total_cycles(1) == spec.scan_cycles(1) + 5000


class TestScheduling:
    def test_dsc_specs_cover_digital_blocks(self):
        specs = dsc_block_test_specs()
        names = {s.name for s in specs}
        assert "risc_dsp" in names
        assert "jpeg_codec" in names
        assert "video_dac10" not in names  # analog blocks not scanned
        assert sum(s.mbist_cycles for s in specs) > 0

    def test_hierarchical_beats_flat_and_serial(self):
        specs = dsc_block_test_specs()
        schedule = schedule_block_tests(specs, tam_width=8,
                                        power_limit_mw=400.0)
        # Scan shifting is work-conserving, so the gain over the
        # full-width serial schedule is modest (MBIST/capture overlap);
        # the big win is over the legacy flat chip-level chains.
        assert schedule.speedup_vs_serial >= 1.0
        assert schedule.speedup_vs_flat > 1.5
        assert len(schedule.blocks) == len(specs)

    def test_wider_tam_is_faster(self):
        specs = dsc_block_test_specs()
        narrow = schedule_block_tests(specs, tam_width=4)
        wide = schedule_block_tests(specs, tam_width=16)
        assert wide.total_cycles < narrow.total_cycles

    def test_power_limit_forces_sessions(self):
        specs = [
            BlockTestSpec(f"b{i}", scan_flops=100, patterns=50,
                          test_power_mw=100.0)
            for i in range(6)
        ]
        tight = schedule_block_tests(specs, tam_width=8,
                                     power_limit_mw=200.0)
        loose = schedule_block_tests(specs, tam_width=8,
                                     power_limit_mw=600.0)
        assert tight.sessions > loose.sessions

    def test_impossible_power_limit_rejected(self):
        specs = [BlockTestSpec("b", 10, 1, test_power_mw=500.0)]
        with pytest.raises(ValueError, match="power limit"):
            schedule_block_tests(specs, power_limit_mw=100.0)

    def test_bad_tam_width_rejected(self):
        with pytest.raises(ValueError):
            schedule_block_tests([BlockTestSpec("b", 10, 1)], tam_width=0)

    def test_every_block_scheduled_once(self):
        specs = dsc_block_test_specs()
        schedule = schedule_block_tests(specs)
        assert sorted(b.spec.name for b in schedule.blocks) == \
            sorted(s.name for s in specs)

    def test_report_format(self):
        schedule = schedule_block_tests(dsc_block_test_specs())
        text = schedule.format_report()
        assert "speedup" in text


class TestVerificationPlanning:
    def test_hybrid_wins_the_paper_campaign(self):
        """Section 3 used 'hybrid emulation/simulation' -- for a
        realistic campaign it beats both pure strategies."""
        spec = CampaignSpec()
        hybrid = plan_hybrid(spec)
        assert hybrid.total_hours < plan_simulator_only(spec).total_hours
        assert hybrid.total_hours < plan_emulator_only(spec).total_hours
        assert best_strategy(spec).strategy.startswith("hybrid")

    def test_simulator_wins_tiny_campaigns(self):
        tiny = CampaignSpec(debug_iterations=2, debug_cycles_each=1000,
                            regression_cycles=50_000)
        assert best_strategy(tiny).strategy == "simulator only"

    def test_emulator_regression_is_fast(self):
        spec = CampaignSpec()
        emulated = plan_emulator_only(spec)
        simulated = plan_simulator_only(spec)
        assert emulated.regression_hours < simulated.regression_hours / 50

    def test_emulator_compiles_dominate_debug(self):
        spec = CampaignSpec()
        emulated = plan_emulator_only(spec)
        assert emulated.compile_hours > emulated.debug_hours

    def test_platform_run_hours(self):
        platform = VerificationPlatform("p", 1000.0, 1.0, True)
        assert platform.run_hours(3_600_000) == pytest.approx(1.0)

    def test_report_format(self):
        plan = plan_hybrid(CampaignSpec())
        assert "hybrid" in plan.format_report()
