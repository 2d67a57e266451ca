"""Tests for the DSC camera application and the end-to-end flow."""

import numpy as np
import pytest

from repro.dsc import (
    SENSOR_2MP,
    SENSOR_3MP,
    SdCardModel,
    SensorConfig,
    demosaic_bilinear,
    simulate_burst,
    simulate_shot,
    synthesize_bayer_frame,
)
from repro.core import DesignServiceFlow
from tests.test_stage_table import assert_cold_and_warm_match


class TestSensor:
    def test_bayer_frame_shape_and_range(self):
        frame = synthesize_bayer_frame(SENSOR_2MP, seed=1)
        assert frame.shape == (1200, 1600)
        assert frame.min() >= 0 and frame.max() <= 255

    def test_grades(self):
        assert SENSOR_3MP.megapixels == pytest.approx(3.15, abs=0.01)
        assert SENSOR_2MP.megapixels == pytest.approx(1.92, abs=0.01)

    def test_readout_time_scales(self):
        assert SENSOR_3MP.readout_seconds > SENSOR_2MP.readout_seconds


class TestDemosaic:
    def test_output_is_rgb(self):
        small = SensorConfig("t", 64, 48)
        mosaic = synthesize_bayer_frame(small, seed=2)
        rgb = demosaic_bilinear(mosaic)
        assert rgb.shape == (48, 64, 3)
        assert rgb.min() >= 0 and rgb.max() <= 255

    def test_flat_field_stays_flat(self):
        mosaic = np.full((32, 32), 128.0)
        rgb = demosaic_bilinear(mosaic)
        assert np.allclose(rgb, 128.0, atol=1.0)


class TestShot:
    def test_shot_produces_valid_jpeg(self):
        shot = simulate_shot(sensor=SENSOR_3MP, seed=3)
        assert shot.jpeg_stream[:2] == b"\xff\xd8"
        assert shot.quality_psnr_db > 25.0

    def test_3mp_jpeg_stage_meets_paper_budget(self):
        """E2 via the app: the hardware engine encodes the 3 Mpix
        frame within 0.1 s."""
        shot = simulate_shot(sensor=SENSOR_3MP, seed=4)
        assert shot.timing.jpeg_encode_s <= 0.1

    def test_timing_breakdown_positive(self):
        shot = simulate_shot(sensor=SENSOR_2MP, seed=5)
        timing = shot.timing
        assert timing.sensor_readout_s > 0
        assert timing.demosaic_s > 0
        assert timing.card_write_s > 0
        assert timing.total_s < 1.5  # usable shot-to-shot time
        assert "total" in timing.format_report()

    def test_burst(self):
        shots = simulate_burst(3, sensor=SENSOR_2MP, seed=6)
        assert len(shots) == 3
        streams = {s.jpeg_stream for s in shots}
        assert len(streams) == 3  # distinct scenes

    def test_bad_burst_count(self):
        with pytest.raises(ValueError):
            simulate_burst(0)

    def test_slow_card_dominates(self):
        slow = SdCardModel(write_mb_per_s=0.2)
        shot = simulate_shot(sensor=SENSOR_2MP, card=slow, seed=7)
        assert shot.timing.card_write_s > shot.timing.jpeg_encode_s


class TestDesignServiceFlow:
    @pytest.fixture(scope="class")
    def finished_flow(self):
        flow = DesignServiceFlow(scale=0.015, seed=2)
        flow.run()
        return flow

    def test_flow_reproduces_paper_headlines(self, finished_flow):
        report = finished_flow.report
        assert report.soc_gate_budget == 240_000
        assert report.soc_memory_macros == 30
        assert report.mbist_controllers == 1
        assert report.mbist_pattern_generators == 30
        assert report.substrate_layers_initial >= 4
        assert report.substrate_layers_final <= 2
        assert report.initial_yield == pytest.approx(0.827, abs=0.01)
        assert report.final_yield == pytest.approx(0.934, abs=0.01)
        assert report.units_produced > 3_000_000
        assert 2.5 <= report.project_months <= 4.5
        assert report.qualification_passed

    def test_flow_quality_gates(self, finished_flow):
        report = finished_flow.report
        assert report.cross_sim_consistent
        assert report.formal_clean
        assert report.fault_coverage > 0.7
        assert report.routing_clean
        assert report.sta_setup_clean

    def test_report_matches_golden_cold_and_warm(self, finished_flow):
        assert_cold_and_warm_match(finished_flow, "flow_report_0.015_2.json")

    def test_report_formats(self, finished_flow):
        text = finished_flow.report.format_report()
        assert "SOC DESIGN SERVICE FLOW REPORT" in text
        assert "82." in text or "83." in text  # initial yield

    def test_extension_stages_populate_report(self, finished_flow):
        report = finished_flow.report
        assert report.system_smoke_pass
        assert report.system_hot_path_cycles > 0
        assert report.crosstalk_pairs > 0
        assert report.via_yield_gain > 0
        assert report.clock_power_saving > 0.3
        assert report.leakage_saving > 0.05
        assert report.test_schedule_speedup_vs_flat > 1.5
        assert 0.0 <= report.prototype_congestion_risk <= 1.0

    def test_verify_starts_no_process_pool(self, monkeypatch):
        """Its benches carry a lambda checker that no pool can pickle."""
        pools = []

        def no_pool(*args, **kwargs):
            pools.append(kwargs)
            raise OSError("process pool stubbed out")

        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setattr("repro.perf.executor.ProcessPoolExecutor",
                            no_pool)
        flow = DesignServiceFlow(scale=0.01, seed=3)
        for name in ("intake", "harden_cpu", "assemble"):
            flow.run_stage(name)
        cross = flow.verify()
        assert pools == []
        assert cross.consistent
        assert flow.report.regression_total == 2

    def test_tapeout_simulates_on_the_compiled_engine(self):
        """The burn-in compare runs on BatchSimulator; the event
        simulator is an oracle and never runs in the lifecycle."""
        from repro.perf import REGISTRY

        REGISTRY.reset()
        try:
            flow = DesignServiceFlow(scale=0.01, seed=0)
            for name in ("intake", "assemble", "tapeout"):
                flow.run_stage(name)
            stages = REGISTRY.as_dict()
        finally:
            REGISTRY.reset()
        assert flow.report.formal_clean
        assert "sim.compiled.run" in stages
        assert "sim.event.edge" not in stages

    def test_stage_order_enforced(self):
        flow = DesignServiceFlow(scale=0.01, seed=3)
        with pytest.raises(RuntimeError, match="assemble"):
            flow.verify()

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            DesignServiceFlow(scale=5.0)
