"""Equivalence properties for the vectorized/parallel kernels.

Every ported hot loop keeps its original scalar implementation as its
oracle in :mod:`repro.oracles`; these properties pin the tentpole
guarantee that the fast paths are *bit-identical* to the slow ones --
same detected-fault sets, same wafer maps, same placements, same
generator end state -- for arbitrary seeds and worker counts.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dft import (
    CombinationalView,
    collapse_faults,
    enumerate_faults,
    random_pattern_fault_sim,
)
from repro.manufacturing import (
    DefectModel,
    ParametricModel,
    YieldStack,
    simulate_lot,
    simulate_wafer,
)
from repro.netlist import make_default_library
from repro.netlist.generators import random_combinational_cloud
from repro.oracles.faultsim import bigint_fault_sim, detect_mask, evaluate
from repro.oracles.placement import place_reference
from repro.oracles.wafer import simulate_wafer_scalar
from repro.physical import AnnealingPlacer
from repro.sta import TimingConstraints

LIB = make_default_library(0.25)

_SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _small_cloud(seed):
    return random_combinational_cloud(
        f"cloud{seed}", LIB, n_inputs=6, n_outputs=4, n_gates=30,
        seed=seed,
    )


def _result_fingerprint(result):
    return (
        result.detected,
        result.patterns_applied,
        result.coverage_curve,
        result.effective_patterns,
        result.detection_index,
    )


class TestFaultSimKernels:
    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10**6),
           batch=st.sampled_from([16, 64, 160]))
    def test_compiled_matches_bigint(self, seed, batch):
        module = _small_cloud(seed % 17)
        view = CombinationalView(module)
        faults = collapse_faults(module, enumerate_faults(module))
        kw = dict(max_patterns=192, batch_size=batch)
        r_compiled = random_pattern_fault_sim(
            view, faults, rng=np.random.default_rng(seed), **kw)
        r_bigint = bigint_fault_sim(
            view, faults, rng=np.random.default_rng(seed), **kw)
        assert (_result_fingerprint(r_compiled)
                == _result_fingerprint(r_bigint))

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10**6),
           workers=st.sampled_from([2, 3]))
    def test_parallel_matches_serial(self, seed, workers):
        module = _small_cloud(seed % 13)
        view = CombinationalView(module)
        faults = collapse_faults(module, enumerate_faults(module))
        kw = dict(max_patterns=128, batch_size=64)
        rng_serial = np.random.default_rng(seed)
        rng_parallel = np.random.default_rng(seed)
        r_serial = random_pattern_fault_sim(
            view, faults, rng=rng_serial, workers=1, **kw)
        r_parallel = random_pattern_fault_sim(
            view, faults, rng=rng_parallel, workers=workers, **kw)
        assert _result_fingerprint(r_serial) == \
            _result_fingerprint(r_parallel)
        # The caller's generator must end in the same state too, so
        # downstream phases (SAT pattern fill) see the same stream.
        assert rng_serial.bit_generator.state == \
            rng_parallel.bit_generator.state

    def test_batch_size_changes_stream_not_quality(self):
        # Patterns are drawn per batch, so the batch width selects a
        # different (equally random) pattern stream -- like a seed
        # change.  Coverage must stay statistically equivalent.
        module = _small_cloud(5)
        view = CombinationalView(module)
        faults = collapse_faults(module, enumerate_faults(module))
        coverages = []
        for batch in (32, 64, 128, 256):
            result = random_pattern_fault_sim(
                view, faults, rng=np.random.default_rng(9),
                max_patterns=256, batch_size=batch)
            assert result.patterns_applied == 256
            coverages.append(len(result.detected) / len(faults))
        assert max(coverages) - min(coverages) < 0.05

    def test_detecting_pattern_actually_detects(self):
        module = _small_cloud(3)
        view = CombinationalView(module)
        faults = collapse_faults(module, enumerate_faults(module))
        result = random_pattern_fault_sim(
            view, faults, rng=np.random.default_rng(1), max_patterns=128)
        assert result.detected
        for fault in list(result.detected)[:20]:
            pattern = result.detecting_pattern(fault)
            assert pattern is not None
            good = evaluate(view, pattern, 1)
            assert detect_mask(view, fault, good, 1)


class TestWaferKernels:
    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10**6),
           die_mm=st.sampled_from([4.0, 8.5, 12.0]),
           d0=st.sampled_from([0.3, 0.8, 2.0]))
    def test_vectorized_matches_scalar(self, seed, die_mm, d0):
        stack = YieldStack(defect=DefectModel(d0_per_cm2=d0),
                           parametric=ParametricModel())
        rng_fast = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        fast = simulate_wafer(stack, die_width_mm=die_mm,
                              die_height_mm=die_mm, rng=rng_fast)
        ref = simulate_wafer_scalar(stack, die_width_mm=die_mm,
                                    die_height_mm=die_mm, rng=rng_ref)
        assert fast.passing == ref.passing
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    def test_lot_identical_across_worker_counts(self):
        stack = YieldStack(defect=DefectModel(), parametric=ParametricModel())
        kw = dict(die_width_mm=8.5, die_height_mm=8.5, wafers=4, seed=2)
        serial = simulate_lot(stack, workers=1, **kw)
        parallel = simulate_lot(stack, workers=3, **kw)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.passing == b.passing

    def test_lot_wafers_are_independent(self):
        stack = YieldStack(defect=DefectModel(), parametric=ParametricModel())
        lot = simulate_lot(stack, die_width_mm=8.5, die_height_mm=8.5,
                           wafers=3, seed=0)
        maps = [w.passing for w in lot]
        assert maps[0] != maps[1] and maps[1] != maps[2]


class TestPlacementEngines:
    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10**6),
           timing=st.booleans())
    def test_fast_matches_reference(self, seed, timing):
        module = _small_cloud(seed % 7)
        constraints = (TimingConstraints(clock_period_ps=4000.0)
                       if timing else None)
        fast = AnnealingPlacer(module, seed=seed)
        placement_f, report_f = fast.place(
            iterations=400, timing_constraints=constraints)
        ref = AnnealingPlacer(module, seed=seed)
        placement_r, report_r = place_reference(
            ref, iterations=400, timing_constraints=constraints)
        assert placement_f.locations == placement_r.locations
        assert report_f.hpwl_final_um == report_r.hpwl_final_um
        assert report_f.moves_accepted == report_r.moves_accepted
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_multi_restart_identical_across_worker_counts(self):
        module = _small_cloud(2)
        serial = AnnealingPlacer(module, seed=4).multi_restart(
            restarts=3, workers=1, iterations=300)
        parallel = AnnealingPlacer(module, seed=4).multi_restart(
            restarts=3, workers=3, iterations=300)
        assert serial[0].locations == parallel[0].locations
        assert serial[2] == parallel[2]

    def test_multi_restart_no_worse_than_single(self):
        module = _small_cloud(6)
        _, single, _ = AnnealingPlacer(module, seed=4).multi_restart(
            restarts=1, iterations=300)
        _, best, _ = AnnealingPlacer(module, seed=4).multi_restart(
            restarts=4, iterations=300)
        assert best.hpwl_final_um <= single.hpwl_final_um
