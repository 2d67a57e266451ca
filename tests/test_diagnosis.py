"""Tests for dictionary-based fault diagnosis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import make_default_library, pipeline_block
from repro.netlist.generators import random_combinational_cloud
from repro.dft import (
    CombinationalView,
    build_dictionary,
    collapse_faults,
    enumerate_faults,
    insert_scan,
)
from repro.oracles.faultsim import detect_mask, evaluate, random_patterns


@pytest.fixture(scope="module")
def setup():
    lib = make_default_library(0.25)
    block = pipeline_block("blk", lib, stages=2, width=10,
                           cloud_gates=40, seed=17)
    scanned, _ = insert_scan(block)
    view = CombinationalView(scanned)
    faults = collapse_faults(scanned, enumerate_faults(scanned))
    dictionary = build_dictionary(view, faults, n_batches=4, seed=17)
    return view, faults, dictionary


class TestDiagnosis:
    def test_injected_defect_is_top_candidate(self, setup):
        """E8 mechanics: tester data alone locates the defect."""
        view, faults, dictionary = setup
        rng = np.random.default_rng(1)
        hits = 0
        trials = 0
        for index in rng.choice(len(faults), size=12, replace=False):
            defect = faults[int(index)]
            observed = dictionary.observe(defect)
            if not any(observed.failing_masks):
                continue  # defect not covered by these patterns
            trials += 1
            result = dictionary.diagnose(observed)
            # The true defect must be among the exact-match candidates
            # (equivalent faults are indistinguishable by definition).
            assert defect in result.exact_candidates, str(defect)
            hits += 1
        assert trials >= 6 and hits == trials

    def test_distinct_defects_distinct_signatures_mostly(self, setup):
        view, faults, dictionary = setup
        signatures = {}
        collisions = 0
        observable = 0
        for fault in faults:
            signature = dictionary.signature_of(fault)
            if not any(signature.failing_masks):
                continue
            observable += 1
            key = signature.failing_masks
            if key in signatures:
                collisions += 1
            signatures[key] = fault
        # Diagnostic resolution: most observable faults separate.
        assert observable > 0
        assert collisions / observable < 0.5

    def test_clean_unit_matches_nothing_strongly(self, setup):
        view, faults, dictionary = setup
        from repro.dft.diagnosis import FailureSignature

        clean = FailureSignature(
            pattern_count=dictionary.pattern_count,
            failing_masks=tuple(0 for _ in dictionary.patterns),
        )
        result = dictionary.diagnose(clean)
        # A passing unit should not be an exact match for any fault
        # that the pattern set can detect.
        for candidate in result.exact_candidates:
            assert not any(
                dictionary.signature_of(candidate).failing_masks
            )

    def test_signatures_match_the_oracle(self, setup):
        """Every dictionary signature, and the observation of a fault
        outside the collapsed universe, equals the big-int oracle's
        masks over ``build_dictionary``'s rng stream."""
        view, faults, dictionary = setup
        rng = np.random.default_rng(17)
        goods = [evaluate(view, random_patterns(view, rng, 64), 64)
                 for _ in range(4)]

        def oracle(fault):
            return tuple(detect_mask(view, fault, good, 64)
                         for good in goods)

        assert dictionary.pattern_count == 256
        for fault in faults:
            signature = dictionary.signature_of(fault)
            assert signature.pattern_count == 256
            assert signature.failing_masks == oracle(fault), str(fault)
        collapsed = set(faults)
        outside = [fault for fault in enumerate_faults(view.module)
                   if fault not in collapsed]
        sampled = outside[::max(1, len(outside) // 12)]
        assert any(any(oracle(fault)) for fault in sampled)
        for fault in sampled:
            observed = dictionary.observe(fault)
            assert observed.pattern_count == 256
            assert observed.failing_masks == oracle(fault), str(fault)

    def test_report_format(self, setup):
        view, faults, dictionary = setup
        observed = dictionary.observe(faults[0])
        text = dictionary.diagnose(observed).format_report()
        assert "Diagnosis candidates" in text


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=300))
def test_diagnosis_property_on_random_clouds(seed):
    """Property: on any small cloud, an observable injected fault is
    always among the exact diagnosis candidates."""
    lib = make_default_library(0.25)
    module = random_combinational_cloud(
        "c", lib, n_inputs=5, n_outputs=3, n_gates=25, seed=seed
    )
    view = CombinationalView(module)
    faults = enumerate_faults(module)
    dictionary = build_dictionary(view, faults, n_batches=2, seed=seed)
    rng = np.random.default_rng(seed)
    defect = faults[int(rng.integers(0, len(faults)))]
    observed = dictionary.observe(defect)
    if any(observed.failing_masks):
        result = dictionary.diagnose(observed)
        assert defect in result.exact_candidates
