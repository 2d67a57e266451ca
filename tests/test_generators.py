"""Tests for synthetic netlist generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint import run_lint
from repro.netlist import (
    block_from_budget,
    collect_stats,
    counter,
    make_default_library,
    pipeline_block,
    random_combinational_cloud,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


class TestRandomCloud:
    def test_is_acyclic_and_clean(self, lib):
        m = random_combinational_cloud(
            "cloud", lib, n_inputs=8, n_outputs=4, n_gates=200, seed=7
        )
        assert m.gate_count >= 200 + 4  # gates + folding + output buffers
        m.topological_combinational_order()  # must not raise
        # No dead logic, no floating nets.
        assert run_lint([m], rules=["structural"], workers=1).findings == []

    def test_deterministic_given_seed(self, lib):
        a = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=2, n_gates=50, seed=3
        )
        b = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=2, n_gates=50, seed=3
        )
        assert a.structural_signature() == b.structural_signature()

    def test_different_seed_differs(self, lib):
        a = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=2, n_gates=50, seed=3
        )
        b = random_combinational_cloud(
            "c", lib, n_inputs=6, n_outputs=2, n_gates=50, seed=4
        )
        assert a.structural_signature() != b.structural_signature()

    def test_rejects_bad_params(self, lib):
        with pytest.raises(ValueError):
            random_combinational_cloud(
                "c", lib, n_inputs=0, n_outputs=1, n_gates=10, seed=0
            )


class TestCounter:
    def test_structure(self, lib):
        m = counter("cnt", lib, width=8)
        assert len(m.sequential_instances) == 8
        assert "rst_n" in m.ports
        assert run_lint([m], rules=["structural"], workers=1).findings == []

    def test_no_reset_variant(self, lib):
        m = counter("cnt", lib, width=4, with_reset=False)
        assert "rst_n" not in m.ports
        assert all(f.cell.name == "DFF" for f in m.sequential_instances)


class TestPipeline:
    def test_stage_count(self, lib):
        m = pipeline_block("pipe", lib, stages=3, width=8, cloud_gates=40, seed=1)
        assert len(m.sequential_instances) == 3 * 8
        m.topological_combinational_order()

    def test_ports(self, lib):
        m = pipeline_block("pipe", lib, stages=2, width=4, cloud_gates=10, seed=1)
        inputs = [p for p in m.ports.values() if p.direction == "input"]
        outputs = [p for p in m.ports.values() if p.direction == "output"]
        assert len(inputs) == 4 + 2  # data + clk + rst_n
        assert len(outputs) == 4


class TestBudget:
    @pytest.mark.parametrize("budget", [500, 2000, 10000])
    def test_lands_near_budget(self, lib, budget):
        m = block_from_budget("blk", lib, gate_budget=budget, seed=11)
        assert 0.7 * budget <= m.gate_count <= 1.4 * budget

    def test_register_fraction_roughly_honoured(self, lib):
        m = block_from_budget(
            "blk", lib, gate_budget=4000, register_fraction=0.2, seed=5
        )
        stats = collect_stats(m)
        assert 0.08 <= stats.register_fraction <= 0.35

    def test_rejects_tiny_budget(self, lib):
        with pytest.raises(ValueError):
            block_from_budget("blk", lib, gate_budget=10, seed=0)


@settings(max_examples=15, deadline=None)
@given(
    n_gates=st.integers(min_value=5, max_value=150),
    n_inputs=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_cloud_always_acyclic(n_gates, n_inputs, seed):
    """Property: generated clouds are DAGs for any parameters."""
    lib = make_default_library(0.25)
    m = random_combinational_cloud(
        "c", lib, n_inputs=n_inputs, n_outputs=1, n_gates=n_gates, seed=seed
    )
    m.topological_combinational_order()  # raises on a cycle


def test_stats_report_format(lib):
    m = counter("cnt", lib, width=4)
    stats = collect_stats(m)
    report = stats.format_report()
    assert "Block cnt" in report
    assert "sequential   : 4" in report
