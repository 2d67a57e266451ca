"""Incremental cone-based analysis == the monolithic engine, always.

Three layers of evidence:

* the cone partition is a real partition and the block-chaotic solver
  reproduces the monolithic fixpoint exactly (every domain, seeded-bug
  corpus + generated blocks);
* warm reruns are pure cache splices (100% cone hits) yet
  byte-identical, and version bumps force recomputation;
* a hypothesis campaign applies random ECO-style edits (cell swaps,
  net rewires, buffer insertion) and asserts the incremental rerun is
  byte-identical to a cold run while re-solving only a handful of
  cones.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ANALYSIS_VERSION,
    ConeRunStats,
    ConstantDomain,
    DualConstantDomain,
    TaintDomain,
    analyze_module,
    clear_analysis_memo,
    cone_partition_fingerprint,
    constant_cones,
    divergent_nets,
    divergent_output_ports,
    multi_driver_races,
    mux_select_x_sites,
    never_toggling_flops,
    partition_cones,
    reconvergent_x_sites,
    run_fixpoint_cones,
    stuck_nets,
    unobservable_instances,
)
from repro.analysis.analyses import _uninit_mask
from repro.lint import clock_path_races, run_lint
from repro.netlist import make_default_library
from repro.netlist.generators import block_from_budget
from repro.oracles.fixpoint import run_fixpoint
from repro.sim import VENDOR_A_SIM, VENDOR_B_SIM
from repro.store import ArtifactStore, using_store
from tests.test_analysis import (
    build_mux_select_x,
    build_reconvergent_x,
    build_reset_clean,
    build_stuck,
    build_uninit_flop,
)


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_analysis_memo()
    yield
    clear_analysis_memo()


def corpus(lib):
    yield build_uninit_flop(lib)
    yield build_reset_clean(lib)
    yield build_mux_select_x(lib)
    yield build_reconvergent_x(lib)
    yield build_stuck(lib)
    yield block_from_budget("blk", lib, gate_budget=400, seed=5)
    yield block_from_budget("blk2", lib, gate_budget=900, seed=9)


def domains_for(module):
    """The three production domains, with engine-identical parameters."""
    uninit = _uninit_mask(VENDOR_A_SIM, VENDOR_B_SIM)
    yield ConstantDomain(VENDOR_A_SIM, uninit_mask=uninit)
    yield DualConstantDomain(VENDOR_A_SIM, VENDOR_B_SIM,
                             reset_assured=frozenset())
    yield TaintDomain(
        flop_seed=lambda inst: frozenset({f"flop:{inst.name}"}),
    )


class TestPartition:
    def test_cones_partition_the_instances(self, lib):
        for module in corpus(lib):
            partition = partition_cones(module)
            owned = [
                name for cone in partition.cones
                for name in cone.instances
            ]
            assert sorted(owned) == sorted(module.instances)
            assert len(owned) == len(set(owned))

    def test_internal_and_boundary_nets_disjoint(self, lib):
        for module in corpus(lib):
            for cone in partition_cones(module).cones:
                assert not set(cone.internal_nets) & set(cone.boundary_nets)

    def test_partition_fingerprint_tracks_content(self, lib):
        module = block_from_budget("blk", lib, gate_budget=400, seed=5)
        before = cone_partition_fingerprint(partition_cones(module))
        again = cone_partition_fingerprint(partition_cones(module))
        assert before == again
        target = next(
            name for name in sorted(module.instances)
            if module.instances[name].cell.name == "INV_X1"
        )
        module.swap_cell(target, "INV_X2")
        after = cone_partition_fingerprint(partition_cones(module))
        assert after != before


class TestConeFixpointEquivalence:
    def test_every_domain_matches_monolithic(self, lib):
        for module in corpus(lib):
            partition = partition_cones(module)
            for domain in domains_for(module):
                mono = run_fixpoint(module, domain)
                with using_store(ArtifactStore()):
                    cone = run_fixpoint_cones(
                        module, domain, partition,
                        domain_token=lambda c: ["t"],
                    )
                assert cone.net_values == mono.net_values
                assert cone.flop_state == mono.flop_state

    def test_warm_rerun_all_hits_and_identical(self, lib, monkeypatch):
        module = block_from_budget("blk", lib, gate_budget=900, seed=9)
        solved = []

        def counting_run_fixpoint_cones(module, domain, *args, **kwargs):
            solved.append(type(domain))
            return run_fixpoint_cones(module, domain, *args, **kwargs)

        monkeypatch.setattr("repro.analysis.analyses.run_fixpoint_cones",
                            counting_run_fixpoint_cones)
        store = ArtifactStore()
        with using_store(store):
            cold_stats = ConeRunStats()
            cold = analyze_module(module, cone_stats=cold_stats)
            # one cone-solved fixpoint per domain, no more
            assert solved == [ConstantDomain, DualConstantDomain,
                              TaintDomain]
            clear_analysis_memo()
            warm_stats = ConeRunStats()
            warm = analyze_module(module, cone_stats=warm_stats)
        assert cold_stats.hits == 0 and cold_stats.misses > 0
        assert warm_stats.misses == 0
        assert warm_stats.hits == cold_stats.misses
        for name in FIXPOINTS:
            a, b = getattr(cold, name), getattr(warm, name)
            assert a.net_values == b.net_values
            assert a.flop_state == b.flop_state
            assert a.visits == b.visits

    def test_version_bump_recomputes(self, lib, monkeypatch):
        module = build_stuck(lib)
        store = ArtifactStore()
        with using_store(store):
            analyze_module(module, cone_stats=ConeRunStats())
            monkeypatch.setattr(
                "repro.analysis.cones.ANALYSIS_VERSION",
                ANALYSIS_VERSION + "-bumped",
            )
            clear_analysis_memo()
            stats = ConeRunStats()
            analyze_module(module, cone_stats=stats)
        assert stats.hits == 0 and stats.misses > 0

    def test_memo_invalidated_by_inplace_edit(self, lib):
        """The in-process memo must not serve stale post-ECO results."""
        module = build_stuck(lib)
        with using_store(ArtifactStore()):
            before = analyze_module(module)
            module.swap_cell("g0", "AND2_X2")
            after = analyze_module(module)
        assert after is not before


FIXPOINTS = ("const", "dual", "xtaint")

QUERIES = (
    stuck_nets, never_toggling_flops, unobservable_instances,
    constant_cones, divergent_nets, divergent_output_ports,
    mux_select_x_sites, reconvergent_x_sites, multi_driver_races,
)


def _canonical(value):
    return sorted(value) if isinstance(value, frozenset) else value


def summary_json(module):
    """Canonical digest of every fixpoint (values and visit counts) and
    every query over one module."""
    analysis = analyze_module(module)
    digest = {}
    for name in FIXPOINTS:
        result = getattr(analysis, name)
        digest[name] = {
            "nets": {net: _canonical(value)
                     for net, value in result.net_values.items()},
            "flops": {flop: _canonical(value)
                      for flop, value in result.flop_state.items()},
            "visits": result.visits,
        }
    digest["queries"] = [query(analysis) for query in QUERIES]
    digest["clock_races"] = clock_path_races(module)
    return json.dumps(digest, sort_keys=True)


class TestPostEcoIncremental:
    def test_cell_swap_reruns_only_touched_cones(self, lib):
        module = block_from_budget("blk", lib, gate_budget=900, seed=9)
        store = ArtifactStore()
        with using_store(store):
            cold = ConeRunStats()
            analyze_module(module, cone_stats=cold)
            target = next(
                name for name in sorted(module.instances)
                if module.instances[name].cell.name == "INV_X1"
            )
            module.swap_cell(target, "INV_X2")
            clear_analysis_memo()
            inc = ConeRunStats()
            analyze_module(module, cone_stats=inc)
            incremental = summary_json(module)
        # only the cones owning the swapped instance re-ran (one per
        # domain, plus any whose boundary values actually changed)
        assert 0 < inc.misses < cold.misses * 0.25
        clear_analysis_memo()
        with using_store(ArtifactStore()):
            assert summary_json(module) == incremental

    def test_summary_store_caches_whole_module(self, lib):
        """A warm ``lint.module`` hit answers without a cone lookup."""
        module = build_reconvergent_x(lib)
        rules = ["const", "dead", "divergence", "race"]
        store = ArtifactStore()
        with using_store(store):
            first = run_lint([module], rules=rules, workers=1).to_json()
            cones = store.counters()["analysis.cone"]
            cone_lookups = cones.hits + cones.misses
            clear_analysis_memo()
            second = run_lint([module], rules=rules, workers=1).to_json()
        assert first == second
        counters = store.counters()["lint.module"]
        assert counters.hits == 1 and counters.puts == 1
        assert cones.hits + cones.misses == cone_lookups


# -- hypothesis ECO campaign ----------------------------------------------

_LIB = make_default_library(0.25)

_SWAPPABLE = {
    "INV_X1": "INV_X2", "INV_X2": "INV_X4",
    "NAND2_X1": "NAND2_X2", "NOR2_X1": "NOR2_X2",
    "AND2_X1": "AND2_X2", "OR2_X1": "OR2_X2",
    "BUF_X1": "BUF_X2", "BUF_X2": "BUF_X4",
}


def _apply_eco(module, op, index):
    """One random ECO-style edit; returns a description or None."""
    names = sorted(module.instances)
    if not names:
        return None
    inst = module.instances[names[index % len(names)]]
    if op == "swap":
        new_cell = _SWAPPABLE.get(inst.cell.name)
        if new_cell is None:
            return None
        module.swap_cell(inst.name, new_cell)
        return f"swap {inst.name} -> {new_cell}"
    if op == "buffer":
        # splice a buffer in front of the first input pin
        in_pins = [p for p in inst.cell.pins
                   if p in inst.connections
                   and p not in (inst.cell.clock_pin,)
                   and p not in inst.cell.output_pins]
        if not in_pins:
            return None
        pin = in_pins[0]
        old_net = inst.net_of(pin)
        new_net = f"__eco_n{index}"
        module.add_instance(
            f"__eco_buf{index}", "BUF_X1",
            {"A": old_net, "Y": new_net},
        )
        module.rewire_pin(inst.name, pin, new_net)
        return f"buffer {inst.name}.{pin}"
    if op == "rewire":
        # retarget one input pin onto another existing driven net
        in_pins = [p for p in inst.cell.pins
                   if p in inst.connections
                   and p not in inst.cell.output_pins]
        driven = sorted(
            net.name for net in module.nets.values()
            if net.driver is not None
        )
        if not in_pins or not driven:
            return None
        pin = in_pins[0]
        new_net = driven[index % len(driven)]
        if new_net == inst.net_of(pin):
            return None
        module.rewire_pin(inst.name, pin, new_net)
        return f"rewire {inst.name}.{pin} -> {new_net}"
    return None


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=50),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["swap", "buffer", "rewire"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_random_ecos_incremental_equals_cold(seed, edits):
    clear_analysis_memo()
    module = block_from_budget(
        "hblk", _LIB, gate_budget=220, seed=seed
    )
    store = ArtifactStore()
    with using_store(store):
        summary_json(module)  # populate the store cold
        applied = [
            desc for op, index in edits
            if (desc := _apply_eco(module, op, index)) is not None
        ]
        clear_analysis_memo()
        incremental = summary_json(module)
        clear_analysis_memo()
        incremental_again = summary_json(module)
    clear_analysis_memo()
    with using_store(ArtifactStore()):
        cold = summary_json(module)
    assert incremental == cold, applied
    assert incremental_again == cold, applied
