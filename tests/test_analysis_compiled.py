"""The compiled cone engine: stored results, shared tables, the oracle.

``partition_cones`` compiles a module into the integer ids of a
``ConeView`` and every cone solve runs on it, with process-wide
transfer tables behind the constant and dual domains.  None of that may
show in a result:

* a recorded cone store (``tests/goldens/analysis_cone_store.json``)
  answers every cone lookup and a cold run rewrites it byte for byte,
  so keys and payloads move only on purpose -- it was last re-recorded
  when the const and dual keys began naming the dialects' fields
  instead of their names, with every payload unchanged;
* the shared tables, the memo and the store never carry a result across
  dialects or libraries, even between configs that share a name;
* the cone-by-cone solve equals the monolithic ``FixpointEngine`` of
  :mod:`repro.oracles.fixpoint` on
  generated blocks edited to reach the view's corner cases.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ConeRunStats,
    ConstantDomain,
    DualConstantDomain,
    TaintDomain,
    analyze_module,
    clear_analysis_memo,
    clear_transfer_tables,
    partition_cones,
    run_fixpoint_cones,
)
from repro.analysis.analyses import _uninit_mask
from repro.dft.scan import insert_scan
from repro.netlist import make_default_library
from repro.netlist.generators import block_from_budget
from repro.netlist.netlist import Module, PinRef
from repro.oracles.fixpoint import run_fixpoint
from repro.sim import VENDOR_A_SIM, VENDOR_B_SIM
from repro.store import ArtifactStore, using_store
from tests.test_lint import _exotic_lib, build_comb_loop

GOLDEN_STORE = Path(__file__).parent / "goldens" / "analysis_cone_store.json"

FIXPOINTS = ("const", "dual", "xtaint")


def _canonical(value):
    return sorted(value) if isinstance(value, frozenset) else value


def fixpoints_json(analysis) -> str:
    """Every fixpoint of one analysis: values, flop states, visits."""
    return json.dumps({
        name: {
            "nets": {net: _canonical(value) for net, value in
                     getattr(analysis, name).net_values.items()},
            "flops": {flop: _canonical(value) for flop, value in
                      getattr(analysis, name).flop_state.items()},
            "visits": getattr(analysis, name).visits,
        }
        for name in FIXPOINTS
    }, sort_keys=True)


def golden_modules():
    """The two modules whose cold cone entries the golden store holds."""
    lib = make_default_library(0.25)
    return [
        build_comb_loop(lib),
        block_from_budget("golden_blk", lib, gate_budget=100, seed=3),
    ]


def build_mux_equal_legs(lib):
    """An un-reset flop drives a MUX2 select whose legs are both tied
    high: optimistic X semantics give 1, pessimistic ones X."""
    m = Module("muxeq", lib)
    m.add_port("clk", "input")
    m.add_port("a", "input")
    m.add_port("y", "output")
    m.add_instance("t1", "TIEHI", {"Y": "one"})
    m.add_instance("f0", "DFF", {"CK": "clk", "D": "a", "Q": "sel"})
    m.add_instance("mx", "MUX2_X1",
                   {"S": "sel", "A": "one", "B": "one", "Y": "y"})
    return m


def cold_fixpoints(module, config_a=VENDOR_A_SIM, config_b=VENDOR_B_SIM):
    clear_analysis_memo()
    with using_store(ArtifactStore()):
        return fixpoints_json(analyze_module(module, config_a, config_b))


class TestGoldenConeStore:
    def test_recorded_store_serves_every_cone(self):
        store = ArtifactStore.load(str(GOLDEN_STORE))
        for module in golden_modules():
            clear_analysis_memo()
            stats = ConeRunStats()
            with using_store(store):
                warm = fixpoints_json(
                    analyze_module(module, cone_stats=stats)
                )
            assert stats.misses == 0 and stats.hits > 0, module.name
            assert warm == cold_fixpoints(module), module.name

    def test_cold_run_writes_the_recorded_entries(self, tmp_path):
        store = ArtifactStore()
        clear_analysis_memo()
        with using_store(store):
            for module in golden_modules():
                analyze_module(module)
        path = tmp_path / "store.json"
        store.save(str(path), canonical=True)
        assert path.read_bytes() == GOLDEN_STORE.read_bytes()


class TestTransferTables:
    def test_tables_never_cross_dialects_or_libraries(self):
        """Each analysis, run after the others filled the tables, equals
        the same analysis on freshly cleared tables."""
        flipped_a = dataclasses.replace(
            VENDOR_A_SIM, x_pessimism=not VENDOR_A_SIM.x_pessimism
        )
        flipped_b = dataclasses.replace(
            VENDOR_B_SIM, x_pessimism=not VENDOR_B_SIM.x_pessimism
        )
        module_25 = build_mux_equal_legs(make_default_library(0.25))
        module_18 = build_mux_equal_legs(make_default_library(0.18))
        cases = [
            (module_25, VENDOR_A_SIM, VENDOR_B_SIM),
            (module_25, flipped_a, flipped_b),
            (module_18, VENDOR_A_SIM, VENDOR_B_SIM),
        ]
        clear_transfer_tables()
        try:
            shared = [cold_fixpoints(*case) for case in cases]
            fresh = []
            for case in cases:
                clear_transfer_tables()
                fresh.append(cold_fixpoints(*case))
        finally:
            clear_transfer_tables()
        assert shared == fresh
        # The flipped X policy really is a different answer.
        assert fresh[0] != fresh[1]

    def test_same_name_other_content_is_a_miss(self):
        """Configs that keep the default names but turn X pessimism on
        are served neither the default pair's memo entry nor its cones
        (both were keyed on the names once)."""
        module = build_mux_equal_legs(make_default_library(0.25))
        pessimistic = (
            dataclasses.replace(VENDOR_A_SIM, x_pessimism=True),
            dataclasses.replace(VENDOR_B_SIM, x_pessimism=True),
        )
        fresh = cold_fixpoints(module, *pessimistic)
        assert fresh != cold_fixpoints(module)
        clear_analysis_memo()
        with using_store(ArtifactStore()):
            analyze_module(module)
            after_memo = fixpoints_json(analyze_module(module, *pessimistic))
        clear_analysis_memo()
        stats = ConeRunStats()
        with using_store(ArtifactStore()):
            analyze_module(module)
            clear_analysis_memo()
            after_store = fixpoints_json(
                analyze_module(module, *pessimistic, cone_stats=stats))
        assert after_memo == fresh
        assert after_store == fresh
        assert stats.misses > 0

    def test_a_warm_table_enumerates_nothing(self, monkeypatch):
        module = block_from_budget("tbl", make_default_library(0.25),
                                   gate_budget=120, seed=4)
        cold_fixpoints(module)
        calls = []
        import repro.analysis.domains as domains

        real = domains.evaluate_cell

        def counting(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(domains, "evaluate_cell", counting)
        cold_fixpoints(module)
        assert calls == []


# -- oracle: cone solve == monolithic engine on edited blocks --------------

_LATCH_LIB = _exotic_lib(latch=True)


def _driven_nets(module):
    return sorted(
        name for name, net in module.nets.items() if net.driver is not None
    )


def _comb_with_inputs(module):
    return sorted(
        name for name, inst in module.instances.items()
        if not inst.cell.is_sequential and inst.cell.input_pins
    )


def _apply_edit(module, position, edit, index):
    comb = _comb_with_inputs(module)
    target = module.instances[comb[index % len(comb)]]
    pin = target.cell.input_pins[0]
    driven = _driven_nets(module)
    source = driven[(index * 7) % len(driven)]
    tag = f"{edit}{position}"
    if edit == "loop":
        # target -> new gate -> target's first input: a combinational loop
        out = target.net_of(target.cell.output_pins[0])
        module.add_instance(f"__{tag}", "NAND2_X1",
                            {"A": out, "B": source, "Y": f"__{tag}_y"})
        module.rewire_pin(target.name, pin, f"__{tag}_y")
    elif edit == "latch":
        module.add_instance(f"__{tag}", "DLAT",
                            {"D": source, "E": driven[index % len(driven)],
                             "Q": f"__{tag}_q"})
        module.rewire_pin(target.name, pin, f"__{tag}_q")
    elif edit == "undriven":
        module.rewire_pin(target.name, pin, f"__{tag}_float")
    elif edit == "tie":
        cell = "TIEHI" if index % 2 else "TIELO"
        module.add_instance(f"__{tag}", cell, {"Y": f"__{tag}_y"})
        module.rewire_pin(target.name, pin, f"__{tag}_y")
    elif edit == "port_driven":
        # An instance output shorted onto an input-port net: the one
        # multi-driver contention the IR represents (the constructor
        # rejects it, so it is wired by hand, consistently).
        port = f"__{tag}_pi"
        module.add_port(port, "input")
        module.add_instance(f"__{tag}", "BUF_X1",
                            {"A": source, "Y": f"__{tag}_tmp"})
        module.nets[f"__{tag}_tmp"].driver = None
        module.instances[f"__{tag}"].connections["Y"] = port
        module.nets[port].driver = PinRef(f"__{tag}", "Y")
        module.rewire_pin(target.name, pin, port)


def _domains():
    uninit = _uninit_mask(VENDOR_A_SIM, VENDOR_B_SIM)
    yield ConstantDomain(VENDOR_A_SIM, uninit_mask=uninit)
    yield DualConstantDomain(VENDOR_A_SIM, VENDOR_B_SIM,
                             reset_assured=frozenset())
    yield TaintDomain(
        flop_seed=lambda inst: frozenset({f"flop:{inst.name}"}),
        undriven_seed=lambda net: frozenset({f"undriven:{net.name}"}),
    )


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=40),
    scan=st.booleans(),
    edits=st.lists(
        st.tuples(
            st.sampled_from(
                ["loop", "latch", "undriven", "tie", "port_driven"]
            ),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=5,
    ),
)
def test_cone_solve_equals_monolithic_engine(seed, scan, edits):
    module = block_from_budget("orc", _LATCH_LIB, gate_budget=90, seed=seed)
    if scan:
        module, _ = insert_scan(module)
    for position, (edit, index) in enumerate(edits):
        _apply_edit(module, position, edit, index)
    partition = partition_cones(module)
    for domain in _domains():
        mono = run_fixpoint(module, domain)
        with using_store(ArtifactStore()):
            cones = run_fixpoint_cones(
                module, domain, partition, domain_token=lambda cone: ["t"],
            )
        assert cones.net_values == mono.net_values, edits
        assert cones.flop_state == mono.flop_state, edits
