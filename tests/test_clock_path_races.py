"""Clock-path races (``RACE-002/003``) against a launch-set fixpoint.

:func:`repro.lint.clock_path_races` finds a destination's sources with
the CDC rules' structural D-pin fan-in walk.  The oracle here reads the
same relation off a dataflow fixpoint instead: a test-local taint
domain in which every flop seeds its own name, every gate unions its
inputs and no flop passes anything on, solved by the monolithic
:func:`repro.oracles.fixpoint.run_fixpoint`.  The two must name the same
``(src, dst, kind)`` triples on the seeded-bug corpus, on hand-built
corner cases (a flop between source and destination, a combinational
loop on a D path) and on generated blocks whose flops are re-clocked
through clock gates and inverters.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import TaintDomain
from repro.lint import clock_path_races
from repro.netlist import Module, make_default_library, trace_control_source
from repro.netlist.generators import block_from_budget
from repro.oracles.fixpoint import run_fixpoint
from tests.test_stage_table import SEEDED_BUGS

LIB = make_default_library(0.25)


class CombinationalLaunchDomain(TaintDomain):
    """Which flops reach a net through combinational logic only."""

    def __init__(self) -> None:
        super().__init__(flop_seed=lambda inst: frozenset({inst.name}))

    def flop_next(self, inst, pins, current):
        return frozenset()


def oracle_races(module):
    """Same-root (src, dst, kind) races from the launch-set fixpoint."""
    launch = run_fixpoint(module, CombinationalLaunchDomain())
    traces = {
        flop.name: trace_control_source(
            module, flop.net_of(flop.cell.clock_pin)
        )
        for flop in module.sequential_instances
        if flop.cell.clock_pin is not None
    }
    races = []
    for dst_name in sorted(traces):
        dst = module.instances[dst_name]
        if dst.cell.data_pin is None:
            continue
        dst_trace = traces[dst_name]
        for src_name in sorted(
            launch.net_values[dst.net_of(dst.cell.data_pin)]
        ):
            src_trace = traces.get(src_name)
            if src_trace is None or (src_trace.root, src_trace.kind) != (
                dst_trace.root, dst_trace.kind
            ):
                continue
            if src_trace.inverted != dst_trace.inverted:
                races.append((src_name, dst_name, "inverted"))
            elif src_trace.through_gate != dst_trace.through_gate:
                races.append((src_name, dst_name, "gated"))
    return races


def build_flop_between(lib):
    """f0 -> fm -> f1 on one clock root, f1 behind a clock gate: only
    fm launches into f1, because f0's value needs a second edge."""
    m = Module("between", lib)
    for port in ("clk", "rst_n", "en", "d"):
        m.add_port(port, "input")
    m.add_port("y", "output")
    m.add_instance("icg", "ICG", {"CK": "clk", "EN": "en", "GCK": "gclk"})
    m.add_instance("f0", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "d", "Q": "q0"})
    m.add_instance("fm", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "q0", "Q": "qm"})
    m.add_instance("f1", "DFFR",
                   {"CK": "gclk", "RN": "rst_n", "D": "qm", "Q": "y"})
    return m


def build_loop_on_d(lib):
    """f0 launches into a NAND/INV loop that feeds f1's D; f1 captures
    on the falling edge."""
    m = Module("dloop", lib)
    for port in ("clk", "rst_n", "d"):
        m.add_port(port, "input")
    m.add_port("y", "output")
    m.add_instance("u0", "INV_X1", {"A": "clk", "Y": "clkn"})
    m.add_instance("f0", "DFFR",
                   {"CK": "clk", "RN": "rst_n", "D": "d", "Q": "q0"})
    m.add_instance("g0", "NAND2_X1", {"A": "q0", "B": "n2", "Y": "n1"})
    m.add_instance("g1", "INV_X1", {"A": "n1", "Y": "n2"})
    m.add_instance("f1", "DFFR",
                   {"CK": "clkn", "RN": "rst_n", "D": "n1", "Q": "y"})
    return m


def reclock(module, rewires):
    """Move some flops' CK behind a new INV_X1, ICG or both, onto a
    clock net an earlier rewire made, or onto a data input port."""
    flops = sorted(
        flop.name for flop in module.sequential_instances
        if flop.cell.clock_pin is not None
    )
    made = []
    for index, (pick, kind) in enumerate(rewires):
        flop = module.instances[flops[pick % len(flops)]]
        clock_pin = flop.cell.clock_pin
        net = flop.net_of(clock_pin)
        if kind == "port":
            net = "in0"
        elif kind == "share":
            net = made[pick % len(made)] if made else net
        else:
            if "inv" in kind:
                module.add_instance(f"__ck_inv{index}", "INV_X1",
                                    {"A": net, "Y": f"__ck_n{index}"})
                net = f"__ck_n{index}"
            if "icg" in kind:
                module.add_instance(
                    f"__ck_icg{index}", "ICG",
                    {"CK": net, "EN": "in1", "GCK": f"__ck_g{index}"},
                )
                net = f"__ck_g{index}"
            made.append(net)
        module.rewire_pin(flop.name, clock_pin, net)
    return module


class TestAgainstLaunchFixpoint:
    def test_seeded_bugs_and_corner_cases(self):
        assert clock_path_races(build_flop_between(LIB)) == [
            ("fm", "f1", "gated")
        ]
        assert clock_path_races(build_loop_on_d(LIB)) == [
            ("f0", "f1", "inverted")
        ]
        modules = [build(LIB) for build in SEEDED_BUGS]
        modules += [build_flop_between(LIB), build_loop_on_d(LIB)]
        for module in modules:
            assert clock_path_races(module) == oracle_races(module), \
                module.name

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=50),
        budget=st.integers(min_value=60, max_value=260),
        rewires=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.sampled_from(["inv", "icg", "inv+icg", "share", "port"]),
            ),
            max_size=6,
        ),
    )
    def test_reclocked_blocks(self, seed, budget, rewires):
        module = reclock(
            block_from_budget("blk", LIB, gate_budget=budget, seed=seed),
            rewires,
        )
        assert clock_path_races(module) == oracle_races(module)
