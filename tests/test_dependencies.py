"""numpy is the only runtime dependency, and the packages form layers.

The whole flow -- the IR-drop mesh solve, the yield models and the
reliability models included -- runs without scipy or networkx, and the
closed-form normal CDFs read what ``scipy.stats.norm.cdf`` read.

The subpackages of ``repro`` import each other in one direction only:
their import graph is acyclic, so each layer runs without loading the
layers above it.  Simulation loads only the netlist and the perf
timers, DFT runs without the formal, coverage, verification and lint
layers, and :mod:`repro.analysis`, with the property derivation built
on it, runs without loading any :mod:`repro.lint` module.  No module
imports asyncio, so neither a flow nor a service run loads it.
:mod:`repro.oracles` holds the reference engines
the tests compare production against: no other package imports it,
and neither a flow run nor ``repro atpg``, ``repro regress`` or
``repro cover`` loads it.  The event simulator is one of those
references: outside :mod:`repro.sim` and :mod:`repro.oracles` only
BMC's counterexample replay imports it at run time.  Production names
the scan ports only in :mod:`repro.netlist`, and steps lane stimulus
only through :meth:`repro.sim.BatchSimulator.run` and crossval.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.manufacturing.yield_model import ParametricModel
from repro.reliability.models import LognormalLife

from .test_documentation import SUBPACKAGES

NUMPY_ONLY_RUN = textwrap.dedent(f"""
    import importlib
    import sys

    for name in {SUBPACKAGES!r}:
        importlib.import_module(name)

    from repro.core import DesignServiceFlow
    from repro.reliability import LognormalLife

    DesignServiceFlow(scale=0.005, seed=0).run()
    LognormalLife(1000.0, 0.5).fraction_failing_by(500.0)
    loaded = {{name.partition(".")[0] for name in sys.modules}}
    unwanted = sorted(loaded & {{"scipy", "networkx"}})
    assert not unwanted, unwanted
""")


ANALYSIS_WITHOUT_LINT_RUN = textwrap.dedent("""
    import sys

    from repro import analysis
    from repro.formal import derive_properties
    from repro.netlist import make_default_library
    from repro.netlist.generators import block_from_budget

    module = block_from_budget("blk", make_default_library(0.25),
                               gate_budget=300, seed=3)
    result = analysis.analyze_module(module)
    analysis.observable_nets(module)
    for query in (
        analysis.stuck_nets, analysis.never_toggling_flops,
        analysis.unobservable_instances, analysis.constant_cones,
        analysis.divergent_nets, analysis.divergent_output_ports,
        analysis.mux_select_x_sites, analysis.reconvergent_x_sites,
        analysis.multi_driver_races,
    ):
        query(result)
    assert derive_properties(module).properties
    loaded = sorted(name for name in sys.modules
                    if name == "repro.lint"
                    or name.startswith("repro.lint."))
    assert not loaded, loaded
""")


SIM_ONLY_RUN = textwrap.dedent("""
    import sys

    from repro.netlist import Logic, Module, make_default_library
    from repro.sim import BatchSimulator, LogicSimulator

    module = Module("icg_flop", make_default_library(0.25))
    for port in ("clk", "en", "d"):
        module.add_port(port, "input")
    module.add_port("q", "output")
    module.add_instance("u_icg", "ICG",
                        {"CK": "clk", "EN": "en", "GCK": "gclk"})
    module.add_instance("f0", "DFF", {"D": "d", "CK": "gclk", "Q": "q"})
    for sim in (LogicSimulator(module), BatchSimulator(module, lanes=1)):
        sim.set_inputs({"clk": 0, "en": 1, "d": 1})
        sim.clock_edge("clk")
        assert sim.read("q") is Logic.ONE
    layers = {"repro.netlist", "repro.sim", "repro.perf"}
    loaded = sorted(name for name in sys.modules
                    if name.startswith("repro.")
                    and ".".join(name.split(".")[:2]) not in layers)
    assert not loaded, loaded
""")


DFT_WITHOUT_FORMAL_RUN = textwrap.dedent("""
    import sys

    from repro.dft import insert_scan, run_atpg
    from repro.netlist import make_default_library
    from repro.netlist.generators import block_from_budget

    block = block_from_budget("blk", make_default_library(0.25),
                              gate_budget=200, seed=1)
    scanned, _ = insert_scan(block, n_chains=2)
    assert run_atpg(scanned, seed=0, max_random_patterns=64).coverage > 0
    above = {"repro.formal", "repro.coverage", "repro.verification",
             "repro.lint"}
    loaded = sorted(name for name in sys.modules
                    if ".".join(name.split(".")[:2]) in above)
    assert not loaded, loaded
""")


FLOW_WITHOUT_ASYNCIO_RUN = textwrap.dedent("""
    import sys

    from repro.core import DesignServiceFlow

    DesignServiceFlow(scale=0.005, seed=0).run()
    assert "repro.service.stages" in sys.modules
    assert "asyncio" not in sys.modules

    from repro.service import DesignService, synthetic_tenant_mix

    mix = synthetic_tenant_mix(tenants=1, requests_per_tenant=1,
                               scale=0.004, seed=0)
    assert DesignService(workers=1).run(mix)[0].ok
    assert "asyncio" not in sys.modules
""")


PRODUCTION_WITHOUT_ORACLES_RUN = textwrap.dedent("""
    import contextlib
    import io
    import sys

    from repro.cli import main
    from repro.core import DesignServiceFlow

    DesignServiceFlow(scale=0.005, seed=0).run()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["atpg", "--gates", "200", "--patterns", "32"]) == 0
        assert main(["regress"]) == 0
        # Too short to close coverage: only the run matters here.
        main(["cover", "--rounds", "1", "--tests-per-round", "4",
              "--cycles", "16"])

    from repro.dft import (
        CombinationalView, build_dictionary, collapse_faults,
        enumerate_faults, insert_scan,
    )
    from repro.formal import Counterexample, counterexample_to_test
    from repro.netlist import Logic, make_default_library, pipeline_block

    block = pipeline_block("blk", make_default_library(0.25), stages=2,
                           width=4, cloud_gates=16, seed=1)
    scanned, _ = insert_scan(block)
    faults = collapse_faults(scanned, enumerate_faults(scanned))
    dictionary = build_dictionary(CombinationalView(scanned), faults)
    observed = dictionary.observe(faults[0])
    assert dictionary.diagnose(observed).candidates
    frames = tuple(
        {"rst_n": Logic.from_bool(t > 0), "in0": Logic.from_bool(t % 2)}
        for t in range(4)
    )
    cex = Counterexample(kind="violation", frame=3, frames=frames,
                         nets=(), clock_port="clk")
    assert counterexample_to_test(block, cex, name="cex").toggled
    loaded = sorted(name for name in sys.modules
                    if name == "repro.oracles"
                    or name.startswith("repro.oracles."))
    assert not loaded, loaded
""")


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this tree."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_flow_runs_without_scipy_or_networkx():
    result = run_python(NUMPY_ONLY_RUN)
    assert result.returncode == 0, result.stderr


def test_analysis_runs_without_lint():
    result = run_python(ANALYSIS_WITHOUT_LINT_RUN)
    assert result.returncode == 0, result.stderr


def test_simulation_loads_only_netlist_sim_and_perf():
    result = run_python(SIM_ONLY_RUN)
    assert result.returncode == 0, result.stderr


def test_dft_runs_without_formal_or_lint():
    result = run_python(DFT_WITHOUT_FORMAL_RUN)
    assert result.returncode == 0, result.stderr


def test_flow_runs_without_asyncio():
    result = run_python(FLOW_WITHOUT_ASYNCIO_RUN)
    assert result.returncode == 0, result.stderr


def test_flow_and_atpg_never_load_the_oracles():
    result = run_python(PRODUCTION_WITHOUT_ORACLES_RUN)
    assert result.returncode == 0, result.stderr


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") \
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _imported_modules(tree: ast.Module, module: str,
                      is_package: bool) -> set[str]:
    """Absolute names of every ``repro`` module ``module`` imports: at
    module level or inside functions, relative or absolute, but not
    under ``if TYPE_CHECKING:``."""
    here = module.split(".") if is_package else module.split(".")[:-1]
    found: set[str] = set()
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = here[:len(here) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                target = node.module or ""
            found.add(target)
            # ``from repro import sim`` imports a subpackage by name.
            found.update(f"{target}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return {name for name in found if name.startswith("repro.")}


def module_imports() -> dict[str, set[str]]:
    """Every module of a ``repro`` subpackage -> what it imports at run
    time (see :func:`_imported_modules`)."""
    root = Path(repro.__file__).resolve().parent
    imports: dict[str, set[str]] = {}
    for path in root.glob("*/**/*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if is_package else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[module] = _imported_modules(tree, module, is_package)
    return imports


def package_import_graph() -> dict[str, set[str]]:
    """Subpackage of ``repro`` -> the other subpackages it imports."""
    root = Path(repro.__file__).resolve().parent
    packages = {path.parent.name for path in root.glob("*/__init__.py")}
    graph: dict[str, set[str]] = {name: set() for name in packages}
    for module, names in module_imports().items():
        package = module.split(".")[1]
        for name in names:
            target = name.split(".")[1]
            if target in packages and target != package:
                graph[package].add(target)
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle of ``graph``, or None when it is a DAG."""
    state: dict[str, int] = {}  # 1 on the DFS path, 2 finished
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        path.append(node)
        for target in sorted(graph[node]):
            if state.get(target) == 1:
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        state[node] = 2
        path.pop()
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_package_import_graph_is_acyclic():
    graph = package_import_graph()
    assert {"netlist", "sim", "sat", "dft", "formal", "lint"} <= set(graph)
    assert "sat" in graph["dft"] and "sat" in graph["formal"]
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_no_package_imports_the_oracles():
    graph = package_import_graph()
    assert "oracles" in graph
    importers = sorted(name for name, targets in graph.items()
                       if "oracles" in targets and name != "oracles")
    assert not importers, importers


def test_only_bmc_replay_imports_the_event_simulator():
    """:class:`repro.sim.LogicSimulator` is the regression, divergence
    and coverage oracle and the BMC counterexample replayer: outside
    :mod:`repro.sim` and :mod:`repro.oracles`, only
    :mod:`repro.formal.bmc` may import it other than for annotations."""
    importers = sorted(
        module for module, names in module_imports().items()
        if module.split(".")[1] not in ("sim", "oracles")
        and any(name.endswith(".LogicSimulator") for name in names)
    )
    assert importers == ["repro.formal.bmc"]


def test_event_harnesses_left_the_production_api():
    import repro.coverage
    import repro.verification

    assert not hasattr(repro.verification, "observed_divergent_nets")
    assert not hasattr(repro.coverage, "simulate_with_coverage")
    assert "observed_divergent_nets" not in repro.verification.__all__
    assert "simulate_with_coverage" not in repro.coverage.__all__
    assert not hasattr(repro.verification.Testbench, "run")


def test_one_production_engine_for_detection_and_coverage():
    """Fault detection runs only on the compiled kernel, and coverage
    is collected only as word masks: the big-int evaluator, the
    structural observer and the simulators' observer hooks are gone
    from production (they live on in :mod:`repro.oracles`)."""
    import repro.coverage
    from repro.dft import CombinationalView
    from repro.sim import BatchSimulator, LogicSimulator

    for name in ("evaluate", "detect_mask", "random_patterns",
                 "_eval_instance"):
        assert not hasattr(CombinationalView, name), name
    assert not hasattr(repro.coverage, "StructuralObserver")
    assert "StructuralObserver" not in repro.coverage.__all__
    for simulator in (LogicSimulator, BatchSimulator):
        assert not hasattr(simulator, "attach_observer"), simulator
    assert not hasattr(BatchSimulator, "lane_view")


def production_trees() -> dict[str, ast.Module]:
    """Every production module of ``repro`` (the oracles excluded),
    by path relative to the package, parsed."""
    root = Path(repro.__file__).resolve().parent
    return {
        path.relative_to(root).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] != "oracles"
    }


def _names_scan_port(node: ast.AST) -> bool:
    """A ``"scan_en"`` literal, a ``"scan_in"``/``"scan_out"`` prefix
    (f-string parts included) or a ``startswith("scan...")`` test."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value == "scan_en"
                or node.value.startswith(("scan_in", "scan_out")))
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"):
        return any(
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            and arg.value.startswith("scan")
            for call_arg in node.args for arg in ast.walk(call_arg)
        )
    return False


def test_scan_ports_are_named_only_by_the_port_convention():
    """The clock, reset and scan port names live in
    :mod:`repro.netlist.clocks`; every other production module takes
    them from there.  The oracles keep their own written-out ties."""
    naming = sorted(
        f"{path}:{node.lineno}"
        for path, tree in production_trees().items()
        if not path.startswith("netlist/")
        for node in ast.walk(tree)
        if _names_scan_port(node)
    )
    assert not naming, naming


def test_only_the_lane_driver_and_crossval_set_lane_inputs():
    """Production steps lane stimulus edge by edge only in
    :meth:`repro.sim.BatchSimulator.run`; crossval's two-dialect
    lockstep through its unclocked settle phase is the one exception."""
    callers = sorted({
        path
        for path, tree in production_trees().items()
        if not path.startswith("sim/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_lane_inputs"
    })
    assert callers == ["verification/crossval.py"]


def test_no_module_imports_asyncio():
    """The service schedules from one synchronous loop: nothing in
    ``repro`` imports asyncio, at module level or inside functions."""
    root = Path(repro.__file__).resolve().parent
    importers = sorted(
        f"{path.relative_to(root).as_posix()}:{node.lineno}"
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(
            alias.name.partition(".")[0] == "asyncio"
            for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and not node.level
            and (node.module or "").partition(".")[0] == "asyncio")
    )
    assert not importers, importers


def test_import_graph_walk_sees_every_import_form():
    tree = ast.parse(textwrap.dedent("""
        import repro.perf
        from repro.sim import compiled
        from ..lint import run_lint
        from .. import store
        if TYPE_CHECKING:
            from ..formal import BmcReport

        def late():
            from ..analysis.cones import ConeCache
    """))
    found = _imported_modules(tree, "repro.dft.scan", is_package=False)
    packages = {name.split(".")[1] for name in found}
    assert packages == {"perf", "sim", "lint", "store", "analysis"}


#: Values recorded with ``scipy.stats.norm.cdf`` before it was replaced.
SCIPY_CDF_VALUES = [
    pytest.param(lambda: ParametricModel().yield_fraction(),
                 0.9988459499152185, id="parametric"),
    pytest.param(lambda: ParametricModel().retargeted(0.014)
                 .yield_fraction(), 0.9675112428418325, id="retarget+"),
    pytest.param(lambda: ParametricModel().retargeted(-0.012)
                 .yield_fraction(), 0.9797587631620595, id="retarget-"),
    pytest.param(lambda: LognormalLife(1000.0, 0.5)
                 .fraction_failing_by(500.0), 0.08282851900169852,
                 id="lognormal-lower"),
    pytest.param(lambda: LognormalLife(2000.0, 0.35)
                 .fraction_failing_by(3500.0), 0.9450788381216917,
                 id="lognormal-upper"),
]


@pytest.mark.parametrize("value, recorded", SCIPY_CDF_VALUES)
def test_normal_cdf_matches_scipy(value, recorded):
    assert value() == pytest.approx(recorded, rel=0, abs=1e-15)
