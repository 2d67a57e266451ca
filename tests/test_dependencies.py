"""numpy is the only runtime dependency, and analysis sits below lint.

The whole flow -- the IR-drop mesh solve, the yield models and the
reliability models included -- runs without scipy or networkx, and the
closed-form normal CDFs read what ``scipy.stats.norm.cdf`` read.
:mod:`repro.analysis`, and the property derivation built on it, run
without loading any :mod:`repro.lint` module.
"""

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
