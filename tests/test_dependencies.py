"""numpy is the only runtime dependency.

The whole flow -- the IR-drop mesh solve, the yield models and the
reliability models included -- runs without scipy or networkx, and the
closed-form normal CDFs read what ``scipy.stats.norm.cdf`` read.
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


def test_flow_runs_without_scipy_or_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_RUN], env=env,
        capture_output=True, text=True, timeout=300,
    )
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
