"""The lint determinism contract.

The canonical JSON report must be byte-identical no matter how the
rule engine was parallelised -- ``workers`` changes only the wall
clock, never the answer (the same contract the coverage database
keeps, see ``tests/test_coverage_determinism.py``).
"""

import multiprocessing

import pytest

from repro.lint import dsc_lint_targets, lint_modules, run_lint
from repro.netlist import Module, counter, make_default_library
from repro.store import ArtifactStore, using_store

LIB = make_default_library(0.25)


def dirty_modules():
    """A mixed bag: clean counters plus modules with findings."""
    modules = [counter(f"cnt{i}", LIB, width=3 + i,
                       with_reset=bool(i % 2)) for i in range(4)]
    broken = Module("broken", LIB)
    broken.add_port("y", "output")
    broken.add_instance("u0", "INV_X1", {"A": "n2", "Y": "n1"})
    broken.add_instance("u1", "INV_X1", {"A": "n1", "Y": "n2"})
    broken.add_instance("u2", "BUF_X1", {"A": "n1", "Y": "y"})
    modules.append(broken)
    return modules


@pytest.mark.parametrize("workers", [2, 4])
def test_report_json_identical_across_workers(workers):
    serial = run_lint(dirty_modules(), design="d", workers=1)
    parallel = run_lint(dirty_modules(), design="d", workers=workers)
    assert serial.to_json() == parallel.to_json()
    assert len(serial.findings) > 0  # the contract is non-vacuous


def test_dsc_report_identical_across_workers():
    reports = []
    for workers in (1, 3):
        targets = dsc_lint_targets(scale=0.005)
        reports.append(run_lint(
            targets.modules, soc=targets.soc, catalog=targets.catalog,
            binding=targets.binding, design="dsc", workers=workers,
        ).to_json())
    assert reports[0] == reports[1]


def test_rule_selection_stable_under_parallelism():
    serial = run_lint(dirty_modules(), rules=["structural", "xprop"],
                      workers=1)
    parallel = run_lint(dirty_modules(), rules=["structural", "xprop"],
                        workers=4)
    assert serial.to_json() == parallel.to_json()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the module list only under fork",
)
def test_fanout_pickles_no_module(monkeypatch):
    """The modules reach pool workers through the pool initializer, so
    under fork no task carries (and pickles) a Module graph."""
    pickled = []

    def counting_reduce_ex(self, protocol):
        pickled.append(self.name)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(Module, "__reduce_ex__", counting_reduce_ex,
                        raising=False)
    modules = dirty_modules()
    with using_store(ArtifactStore()):
        parallel = lint_modules(modules, workers=2)
    with using_store(ArtifactStore()):
        serial = lint_modules(dirty_modules(), workers=1)
    assert pickled == []
    assert [f.to_dict() for f in parallel] == [f.to_dict() for f in serial]
