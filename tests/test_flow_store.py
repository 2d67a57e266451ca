"""The design-level lifecycle stages as store units.

``verify``, ``implement``, ``advanced_signoff``, ``package_design``,
``tapeout`` and ``produce`` cache exactly the ``FlowReport`` fields
they set under ``flow.<stage>``, keyed on the fingerprints of the
netlists they read, the seed and the settings they read.  These tests
pin the contracts that makes:

* a warm rerun hits each unit once and runs none of the cached bodies,
  and still reports what the cold run did;
* every key names content: a different seed, one swapped cell, a
  different clock target or a different floorplan misses exactly the
  units that read it, and nothing else;
* ``tapeout`` keeps its two state edits live, so a warm run leaves the
  representative block and the design database as a cold run does.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import DesignServiceFlow, flow_stage_order
from repro.ip import IpCatalog, dsc_ip_catalog
from repro.store import ArtifactStore

#: The design-level store units, in run order.
UNITS = ("verify", "implement", "advanced_signoff", "package_design",
         "tapeout", "produce")

#: What each unit's cached body would call first; a warm unit calls
#: none of them.
BODIES = (
    "repro.core.flow.cross_simulator_check",
    "repro.physical.AnnealingPlacer.place",
    "repro.core.flow.optimize_assignment",
    "repro.core.flow.check_sequential_burn_in",
    "repro.core.flow.simulate_project",
    "repro.core.flow.simulate_ramp",
)

SCALE = 0.01


def report_json(flow: DesignServiceFlow) -> str:
    return json.dumps(dataclasses.asdict(flow.report), sort_keys=True)


def unit_counts(store: ArtifactStore) -> dict[str, tuple[int, int, int]]:
    """``(hits, misses, puts)`` of every design-level unit."""
    counters = store.counters()
    return {
        stage: (counters[f"flow.{stage}"].hits,
                counters[f"flow.{stage}"].misses,
                counters[f"flow.{stage}"].puts)
        for stage in UNITS if f"flow.{stage}" in counters
    }


def hits(store: ArtifactStore) -> set[str]:
    return {stage for stage, (hit, _, _) in unit_counts(store).items()
            if hit}


@pytest.fixture(scope="module")
def cold(tmp_path_factory) -> tuple[DesignServiceFlow, Path]:
    """A full cold run and its persisted store."""
    flow = DesignServiceFlow(scale=SCALE, seed=0, store=ArtifactStore())
    flow.run()
    path = tmp_path_factory.mktemp("flow_store") / "store.json"
    flow.store.save(str(path))
    return flow, path


def warm_store(cold) -> ArtifactStore:
    """A fresh load of the cold run's store: zero counters."""
    return ArtifactStore.load(str(cold[1]))


def run_until(flow: DesignServiceFlow, last: str) -> None:
    for name in flow_stage_order():
        flow.run_stage(name)
        if name == last:
            return


def run_after(flow: DesignServiceFlow, first: str) -> None:
    order = flow_stage_order()
    for name in order[order.index(first) + 1:]:
        flow.run_stage(name)


class TestWarmRerun:
    def test_cold_run_puts_each_unit_once(self, cold):
        assert unit_counts(cold[0].store) == {
            stage: (0, 1, 1) for stage in UNITS
        }

    def test_each_unit_hits_once_and_reports_match(self, cold):
        warm = DesignServiceFlow(scale=SCALE, seed=0, store=warm_store(cold))
        warm.run()
        assert unit_counts(warm.store) == {
            stage: (1, 0, 0) for stage in UNITS
        }
        assert report_json(warm) == report_json(cold[0])

    def test_warm_units_run_no_cached_body(self, cold, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a cached stage body ran")

        warm = DesignServiceFlow(scale=SCALE, seed=0, store=warm_store(cold))
        returned = {}
        for name in flow_stage_order():
            if name not in UNITS:
                warm.run_stage(name)
                continue
            with monkeypatch.context() as patch:
                for target in BODIES:
                    patch.setattr(target, boom)
                returned[name] = warm.run_stage(name)
        assert report_json(warm) == report_json(cold[0])
        # A hit hands back the payload: exactly the fields it set.
        assert returned["produce"] == {
            "qualification_passed": True,
            "initial_yield": warm.report.initial_yield,
            "final_yield": warm.report.final_yield,
            "units_produced": warm.report.units_produced,
            "market_share": warm.report.market_share,
        }
        assert set(returned["tapeout"]) == {
            "formal_clean", "project_months", "changes_absorbed",
        }

    def test_a_miss_returns_live_objects(self):
        flow = DesignServiceFlow(scale=SCALE, seed=0, store=ArtifactStore())
        qual, ramp, production = flow.produce()
        assert qual.passed
        assert flow.report.units_produced == production.total_units
        assert flow.report.initial_yield == ramp.expected_yield[0]

    def test_warm_tapeout_leaves_block_and_database_as_cold(self, cold):
        warm = DesignServiceFlow(scale=SCALE, seed=0, store=warm_store(cold))
        warm.run()
        assert "tapeout" in hits(warm.store)
        flow = cold[0]
        assert warm._representative_block().fingerprint() == \
            flow._representative_block().fingerprint()
        assert len(warm.database) == len(flow.database) == 2
        assert warm.database.head.fingerprint() == \
            flow.database.head.fingerprint()
        assert warm.report.spare_cells == flow.report.spare_cells


class TestKeysNameContent:
    def test_another_seed_misses_every_unit(self, cold):
        flow = DesignServiceFlow(scale=SCALE, seed=1, store=warm_store(cold))
        flow.run()
        assert hits(flow.store) == set()
        assert unit_counts(flow.store) == {
            stage: (0, 1, 1) for stage in UNITS
        }

    def test_one_swapped_cell_misses_only_its_readers(self, cold):
        flow = DesignServiceFlow(scale=SCALE, seed=0, store=warm_store(cold))
        run_until(flow, "insert_dft")
        block = flow._representative_block()
        library = block.library
        for inst in block.instances.values():
            if inst.cell.is_sequential:
                continue
            names = [cell.name for cell in library.drive_variants(
                inst.cell.footprint, vt_class=inst.cell.vt_class)]
            if len(names) > 1 and inst.cell.name in names:
                other = names[(names.index(inst.cell.name) + 1)
                              % len(names)]
                break
        before = block.fingerprint()
        block.swap_cell(inst.name, other)
        assert block.fingerprint() != before
        run_after(flow, "insert_dft")
        assert hits(flow.store) == {"verify", "package_design", "tapeout",
                                    "produce"}
        for stage in ("implement", "advanced_signoff"):
            assert unit_counts(flow.store)[stage] == (0, 1, 1)

    def test_another_clock_target_misses_the_timed_units(self, cold):
        flow = DesignServiceFlow(scale=SCALE, seed=0, target_mhz=120.0,
                                 store=warm_store(cold))
        flow.run()
        counts = unit_counts(flow.store)
        assert counts["implement"] == counts["advanced_signoff"] == (0, 1, 1)
        assert {"verify", "package_design", "produce"} <= hits(flow.store)

    def test_a_catalog_without_the_cpu_changes_the_floorplan(self, cold):
        """Without ``risc_dsp`` the floorplan takes the fallback CPU
        macro and a smaller standard-cell area: ``implement`` misses,
        while ``advanced_signoff`` (no floorplan) still hits."""
        reference = DesignServiceFlow(scale=SCALE, seed=0,
                                      store=ArtifactStore())
        run_until(reference, "insert_dft")
        reference.implement()
        reference.advanced_signoff()
        catalog = IpCatalog()
        for ip in dsc_ip_catalog():
            if ip.name != "risc_dsp":
                catalog.add(ip)
        flow = DesignServiceFlow(catalog=catalog, scale=SCALE, seed=0,
                                 store=reference.store)
        flow.blocks = dict(reference.blocks)
        flow.assemble()
        assert flow.report.soc_stdcell_area_mm2 < \
            reference.report.soc_stdcell_area_mm2
        flow.implement()
        flow.advanced_signoff()
        counts = unit_counts(flow.store)
        assert counts["implement"] == (0, 2, 2)
        assert counts["advanced_signoff"] == (1, 1, 1)
        assert flow.report.die_area_mm2 != reference.report.die_area_mm2
