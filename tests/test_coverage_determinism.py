"""The coverage determinism contract, property-tested.

A coverage database assembled from N tests must be bit-identical (as
canonical JSON) no matter how the tests were partitioned into
processes, batched into rounds, or ordered during merging -- the
closure loop's ``workers`` knob must never change the answer, only
the wall clock.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist import make_default_library, pipeline_block
from repro.coverage import (
    ClosureConfig,
    CoverGroup,
    CoverageDatabase,
    Coverpoint,
    TestCoverage,
    close_coverage,
    spawn_test_seeds,
    value_bins,
)
from repro.oracles.coverage import simulate_with_coverage

LIB = make_default_library(0.25)
BLOCK = pipeline_block("blk", LIB, stages=1, width=6, cloud_gates=20,
                       seed=1)
GROUP = CoverGroup(
    "g",
    coverpoints=(
        Coverpoint("lo", value_bins([0, 1, 2, 3]),
                   signals=("out0", "out1")),
    ),
)

NETS = tuple(f"n{i}" for i in range(6))
BINS = tuple(f"g.x.{i}" for i in range(3))


def fresh_db():
    return CoverageDatabase("d", net_universe=NETS,
                            bin_universe=BINS)


@st.composite
def record_strategy(draw, index):
    return TestCoverage(
        name=f"t{index}",
        cycles=draw(st.integers(1, 8)),
        duration_s=draw(st.floats(0, 1, allow_nan=False)),
        toggled=frozenset(draw(st.sets(st.sampled_from(NETS)))),
        half_toggled=frozenset(draw(st.sets(st.sampled_from(NETS)))),
        bin_hits={b: draw(st.integers(1, 3))
                  for b in draw(st.sets(st.sampled_from(BINS)))},
    )


class TestMergeAlgebra:
    @settings(max_examples=50)
    @given(st.data())
    def test_any_partition_merges_to_same_json(self, data):
        count = data.draw(st.integers(2, 6))
        records = [data.draw(record_strategy(i)) for i in range(count)]
        order = data.draw(st.permutations(range(count)))
        cut = data.draw(st.integers(0, count))

        serial = fresh_db()
        for record in records:
            serial.add_test(record)

        left, right = fresh_db(), fresh_db()
        for position in order[:cut]:
            left.add_test(records[position])
        for position in order[cut:]:
            right.add_test(records[position])
        left.merge(right)

        assert left.to_json() == serial.to_json()

    @settings(max_examples=20)
    @given(st.data())
    def test_wall_clock_never_leaks_into_canonical_form(self, data):
        record = data.draw(record_strategy(0))
        fast = TestCoverage(**{**record.__dict__, "duration_s": 0.0})
        assert record.to_dict() == fast.to_dict()


class TestSimulationDeterminism:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 16),
           batches=st.sampled_from([(4,), (2, 2), (1, 3), (3, 1),
                                    (1, 1, 2)]))
    def test_round_batching_does_not_change_records(self, seed, batches):
        """Test i's record depends only on (base seed, i), never on
        how the campaign was chopped into rounds."""
        def run(seed_seq, index):
            return simulate_with_coverage(
                BLOCK, GROUP, name=f"t{index}",
                rng=np.random.default_rng(seed_seq), cycles=8,
            )

        flat = [run(s, i)
                for i, s in enumerate(spawn_test_seeds(seed, 4))]
        batched = []
        offset = 0
        for size in batches:
            seeds = spawn_test_seeds(seed, size, spawn_offset=offset)
            batched += [run(s, offset + i)
                        for i, s in enumerate(seeds)]
            offset += size
        assert [t.to_dict() for t in flat] == \
            [t.to_dict() for t in batched]


class TestClosureWorkerInvariance:
    CONFIG = ClosureConfig(toggle_target=0.7, functional_target=1.0,
                           tests_per_round=3, cycles_per_test=12,
                           max_rounds=3)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_database_bit_identical_to_serial(self, workers):
        serial = close_coverage(BLOCK, GROUP, seed=9, config=self.CONFIG,
                                workers=1)
        parallel = close_coverage(BLOCK, GROUP, seed=9,
                                  config=self.CONFIG, workers=workers)
        assert parallel.database.to_json() == serial.database.to_json()
        assert parallel.stop_reason == serial.stop_reason
        assert [r.new_items for r in parallel.rounds] == \
            [r.new_items for r in serial.rounds]

    def test_different_seeds_diverge(self):
        a = close_coverage(BLOCK, GROUP, seed=1, config=self.CONFIG)
        b = close_coverage(BLOCK, GROUP, seed=2, config=self.CONFIG)
        assert a.database.to_json() != b.database.to_json()
