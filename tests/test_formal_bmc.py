"""Tests for the formal stack: CDCL core, CNF unroller, BMC,
semiformal loop and the PROP lint bridge.

The contract under test (PR 8): the unroller encodes the *compiled
simulation program*, so BMC semantics match both simulator dialects by
construction -- every counterexample must replay bit-identically on
the event simulator under ``VENDOR_A_SIM`` and ``VENDOR_B_SIM``, and
the report JSON must be byte-identical for any worker count.
"""

import gc
import hashlib
import itertools
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.formal import (
    BmcError,
    Counterexample,
    Known,
    NetIs,
    Property,
    Unroller,
    check_bus_exclusivity,
    check_properties,
    derive_properties,
    replay_counterexample,
    semiformal_verify,
)
from repro.lint import findings_from_bmc, findings_from_bus
from repro.netlist import (
    Cell,
    Logic,
    Module,
    PinSpec,
    make_default_library,
    one_hot_ring,
    pipeline_block,
)
from repro.oracles.bmc import check_properties_lanes
from repro.sat import CnfBuilder, SatError, Solver
from repro.sim import VENDOR_A_SIM, VENDOR_B_SIM, LogicSimulator
from repro.sim.compiled import clear_program_cache

CONFIGS = (VENDOR_A_SIM, VENDOR_B_SIM)

#: (dialect, reset_frames) for the unroller-vs-simulator tests.  The
#: no-reset cases power up without a reset frame, so under vendor A
#: X reaches the unroller's two-rail formulas past frame 0.
UNROLL_CASES = [
    pytest.param(config, reset_frames, id=config.name + suffix)
    for config in CONFIGS
    for reset_frames, suffix in ((1, ""), (0, "-no_reset"))
]


@pytest.fixture(scope="module")
def lib():
    return make_default_library(0.25)


# ---------------------------------------------------------------------------
# CDCL core
# ---------------------------------------------------------------------------


def _pigeonhole(solver, pigeons, holes):
    """p_{i,j} = pigeon i sits in hole j."""
    var = {}
    for i in range(pigeons):
        for j in range(holes):
            var[i, j] = solver.new_var()
    for i in range(pigeons):
        solver.add_clause([var[i, j] for j in range(holes)])
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            solver.add_clause([-var[i1, j], -var[i2, j]])
    return var


def _random_3sat(rng, n_vars, n_clauses):
    return [
        tuple(v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, n_vars + 1), 3))
        for _ in range(n_clauses)
    ]


_STATS_KEYS = ("conflicts", "decisions", "learned", "max_learned_length",
               "propagations", "restarts")


def _outcome(solver, verdict, n_vars):
    """Verdict, stats tuple, and the model as a bit string or the core."""
    stats = tuple(solver.stats.to_dict().values())
    if verdict:
        return verdict, stats, "".join(
            "1" if solver.value(v) else "0" for v in range(1, n_vars + 1))
    return verdict, stats, solver.core


# Recorded with the kernel of commit 09a12d1; see TestCdclSolver.
_RANDOM_3SAT_PINS = {
    1: (
        (True, (12, 35, 12, 11, 309, 1),
            "0100010011101011010100000001110011110000"
            "0100101100111110110001111000001011000001"),
        (False, (47, 78, 47, 11, 896, 2), (48, -56, 71)),
    ),
    3: (
        (True, (63, 89, 63, 18, 1415, 1),
            "1110011100111010000000101011100101101010"
            "1001001111110111100100101000011111110101"),
        (False, (102, 132, 102, 18, 2237, 2), (1, -16, -62)),
    ),
    5: (
        (True, (23, 44, 23, 13, 525, 1),
            "0011011101011010010000010111110001010011"
            "0101101010011010001001010000010100001110"),
        (False, (66, 92, 66, 13, 1345, 2), (-23, -48, -56)),
    ),
}
_PHP76_LIMITED = (300, 393, 300, 27, 4019, 4)
_PHP76_RESUMED = (816, 1044, 816, 27, 10785, 10)
_RESCALE_STATS = (5225, 32311, 5225, 17, 89497, 100)
_RESCALE_MODEL_DIGEST = "8925925da6d22646"


class TestCdclSolver:
    """Verdicts, cores and incremental use of the CDCL core, and its
    search path.

    The kernel's speed comes from its data layout, never from a
    different search.  Every value the ``test_pinned_*`` tests compare
    against was recorded on commit 09a12d1, whose kernel kept signed
    literals in dict-keyed watch lists, called ``_lit_value`` and
    ``_enqueue`` per literal and grew a heap of tuples; any later kernel
    must reproduce the stats, models and cores exactly.
    """

    def test_pigeonhole_unsat(self):
        solver = Solver()
        _pigeonhole(solver, pigeons=5, holes=4)
        assert solver.solve() is False

    def test_pigeonhole_tight_fit_sat(self):
        solver = Solver()
        var = _pigeonhole(solver, pigeons=4, holes=4)
        assert solver.solve() is True
        # The model must be a perfect matching.
        for i in range(4):
            assert sum(solver.value(var[i, j]) for j in range(4)) == 1
        for j in range(4):
            assert sum(solver.value(var[i, j]) for i in range(4)) <= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n_vars, n_clauses = 9, 38
        clauses = []
        for _ in range(n_clauses):
            picks = rng.sample(range(1, n_vars + 1), 3)
            clauses.append(tuple(
                v if rng.random() < 0.5 else -v for v in picks
            ))

        def satisfied(assignment):
            return all(
                any(
                    assignment[abs(lit) - 1] == (lit > 0)
                    for lit in clause
                )
                for clause in clauses
            )

        brute_sat = any(
            satisfied([(m >> k) & 1 == 1 for k in range(n_vars)])
            for m in range(1 << n_vars)
        )
        solver = Solver(seed=seed)
        for _ in range(n_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        verdict = solver.solve()
        assert verdict == brute_sat
        if verdict:
            model = [solver.value(v) for v in range(1, n_vars + 1)]
            assert satisfied(model)

    def test_deterministic_given_seed(self):
        def run():
            solver = Solver(seed=7)
            _pigeonhole(solver, pigeons=4, holes=4)
            assert solver.solve()
            return (solver.model(), solver.stats.to_dict())

        assert run() == run()

    def test_failed_assumption_core(self):
        solver = Solver()
        x1, x2, x3 = (solver.new_var() for _ in range(3))
        solver.add_clause([x1])
        solver.add_clause([-x1, x2])
        assert solver.solve() is True
        # x2 is forced; assuming its negation must fail with the
        # guilty assumption in the core.  x3 is innocent.
        assert solver.solve([x3, -x2]) is False
        assert -x2 in solver.core
        assert x3 not in solver.core
        assert set(solver.core) <= {x3, -x2}
        # The solver is reusable after an assumption failure.
        assert solver.solve([x3]) is True

    def test_add_clause_after_sat_and_resolve(self):
        solver = Solver()
        var = _pigeonhole(solver, pigeons=3, holes=3)
        assert solver.solve() is True
        first = {key: solver.value(v) for key, v in var.items()}
        # Forbid the model's seat for pigeon 0; the model survives the
        # new clause until the next solve.
        seat = next(j for j in range(3) if first[0, j])
        solver.add_clause([-var[0, seat]])
        assert solver.value(var[0, seat]) is True
        assert solver.solve() is True
        assert solver.value(var[0, seat]) is False
        for j in range(3):
            solver.add_clause([-var[0, j]])
        assert solver.solve() is False

    def test_conflict_budget_reports_exhausted_not_unsat(self):
        solver = Solver()
        _pigeonhole(solver, pigeons=6, holes=5)
        assert solver.solve(conflict_limit=1) is None
        assert solver.stats.conflicts == 1
        assert solver.solve(conflict_limit=1) is None
        # With room in the budget the same solver reaches the verdict.
        assert solver.solve(conflict_limit=10_000) is False

    def test_unknown_assumption_raises_even_when_unsat(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve() is False
        for bad in (99, -2, 0):
            with pytest.raises(SatError, match="unknown assumption"):
                solver.solve([bad])
        assert solver.solve([a]) is False

    # -- search-path pins: a stats tuple lists SolverStats.to_dict()
    # in key order.

    def test_pinned_stats_key_order(self):
        assert tuple(Solver().stats.to_dict()) == _STATS_KEYS

    @pytest.mark.parametrize("pigeons,holes,stats", [
        (6, 5, (146, 186, 146, 15, 1837, 3)),
        (7, 6, (783, 976, 783, 27, 10674, 8)),
    ])
    def test_pinned_pigeonhole(self, pigeons, holes, stats):
        solver = Solver()
        _pigeonhole(solver, pigeons, holes)
        assert _outcome(solver, solver.solve(), pigeons * holes) == \
            (False, stats, ())

    @pytest.mark.parametrize("seed", sorted(_RANDOM_3SAT_PINS))
    def test_pinned_random_3sat_incremental(self, seed):
        """Solve under assumptions, add clauses, solve again."""
        n_vars = 80
        rng = random.Random(seed)
        solver = Solver(seed=seed)
        for _ in range(n_vars):
            solver.new_var()
        for clause in _random_3sat(rng, n_vars, 300):
            solver.add_clause(clause)
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, n_vars + 1), 3)]
        first = _outcome(solver, solver.solve(assumptions), n_vars)
        for clause in _random_3sat(rng, n_vars, 50):
            solver.add_clause(clause)
        second = _outcome(solver, solver.solve(assumptions), n_vars)
        assert (first, second) == _RANDOM_3SAT_PINS[seed]

    def test_pinned_conflict_limit_exhaustion(self):
        solver = Solver()
        _pigeonhole(solver, pigeons=7, holes=6)
        assert _outcome(solver, solver.solve(conflict_limit=300), 42) == \
            (None, _PHP76_LIMITED, ())
        assert _outcome(solver, solver.solve(), 42) == \
            (False, _PHP76_RESUMED, ())

    def test_pinned_activity_rescale(self):
        """34 guarded PHP(6,5) copies, refuted one at a time.

        VSIDS activities survive between solves, so the run crosses the
        1e100 rescale: ``var_inc`` is ``0.95 ** -k`` at the k-th
        conflict, past 1e100 once k > 4490.  A final unconstrained
        solve then decides every variable on the rescaled activities.
        """
        solver = Solver(seed=3)
        guards = []
        for _ in range(34):
            guard = solver.new_var()
            guards.append(guard)
            var = {(i, j): solver.new_var()
                   for i in range(6) for j in range(5)}
            for i in range(6):
                solver.add_clause([-guard] + [var[i, j] for j in range(5)])
            for j in range(5):
                for i1, i2 in itertools.combinations(range(6), 2):
                    solver.add_clause([-guard, -var[i1, j], -var[i2, j]])
        for guard in guards:
            assert solver.solve([guard]) is False
            assert solver.core == (guard,)
        assert solver.stats.conflicts > 4490
        verdict, stats, bits = _outcome(solver, solver.solve(),
                                        solver.n_vars)
        assert (verdict, stats) == (True, _RESCALE_STATS)
        assert hashlib.sha256(bits.encode()).hexdigest()[:16] == \
            _RESCALE_MODEL_DIGEST


# ---------------------------------------------------------------------------
# Unroller vs the event simulator (both dialects)
# ---------------------------------------------------------------------------


def _assert_unrolling_matches(module, config, depth, seed, reset_frames=1):
    """Every net, every frame: CNF model == event-simulator value."""
    solver = Solver()
    builder = CnfBuilder(solver)
    unroller = Unroller(module, config, builder, reset_frames=reset_frames)
    unroller.extend(depth)
    rng = random.Random(seed)
    assumptions = []
    for t in range(depth):
        for port in unroller.plan.free_ports:
            pair = unroller.pair_of(t, port)
            assumptions.append(
                pair[0] if rng.random() < 0.5 else pair[1]
            )
    assert solver.solve(assumptions) is True
    frames = unroller.stimulus_from_model(solver)

    sim = LogicSimulator(module, config)
    clock = unroller.plan.clock_port
    for t, frame in enumerate(frames):
        vector = dict(frame)
        if clock is not None:
            vector[clock] = Logic.ZERO
        sim.set_inputs(vector)
        sim.evaluate()
        for net in module.nets:
            assert unroller.net_value_from_model(solver, t, net) \
                is sim.read(net), (
                    f"{module.name}/{config.name}: net {net} "
                    f"diverges at frame {t}"
                )
        if t < len(frames) - 1 and clock is not None:
            sim.clock_edge(clock)


def _mixed_flops(module, every):
    """A copy of ``module`` with every ``every``-th flop a reset-less DFF."""
    mixed = module.copy()
    flops = [i for i in mixed.instances.values() if i.cell.is_sequential]
    for index, flop in enumerate(flops):
        if index % every == 0:
            pins = dict(flop.connections)
            mixed.remove_instance(flop.name)
            mixed.add_instance(
                flop.name, "DFF",
                {"D": pins["D"], "CK": pins["CK"], "Q": pins["Q"]},
            )
    return mixed


class TestUnrollerMatchesSimulator:
    @pytest.mark.parametrize("config,reset_frames", UNROLL_CASES)
    def test_one_hot_ring(self, lib, config, reset_frames):
        module = one_hot_ring("ring", lib, width=5)
        _assert_unrolling_matches(module, config, depth=6, seed=1,
                                  reset_frames=reset_frames)

    @pytest.mark.parametrize("config,reset_frames", UNROLL_CASES)
    def test_buggy_ring(self, lib, config, reset_frames):
        module = one_hot_ring("ring", lib, width=4, inject_bug=True)
        _assert_unrolling_matches(module, config, depth=7, seed=2,
                                  reset_frames=reset_frames)

    @pytest.mark.parametrize("config,reset_frames", UNROLL_CASES)
    def test_pipeline_block(self, lib, config, reset_frames):
        module = pipeline_block(
            "blk", lib, stages=2, width=4, cloud_gates=20, seed=3
        )
        _assert_unrolling_matches(module, config, depth=4, seed=3,
                                  reset_frames=reset_frames)

    @pytest.mark.parametrize("every", [2, 3])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_mixed_dff_dffr(self, lib, config, every):
        module = _mixed_flops(pipeline_block(
            "blk", lib, stages=2, width=4, cloud_gates=20, seed=3
        ), every)
        _assert_unrolling_matches(module, config, depth=5, seed=4)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        stages=st.integers(1, 2),
        width=st.integers(2, 4),
        cloud_gates=st.integers(1, 16),
        netlist_seed=st.integers(0, 50),
        stim_seed=st.integers(0, 50),
        dialect=st.sampled_from(CONFIGS),
        reset_frames=st.integers(0, 1),
    )
    def test_hypothesis_netlists(
        self, stages, width, cloud_gates, netlist_seed, stim_seed,
        dialect, reset_frames,
    ):
        lib = make_default_library(0.25)
        module = pipeline_block(
            "blk", lib, stages=stages, width=width,
            cloud_gates=cloud_gates, seed=netlist_seed,
        )
        _assert_unrolling_matches(
            module, dialect, depth=3, seed=stim_seed,
            reset_frames=reset_frames,
        )


def _x_cell_module():
    """a -> XOUT -> DFFR: XOUT drives X from a binary 1, so its cell is
    not binary-closed and its output needs two rails."""
    lib = make_default_library(0.25)
    lib.add(Cell(
        "XOUT", (PinSpec("A", "input"), PinSpec("Y", "output")),
        function=lambda a: Logic.ZERO if a is Logic.ZERO else Logic.X,
    ))
    m = Module("xout", lib)
    for port in ("clk", "rst_n", "a"):
        m.add_port(port, "input")
    m.add_port("q", "output")
    m.add_instance("u", "XOUT", {"A": "a", "Y": "y"})
    m.add_instance(
        "f", "DFFR", {"D": "y", "CK": "clk", "RN": "rst_n", "Q": "q"}
    )
    return m


def _two_rail_pairs(module, config, depth, **unroller_kwargs):
    """The (frame, net) pairs of an unrolling to ``depth`` whose rails
    are not one literal and its negation."""
    unroller = Unroller(module, config, CnfBuilder(Solver()),
                        **unroller_kwargs)
    unroller.extend(depth)
    return [
        (t, net) for t in range(depth) for net in module.nets
        if unroller.pair_of(t, net)[1] != -unroller.pair_of(t, net)[0]
    ]


class TestUnrollerRails:
    """Two rails only where X can reach: a binary net is one literal
    and its negation, so X-freedom folds away while encoding."""

    @pytest.mark.parametrize("reset_frames", [1, 2])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_reset_block_is_single_rail(self, lib, config, reset_frames):
        module = pipeline_block(
            "blk", lib, stages=2, width=4, cloud_gates=20, seed=3
        )
        two_rail = _two_rail_pairs(module, config, 5,
                                   reset_frames=reset_frames)
        assert [(t, net) for t, net in two_rail if t >= reset_frames] == []

    @pytest.mark.parametrize("config,kwargs,has_x", [
        (VENDOR_A_SIM, {"reset_frames": 0}, True),
        (VENDOR_B_SIM, {"reset_frames": 0}, False),
        (VENDOR_B_SIM, {"reset_frames": 0,
                        "initial_state": {"s0_ff0": Logic.X}}, True),
    ], ids=["power_on_x", "power_on_zero", "x_initial_state"])
    def test_x_sources_keep_two_rails(self, lib, config, kwargs, has_x):
        module = pipeline_block(
            "blk", lib, stages=2, width=4, cloud_gates=20, seed=3
        )
        two_rail = _two_rail_pairs(module, config, 4, **kwargs)
        assert bool(two_rail) is has_x

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_x_producing_cell_keeps_two_rails(self, config):
        module = _x_cell_module()
        two_rail = _two_rail_pairs(module, config, 4)
        # Binary inputs, but the cell itself makes X: y at every frame,
        # and the flop that captures it from frame 1 on.
        assert {net for _, net in two_rail} == {"y", "q"}
        assert {t for t, net in two_rail if net == "y"} == {0, 1, 2, 3}
        _assert_unrolling_matches(module, config, depth=4, seed=5)

    @pytest.mark.parametrize("every", [2, 3])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_reset_less_flops_keep_two_rails(self, lib, config, every):
        module = _mixed_flops(pipeline_block(
            "blk", lib, stages=2, width=4, cloud_gates=20, seed=3
        ), every)
        two_rail = _two_rail_pairs(module, config, 4)
        # Power-on X exists only under vendor A; vendor B flops start 0.
        assert bool(two_rail) is (config is VENDOR_A_SIM)
        # Reset-assured flops stay single-rail in both dialects.
        for flop in module.instances.values():
            if flop.cell.name == "DFFR":
                q = flop.net_of("Q")
                assert all((t, q) not in two_rail for t in range(4))


def test_unrollers_share_one_gate_tuple_per_program(lib):
    """Gates are built once per compiled program, and the memo does not
    keep a program alive past :func:`clear_program_cache`."""
    module = pipeline_block(
        "blk", lib, stages=2, width=4, cloud_gates=20, seed=3
    )
    first, second = (
        Unroller(module, VENDOR_A_SIM, CnfBuilder(Solver()))
        for _ in range(2)
    )
    assert first.program is second.program
    assert isinstance(first._gates, tuple) and first._gates
    assert first._gates is second._gates
    program = weakref.ref(first.program)
    del first, second
    clear_program_cache()
    gc.collect()
    assert program() is None


# ---------------------------------------------------------------------------
# check_properties: proofs, falsifications, replay, determinism
# ---------------------------------------------------------------------------


def _toy_assume_module(lib):
    """clk/rst_n/a -> one DFFR: tiny fixture for assume semantics."""
    m = Module("toy", lib)
    m.add_port("clk", "input")
    m.add_port("rst_n", "input")
    m.add_port("a", "input")
    m.add_port("q", "output")
    m.add_instance(
        "f", "DFFR", {"D": "a", "CK": "clk", "RN": "rst_n", "Q": "q"}
    )
    return m


class TestCheckProperties:
    def test_good_ring_proven_and_covered(self, lib):
        module = one_hot_ring("ring", lib, width=5)
        props = derive_properties(module)
        assert any(p.kind == "assert" for p in props)
        report = check_properties(module, props, depth=12)
        counts = report.counts()
        assert counts["falsified"] == 0
        assert counts["proven"] >= 1
        for check in report.checks:
            if check.kind == "cover":
                assert check.status == "covered"

    def test_buggy_ring_falsified_and_replays(self, lib):
        module = one_hot_ring("ring", lib, width=4, inject_bug=True)
        props = derive_properties(module)
        report = check_properties(module, props, depth=8)
        falsified = [
            c for c in report.checks if c.status == "falsified"
        ]
        assert falsified, report.format_report()
        by_name = {p.name: p for p in props}
        for check in falsified:
            cex = check.counterexample
            assert cex is not None
            assert all(
                value in "01xz"
                for frame in cex.to_dict()["frames"]
                for value in frame.values()
            )
            replay = replay_counterexample(
                module, by_name[check.name], cex
            )
            assert replay.reproduced_everywhere, replay.to_dict()
            assert dict(replay.outcomes) == {
                VENDOR_A_SIM.name: True, VENDOR_B_SIM.name: True,
            }

    def test_dsc_block_true_property_proven_deep(self, lib):
        """Acceptance: a true property proven at depth >= 10 on a
        block scaled from the DSC catalogue."""
        from repro.lint import dsc_lint_targets

        targets = dsc_lint_targets(scale=0.002, seed=0)
        module = min(
            (
                m for m in targets.modules
                if any(
                    p.kind != "assume" for p in derive_properties(m)
                )
            ),
            key=lambda m: len(m.instances),
        )
        report = check_properties(
            module, derive_properties(module), depth=10
        )
        assert report.depth == 10
        assert report.counts()["proven"] >= 1
        assert report.counts()["falsified"] == 0

    def test_json_byte_identical_across_workers(self, lib):
        module = one_hot_ring("ring", lib, width=4, inject_bug=True)
        props = derive_properties(module)
        texts = {
            check_properties(
                module, props, depth=6, workers=workers, seed=3
            ).to_json()
            for workers in (1, 2, 4)
        }
        assert len(texts) == 1

    def test_lanes_engine_agrees_with_cdcl(self, lib):
        for inject_bug in (False, True):
            module = one_hot_ring(
                "ring", lib, width=4, inject_bug=inject_bug
            )
            props = derive_properties(module)
            by_cdcl = check_properties(module, props, depth=6)
            by_lanes = check_properties_lanes(module, props, depth=6)
            for a, b in zip(by_cdcl.checks, by_lanes.checks):
                assert a.name == b.name
                # The ring has no free inputs, so the lane sweep is
                # exhaustive and must reach the same verdict.
                assert a.status == b.status, (a, b)
                if b.counterexample is not None:
                    prop = next(
                        p for p in props if p.name == b.name
                    )
                    assert replay_counterexample(
                        module, prop, b.counterexample
                    ).reproduced_everywhere

    def test_assume_unsat_core_lite(self, lib):
        module = _toy_assume_module(lib)
        props = [
            Property(
                name="a_low", kind="assume",
                expr=NetIs("a", Logic.ZERO),
            ),
            Property(
                name="q_low", kind="assert",
                expr=NetIs("q", Logic.ZERO),
            ),
        ]
        report = check_properties(module, props, depth=5)
        (check,) = [c for c in report.checks if c.name == "q_low"]
        assert check.status == "proven"
        assert not check.vacuous
        # unsat-core-lite: the proof names the assumption it leaned on.
        assert check.used_assumptions == ("a_low",)
        # Without the assume the same assert is falsifiable.
        free = check_properties(module, [props[1]], depth=5)
        assert free.checks[0].status == "falsified"

    def test_known_on_reset_less_flop_depends_on_dialect(self, lib):
        module = Module("plain", lib)
        module.add_port("clk", "input")
        module.add_port("a", "input")
        module.add_port("q", "output")
        module.add_instance("f", "DFF", {"D": "a", "CK": "clk", "Q": "q"})
        prop = Property(name="q_known", kind="assert", expr=Known("q"))

        four_state = check_properties(
            module, [prop], depth=3, config=VENDOR_A_SIM
        )
        (check,) = four_state.checks
        assert check.status == "falsified"
        assert check.counterexample.frame == 0
        assert check.counterexample.nets == (("q", "x"),)
        replay = replay_counterexample(
            module, prop, check.counterexample, configs=(VENDOR_A_SIM,)
        )
        assert replay.reproduced_everywhere, replay.to_dict()

        two_state = check_properties(
            module, [prop], depth=3, config=VENDOR_B_SIM
        )
        assert two_state.checks[0].status == "proven"

    @pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"cdcl-{w}")
    def test_depth_below_window_raises_bmc_error(self, lib, workers):
        module = _toy_assume_module(lib)
        prop = Property(name="settle", kind="assert", expr=Known("q"),
                        within=2)
        with pytest.raises(BmcError, match="needs depth >= 2"):
            check_properties(module, [prop], depth=1, workers=workers)

    def test_vacuous_pass_flagged(self, lib):
        module = _toy_assume_module(lib)
        props = [
            # q resets to 0, so "q always 1" is an unsatisfiable
            # environment: every pass under it is vacuous.
            Property(
                name="impossible", kind="assume",
                expr=NetIs("q", Logic.ONE),
            ),
            Property(
                name="anything", kind="assert",
                expr=NetIs("q", Logic.ZERO),
            ),
        ]
        report = check_properties(module, props, depth=4)
        (check,) = [c for c in report.checks if c.name == "anything"]
        assert check.status == "proven"
        assert check.vacuous


class TestBusExclusivity:
    def test_dsc_decode_windows_disjoint(self):
        from repro.soc import DscSoc

        result = check_bus_exclusivity(DscSoc().bus)
        assert result.exclusive
        assert result.witness_address is None

    def test_overlap_found_with_witness(self):
        result = check_bus_exclusivity([
            ("rom", 0x0000_0000, 0x1000),
            ("ram", 0x0000_0800, 0x1000),
            ("regs", 0x4000_0000, 0x100),
        ])
        assert not result.exclusive
        assert set(result.overlapping) == {"ram", "rom"}
        addr = result.witness_address
        assert 0x800 <= addr < 0x1000  # inside both windows


# ---------------------------------------------------------------------------
# Semiformal: random drive + BMC neighborhoods
# ---------------------------------------------------------------------------


class TestSemiformal:
    def test_deep_bug_beyond_bmc_depth(self, lib):
        from repro.coverage import CoverageDatabase

        module = one_hot_ring("ring", lib, width=6, inject_bug=True)
        props = [
            p for p in derive_properties(module)
            if p.kind == "assert"
        ]
        # The injected bug needs 7 frames from reset: depth-4 BMC
        # alone cannot see it ...
        shallow = check_properties(module, props, depth=4)
        assert shallow.counts()["falsified"] == 0
        # ... but depth-4 neighborhoods of simulation-reached states
        # do.
        db = CoverageDatabase("ring")
        result = semiformal_verify(
            module, props, depth=4, lanes=8, drive_cycles=8,
            max_states=4, seed=1, coverage_db=db,
        )
        assert result.frontier_states >= 1
        names = [p.name for p in props]
        assert any(
            result.status_of(name) == "falsified" for name in names
        )
        assert result.traces
        for trace in result.traces:
            assert trace.replay.reproduced_everywhere
        # Counterexamples are banked as directed coverage tests.
        assert result.directed_tests
        for test_name in result.directed_tests:
            assert test_name.startswith("bmc_")
            assert test_name in db.tests
        # The banked record, pinned to the interpreted simulator's
        # exact values.
        assert result.directed_tests == ("bmc_onehot_hot0_2552169911bd",)
        record = db.tests[result.directed_tests[0]]
        hot = {f"hot{i}" for i in range(6)}
        assert record.cycles == 8
        assert record.toggled == hot | {"all_zero", "d0"} | {
            f"any{i}" for i in range(1, 6)
        } | {f"q{i}" for i in range(6)}
        assert record.half_toggled == frozenset()
        assert record.active_flops == hot
        assert record.reset_flops == hot

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_directed_test_matches_event_observer(self, lib, config):
        """counterexample_to_test's word masks on a compiled lane
        equal the oracle's structural observer sampling the
        interpreted simulator after each edge."""
        from repro.formal import counterexample_to_test
        from repro.oracles.coverage import StructuralObserver

        module = pipeline_block("blk", lib, stages=2, width=8,
                                cloud_gates=40, seed=5)
        rng = random.Random(7)
        inputs = sorted(
            name for name, port in module.ports.items()
            if port.direction == "input" and name != "clk"
        )
        frames = []
        for t in range(5):
            frame = {
                name: Logic.from_bool(rng.random() < 0.5)
                for name in inputs
            }
            frame["rst_n"] = Logic.ZERO if t == 0 else Logic.ONE
            frames.append(frame)
        cex = Counterexample(kind="violation", frame=4,
                             frames=tuple(frames), nets=(),
                             clock_port="clk")
        record = counterexample_to_test(module, cex, name="t",
                                        config=config)

        sim = LogicSimulator(module, config)
        oracle = StructuralObserver(module)
        for t, frame in enumerate(frames):
            sim.set_inputs({**frame, "clk": Logic.ZERO})
            sim.evaluate()
            if t < len(frames) - 1:
                sim.clock_edge("clk")
                oracle(sim)
        assert record.cycles == 5
        assert record.toggled == oracle.toggled_nets
        assert record.half_toggled == oracle.half_toggled_nets
        assert record.active_flops == oracle.active_flops
        assert record.reset_flops == oracle.reset_exercised_flops
        # The stimulus really exercises all four coverage kinds.
        assert record.toggled and record.half_toggled
        assert record.active_flops and record.reset_flops

    def test_clean_design_bounded(self, lib):
        module = one_hot_ring("ring", lib, width=4)
        props = [
            p for p in derive_properties(module)
            if p.kind == "assert"
        ]
        result = semiformal_verify(
            module, props, depth=3, lanes=4, drive_cycles=4,
            max_states=2, seed=0,
        )
        for prop in props:
            assert result.status_of(prop.name) == "bounded"

    def test_deterministic_across_workers(self, lib):
        module = one_hot_ring("ring", lib, width=6, inject_bug=True)
        props = [
            p for p in derive_properties(module)
            if p.kind == "assert"
        ]
        payloads = {
            str(semiformal_verify(
                module, props, depth=4, lanes=8, drive_cycles=8,
                max_states=3, seed=1, workers=workers,
            ).to_dict())
            for workers in (1, 3)
        }
        assert len(payloads) == 1


# ---------------------------------------------------------------------------
# PROP lint findings
# ---------------------------------------------------------------------------


class TestPropFindings:
    def test_falsified_assert_is_prop_001(self, lib):
        module = one_hot_ring("ring", lib, width=4, inject_bug=True)
        report = check_properties(
            module, derive_properties(module), depth=8
        )
        findings = findings_from_bmc(report)
        errors = [f for f in findings if f.rule_id == "PROP-001"]
        assert errors
        assert all(f.module == "ring" for f in errors)
        # Fingerprints are stable across identical runs.
        again = findings_from_bmc(check_properties(
            module, derive_properties(module), depth=8
        ))
        assert [f.fingerprint for f in findings] \
            == [f.fingerprint for f in again]

    def test_vacuous_pass_is_prop_002(self, lib):
        module = _toy_assume_module(lib)
        report = check_properties(module, [
            Property(name="impossible", kind="assume",
                     expr=NetIs("q", Logic.ONE)),
            Property(name="anything", kind="assert",
                     expr=NetIs("q", Logic.ZERO)),
        ], depth=4)
        findings = findings_from_bmc(report)
        assert any(f.rule_id == "PROP-002" for f in findings)

    def test_unreachable_cover_is_prop_003(self, lib):
        module = _toy_assume_module(lib)
        report = check_properties(module, [
            Property(name="a_low", kind="assume",
                     expr=NetIs("a", Logic.ZERO)),
            Property(name="see_q", kind="cover",
                     expr=NetIs("q", Logic.ONE)),
        ], depth=4)
        findings = findings_from_bmc(report)
        assert any(f.rule_id == "PROP-003" for f in findings)

    def test_bus_overlap_is_prop_004(self):
        result = check_bus_exclusivity([
            ("a", 0x0, 0x100),
            ("b", 0x80, 0x100),
        ])
        findings = findings_from_bus(result)
        assert [f.rule_id for f in findings] == ["PROP-004"]
        assert findings[0].severity.name == "ERROR"
        assert not findings_from_bus(
            check_bus_exclusivity([
                ("a", 0x0, 0x100), ("b", 0x100, 0x100),
            ])
        )

    def test_prop_rules_reach_sarif(self, lib):
        from repro.lint import LintReport, report_to_sarif_json

        module = one_hot_ring("ring", lib, width=4, inject_bug=True)
        findings = findings_from_bmc(check_properties(
            module, derive_properties(module), depth=8
        ))
        report = LintReport(design="ring", findings=findings)
        sarif = report_to_sarif_json(report)
        assert "PROP-001" in sarif


# ---------------------------------------------------------------------------
# Counterexample surface
# ---------------------------------------------------------------------------


class TestCounterexampleSurface:
    def test_counterexample_round_trip(self, lib):
        module = one_hot_ring("ring", lib, width=4, inject_bug=True)
        props = derive_properties(module)
        report = check_properties(module, props, depth=8)
        check = next(
            c for c in report.checks if c.status == "falsified"
        )
        payload = check.counterexample.to_dict()
        rebuilt = Counterexample(
            kind=payload["kind"],
            frame=payload["frame"],
            frames=tuple(
                {
                    net: Logic("01xz".index(char))
                    for net, char in frame.items()
                }
                for frame in payload["frames"]
            ),
            nets=tuple(payload["nets"]),
            clock_port=payload["clock_port"],
        )
        prop = next(p for p in props if p.name == check.name)
        assert replay_counterexample(
            module, prop, rebuilt
        ).reproduced_everywhere
