"""Hierarchical DFT: chip-level test-access and scheduling.

Section 4 lists "hierarchical DFT and physical implementation" among
the capabilities the service provider built after this project.  At
chip level the problem is scheduling: every block has scan patterns
and MBIST runs; the tester offers a limited test-access-mechanism
(TAM) width and the die a power ceiling; blocks tested in parallel
must fit both.  This module allocates TAM width per block and packs
block tests into parallel sessions, reporting chip test time vs the
naive serial schedule.  It is generic; the DSC controller's own test
plan is built from its IP catalogue (``dsc_block_test_specs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class BlockTestSpec:
    """Test requirements of one block."""

    name: str
    scan_flops: int
    patterns: int
    mbist_cycles: int = 0
    test_power_mw: float = 50.0

    def scan_cycles(self, chains: int) -> int:
        """Scan-test cycles with ``chains`` parallel chains: each
        pattern shifts chain_length bits plus one capture."""
        if chains < 1:
            raise ValueError("chains must be >= 1")
        chain_length = math.ceil(self.scan_flops / chains)
        return self.patterns * (chain_length + 1) + chain_length

    def total_cycles(self, chains: int) -> int:
        """Scan plus MBIST (MBIST runs from its own controller while
        the scan test of the same block is idle -- serial per block)."""
        return self.scan_cycles(chains) + self.mbist_cycles


@dataclass
class ScheduledBlock:
    spec: BlockTestSpec
    session: int
    chains: int
    cycles: int


@dataclass
class TestSchedule:
    """A complete chip test schedule."""

    __test__ = False  # not a pytest collection target

    tam_width: int
    power_limit_mw: float
    blocks: list[ScheduledBlock] = field(default_factory=list)

    @property
    def sessions(self) -> int:
        if not self.blocks:
            return 0
        return max(b.session for b in self.blocks) + 1

    @property
    def total_cycles(self) -> int:
        """Chip test time: sum over sessions of the longest member."""
        per_session: dict[int, int] = {}
        for block in self.blocks:
            per_session[block.session] = max(
                per_session.get(block.session, 0), block.cycles
            )
        return sum(per_session.values())

    def serial_cycles(self) -> int:
        """The serial baseline: full TAM to one block at a time (the
        session gain comes from overlapping small blocks and MBIST)."""
        return sum(
            b.spec.total_cycles(min(self.tam_width, max(b.spec.scan_flops, 1)))
            for b in self.blocks
        )

    def flat_cycles(self) -> int:
        """The legacy non-hierarchical flow: one set of chip-level
        chains through *all* flops, every pattern shifting the full
        chain, plus all MBIST serially."""
        total_flops = sum(b.spec.scan_flops for b in self.blocks)
        total_patterns = max(
            (b.spec.patterns for b in self.blocks), default=0
        )
        # Flat ATPG needs the union of block patterns; overlap is
        # partial, so budget half the sum (but never fewer than the
        # largest block's own set).
        pattern_sum = sum(b.spec.patterns for b in self.blocks)
        patterns = max(total_patterns, pattern_sum // 2)
        chain_length = math.ceil(total_flops / max(self.tam_width, 1))
        mbist = sum(b.spec.mbist_cycles for b in self.blocks)
        return patterns * (chain_length + 1) + chain_length + mbist

    @property
    def speedup_vs_serial(self) -> float:
        total = self.total_cycles
        if total == 0:
            return 1.0
        return self.serial_cycles() / total

    @property
    def speedup_vs_flat(self) -> float:
        total = self.total_cycles
        if total == 0:
            return 1.0
        return self.flat_cycles() / total

    def format_report(self) -> str:
        lines = [
            f"Hierarchical test schedule (TAM {self.tam_width},"
            f" {self.power_limit_mw:.0f} mW limit)",
            f"  sessions   : {self.sessions}",
            f"  test time  : {self.total_cycles} cycles"
            f" (serial: {self.serial_cycles()},"
            f" flat: {self.flat_cycles()})",
            f"  speedup    : {self.speedup_vs_serial:.2f}x vs serial,"
            f" {self.speedup_vs_flat:.2f}x vs flat",
        ]
        for block in sorted(self.blocks, key=lambda b: (b.session,
                                                        -b.cycles)):
            lines.append(
                f"    s{block.session}: {block.spec.name:14s}"
                f" chains={block.chains:2d}  {block.cycles} cycles"
            )
        return "\n".join(lines)


def schedule_block_tests(
    specs: Sequence[BlockTestSpec],
    *,
    tam_width: int = 8,
    power_limit_mw: float = 400.0,
) -> TestSchedule:
    """Greedy rectangle packing of block tests into sessions.

    Longest block first; each session hands out TAM width
    proportionally to remaining demand and respects the power cap.
    Within a session every block gets at least one chain.
    """
    if tam_width < 1:
        raise ValueError("tam_width must be >= 1")
    schedule = TestSchedule(tam_width=tam_width,
                            power_limit_mw=power_limit_mw)
    remaining = sorted(specs, key=lambda s: -s.total_cycles(1))
    session = 0
    while remaining:
        members: list[BlockTestSpec] = []
        power = 0.0

        def volume(spec: BlockTestSpec) -> float:
            return max(spec.scan_flops * spec.patterns, 1)

        for spec in list(remaining):
            if len(members) >= tam_width:
                break
            if power + spec.test_power_mw > power_limit_mw:
                continue
            # Do not starve existing members: after adding, every
            # member's proportional TAM share must stay >= 1 chain,
            # or big blocks end up single-chained and the session
            # takes longer than testing them serially at full width.
            candidate = members + [spec]
            weights = [math.sqrt(volume(s)) for s in candidate]
            if len(candidate) > 1 and (
                tam_width * min(weights) / sum(weights) < 1.0
            ):
                continue
            members.append(spec)
            power += spec.test_power_mw
        if not members:
            raise ValueError(
                "power limit too low for any single block test"
            )
        for spec in members:
            remaining.remove(spec)
        # TAM split: weight by sqrt of scan volume (balances the
        # session completion times better than linear weighting).
        weights = [math.sqrt(max(s.scan_flops * s.patterns, 1))
                   for s in members]
        total_weight = sum(weights)
        chains_left = tam_width
        allocations: list[int] = []
        for index, spec in enumerate(members):
            if index == len(members) - 1:
                chains = max(1, chains_left)
            else:
                chains = max(1, int(round(
                    tam_width * weights[index] / total_weight
                )))
                chains = min(chains, chains_left - (len(members)
                                                    - index - 1))
            chains_left -= chains
            allocations.append(chains)
        for spec, chains in zip(members, allocations):
            schedule.blocks.append(
                ScheduledBlock(
                    spec=spec,
                    session=session,
                    chains=chains,
                    cycles=spec.total_cycles(chains),
                )
            )
        session += 1
    return schedule
