"""Compiled word-parallel fault simulation: fused fault-cone programs.

The big-int reference kernel (:mod:`repro.dft.faultsim`) walks fault
sites in Python: one
:meth:`~repro.dft.faultsim.CombinationalView.detect_mask` cone walk
per fault per batch.  This module takes the same route the compiled
functional backend took -- compile once, sweep flat -- and applies it
to the *fault universe*:

* **Good program.**  The combinational network is levelized once
  (:func:`repro.sim.compiled.levelize_combinational` -- the same
  levelization the functional bit-plane engine uses, so level
  boundaries agree across engines by construction) and flattened into
  per-level literal matrices.  Patterns ride the 64 bit-lanes of each
  ``uint64`` word; one fancy-index + ``bitwise_and.reduce`` +
  ``bitwise_or.reduceat`` per level evaluates every gate across the
  whole batch.

* **Fault program.**  Every active fault gets a private *overlay
  slot* per gate in its fanout cone.  Stem (output-pin) faults are
  constant forces written onto the overlay before the sweep; branch
  (input-pin) faults are realized by folding the forced literal out
  of the site gate's minterm rows.  All cones are concatenated into
  one flat program sorted by level, so a single level sweep -- the
  same three numpy calls -- advances *every* faulty machine at once,
  and forces are injected at the level boundaries of the shared
  levelized program.  Detection is ``good ^ faulty`` at the
  observation points (pseudo outputs reached by each cone), OR-folded
  per fault with one ``reduceat``.

* **Fault dropping.**  A batch is graded in word *chunks* (64, 64,
  128, 256, ... patterns): after each chunk, newly detected faults
  leave the active universe and the program rows are re-selected once
  enough faults have dropped.  First-detecting-pattern attribution is
  exact -- dropping only ever skips work *after* a fault's first
  detection -- so results are bit-identical to grading the whole
  batch flat, and therefore to the reference kernel.

Programs are cached per view in a :class:`~weakref.WeakKeyDictionary`
(never pickled; pool workers rebuild their own), and the kernel is
``engine="compiled"``, the default of
:func:`repro.dft.faultsim.random_pattern_fault_sim` and
:func:`repro.dft.atpg.run_atpg`.  Throughput counters report under
the ``dft.fault_sim.compiled`` perf stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from ..netlist.netlist import Instance
from ..perf import stage_timer
from ..sim.compiled import levelize_combinational
from .faults import Fault
from .faultsim import CombinationalView, _n_words, _WORD_BITS

__all__ = [
    "FaultProgram",
    "clear_fault_program_cache",
    "compile_fault_program",
    "compiled_batch_hits",
    "grade_batch",
]

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Once the active universe shrinks below this fraction of the
#: current row selection, the selection is rebuilt.  Rebuilding every
#: chunk would cost more than the stale rows it trims.
_RESELECT_RATIO = 0.5


def _first_set_bits(det: np.ndarray) -> np.ndarray:
    """Per row of a ``(faults, words)`` array: index of the lowest set
    bit, or -1 when the row is all zero."""
    nonzero = det != 0
    has_hit = nonzero.any(axis=1)
    word_index = np.argmax(nonzero, axis=1)
    word = det[np.arange(det.shape[0]), word_index]
    low = word & (~word + np.uint64(1))
    bit = np.zeros(det.shape[0], dtype=np.int64)
    hits = low != 0
    # low is a power of two; float64 represents 2**k exactly for
    # k < 64, so log2 recovers the bit index without a Python loop.
    bit[hits] = np.log2(low[hits].astype(np.float64)).astype(np.int64)
    return np.where(has_hit, word_index * _WORD_BITS + bit, -1)


class _GoodProgram:
    """Flat levelized program for the fault-free machine.

    Value layout: slot ``s`` of the value array owns rows ``2*s``
    (value) and ``2*s + 1`` (complement), so a literal is the single
    index ``2*slot + invert`` and no XOR pass is needed in the sweep.
    """

    def __init__(self, view: CombinationalView) -> None:
        self.view = view
        module = view.module
        self.net_slot: dict[str, int] = {
            net: index for index, net in enumerate(module.nets)
        }
        n_nets = len(self.net_slot)
        self.const0 = n_nets
        self.const1 = n_nets + 1
        self.n_slots = n_nets + 2
        self.pi_nets: list[str] = list(view.pseudo_inputs)
        self.pi_slots = np.array(
            [self.net_slot[net] for net in self.pi_nets], dtype=np.intp
        )

        #: reusable value/complement workspace (grow-only, see
        #: :meth:`evaluate`).
        self._values_buf: np.ndarray | None = None

        net_level, by_level = levelize_combinational(module)
        self.inst_level: dict[str, int] = {}
        self.levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for level_index, insts in enumerate(by_level):
            rows: list[list[int]] = []
            seg: list[int] = []
            out: list[int] = []
            for inst in insts:
                self.inst_level[inst.name] = level_index + 1
                seg.append(len(rows))
                rows.extend(self._instance_rows(inst))
                out.append(
                    self.net_slot[inst.net_of(inst.cell.output_pins[0])]
                )
            n_max = max(len(row) for row in rows)
            pad = self.const1 * 2  # constant-1 literal: AND identity
            lit = np.array(
                [row + [pad] * (n_max - len(row)) for row in rows],
                dtype=np.intp,
            )
            self.levels.append((
                lit,
                np.array(seg, dtype=np.intp),
                np.array(out, dtype=np.intp),
            ))

    def _instance_rows(self, inst: Instance) -> list[list[int]]:
        """Minterm literal rows (``2*slot + invert`` indices) for one
        instance; constant cells become a single const literal."""
        minterms = self.view._minterms[inst.cell.name]
        if not minterms:
            return [[self.const0 * 2]]
        if not minterms[0]:
            return [[self.const1 * 2]]
        in_slots = [
            self.net_slot[inst.net_of(pin)]
            for pin in inst.cell.input_pins
        ]
        return [
            [in_slots[j] * 2 + (0 if bit else 1)
             for j, bit in enumerate(minterm)]
            for minterm in minterms
        ]

    def pack_stimulus(
        self, bits: Mapping[str, np.ndarray], width: int
    ) -> np.ndarray:
        """Pack per-net 0/1 vectors into a ``(pseudo-inputs, words)``
        uint64 matrix with one :func:`numpy.packbits` call."""
        words = _n_words(width)
        stacked = np.zeros((len(self.pi_nets), words * _WORD_BITS),
                           dtype=np.uint8)
        for row, net in enumerate(self.pi_nets):
            vec = bits.get(net)
            if vec is not None:
                stacked[row, :width] = vec[:width]
        return np.packbits(stacked, axis=1, bitorder="little").view(
            np.uint64
        )

    def evaluate(self, bits: Mapping[str, np.ndarray],
                 width: int) -> np.ndarray:
        """Good-machine values for a batch: a ``(2 * n_slots, words)``
        value/complement array, every net evaluated.

        The workspace is reused across batches: undriven-net defaults
        (value 0, complement all-ones) and the constant slots are
        written once at (re)allocation and never touched again, while
        pseudo-input and gate-output rows are rewritten every call.
        The returned view is only valid until the next call.
        """
        words = _n_words(width)
        buf = self._values_buf
        if buf is None or buf.shape[1] < words:
            buf = np.zeros((self.n_slots * 2, words), dtype=np.uint64)
            buf[1::2] = _FULL  # complements of the all-zero default
            buf[self.const1 * 2] = _FULL
            buf[self.const1 * 2 + 1] = np.uint64(0)
            self._values_buf = buf
        values = buf[:, :words]
        packed = self.pack_stimulus(bits, width)
        values[self.pi_slots * 2] = packed
        values[self.pi_slots * 2 + 1] = ~packed
        for lit, seg, out in self.levels:
            acc = np.bitwise_or.reduceat(
                np.bitwise_and.reduce(values[lit], axis=1), seg, axis=0
            )
            values[out * 2] = acc
            values[out * 2 + 1] = ~acc
        return values


class _SiteTemplate:
    """Shared cone structure for every fault on one site.

    Rows cover the cone *downstream* of the site gate with overlay
    references encoded as negative slot codes; per-fault assembly only
    offsets them by the fault's overlay base, so the Python cost of
    building a universe is paid once per site, not once per fault.
    """

    def __init__(self, good: _GoodProgram, instance: str) -> None:
        view = good.view
        cone = view.fanout_cone(instance)
        overlay: dict[str, int] = {}
        for member in cone:
            overlay[member.net_of(member.cell.output_pins[0])] = len(overlay)
        self.overlay = overlay
        self.n_overlay = len(overlay)
        site = view.module.instances[instance]
        self.site_out_local = overlay[
            site.net_of(site.cell.output_pins[0])
        ]

        slot_rows: list[list[int]] = []
        inv_rows: list[list[int]] = []
        level_of_row: list[int] = []
        group_of_row: list[int] = []
        out_of_group: list[int] = []
        group = 0
        for member in cone:
            if member.name == instance:
                continue
            rows = self._member_rows(good, member)
            out_local = overlay[
                member.net_of(member.cell.output_pins[0])
            ]
            for slots, invs in rows:
                slot_rows.append(slots)
                inv_rows.append(invs)
                level_of_row.append(good.inst_level[member.name])
                group_of_row.append(group)
            out_of_group.append(out_local)
            group += 1
        self.n_groups = group
        n_max = max((len(row) for row in slot_rows), default=1)
        self.n_max = n_max
        n_rows = len(slot_rows)
        self.slot = np.array(
            [row + [good.const1] * (n_max - len(row)) for row in slot_rows],
            dtype=np.int64,
        ).reshape(n_rows, n_max)
        self.inv = np.array(
            [row + [0] * (n_max - len(row)) for row in inv_rows],
            dtype=np.int64,
        ).reshape(n_rows, n_max)
        self.level = np.array(level_of_row, dtype=np.int64)
        self.group = np.array(group_of_row, dtype=np.int64)
        self.out_local = np.array(out_of_group, dtype=np.int64)
        # Observation points this cone can reach.
        self.det_local = np.array(
            [overlay[net] for net in view.pseudo_outputs if net in overlay],
            dtype=np.int64,
        )
        self.det_good = np.array(
            [good.net_slot[net] for net in view.pseudo_outputs
             if net in overlay],
            dtype=np.int64,
        )

    def _member_rows(
        self, good: _GoodProgram, member: Instance
    ) -> list[tuple[list[int], list[int]]]:
        """(slot-codes, inverts) rows for a downstream cone member;
        cone-internal nets use negative overlay codes."""
        view = good.view
        minterms = view._minterms[member.cell.name]
        if not minterms:
            return [([good.const0], [0])]
        if not minterms[0]:
            return [([good.const1], [0])]
        pins = member.cell.input_pins
        rows: list[tuple[list[int], list[int]]] = []
        for minterm in minterms:
            slots: list[int] = []
            invs: list[int] = []
            for j, bit in enumerate(minterm):
                net = member.net_of(pins[j])
                local = self.overlay.get(net)
                slots.append(
                    good.net_slot[net] if local is None else -(local + 1)
                )
                invs.append(0 if bit else 1)
            rows.append((slots, invs))
        return rows


def _site_rows_for_fault(
    good: _GoodProgram, template: _SiteTemplate, fault: Fault
) -> list[tuple[list[int], list[int]]] | None:
    """Site-gate rows with the faulted input literal folded out, or
    ``None`` for a stem (output-pin) fault, which is a pure force."""
    view = good.view
    site = view.module.instances[fault.instance]
    if site.cell.pin(fault.pin).direction == "output":
        return None
    minterms = view._minterms[site.cell.name]
    pins = site.cell.input_pins
    rows: list[tuple[list[int], list[int]]] = []
    for minterm in minterms:
        slots: list[int] = []
        invs: list[int] = []
        contradicted = False
        for j, bit in enumerate(minterm):
            if pins[j] == fault.pin:
                if bit == fault.stuck_at:
                    continue  # forced literal is always true: drop it
                contradicted = True
                break
            net = site.net_of(pins[j])
            local = template.overlay.get(net)
            slots.append(
                good.net_slot[net] if local is None else -(local + 1)
            )
            invs.append(0 if bit else 1)
        if contradicted:
            continue
        if not slots:
            slots, invs = [good.const1], [0]
        rows.append((slots, invs))
    if not rows:
        rows.append(([good.const0], [0]))
    return rows


@dataclass
class _Selection:
    """Program rows restricted to the currently active faults."""

    #: per non-empty level: (literal matrix, reduceat segments,
    #: output slots) already sliced to active rows.
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    stem0: np.ndarray
    stem1: np.ndarray
    det_overlay: np.ndarray
    det_good: np.ndarray
    det_seg: np.ndarray
    det_faults: np.ndarray
    n_active: int
    n_rows: int


class FaultProgram:
    """A fused flat program covering one fault universe on one view."""

    def __init__(
        self, good: _GoodProgram, faults: Sequence[Fault],
        templates: dict[str, _SiteTemplate],
    ) -> None:
        self.good = good
        self.faults: list[Fault] = list(faults)
        self.fault_index: dict[Fault, int] = {
            fault: index for index, fault in enumerate(self.faults)
        }
        by_site: dict[str, list[Fault]] = {}
        for fault in self.faults:
            by_site.setdefault(fault.instance, []).append(fault)

        slot_parts: list[np.ndarray] = []
        inv_parts: list[np.ndarray] = []
        level_parts: list[np.ndarray] = []
        group_parts: list[np.ndarray] = []
        out_parts: list[np.ndarray] = []
        fid_parts: list[np.ndarray] = []
        det_overlay_parts: list[np.ndarray] = []
        det_good_parts: list[np.ndarray] = []
        det_fid_parts: list[np.ndarray] = []
        stem0: list[int] = []
        stem1: list[int] = []
        stem0_fid: list[int] = []
        stem1_fid: list[int] = []
        overlay_base = good.n_slots
        group_base = 0
        n_max = 1
        for site, site_faults in by_site.items():
            template = templates.get(site)
            if template is None:
                template = templates[site] = _SiteTemplate(good, site)
            n_max = max(n_max, template.n_max)
            site_level = good.inst_level[site]
            for fault in site_faults:
                fid = self.fault_index[fault]
                site_rows = _site_rows_for_fault(good, template, fault)
                site_out = overlay_base + template.site_out_local
                if site_rows is None:
                    (stem1 if fault.stuck_at else stem0).append(site_out)
                    (stem1_fid if fault.stuck_at else stem0_fid).append(fid)
                else:
                    count = len(site_rows)
                    width = max(
                        template.n_max,
                        max(len(slots) for slots, _ in site_rows),
                    )
                    n_max = max(n_max, width)
                    slots_arr = np.full((count, width), good.const1,
                                        dtype=np.int64)
                    inv_arr = np.zeros((count, width), dtype=np.int64)
                    for k, (slots, invs) in enumerate(site_rows):
                        slots_arr[k, : len(slots)] = slots
                        inv_arr[k, : len(invs)] = invs
                    slots_arr = np.where(
                        slots_arr < 0, overlay_base + (-slots_arr - 1),
                        slots_arr,
                    )
                    slot_parts.append(slots_arr)
                    inv_parts.append(inv_arr)
                    level_parts.append(
                        np.full(count, site_level, dtype=np.int64)
                    )
                    group_parts.append(
                        np.full(count, group_base, dtype=np.int64)
                    )
                    out_parts.append(
                        np.full(count, site_out, dtype=np.int64)
                    )
                    fid_parts.append(np.full(count, fid, dtype=np.int64))
                if template.slot.shape[0]:
                    slots_arr = np.where(
                        template.slot < 0,
                        overlay_base + (-template.slot - 1),
                        template.slot,
                    )
                    slot_parts.append(slots_arr)
                    inv_parts.append(template.inv)
                    level_parts.append(template.level)
                    group_parts.append(template.group + (group_base + 1))
                    out_parts.append(
                        template.out_local[template.group] + overlay_base
                    )
                    fid_parts.append(
                        np.full(template.slot.shape[0], fid, dtype=np.int64)
                    )
                group_base += template.n_groups + 1
                det_overlay_parts.append(template.det_local + overlay_base)
                det_good_parts.append(template.det_good)
                det_fid_parts.append(
                    np.full(template.det_local.size, fid, dtype=np.int64)
                )
                overlay_base += template.n_overlay
        self.n_slots = overlay_base
        self.stem0 = np.array(stem0, dtype=np.intp)
        self.stem1 = np.array(stem1, dtype=np.intp)
        self.stem0_fault = np.array(stem0_fid, dtype=np.int64)
        self.stem1_fault = np.array(stem1_fid, dtype=np.int64)

        def concat(parts: list[np.ndarray]) -> np.ndarray:
            if not parts:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate(parts)

        def concat_padded(
            parts: list[np.ndarray], fill: int
        ) -> np.ndarray:
            padded = []
            for part in parts:
                if part.shape[1] < n_max:
                    extra = np.full(
                        (part.shape[0], n_max - part.shape[1]), fill,
                        dtype=part.dtype,
                    )
                    part = np.concatenate([part, extra], axis=1)
                padded.append(part)
            if not padded:
                return np.zeros((0, n_max), dtype=np.int64)
            return np.concatenate(padded)

        slot = concat_padded(slot_parts, good.const1)
        inv = concat_padded(inv_parts, 0)
        level = concat(level_parts)
        order = np.argsort(level, kind="stable")
        level = level[order]
        #: literal matrix over the doubled value array: 2*slot + inv.
        self.lit = (slot[order] * 2 + inv[order]).astype(np.intp)
        self.group = concat(group_parts)[order]
        self.out_of_row = concat(out_parts)[order]
        self.fault_of_row = concat(fid_parts)[order]
        boundaries = np.flatnonzero(np.diff(level)) + 1
        self.level_bounds: list[tuple[int, int]] = [
            (int(a), int(b))
            for a, b in zip(
                np.concatenate([[0], boundaries]),
                np.concatenate([boundaries, [level.size]]),
            )
            if a != b
        ]
        self.det_overlay = concat(det_overlay_parts).astype(np.intp)
        self.det_good = concat(det_good_parts).astype(np.intp)
        self.det_fault = concat(det_fid_parts)
        #: precomputed full-universe selection: the first (and biggest)
        #: chunk of the first batch selects everything.
        self.full_selection = self.select(None)
        #: reusable sweep workspace and last (active-set, selection)
        #: pair; both grow-only caches owned by :func:`grade_batch`.
        self._chunk_buf: np.ndarray | None = None
        self._sel_cache: tuple[np.ndarray, _Selection] | None = None

    def select(self, active: np.ndarray | None) -> _Selection:
        """Restrict program rows to ``active`` faults (``None`` = all)."""
        if active is None:
            row_index = np.arange(self.fault_of_row.size)
            lit = self.lit
            group = self.group
            n_active = len(self.faults)
            det_index = np.arange(self.det_fault.size)
            stem0 = self.stem0
            stem1 = self.stem1
        else:
            row_index = np.flatnonzero(active[self.fault_of_row])
            lit = self.lit[row_index]
            group = self.group[row_index]
            n_active = int(np.count_nonzero(active))
            det_index = np.flatnonzero(active[self.det_fault])
            stem0 = self.stem0[active[self.stem0_fault]]
            stem1 = self.stem1[active[self.stem1_fault]]
        seg = np.flatnonzero(np.diff(group, prepend=-1))
        out = self.out_of_row[row_index][seg]
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for a, b in self.level_bounds:
            c = int(np.searchsorted(row_index, a))
            d = int(np.searchsorted(row_index, b))
            if c == d:
                continue
            in_level = (seg >= c) & (seg < d)
            levels.append((lit[c:d], seg[in_level] - c, out[in_level]))
        det_fault = self.det_fault[det_index]
        det_seg = np.flatnonzero(np.diff(det_fault, prepend=-1))
        return _Selection(
            levels=levels,
            stem0=stem0,
            stem1=stem1,
            det_overlay=self.det_overlay[det_index] * 2,
            det_good=self.det_good[det_index] * 2,
            det_seg=det_seg,
            det_faults=det_fault[det_seg],
            n_active=n_active,
            n_rows=int(row_index.size),
        )


def _chunk_bounds(words: int) -> list[tuple[int, int]]:
    """Doubling word-chunk schedule: 1, 1, 2, 4, ... words.  Early
    chunks are cheap and drop the bulk of the universe before the wide
    tail chunks run."""
    bounds: list[tuple[int, int]] = []
    start, size = 0, 1
    while start < words:
        end = min(words, start + size)
        bounds.append((start, end))
        start = end
        size *= 2
    return bounds


def grade_batch(
    program: FaultProgram,
    bits: Mapping[str, np.ndarray],
    width: int,
    remaining: Iterable[Fault],
    counters: dict[str, float] | None = None,
) -> dict[Fault, int]:
    """Grade one pattern batch: fault -> first detecting pattern index.

    Bit-identical to the reference kernel for the same stimulus; the
    chunked sweep only reorders *work*, never detection outcomes.
    When ``counters`` is given, fill-efficiency inputs (active vs
    capacity row-words) are accumulated into it.
    """
    good = program.good
    words = _n_words(width)
    tail = width % _WORD_BITS
    tail_mask = _FULL if tail == 0 else np.uint64((1 << tail) - 1)

    good_values = good.evaluate(bits, width)

    active = np.zeros(len(program.faults), dtype=bool)
    for fault in remaining:
        active[program.fault_index[fault]] = True
    n_active = int(np.count_nonzero(active))
    hits: dict[Fault, int] = {}
    if n_active == 0:
        return hits
    if n_active == len(program.faults):
        selection = program.full_selection
    else:
        # Reuse the previous batch's selection while the active set is
        # still a (not-too-much-smaller) subset of it; stale rows only
        # waste sweep work, never change outcomes -- dropped faults are
        # masked out of detection recording below.
        cached = program._sel_cache
        if (
            cached is not None
            and n_active >= cached[1].n_active * _RESELECT_RATIO
            and not np.any(active & ~cached[0])
        ):
            selection = cached[1]
        else:
            selection = program.select(active)
            program._sel_cache = (active.copy(), selection)
    # Chunking exists to shed dropped faults mid-batch; once the
    # universe is mostly dropped already, the per-chunk fixed costs
    # outweigh any further shedding -- sweep the batch in one go.
    # Either schedule grades identically (see docstring).
    if n_active * 16 <= len(program.faults):
        bounds = [(0, words)]
    else:
        bounds = _chunk_bounds(words)

    rows_capacity = 0
    rows_active = 0
    for start, end in bounds:
        if n_active == 0:
            break
        chunk_words = end - start
        if n_active < selection.n_active * _RESELECT_RATIO:
            selection = program.select(active)
            program._sel_cache = (active.copy(), selection)
        rows_capacity += program.lit.shape[0] * chunk_words
        rows_active += selection.n_rows * chunk_words

        buf = program._chunk_buf
        if buf is None or buf.shape[1] < chunk_words:
            buf = np.empty((program.n_slots * 2, words), dtype=np.uint64)
            program._chunk_buf = buf
        chunk = buf[:, :chunk_words]
        chunk[: good.n_slots * 2] = good_values[:, start:end]
        for force, value in ((selection.stem0, np.uint64(0)),
                             (selection.stem1, _FULL)):
            if force.size:
                chunk[force * 2] = value
                chunk[force * 2 + 1] = ~value
        for lit, seg, out in selection.levels:
            acc = np.bitwise_or.reduceat(
                np.bitwise_and.reduce(chunk[lit], axis=1), seg, axis=0
            )
            chunk[out * 2] = acc
            chunk[out * 2 + 1] = ~acc

        det = np.bitwise_or.reduceat(
            chunk[selection.det_overlay] ^ chunk[selection.det_good],
            selection.det_seg, axis=0,
        )
        if end == words:
            det[:, -1] &= tail_mask
        first = _first_set_bits(det)
        # A stale selection may still carry already-dropped faults;
        # they must not be re-recorded.
        hit = (first >= 0) & active[selection.det_faults]
        if hit.any():
            for fid, bit in zip(selection.det_faults[hit], first[hit]):
                hits[program.faults[fid]] = start * _WORD_BITS + int(bit)
            active[selection.det_faults[hit]] = False
            n_active -= int(np.count_nonzero(hit))

    if counters is not None:
        counters["row_words_active"] = (
            counters.get("row_words_active", 0.0) + rows_active
        )
        counters["row_words_capacity"] = (
            counters.get("row_words_capacity", 0.0) + rows_capacity
        )
    return hits


#: Per-view program cache: (site templates, good program, universe
#: program).  WeakKeyDictionary so views die naturally, and nothing
#: here is ever pickled -- pool workers rebuild from the view.
_CACHE: "WeakKeyDictionary[CombinationalView, tuple[_GoodProgram, dict[str, _SiteTemplate], list[FaultProgram]]]" = (
    WeakKeyDictionary()
)


def compile_fault_program(
    view: CombinationalView, faults: Sequence[Fault]
) -> FaultProgram:
    """Fetch (or build and cache) the fused program covering
    ``faults`` on ``view``.  A cached program is reused whenever it
    covers the requested universe -- campaigns shrink their fault list
    batch by batch, so one build serves the whole run."""
    entry = _CACHE.get(view)
    if entry is None:
        good = _GoodProgram(view)
        templates: dict[str, _SiteTemplate] = {}
        entry = (good, templates, [])
        _CACHE[view] = entry
    good, templates, programs = entry
    for program in programs:
        if all(fault in program.fault_index for fault in faults):
            return program
    program = FaultProgram(good, faults, templates)
    # Keep only the newest program: universes grow monotonically
    # within a flow (ATPG grades subsets of the fault-sim universe).
    programs.clear()
    programs.append(program)
    return program


def clear_fault_program_cache() -> None:
    """Drop every cached fault program (mainly for tests)."""
    _CACHE.clear()


def compiled_batch_hits(
    view: CombinationalView,
    bits: Mapping[str, np.ndarray],
    width: int,
    remaining: Sequence[Fault],
) -> dict[Fault, int]:
    """Batch kernel of ``engine="compiled"``.

    Same signature and same results as
    :func:`repro.dft.faultsim._batch_first_hits_bigint`; reports
    throughput counters under ``dft.fault_sim.compiled``.
    """
    with stage_timer("dft.fault_sim.compiled") as stats:
        program = compile_fault_program(view, remaining)
        fill: dict[str, float] = {}
        hits = grade_batch(program, bits, width, remaining, counters=fill)
        stats.add(
            lane_patterns=float(width),
            faults_active=float(len(remaining)),
            faults_dropped=float(len(hits)),
            **fill,
        )
    return hits
