"""Compiled word-parallel fault simulation: fused fault-cone programs.

This is the one production fault-detection engine.  Its big-int
oracle (:mod:`repro.oracles.faultsim`) walks fault sites in Python:
one :func:`~repro.oracles.faultsim.detect_mask` cone walk per fault
per batch.  This module takes the same route the compiled functional
backend took -- compile once, sweep flat -- and applies it to the
*fault universe*:

* **Integer compile.**  Each view is compiled once into integer
  tables (:class:`_ViewCompile`): per combinational instance, in
  topological order, its output slot, input slots, level
  (:func:`repro.sim.compiled.levelize_combinational` -- the same
  levelization the functional bit-plane engine uses, so level
  boundaries agree across engines by construction) and cell code; per
  cell, its minterm rows and, per (input pin, stuck-at), the rows with
  that literal folded out; and per instance its fanout cone as a
  Python-int bitset, filled in one reverse-topological pass.  Every
  program below is numpy gathers over these tables.

* **Good program.**  Per-level literal matrices of the fault-free
  machine.  Patterns ride the 64 bit-lanes of each ``uint64`` word;
  one fancy-index + ``bitwise_and.reduce`` + ``bitwise_or.reduceat``
  per level evaluates every gate across the whole batch.

* **Fault program.**  Every active fault gets a private *overlay
  slot* per gate in its fanout cone.  Stem (output-pin) faults are
  constant forces written onto the overlay before the sweep; branch
  (input-pin) faults are realized by folding the forced literal out
  of the site gate's minterm rows.  The cone rows of every fault site
  form one template table (cone members read off the bitsets, inputs
  inside the cone marked as overlay literals), and each fault's rows
  are that template offset by the fault's overlay base -- gathered for
  the whole universe with one ``repeat`` plus a ragged ``arange``.
  All cones are concatenated into one flat program sorted by level,
  so a single level sweep -- the same three numpy calls -- advances
  *every* faulty machine at once, and forces are injected at the
  level boundaries of the shared levelized program.  Detection is
  ``good ^ faulty`` at the observation points (pseudo outputs reached
  by each cone), OR-folded per fault with one ``reduceat``.

* **Fault dropping.**  A batch is graded in word *chunks* (64, 64,
  128, 256, ... patterns): after each chunk, newly detected faults
  leave the active universe and the program rows are re-selected once
  enough faults have dropped.  First-detecting-pattern attribution is
  exact -- dropping only ever skips work *after* a fault's first
  detection -- so results are bit-identical to grading the whole
  batch flat, and therefore to the big-int oracle kernel.

Programs are cached per view in a :class:`~weakref.WeakKeyDictionary`
(never pickled; pool workers rebuild their own; nothing cached refers
back to the view, so an entry dies with it).  Both entry points run
the same chunk sweep (:func:`_sweep`):

* :func:`compiled_batch_hits` -- each fault's *first* detecting
  pattern, with fault dropping; the grading kernel of
  :func:`repro.dft.faultsim.random_pattern_fault_sim`,
  :func:`repro.dft.atpg.run_atpg` and
  :func:`repro.dft.faultsim.simulate_single_pattern`.  Throughput
  counters report under the ``dft.fault_sim.compiled`` perf stage.
* :func:`detection_masks` -- *every* detecting pattern of each fault,
  nothing dropped, swept in one flat chunk; the signatures of
  dictionary diagnosis (:mod:`repro.dft.diagnosis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from ..netlist.library import Cell
from ..perf import stage_timer
from ..sim.compiled import levelize_combinational
from .faults import Fault

if TYPE_CHECKING:
    from .faultsim import CombinationalView

__all__ = [
    "FaultProgram",
    "clear_fault_program_cache",
    "compile_fault_program",
    "compiled_batch_hits",
    "detection_masks",
    "grade_batch",
]

_WORD_BITS = 64
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Once the active universe shrinks below this fraction of the
#: current row selection, the selection is rebuilt.  Rebuilding every
#: chunk would cost more than the stale rows it trims.
_RESELECT_RATIO = 0.5

#: Bytes of cone bitsets unpacked at a time: bounds the transient
#: memory of :meth:`_ViewCompile.cone_tables` whatever the block size.
_UNPACK_BYTES = 1 << 20


def _n_words(width: int) -> int:
    return (width + _WORD_BITS - 1) // _WORD_BITS


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


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for every (start, count) pair,
    concatenated, without a Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return (np.repeat(np.asarray(starts, dtype=np.int64) - offsets, counts)
            + np.arange(int(counts.sum()), dtype=np.int64))


def _row_table(
    rows: list[tuple[list[int], list[int]]], width: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(position, invert, length) arrays of literal rows, padded to
    ``width`` with the ``pad`` position."""
    pos = np.full((len(rows), width), pad, dtype=np.int64)
    inv = np.zeros((len(rows), width), dtype=np.int32)
    for k, (row_pos, row_inv) in enumerate(rows):
        pos[k, : len(row_pos)] = row_pos
        inv[k, : len(row_inv)] = row_inv
    return pos, inv, np.array([len(p) for p, _ in rows], dtype=np.int64)


class _ConeTables(NamedTuple):
    """Flat cone templates of a list of fault sites.

    Per site: its cone size, then ``count`` template rows covering the
    cone *downstream* of the site in topological order, then
    ``det_count`` observation points, in pseudo-output order.  A
    template literal is ``2*code + invert``: the code is a slot, or --
    where ``overlay`` is set -- the cone-local index of the member
    driving that input (the site itself is local 0), which a fault
    offsets by its overlay base.
    """

    cone_size: np.ndarray
    count: np.ndarray
    lit: np.ndarray
    overlay: np.ndarray
    level: np.ndarray
    #: cone-local index of the row's own member (its output).
    local: np.ndarray
    #: literals in the row before padding.
    length: np.ndarray
    det_count: np.ndarray
    det_local: np.ndarray
    det_good: np.ndarray


class _ViewCompile:
    """Integer tables of one view, shared by every program built on it.

    Instances are numbered in :attr:`CombinationalView._order`.  A
    literal *position* indexes a row of :attr:`ext`: columns
    ``0..width-1`` are the instance's input slots, column ``width``
    (``pad``) is the constant-1 slot -- the AND identity, also the
    literal of a row with nothing left to test -- and column
    ``width + 1`` (``const0``) the constant-0 slot.  A literal is the
    value-array row ``2*slot + invert``.
    """

    def __init__(self, view: CombinationalView) -> None:
        module = view.module
        net_slot = {net: index for index, net in enumerate(module.nets)}
        n_nets = len(net_slot)
        self.const0 = n_nets
        self.const1 = n_nets + 1
        self.n_slots = n_nets + 2
        self.pi_slots = np.array(
            [net_slot[net] for net in view.pseudo_inputs], dtype=np.intp
        )
        net_level, _ = levelize_combinational(module)

        cell_code: dict[str, int] = {}
        cells: list[Cell] = []
        pin_pos: list[dict[str, int]] = []
        code: list[int] = []
        out_slot: list[int] = []
        level: list[int] = []
        in_flat: list[int] = []
        n_in: list[int] = []
        driver = [-1] * self.n_slots
        loads: list[list[int]] = []
        #: instance name -> (instance number, pin -> input position,
        #: -1 for the output).
        self.sites: dict[str, tuple[int, dict[str, int]]] = {}
        for index, inst in enumerate(view._order):
            cell = inst.cell
            c = cell_code.setdefault(cell.name, len(cell_code))
            if c == len(cells):
                cells.append(cell)
                pin_pos.append({
                    pin.name: (cell.input_pins.index(pin.name)
                               if pin.direction == "input" else -1)
                    for pin in cell.pins
                })
            nets = inst.connections
            ins = [net_slot[nets[pin]] for pin in cell.input_pins]
            for slot in ins:
                if driver[slot] >= 0:
                    loads[driver[slot]].append(index)
            out_net = nets[cell.output_pins[0]]
            driver[net_slot[out_net]] = index
            loads.append([])
            self.sites[inst.name] = (index, pin_pos[c])
            code.append(c)
            out_slot.append(net_slot[out_net])
            level.append(net_level[out_net])
            in_flat.extend(ins)
            n_in.append(len(ins))
        n = len(code)
        self.n_inst = n
        width = max(n_in, default=0) or 1
        self.width = width
        pad, const0 = width, width + 1

        self.code = np.array(code, dtype=np.int64)
        self.out_slot = np.array(out_slot, dtype=np.int64)
        self.level = np.array(level, dtype=np.int64)
        #: per instance: input slots, then the const1 and const0 slots.
        ext = np.full((n, width + 2), self.const1, dtype=np.int64)
        ext[:, const0] = self.const0
        counts = np.array(n_in, dtype=np.int64)
        ext[np.repeat(np.arange(n), counts),
            _ragged(np.zeros(n, dtype=np.int64), counts)] = in_flat
        self.ext = ext
        slot_driver = np.array(driver, dtype=np.int64)
        #: driving instance of every ext literal, -1 outside the network.
        self.ext_driver = slot_driver[ext]

        # Per cell: minterm rows (constant cells become one const0 or
        # const1 row), and per (input position, stuck-at) the folded
        # rows a branch fault leaves on its site gate.
        rows: list[tuple[list[int], list[int]]] = []
        fold: list[tuple[list[int], list[int]]] = []
        row_start: list[int] = []
        fold_start = np.zeros(len(cells) * width * 2, dtype=np.int64)
        fold_count = np.zeros(len(cells) * width * 2, dtype=np.int64)
        for c, cell in enumerate(cells):
            minterms = view._minterms[cell.name]
            inputs = cell.input_pins
            row_start.append(len(rows))
            if not minterms:
                rows.append(([const0], [0]))
            elif not minterms[0]:
                rows.append(([pad], [0]))
            else:
                rows.extend(
                    (list(range(len(inputs))), [1 - bit for bit in minterm])
                    for minterm in minterms
                )
            for j in range(len(inputs)):
                for stuck in (0, 1):
                    key = (c * width + j) * 2 + stuck
                    kept = [
                        ([k for k in range(len(inputs)) if k != j],
                         [1 - minterm[k] for k in range(len(inputs))
                          if k != j])
                        for minterm in minterms if minterm[j] == stuck
                    ]
                    kept = [row if row[0] else ([pad], [0]) for row in kept]
                    fold_start[key] = len(fold)
                    fold.extend(kept or [([const0], [0])])
                    fold_count[key] = len(fold) - fold_start[key]
        self.row_start = np.array(row_start, dtype=np.int64)
        self.row_count = np.diff(np.append(self.row_start, len(rows)))
        self.row_pos, self.row_inv, self.row_len = _row_table(
            rows, width, pad)
        self.fold_start, self.fold_count = fold_start, fold_count
        self.fold_pos, self.fold_inv, self.fold_len = _row_table(
            fold, width, pad)

        # Fanout cones: bit k of cones[j] is set when instance j + k is
        # in instance j's cone (bit 0, the instance itself, always is);
        # loads follow their drivers in the order.
        cones = [0] * n
        for index in range(n - 1, -1, -1):
            cone = 1
            for load in loads[index]:
                cone |= cones[load] << (load - index)
            cones[index] = cone
        self.cones = cones

        # Pseudo outputs per driving instance, in pseudo-output order.
        po_slot = np.array(
            [net_slot[net] for net in view.pseudo_outputs], dtype=np.int64
        )
        po_driver = slot_driver[po_slot]
        po_index = np.flatnonzero(po_driver >= 0)
        po_index = po_index[np.argsort(po_driver[po_index], kind="stable")]
        self.po_index = po_index
        self.po_slot = po_slot
        self.po_count = np.bincount(po_driver[po_index], minlength=n)
        self.po_start = np.cumsum(self.po_count) - self.po_count

    def good_levels(
        self,
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-level (literal matrix, reduceat segments, output slots)
        of the fault-free machine, each matrix as wide as its level's
        widest row."""
        if not self.n_inst:
            return []
        order = np.argsort(self.level, kind="stable")
        counts = self.row_count[self.code[order]]
        rows = _ragged(self.row_start[self.code[order]], counts)
        lit = (self.ext[np.repeat(order, counts)[:, None], self.row_pos[rows]]
               * 2 + self.row_inv[rows])
        length = self.row_len[rows]
        row_first = np.append(np.cumsum(counts) - counts, rows.size)
        bounds = np.concatenate([
            [0], np.flatnonzero(np.diff(self.level[order])) + 1, [order.size]
        ])
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            lo, hi = row_first[a], row_first[b]
            levels.append((
                np.ascontiguousarray(
                    lit[lo:hi, : length[lo:hi].max()], dtype=np.intp),
                (row_first[a:b] - lo).astype(np.intp),
                self.out_slot[order[a:b]].astype(np.intp),
            ))
        return levels

    def cone_tables(self, sites: np.ndarray) -> _ConeTables:
        """Cone templates of ``sites`` (instance numbers), in order."""
        # (site, member) pairs: the set bits of each site's cone, read a
        # byte at a time and a block of sites at a time, members
        # ascending within a site.
        site_list = sites.tolist()
        n_bytes = (max((self.cones[s].bit_length() for s in site_list),
                       default=0) + 7) // 8
        step = max(1, _UNPACK_BYTES // max(n_bytes, 1))
        site_parts = [np.zeros(0, dtype=np.int64)]
        member_parts = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, len(site_list), step):
            block = site_list[lo:lo + step]
            packed = np.frombuffer(
                b"".join(self.cones[s].to_bytes(n_bytes, "little")
                         for s in block),
                dtype=np.uint8,
            ).reshape(len(block), n_bytes)
            rows, cols = np.nonzero(packed)
            hit, bit = np.nonzero(np.unpackbits(
                packed[rows, cols][:, None], axis=1, bitorder="little"))
            site_parts.append(lo + rows[hit])
            member_parts.append(sites[lo + rows[hit]] + cols[hit] * 8 + bit)
        pair_site = np.concatenate(site_parts)
        member = np.concatenate(member_parts)
        cone_size = np.bincount(pair_site, minlength=sites.size)
        local = np.arange(member.size) - np.repeat(
            np.cumsum(cone_size) - cone_size, cone_size)

        # Members downstream of the site, and per input the cone-local
        # index of its driver: the pairs are sorted by (site, member),
        # so a search finds the driver's pair when it is in the cone.
        inner = local > 0
        inner_member = member[inner]
        key = pair_site * self.n_inst + member
        drv = self.ext_driver[inner_member]
        query = pair_site[inner][:, None] * self.n_inst + drv
        at = np.minimum(np.searchsorted(key, query), key.size - 1)
        input_local = np.where(
            (drv >= 0) & (key[at] == query), local[at], -1)

        # Template rows: the minterm rows of every inner member.
        counts = self.row_count[self.code[inner_member]]
        cell_rows = _ragged(self.row_start[self.code[inner_member]], counts)
        pair = np.repeat(np.arange(inner_member.size), counts)
        pos = self.row_pos[cell_rows]
        code = input_local[pair[:, None], pos]
        overlay = code >= 0
        code = np.where(
            overlay, code, self.ext[inner_member[pair][:, None], pos])

        # Observation points: pseudo outputs a cone member drives.
        driven = self.po_count[member]
        entry = np.repeat(np.arange(member.size), driven)
        po = self.po_index[_ragged(self.po_start[member], driven)]
        det = np.lexsort((po, pair_site[entry]))
        entry, po = entry[det], po[det]
        return _ConeTables(
            cone_size=cone_size,
            count=np.bincount(pair_site[inner][pair], minlength=sites.size),
            lit=(code * 2 + self.row_inv[cell_rows]).astype(np.int32),
            overlay=overlay,
            level=self.level[inner_member][pair],
            local=local[inner][pair],
            length=self.row_len[cell_rows],
            det_count=np.bincount(pair_site[entry], minlength=sites.size),
            det_local=local[entry],
            det_good=self.po_slot[po],
        )


class _GoodProgram:
    """Flat levelized program for the fault-free machine.

    Value layout: slot ``s`` of the value array owns rows ``2*s``
    (value) and ``2*s + 1`` (complement), so a literal is the single
    index ``2*slot + invert`` and no XOR pass is needed in the sweep.
    """

    def __init__(self, view: CombinationalView,
                 compiled: _ViewCompile) -> None:
        self.const1 = compiled.const1
        self.n_slots = compiled.n_slots
        self.pi_nets: list[str] = list(view.pseudo_inputs)
        self.pi_slots = compiled.pi_slots
        self.levels = compiled.good_levels()

        #: reusable value/complement workspace (grow-only, see
        #: :meth:`evaluate`).
        self._values_buf: np.ndarray | None = None

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
    """A fused flat program covering one fault universe on one view.

    Faults are laid out grouped by site, sites in first-occurrence
    order.  Each fault owns one overlay slot per member of its site's
    cone (its *base* is the running sum of cone sizes) and, if it is a
    branch fault, the folded site rows ahead of its cone template rows;
    rows are then stably sorted by level.
    """

    def __init__(
        self, good: _GoodProgram, faults: Sequence[Fault],
        compiled: _ViewCompile,
    ) -> None:
        self.good = good
        self.faults: list[Fault] = list(faults)
        self.fault_index: dict[Fault, int] = {
            fault: index for index, fault in enumerate(self.faults)
        }
        n_faults = len(self.faults)
        # A repeated fault grades under its last position.
        fid = np.array([self.fault_index[f] for f in self.faults],
                       dtype=np.int64)
        # Group by site, sites in first-occurrence order.
        site_rank: dict[int, int] = {}
        ranks: list[int] = []
        pins: list[int] = []
        for fault in self.faults:
            index, pin_pos = compiled.sites[fault.instance]
            ranks.append(site_rank.setdefault(index, len(site_rank)))
            pins.append(pin_pos[fault.pin])
        rank = np.array(ranks, dtype=np.int64)
        grouped = np.argsort(rank, kind="stable")
        site_of = rank[grouped]
        sites = np.array(list(site_rank), dtype=np.int64)
        site = sites[site_of]
        pin = np.array(pins, dtype=np.int64)[grouped]
        stuck = np.array([fault.stuck_at for fault in self.faults],
                         dtype=np.int64)[grouped]
        fid = fid[grouped]
        tables = compiled.cone_tables(sites)

        cone_size = tables.cone_size[site_of]
        base = good.n_slots + np.cumsum(cone_size) - cone_size
        self.n_slots = good.n_slots + int(cone_size.sum())
        stem = pin < 0
        self.stem0 = base[stem & (stuck == 0)].astype(np.intp)
        self.stem1 = base[stem & (stuck == 1)].astype(np.intp)
        self.stem0_fault = fid[stem & (stuck == 0)]
        self.stem1_fault = fid[stem & (stuck == 1)]

        # Folded site rows of the branch faults, in fault order.
        branch = np.flatnonzero(~stem)
        key = ((compiled.code[site[branch]] * compiled.width + pin[branch])
               * 2 + stuck[branch])
        site_count = np.zeros(n_faults, dtype=np.int64)
        site_count[branch] = compiled.fold_count[key]
        fold_rows = _ragged(compiled.fold_start[key],
                            compiled.fold_count[key])
        site_inst = np.repeat(site[branch], compiled.fold_count[key])
        n_max = max(1, int(tables.length.max(initial=0)),
                    int(compiled.fold_len[fold_rows].max(initial=0)))

        # One source table: cone templates, then folded site rows.
        n_template = tables.lit.shape[0]
        src_lit = np.concatenate([
            tables.lit[:, :n_max],
            (compiled.ext[site_inst[:, None],
                          compiled.fold_pos[fold_rows, :n_max]] * 2
             + compiled.fold_inv[fold_rows, :n_max]).astype(np.int32),
        ])
        src_overlay = np.concatenate([
            tables.overlay[:, :n_max],
            np.zeros((fold_rows.size, n_max), dtype=bool),
        ])
        src_level = np.concatenate(
            [tables.level, compiled.level[site_inst]])
        src_local = np.concatenate(
            [tables.local, np.zeros(fold_rows.size, dtype=np.int64)])

        # Per fault: its site rows, then its site's template rows.
        template_count = tables.count[site_of]
        template_start = (np.cumsum(tables.count)
                          - tables.count)[site_of]
        starts = np.empty(2 * n_faults, dtype=np.int64)
        counts = np.empty(2 * n_faults, dtype=np.int64)
        starts[0::2] = n_template + np.cumsum(site_count) - site_count
        starts[1::2] = template_start
        counts[0::2] = site_count
        counts[1::2] = template_count
        src = _ragged(starts, counts)
        row_fault = np.repeat(np.arange(n_faults, dtype=np.int64),
                              site_count + template_count)
        # Sort keys in the smallest type that holds every level: on 8-
        # and 16-bit keys numpy's stable sort is a radix sort.
        level = src_level[src].astype(
            np.min_scalar_type(src_level.max(initial=0)))
        order = np.argsort(level, kind="stable")
        level = level[order]
        src = src[order]
        row_fault = row_fault[order]

        row_base = base[row_fault]
        #: literal matrix over the doubled value array: 2*slot + inv.
        self.lit = src_lit[src].astype(np.intp)
        np.add(self.lit, (row_base * 2)[:, None], out=self.lit,
               where=src_overlay[src])
        self.out_of_row = row_base + src_local[src]
        self.group = self.out_of_row - good.n_slots
        self.fault_of_row = fid[row_fault]
        boundaries = np.flatnonzero(np.diff(level)) + 1
        self.level_bounds: list[tuple[int, int]] = [
            (int(a), int(b))
            for a, b in zip(
                np.concatenate([[0], boundaries]),
                np.concatenate([boundaries, [level.size]]),
            )
            if a != b
        ]

        det_count = tables.det_count[site_of]
        det = _ragged((np.cumsum(tables.det_count)
                       - tables.det_count)[site_of], det_count)
        self.det_overlay = (np.repeat(base, det_count)
                            + tables.det_local[det]).astype(np.intp)
        self.det_good = tables.det_good[det].astype(np.intp)
        self.det_fault = np.repeat(fid, det_count)
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


def _sweep(
    program: FaultProgram,
    selection: _Selection,
    good_values: np.ndarray,
    start: int,
    end: int,
    width: int,
) -> np.ndarray:
    """Run every faulty machine of ``selection`` over words
    ``start:end`` of a ``width``-pattern batch.

    Returns, per fault in ``selection.det_faults`` order, the words of
    patterns that detect it (bits past ``width`` cleared).
    """
    words = _n_words(width)
    chunk_words = end - start
    buf = program._chunk_buf
    if buf is None or buf.shape[1] < chunk_words:
        buf = np.empty((program.n_slots * 2, words), dtype=np.uint64)
        program._chunk_buf = buf
    chunk = buf[:, :chunk_words]
    chunk[: program.good.n_slots * 2] = good_values[:, start:end]
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
    tail = width % _WORD_BITS
    if end == words and tail:
        det[:, -1] &= np.uint64((1 << tail) - 1)
    return det


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
    words = _n_words(width)
    good_values = program.good.evaluate(bits, width)

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

        det = _sweep(program, selection, good_values, start, end, width)
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


#: Per-view program cache: (good program, integer compile, universe
#: program).  WeakKeyDictionary so views die naturally (no entry
#: refers back to its view), and nothing here is ever pickled -- pool
#: workers rebuild from the view.
_CACHE: "WeakKeyDictionary[CombinationalView, tuple[_GoodProgram, _ViewCompile, list[FaultProgram]]]" = (
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
        compiled = _ViewCompile(view)
        entry = (_GoodProgram(view, compiled), compiled, [])
        _CACHE[view] = entry
    good, compiled, programs = entry
    for program in programs:
        if all(fault in program.fault_index for fault in faults):
            return program
    program = FaultProgram(good, faults, compiled)
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
    """Grade one batch: fault -> first detecting pattern bit.

    Same signature and same results as the big-int oracle
    :func:`repro.oracles.faultsim.bigint_batch_hits`; reports
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


def detection_masks(
    view: CombinationalView,
    faults: Sequence[Fault],
    bits: Mapping[str, np.ndarray],
    width: int,
) -> dict[Fault, int]:
    """Every detecting pattern of one batch, per fault.

    Bit *k* of a fault's mask is set when pattern *k* of the
    ``width``-pattern batch ``bits`` detects it, and an undetected
    fault reads 0.  Nothing is dropped: the program sweeps the whole
    batch in one flat chunk, restricted to the requested faults' rows
    when they are a part of the cached program's universe.  Each mask
    equals the big-int oracle's
    :func:`repro.oracles.faultsim.detect_mask` for the same stimulus.
    """
    program = compile_fault_program(view, faults)
    active = np.zeros(len(program.faults), dtype=bool)
    for fault in faults:
        active[program.fault_index[fault]] = True
    selection = (program.full_selection if active.all()
                 else program.select(active))
    det = _sweep(program, selection, program.good.evaluate(bits, width),
                 0, _n_words(width), width)
    row_of = dict(zip(selection.det_faults.tolist(), det.astype("<u8")))
    masks: dict[Fault, int] = {}
    for fault in faults:
        row = row_of.get(program.fault_index[fault])
        masks[fault] = (0 if row is None
                        else int.from_bytes(row.tobytes(), "little"))
    return masks
