"""Combinational ECO: functional patches on a frozen netlist.

The ten "netlist changes involving ECO of combinational logic" in the
paper were applied as patches -- small gate-level edits -- rather than
full re-synthesis, because placement was already frozen.  This module
provides the patch primitives, a churn generator producing realistic
random functional changes, and verification glue: every applied patch
is checked against the intended function with the equivalence checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..netlist import Module
from ..formal import check_combinational_equivalence


@dataclass(frozen=True)
class EcoEdit:
    """One primitive netlist edit."""

    action: Literal["swap_cell", "rewire_pin", "add_instance",
                    "remove_instance"]
    instance: str
    cell: str | None = None
    pin: str | None = None
    net: str | None = None
    connections: tuple[tuple[str, str], ...] = ()


@dataclass
class EcoPatch:
    """An ordered list of edits plus bookkeeping."""

    description: str
    edits: list[EcoEdit] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.edits)


class EcoError(Exception):
    """A patch could not be applied."""


def apply_patch(module: Module, patch: EcoPatch) -> Module:
    """Apply a patch to a copy of the module and return it."""
    revised = module.copy()
    for edit in patch.edits:
        try:
            if edit.action == "swap_cell":
                revised.swap_cell(edit.instance, edit.cell)
            elif edit.action == "rewire_pin":
                revised.rewire_pin(edit.instance, edit.pin, edit.net)
            elif edit.action == "remove_instance":
                revised.remove_instance(edit.instance)
            elif edit.action == "add_instance":
                revised.add_instance(
                    edit.instance, edit.cell, dict(edit.connections)
                )
            else:
                raise EcoError(f"unknown action {edit.action!r}")
        except Exception as exc:
            raise EcoError(
                f"patch {patch.description!r} failed at {edit}: {exc}"
            ) from exc
    return revised


# ---------------------------------------------------------------------------
# Churn generation: realistic random functional changes
# ---------------------------------------------------------------------------

#: Function swaps a customer spec change typically lands on: polarity
#: and gate-type flips that stay pin-compatible.
_FUNCTION_SWAPS = {
    "NAND2": "NOR2",
    "NOR2": "NAND2",
    "AND2": "OR2",
    "OR2": "AND2",
    "XOR2": "XNOR2",
    "XNOR2": "XOR2",
}


def random_functional_change(
    module: Module,
    *,
    rng: np.random.Generator,
    description: str = "",
    max_tries: int = 16,
) -> EcoPatch:
    """Generate a small random functional change (a 'spec change' in
    miniature): one gate gets its function flipped.

    A polarity swap deep in reconvergent logic can be functionally
    invisible at the outputs, so candidate victims are tried until the
    equivalence checker proves the patch observable: some input vector
    separates the patched netlist from the base.  A silently dead
    patch is never returned.
    """
    candidates = [
        inst.name
        for inst in module.instances.values()
        if inst.cell.footprint in _FUNCTION_SWAPS
    ]
    if not candidates:
        raise EcoError("no gate suitable for a functional change")
    for _ in range(max_tries):
        victim_name = candidates[int(rng.integers(0, len(candidates)))]
        victim = module.instances[victim_name]
        drive = victim.cell.name.rsplit("_", 1)[1]
        new_cell = f"{_FUNCTION_SWAPS[victim.cell.footprint]}_{drive}"
        connections = tuple(victim.connections.items())
        patch = EcoPatch(
            description=description or f"flip {victim_name} to {new_cell}",
            edits=[
                EcoEdit("remove_instance", victim_name),
                EcoEdit("add_instance", victim_name, cell=new_cell,
                        connections=connections),
            ],
        )
        revised = apply_patch(module, patch)
        if not check_combinational_equivalence(module, revised).equivalent:
            return patch
    raise EcoError(
        f"could not find an observable functional change in {max_tries} tries"
    )


@dataclass
class EcoApplication:
    """Result of applying + verifying one combinational ECO."""

    patch: EcoPatch
    revised: Module
    equivalence_vs_base: bool
    gates_touched: int


def apply_and_verify(
    module: Module,
    patch: EcoPatch,
    *,
    expect_equivalent: bool,
) -> EcoApplication:
    """Apply a patch and formally compare against the base netlist.

    ``expect_equivalent=False`` (functional ECO) demands the checker
    *refute* equivalence -- catching silently-dead patches;
    ``expect_equivalent=True`` (resize/buffer ECO) demands proof the
    function is untouched.  The checker's verdict is exact at any
    cone width, so a patch that changes a single input vector fails
    the second demand.  A mismatch raises :class:`EcoError`.
    """
    revised = apply_patch(module, patch)
    result = check_combinational_equivalence(module, revised)
    if result.equivalent != expect_equivalent:
        expectation = "equivalent" if expect_equivalent else "different"
        raise EcoError(
            f"patch {patch.description!r}: expected netlists to be "
            f"{expectation}, checker says otherwise"
        )
    return EcoApplication(
        patch=patch,
        revised=revised,
        equivalence_vs_base=result.equivalent,
        gates_touched=len(patch),
    )
