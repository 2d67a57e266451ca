"""Flow requests: what a design-service tenant asks the shop to run.

A :class:`FlowRequest` is the service's unit of customer work: one
design variant (a set of :class:`BlockSpec` netlist recipes), the
stages to run on it, and the configuration knobs that change stage
results (corners, seeds, BMC depth, pattern budgets).  Requests are
frozen value objects whose :attr:`~FlowRequest.request_id` is a
content hash of exactly those fields, so identical asks -- from the
same tenant or different ones -- name the same work, and per-request
reports can be compared byte-for-byte across submission orders.

:func:`synthetic_tenant_mix` generates the benchmark workload: a
deterministic multi-tenant mix of DSC variants x corners x seeds x
stage subsets in which variants deliberately *share* block recipes,
the property the service's cross-request deduplication converts into
throughput.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from ..store import canonical_json
from .stages import DEFAULT_STAGES


@dataclass(frozen=True)
class BlockSpec:
    """Recipe for one materialised block netlist.

    The recipe *is* the content: ``block_from_budget`` is
    deterministic, so ``(name, gate_budget, seed, node_um)`` pins the
    generated module exactly.  Two variants listing the same spec
    share every per-block stage result in the service.
    """

    name: str
    gate_budget: int
    seed: int = 0
    node_um: float = 0.25

    def __post_init__(self) -> None:
        if self.gate_budget < 1:
            raise ValueError(f"gate_budget must be >= 1 for {self.name!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "gate_budget": int(self.gate_budget),
            "seed": int(self.seed),
            "node_um": float(self.node_um),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BlockSpec":
        return cls(
            name=str(data["name"]),
            gate_budget=int(data["gate_budget"]),
            seed=int(data["seed"]),
            node_um=float(data["node_um"]),
        )

    @property
    def recipe_fingerprint(self) -> str:
        """Content digest of the recipe -- the assemble-stage input."""
        body = canonical_json(["block-recipe", self.to_dict()])
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass(frozen=True)
class FlowRequest:
    """One tenant's ask: a variant, its stages and its configuration."""

    tenant: str
    design: str
    blocks: tuple[BlockSpec, ...]
    stages: tuple[str, ...] = DEFAULT_STAGES
    corners: tuple[str, ...] = ("tt",)
    seed: int = 0
    bmc_depth: int = 3
    dft_patterns: int = 256
    scan_chains: int = 1
    clock_period_ps: float = 7500.0

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a flow request needs at least one block")
        names = [block.name for block in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in request: {names}")
        unknown = [s for s in self.stages if s not in DEFAULT_STAGES]
        if unknown:
            raise ValueError(
                f"unknown stages {unknown}; known: {list(DEFAULT_STAGES)}"
            )
        if not self.stages:
            raise ValueError("a flow request needs at least one stage")
        if "sta" in self.stages and not self.corners:
            raise ValueError("sta stage requested with no corners")

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "design": self.design,
            "blocks": [block.to_dict() for block in self.blocks],
            "stages": list(self.stages),
            "corners": list(self.corners),
            "seed": int(self.seed),
            "bmc_depth": int(self.bmc_depth),
            "dft_patterns": int(self.dft_patterns),
            "scan_chains": int(self.scan_chains),
            "clock_period_ps": float(self.clock_period_ps),
        }

    @cached_property
    def request_id(self) -> str:
        """Content hash of the request -- stable across submission
        order, worker count and process, so reports key on it.  The
        request is frozen, so the hash is computed once: the service
        reads it for every block and every finished unit."""
        body = canonical_json(["flow-request", self.to_dict()])
        return hashlib.sha256(body.encode()).hexdigest()[:16]


#: DSC variant menu: block subsets of the paper's IP catalogue that
#: overlap on purpose (lcd_if / sd_mmc / sdram_ctrl recur), the way a
#: design-service shop reuses hardened blocks across customer SKUs.
DSC_VARIANTS: dict[str, tuple[str, ...]] = {
    "dsc_base": ("lcd_if", "sd_mmc", "sdram_ctrl"),
    "dsc_av": ("image_pipe", "tv_encoder", "lcd_if"),
    "dsc_connect": ("usb11", "sd_mmc", "system_fabric"),
    "dsc_full": ("lcd_if", "sd_mmc", "sdram_ctrl", "usb11", "tv_encoder"),
}

#: Corner menus the mix draws from (weighted towards signoff sets).
_CORNER_MENUS: tuple[tuple[str, ...], ...] = (
    ("tt",), ("ss", "ff"), ("ss", "tt", "ff"),
)

#: Stage subsets: most tenants want the full static flow, some only
#: the front half or a timing-only query.
_STAGE_MENUS: tuple[tuple[str, ...], ...] = (
    DEFAULT_STAGES,
    DEFAULT_STAGES,
    ("assemble", "lint_gate", "analyze"),
    ("assemble", "sta"),
)


def _catalog_budgets() -> dict[str, int]:
    from ..ip import dsc_ip_catalog

    return {
        ip.name: int(ip.gate_budget)
        for ip in dsc_ip_catalog()
        if not ip.is_analog and ip.gate_budget > 0
    }


def variant_blocks(
    variant: str, *, scale: float = 0.01, seed: int = 0,
) -> tuple[BlockSpec, ...]:
    """The block recipes of one named DSC variant.

    Block seeds derive from the block *name* (not the request), so
    every variant and every tenant materialises byte-identical modules
    for a shared block -- the invariant cross-request dedup keys on.
    """
    if variant not in DSC_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; known: {sorted(DSC_VARIANTS)}"
        )
    budgets = _catalog_budgets()
    blocks = []
    for name in DSC_VARIANTS[variant]:
        gates = max(60, int(budgets[name] * scale))
        block_seed = seed + sum(name.encode()) % 97
        blocks.append(BlockSpec(name=name, gate_budget=gates,
                                seed=block_seed))
    return tuple(blocks)


def synthetic_tenant_mix(
    *,
    tenants: int = 4,
    requests_per_tenant: int = 3,
    scale: float = 0.01,
    seed: int = 0,
    stages: Sequence[str] | None = None,
    bmc_depth: int = 3,
    dft_patterns: int = 256,
) -> list[FlowRequest]:
    """Deterministic multi-tenant benchmark mix.

    ``tenants x requests_per_tenant`` requests over the
    :data:`DSC_VARIANTS` menu, with corners, request seeds and stage
    subsets drawn from a seeded stream.  Request seeds come from a
    two-value pool so verify_props/dft work recurs across tenants --
    the mixed-dedup case the service bench measures.
    """
    rng = random.Random(seed)
    variants = sorted(DSC_VARIANTS)
    mix: list[FlowRequest] = []
    for t_index in range(tenants):
        tenant = f"tenant{t_index:02d}"
        for _ in range(requests_per_tenant):
            variant = variants[rng.randrange(len(variants))]
            corners = _CORNER_MENUS[rng.randrange(len(_CORNER_MENUS))]
            req_stages = (tuple(stages) if stages is not None
                          else _STAGE_MENUS[rng.randrange(len(_STAGE_MENUS))])
            mix.append(FlowRequest(
                tenant=tenant,
                design=variant,
                blocks=variant_blocks(variant, scale=scale, seed=seed),
                stages=req_stages,
                corners=corners,
                seed=seed + rng.randrange(2),
                bmc_depth=bmc_depth,
                dft_patterns=dft_patterns,
            ))
    return mix
