"""The end-to-end SplitLock flow (the paper's Fig. 3) and its evaluation.

``SplitLockFlow.run`` executes both stages on a netlist:

* **synthesis stage** — ATPG-based locking with keyed restore circuitry,
  ``set_dont_touch`` on TIE cells/key-nets, LEC against the original;
* **layout stage** — unprotected reference layout, the Prelift reference
  (locked netlist through a plain flow), and one secure layout per
  requested split layer (randomized TIEs, detached placement, key-net
  lifting with stacked vias, ECO re-route).

``evaluate_split`` then mounts the improved proximity attack of
Sec. IV-A on a chosen split and reports the Table I/II metrics.  It is
a thin call into :func:`repro.adversary.evaluate.run_scenario` with the
``proximity`` scenario — the same attack cell the campaign runner
(:mod:`repro.runner`) executes for Tables I/II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adversary.evaluate import AttackOutcome, run_scenario
from repro.adversary.scenario import parse_scenario
from repro.attacks.proximity import ProximityAttackConfig
from repro.core.config import SplitLockConfig
from repro.locking.atpg_lock import AtpgLockReport, atpg_lock
from repro.locking.key import LockedCircuit
from repro.metrics.hd_oer import DEFAULT_HD_PATTERNS
from repro.netlist.circuit import Circuit
from repro.phys.cost import LayoutCost, measure_layout_cost
from repro.phys.layout import (
    PhysicalLayout,
    build_locked_layout,
    build_unprotected_layout,
)


@dataclass
class FlowResult:
    """Everything one SplitLockFlow run produced."""

    original: Circuit
    locked: LockedCircuit
    lock_report: AtpgLockReport
    unprotected_layout: PhysicalLayout
    prelift_layout: PhysicalLayout
    split_layouts: dict[int, PhysicalLayout] = field(default_factory=dict)

    def layout_costs(self) -> dict[str, LayoutCost]:
        """Absolute costs of every layout (Fig. 5 raw data)."""
        costs = {
            "unprotected": measure_layout_cost(
                self.unprotected_layout.circuit,
                self.unprotected_layout.floorplan,
                self.unprotected_layout.routing,
            ),
            "prelift": measure_layout_cost(
                self.prelift_layout.circuit,
                self.prelift_layout.floorplan,
                self.prelift_layout.routing,
            ),
        }
        for layer, layout in self.split_layouts.items():
            costs[f"M{layer}"] = measure_layout_cost(
                layout.circuit, layout.floorplan, layout.routing
            )
        return costs


class SplitLockFlow:
    """Drives the full lock-the-FEOL / unlock-at-the-BEOL flow."""

    def __init__(self, config: SplitLockConfig | None = None) -> None:
        self.config = config or SplitLockConfig()

    def run(self, circuit: Circuit) -> FlowResult:
        """Execute synthesis + layout stages on *circuit*."""
        working = (
            circuit.combinational_core() if circuit.is_sequential else circuit
        )
        locked, report = atpg_lock(working, self.config.lock)
        seed = self.config.layout.seed
        utilization = self.config.layout.utilization
        unprotected = build_unprotected_layout(
            working, seed=seed, utilization=utilization
        )
        prelift = build_locked_layout(
            locked, seed=seed, utilization=utilization, prelift=True
        )
        result = FlowResult(working, locked, report, unprotected, prelift)
        for layer in self.config.split_layers:
            result.split_layouts[layer] = build_locked_layout(
                locked,
                split_layer=layer,
                seed=seed,
                utilization=utilization,
            )
        return result

    def evaluate_split(
        self,
        result: FlowResult,
        split_layer: int,
        attack_config: ProximityAttackConfig | None = None,
        hd_patterns: int = DEFAULT_HD_PATTERNS,
        postprocess_seed: int = 13,
    ) -> AttackOutcome:
        """Attack one split layout and compute the paper's metrics."""
        return run_scenario(
            parse_scenario("proximity").resolve(),
            result.split_layouts[split_layer].feol_view(split_layer),
            result.locked,
            result.original,
            benchmark=result.original.name,
            split_layer=split_layer,
            hd_patterns=hd_patterns,
            postprocess_seed=postprocess_seed,
            attack=attack_config,
        )
