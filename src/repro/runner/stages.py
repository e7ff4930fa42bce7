"""Pure, cacheable pipeline stages of one campaign cell.

The cell pipeline factors into staged, individually-cached pieces —

* **lock**    — benchmark generation + ATPG locking (shared by every
  split layer and attack config of a benchmark),
* **layout**  — the secure split layout (shared by every scenario),
* **defense** — one resolved defense spec applied to the split layout
  (shared by every scenario attacking the same defended view),
* **attack**  — one adversary scenario mounted on the (possibly
  defended) split layout, then CCR/HD/OER (one cache entry per
  scenario; Tables I/II are the undefended ``proximity`` scenario);
  in memory it is two pieces, a **recovery** (the attack and every
  metric but HD/OER, :func:`recovery_payload`) and the HD/OER sweep
  of the recovered machine under the cell's ``hd_patterns``/``hd_seed``,

— each a deterministic function of a :class:`~repro.runner.spec.CellSpec`
slice.  Every stage is wrapped in the content-keyed on-disk cache
(:mod:`repro.utils.artifact_cache`), so reruns, sibling cells and
*other processes* (parallel workers, separate harness invocations)
reuse instead of recompute.  Changing any spec field that feeds a stage
changes its key and transparently invalidates it and everything
downstream.

The artifact-heavy stages (lock, layout, defense) and the attack's
recovery additionally route through the worker-resident in-memory tier
(:func:`repro.runner.worker.worker_tier`): in pool workers that enabled
their runtime, a repeat of a hot configuration serves the already
deserialized object — same content key, so same artifact — and skips
both the disk read and (cacheless) the recompute; a resident recovery
leaves a repeat attack cell only its HD/OER sweep.  The recovery lives
only in memory: the disk keeps whole attack outcomes under
:func:`attack_payload`.  Outside pool workers the hook is an exact
passthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.adversary.evaluate import AttackOutcome, run_scenario
from repro.benchgen import load_iscas85, load_itc99, profile
from repro.benchgen.random_logic import generate_random_circuit
from repro.defense import DefendedView, DefenseSpec, apply_defense
from repro.locking.atpg_lock import AtpgLockReport, atpg_lock
from repro.locking.key import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.phys.cost import LayoutCost, measure_layout_cost
from repro.phys.layout import (
    PhysicalLayout,
    build_locked_layout,
    build_unprotected_layout,
)
from repro.phys.routing import clamp_regular_nets
from repro.runner.spec import AttackCellSpec, CellSpec, parse_benchmark
from repro.runner.worker import worker_tier
from repro.utils.artifact_cache import ArtifactCache, get_or_create


@dataclass
class LockedDesign:
    """Output of the lock stage: the benchmark core and its locked form."""

    benchmark: str
    core: Circuit
    locked: LockedCircuit
    report: AtpgLockReport


# ---------------------------------------------------------------------------
# Cache payloads (one per stage; downstream payloads nest upstream ones).
# Config dataclasses go in as they are: ``spec_key`` canonicalises them
# field by field, exactly as it would their ``asdict`` copy.


def bench_payload(cell: CellSpec) -> dict[str, Any]:
    generator = parse_benchmark(cell.benchmark)
    payload: dict[str, Any] = {
        "benchmark": cell.benchmark,
        "seed": cell.seed,
        "scale": cell.scale,
    }
    if generator is not None:
        payload["generator"] = generator
    return payload


def lock_payload(cell: CellSpec) -> dict[str, Any]:
    return {
        "stage": "lock",
        "bench": bench_payload(cell),
        "lock": cell.lock_config(),
    }


def layout_payload(cell: CellSpec, prelift: bool = False) -> dict[str, Any]:
    return {
        "stage": "layout",
        "lock": lock_payload(cell),
        "split_layer": None if prelift else cell.split_layer,
        "prelift": prelift,
        "utilization": cell.utilization,
    }


def unprotected_payload(cell: CellSpec) -> dict[str, Any]:
    return {
        "stage": "unprotected-layout",
        "bench": bench_payload(cell),
        "utilization": cell.utilization,
    }


def defense_payload(cell: CellSpec, spec: "DefenseSpec") -> dict[str, Any]:
    return {
        "stage": "defense",
        "layout": layout_payload(cell),
        "defense": spec.to_payload(),
    }


def attack_payload(acell: AttackCellSpec) -> dict[str, Any]:
    cell = acell.cell
    payload = {
        "stage": "attack",
        "layout": layout_payload(cell),
        "scenario": acell.scenario.to_payload(),
        "attack": cell.attack,
        "postprocess_seed": cell.postprocess_seed,
        "hd_patterns": cell.hd_patterns,
        "hd_seed": cell.hd_seed,
    }
    # Undefended cells keep their historical key shape; a defended cell
    # bakes the full resolved defense spec into its attack key.
    if acell.defense is not None:
        payload["defense"] = acell.defense.to_payload()
    return payload


def recovery_payload(acell: AttackCellSpec) -> dict[str, Any]:
    """:func:`attack_payload` less the HD/OER budget, as stage
    ``recovery``: the key of the attack half of
    :func:`~repro.adversary.evaluate.run_scenario` in the worker tier."""
    payload = attack_payload(acell)
    payload["stage"] = "recovery"
    del payload["hd_patterns"], payload["hd_seed"]
    return payload


# ---------------------------------------------------------------------------
# Stage functions.  ``cache=None`` computes without persistence.


def load_cell_circuit(cell: CellSpec) -> Circuit:
    """Instantiate the cell's benchmark circuit (cheap; never cached)."""
    generator = parse_benchmark(cell.benchmark)
    if generator is not None:
        return generate_random_circuit(
            generator, seed=cell.seed, name=cell.benchmark
        )
    suite = profile(cell.benchmark).suite
    loader = load_itc99 if suite == "itc99" else load_iscas85
    return loader(cell.benchmark, seed=cell.seed, scale=cell.scale)


def locked_design(
    cell: CellSpec, cache: ArtifactCache | None = None
) -> LockedDesign:
    """Lock stage: benchmark core + ATPG-locked netlist + report."""

    def create() -> LockedDesign:
        core = load_cell_circuit(cell).combinational_core()
        locked, report = atpg_lock(core, cell.lock_config())
        return LockedDesign(cell.benchmark, core, locked, report)

    payload = lock_payload(cell)
    return worker_tier(
        "lock", payload, lambda: get_or_create(cache, "lock", payload, create)
    )


def _clamps_regular_nets(cell: CellSpec) -> bool:
    """Whether the cell's layouts keep regular nets on M2/M3.

    True for ISCAS-85 designs (:func:`~repro.phys.routing.
    clamp_regular_nets`), so at M4 only what the lock or a defense hides
    is broken — Table III's setting.
    """
    return (
        parse_benchmark(cell.benchmark) is None
        and profile(cell.benchmark).suite == "iscas85"
    )


def cell_layout(
    cell: CellSpec,
    cache: ArtifactCache | None = None,
    design: LockedDesign | None = None,
    prelift: bool = False,
) -> PhysicalLayout:
    """Layout stage: the secure split layout (or the Prelift reference)."""

    def create() -> PhysicalLayout:
        locked = (design or locked_design(cell, cache)).locked
        layout = build_locked_layout(
            locked,
            split_layer=cell.split_layer,
            seed=cell.seed,
            utilization=cell.utilization,
            prelift=prelift,
        )
        if _clamps_regular_nets(cell):
            clamp_regular_nets(layout.routing)
        return layout

    payload = layout_payload(cell, prelift)
    return worker_tier(
        "layout",
        payload,
        lambda: get_or_create(cache, "layout", payload, create),
    )


def unprotected_layout(
    cell: CellSpec,
    cache: ArtifactCache | None = None,
    design: LockedDesign | None = None,
) -> PhysicalLayout:
    """Reference layout of the original core (Fig. 5 baseline)."""

    def create() -> PhysicalLayout:
        # The baseline does not depend on locking; regenerating the
        # core directly avoids pulling the heavy lock stage in cold.
        core = (
            design.core
            if design is not None
            else load_cell_circuit(cell).combinational_core()
        )
        layout = build_unprotected_layout(
            core, seed=cell.seed, utilization=cell.utilization
        )
        if _clamps_regular_nets(cell):
            clamp_regular_nets(layout.routing)
        return layout

    return get_or_create(cache, "unprotected", unprotected_payload(cell), create)


def cell_defense(
    cell: CellSpec,
    defense: DefenseSpec,
    cache: ArtifactCache | None = None,
    design: LockedDesign | None = None,
    layout: PhysicalLayout | None = None,
) -> DefendedView:
    """Defense stage: one resolved defense applied to the split layout.

    Sits between layout and attack: every scenario attacking the same
    (layout, defense) pair shares one cached protected view.
    """

    def create() -> DefendedView:
        local_layout = layout or cell_layout(cell, cache, design=design)
        return apply_defense(defense, local_layout, cell.split_layer)

    payload = defense_payload(cell, defense)
    return worker_tier(
        "defense",
        payload,
        lambda: get_or_create(cache, "defense", payload, create),
    )


def cell_attack(
    acell: AttackCellSpec,
    cache: ArtifactCache | None = None,
    design: LockedDesign | None = None,
    layout: PhysicalLayout | None = None,
    defended: DefendedView | None = None,
) -> AttackOutcome:
    """Attack stage: one adversary scenario on the cell's split layout.

    Builds on the cached lock/layout artifacts (plus the cached defense
    stage for defended cells), so a scenario sweep over an existing grid
    only pays for the attacks themselves.  The attack half of the run
    goes through the worker tier under :func:`recovery_payload`, so in a
    pool worker a cell that differs from a resident one only in
    ``hd_seed``/``hd_patterns`` pays only for its HD/OER sweep.
    """
    cell = acell.cell

    def create() -> AttackOutcome:
        local_design = design or locked_design(cell, cache)
        local_layout = layout or cell_layout(cell, cache, design=local_design)
        # The regular routed-connection count of the *undefended*
        # layout: the constant denominator that makes defended and
        # undefended recovery comparable (defenses never add key nets).
        total_regular = local_layout.regular_connections()
        protected = None
        defense_info = None
        if acell.defense is not None:
            local_defended = defended or cell_defense(
                cell,
                acell.defense,
                cache,
                design=local_design,
                layout=local_layout,
            )
            view = local_defended.view
            protected = local_defended.protected_nets
            defense_info = local_defended.summary()
        else:
            view = local_layout.feol_view(cell.split_layer)
        return run_scenario(
            acell.scenario,
            view,
            local_design.locked,
            local_design.core,
            benchmark=cell.benchmark,
            split_layer=cell.split_layer,
            hd_patterns=cell.hd_patterns,
            hd_seed=cell.hd_seed,
            postprocess_seed=cell.postprocess_seed,
            attack=cell.attack,
            cache=cache,
            total_regular_connections=total_regular,
            protected_nets=protected,
            defense_info=defense_info,
            recovery_payload=recovery_payload(acell),
        )

    if cache is None:
        return create()
    return cache.get_or_create("attack", attack_payload(acell), create)


#: The splits Fig. 5 reports a final layout at (besides Prelift).
FIG5_SPLIT_LAYERS = (4, 6)


def layout_cost_runs(
    cell: CellSpec, cache: ArtifactCache | None = None
) -> dict[str, dict[str, float]]:
    """Fig. 5 stage: cost deltas of Prelift and each split vs unprotected.

    ``cell.split_layer`` is ignored; the sweep covers
    :data:`FIG5_SPLIT_LAYERS`.
    """
    design = locked_design(cell, cache)
    base_layout = unprotected_layout(cell, cache, design=design)
    base = _cost(base_layout)
    deltas = {
        "prelift": _cost(
            cell_layout(cell, cache, design=design, prelift=True)
        ).delta_percent(base)
    }
    for split in FIG5_SPLIT_LAYERS:
        split_cell = replace(cell, split_layer=split)
        layout = cell_layout(split_cell, cache, design=design)
        deltas[f"M{split}"] = _cost(layout).delta_percent(base)
    return deltas


def _cost(layout: PhysicalLayout) -> LayoutCost:
    return measure_layout_cost(layout.circuit, layout.floorplan, layout.routing)
