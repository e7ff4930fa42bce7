"""ATPG-based locking: the paper's case-study technique (Sec. III-A).

Extends Sengupta et al. (VTS'18) the way the paper does:

1. explore candidate stuck-at faults; every affected sink (primary output
   or DFF data pin) is enclosed in its own bounded-support module
   (parallel-friendly, replaces the random-balanced partitioning),
2. enumerate each fault's exact failing patterns per sink (cube covers),
3. rank faults by the cost model — area reclaimed by the constant cascade
   of the injection versus the keyed restore circuitry, per key bit,
4. inject the selected faults, insert the keyed restore circuitry,
   re-synthesize with ``set_dont_touch`` on TIE cells and key-gates,
5. verify equivalence against the original netlist (LEC gate in Fig. 3).

Faults whose failing set is *empty* (redundant at every sink over the
enclosing cut space) are injected for free: they reclaim area without
consuming key bits.  If cost-effective faults cannot fill the whole key
budget, the remainder is locked with random XOR/XNOR key-gates — the
paper's scheme is explicitly "generic and agnostic to the underlying
locking technique", naming random insertion (EPIC) as admissible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.atpg.faults import internal_faults
from repro.atpg.patterns import (
    FailingPatterns,
    FailingSetTooLarge,
    combinational_order,
    enumerate_failing_patterns,
    sweep_words,
)
from repro.locking.cost_model import (
    FaultCost,
    cascade_removed_area,
    restore_area_estimate,
)
from repro.locking.key import KeyBit, LockedCircuit
from repro.locking.partition import (
    FaultModule,
    affected_sinks,
    extract_sink_modules,
)
from repro.locking.random_lock import insert_random_key_gates
from repro.locking.restore import insert_restore
from repro.netlist.cell_library import NANGATE45, CellLibrary
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gate_types import GateType
from repro.netlist.transforms import count_area
from repro.synth.resynth import resynthesize
from repro.utils.rng import rng_for


@dataclass(frozen=True)
class AtpgLockConfig:
    """Knobs of the locking flow; defaults match the paper's setup."""

    key_bits: int = 128
    max_support: int = 12
    max_sinks: int = 16
    max_minterms: int = 48
    max_candidates: int = 350
    max_key_bits_per_fault: int = 32
    max_free_faults: int = 10
    seed: int = 2019
    run_lec: bool = True


@dataclass
class FaultPlan:
    """One selected fault with its per-sink modules and failing patterns."""

    fault_net: str
    fault_value: int
    modules: list[FaultModule]
    patterns: list[FailingPatterns]
    cost: FaultCost

    @property
    def sink_nets(self) -> list[str]:
        return [m.sink_nets[0] for m in self.modules]

    @property
    def is_free(self) -> bool:
        return self.cost.key_bits == 0


@dataclass
class AtpgLockReport:
    """Diagnostics of one locking run."""

    selected_faults: list[str] = field(default_factory=list)
    free_faults: list[str] = field(default_factory=list)
    atpg_key_bits: int = 0
    random_key_bits: int = 0
    area_original: float = 0.0
    area_locked: float = 0.0
    candidates_examined: int = 0
    lec_equivalent: bool | None = None

    @property
    def area_delta_percent(self) -> float:
        if self.area_original == 0:
            return 0.0
        return 100.0 * (self.area_locked - self.area_original) / self.area_original


def atpg_lock(
    circuit: Circuit,
    config: AtpgLockConfig | None = None,
    library: CellLibrary | None = None,
) -> tuple[LockedCircuit, AtpgLockReport]:
    """Lock *circuit* (not modified) and return the locked design + report.

    ``key_bits == 0`` means no lock: the result is an unmodified copy
    with an empty report (no fault injected, no resynthesis).
    """
    config = config or AtpgLockConfig()
    lib = library or NANGATE45
    work = circuit.copy(f"{circuit.name}_locked")
    if config.key_bits == 0:
        return LockedCircuit(work, technique="none"), AtpgLockReport()
    rng = rng_for(config.seed, "atpg-lock", circuit.name)
    report = AtpgLockReport(area_original=count_area(circuit, lib))

    plans = _plan_faults(work, config, lib, rng, report)

    key_bits: list[KeyBit] = []
    key_index = 0
    for plan in plans:
        _inject(work, plan)
        if plan.is_free:
            report.free_faults.append(f"{plan.fault_net}/sa{plan.fault_value}")
            continue
        for module, patterns in zip(plan.modules, plan.patterns):
            if not any(patterns.minterms_by_output.values()):
                continue  # this sink is unaffected; nothing to restore
            restore = insert_restore(
                work,
                module,
                patterns,
                rng,
                key_index,
                prefix=f"lk{len(report.selected_faults)}",
            )
            key_bits.extend(restore.key_bits)
            key_index += len(restore.key_bits)
        report.selected_faults.append(f"{plan.fault_net}/sa{plan.fault_value}")
    report.atpg_key_bits = len(key_bits)

    # Fill the remaining budget with random XOR/XNOR key-gates.
    remaining = config.key_bits - len(key_bits)
    if remaining > 0:
        forbidden = {b.tie_cell for b in key_bits} | {b.key_gate for b in key_bits}
        extra = insert_random_key_gates(
            work, remaining, rng, key_index_start=key_index, avoid=forbidden
        )
        key_bits.extend(extra)
        report.random_key_bits = len(extra)

    protected = {b.tie_cell for b in key_bits} | {b.key_gate for b in key_bits}
    resynthesize(work, protected=protected, library=lib)
    report.area_locked = count_area(work, lib)

    locked = LockedCircuit(work, key_bits, technique="atpg-fault-injection")
    locked.notes["config"] = config
    locked.notes["report"] = report
    if config.run_lec:
        from repro.sat.lec import check_equivalence

        lec = check_equivalence(circuit, work)
        report.lec_equivalent = lec.equivalent
        if lec.equivalent is False:
            raise RuntimeError(
                f"LEC rejected locked netlist (counterexample "
                f"{lec.counterexample}); this is a flow bug"
            )
    return locked, report


# ----------------------------------------------------------------------
# Fault planning
# ----------------------------------------------------------------------
def _plan_faults(
    work: Circuit,
    config: AtpgLockConfig,
    lib: CellLibrary,
    rng: random.Random,
    report: AtpgLockReport,
) -> list[FaultPlan]:
    """Rank candidate faults by the cost model and pick a sink-disjoint set.

    Sink-disjointness keeps every selected fault's failing set exact in
    the presence of the other injections: a fault's influence region can
    only overlap another's module when they share an affected sink.
    """
    universe = internal_faults(work)
    # Cheap full scan: sink-count feasibility plus the cascade-removal
    # estimate.  Detailed (cut + exact enumeration) effort is then spent on
    # the largest removals — where the cost model can win area back — plus
    # a random sample for diversity.
    scored: list[tuple[float, object]] = []
    removed_of: dict[object, float] = {}
    for fault in universe:
        sinks, _aliases = affected_sinks(work, fault.net)
        if not sinks or len(sinks) > config.max_sinks:
            continue
        removed = cascade_removed_area(work, fault.net, fault.value, lib)
        removed_of[fault] = removed
        scored.append((removed, fault))
    scored.sort(key=lambda item: -item[0])
    top = [fault for _, fault in scored[: config.max_candidates]]
    rest = [fault for _, fault in scored[config.max_candidates :]]
    rng.shuffle(rest)
    candidates = top + rest[: config.max_candidates // 4]

    # Reference simulation for reachability screening: a failing set that
    # no primary-input pattern ever excites would make its comparator
    # decorative (any key would "work" for those bits).  The paper's ATPG
    # enumerates failing patterns over the primary-input space where this
    # cannot happen; our cut-space substitution must screen for it.
    sim_lanes = 4096
    net_values = _screen_words(work, rng, sim_lanes)

    keyed: list[FaultPlan] = []
    free: list[FaultPlan] = []
    modules_of: dict[str, list[FaultModule] | None] = {}  # sa0 and sa1 share
    for fault in candidates:
        report.candidates_examined += 1
        if fault.net not in modules_of:
            modules_of[fault.net] = extract_sink_modules(
                work, fault.net, config.max_support, config.max_sinks
            )
        modules = modules_of[fault.net]
        if modules is None:
            continue
        patterns: list[FailingPatterns] = []
        feasible = True
        reachable = False
        total_bits = 0
        restore_area = 0.0
        for module in modules:
            try:
                fp = enumerate_failing_patterns(
                    work,
                    fault,
                    module,
                    max_inputs=config.max_support,
                    max_minterms=config.max_minterms,
                )
            except (FailingSetTooLarge, ValueError):
                feasible = False
                break
            if _cover_has_flip_symmetry(fp):
                # two cubes over the same care mask (e.g. an XOR-shaped
                # failing set) admit a key flip that maps the cube set
                # onto itself — a guessable key orbit.  Reject such
                # faults so every surviving comparator punishes every
                # wrong key in its neighbourhood.
                feasible = False
                break
            patterns.append(fp)
            total_bits += fp.key_bits()
            restore_area += restore_area_estimate(fp, lib)
            if _failing_set_reachable(fp, net_values, sim_lanes):
                reachable = True
        if not feasible:
            continue
        if total_bits > 0 and not reachable:
            continue  # keyed comparator would never fire: skip the fault
        cost = FaultCost(
            removed_area=removed_of[fault],
            restore_area=restore_area,
            key_bits=total_bits,
        )
        plan = FaultPlan(fault.net, fault.value, modules, patterns, cost)
        if total_bits == 0:
            free.append(plan)
        elif total_bits <= config.max_key_bits_per_fault:
            keyed.append(plan)

    # Free (redundant) faults first: pure area reclaim, no key budget.
    free.sort(key=lambda p: -p.cost.removed_area)
    keyed.sort(key=lambda p: p.cost.cost_per_key_bit)
    chosen: list[FaultPlan] = []
    used_sinks: set[str] = set()
    for plan in free[: config.max_free_faults]:
        if any(s in used_sinks for s in plan.sink_nets):
            continue
        chosen.append(plan)
        used_sinks.update(plan.sink_nets)
    budget = config.key_bits
    for plan in keyed:
        bits = plan.cost.key_bits
        if bits > budget:
            continue
        if any(s in used_sinks for s in plan.sink_nets):
            continue
        chosen.append(plan)
        used_sinks.update(plan.sink_nets)
        budget -= bits
        if budget == 0:
            break
    return chosen


def _inject(work: Circuit, plan: FaultPlan) -> None:
    """Hard-wire the planned fault in place."""
    tie_type = GateType.TIEHI if plan.fault_value else GateType.TIELO
    work.replace_gate(Gate(plan.fault_net, tie_type, ()))


def _cover_has_flip_symmetry(patterns: FailingPatterns) -> bool:
    """True when two cubes of one cover share the same care mask.

    Two same-mask cubes c1, c2 admit the key-flip ``c1.values XOR
    c2.values``: it swaps the two comparators and leaves the fire
    function unchanged, so that wrong key would be functionally correct.
    Rejecting same-mask pairs removes the common symmetry class
    (XOR/XNOR-shaped failing sets); see tests for the demonstration.
    """
    for cover in patterns.covers_by_output.values():
        masks = [cube.mask for cube in cover]
        if len(masks) != len(set(masks)):
            return True
    return False


def _screen_words(work: Circuit, rng: random.Random, lanes: int) -> dict[str, int]:
    """Every net's word over *lanes* random input patterns (one big-int sweep)."""
    words = {net: rng.getrandbits(lanes) for net in work.inputs}
    return sweep_words(work, combinational_order(work), words, (1 << lanes) - 1)


def _failing_set_reachable(
    patterns: FailingPatterns, net_values: dict[str, int], lanes: int
) -> bool:
    """Does any simulated input pattern land in the failing set?

    For each failing minterm, build the packed word of lanes whose cut-net
    values equal that minterm (an AND over per-variable (non-)inverted
    words); any nonzero word proves the minterm occurs under real input
    stimuli, i.e. a wrong key will visibly corrupt the design there.
    """
    variable_words = [net_values[v] for v in patterns.variables]
    mask = (1 << lanes) - 1
    for terms in patterns.minterms_by_output.values():
        for minterm in terms:
            word = mask
            for index, var_word in enumerate(variable_words):
                if (minterm >> index) & 1:
                    word &= var_word
                else:
                    word &= ~var_word & mask
                if not word:
                    break
            if word:
                return True
    return False
