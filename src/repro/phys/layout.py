"""Layout assembly: the paper's layout stage (Fig. 3, right column).

``build_locked_layout`` executes the secure flow:

1. floorplan the locked netlist,
2. randomize and fix the TIE cells (``set_dont_touch``),
3. placement with the key-nets *detached* (no attraction between TIE
   cells and key-gates),
4. routing of the regular nets (key-gates re-attached),
5. ECO: lift every key-net to ``split_layer + 1`` on stacked vias and
   detour the disturbed regular nets.

``prelift=True`` reproduces the paper's *Prelift* reference point
(Fig. 2(a)): the same locked netlist laid out by a plain flow — TIE cells
placed by the optimizer right next to their key-gates and key-nets routed
in the FEOL like any other net.  That layout is cheap but leaks the key;
it anchors both Fig. 5 and the naive-design ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.locking.key import KeyBit, LockedCircuit
from repro.netlist.cell_library import NANGATE45, CellLibrary
from repro.netlist.circuit import Circuit
from repro.phys.floorplan import Floorplan, build_floorplan
from repro.phys.lifting import LiftingResult, lift_key_nets
from repro.phys.placement import Placement, place
from repro.phys.routing import Routing, route_design
from repro.phys.split import FeolView, split_layout
from repro.phys.stackup import STACK, MetalStack
from repro.phys.tie_cells import randomize_tie_cells
from repro.utils.rng import rng_for


@dataclass
class PhysicalLayout:
    """A fully placed-and-routed design plus key bookkeeping."""

    circuit: Circuit
    floorplan: Floorplan
    placement: Placement
    routing: Routing
    key_bits: list[KeyBit]
    lifting: LiftingResult | None = None
    split_layer: int | None = None

    @property
    def key_nets(self) -> set[str]:
        return {bit.tie_cell for bit in self.key_bits}

    def feol_view(self, split_layer: int | None = None) -> FeolView:
        """The FEOL view at *split_layer* (default: the layout's own).

        Split once per layer and kept in the layout's ``_views`` dict:
        every caller of one layout and layer shares one view, with its
        cached stub arrays and candidate sets.  That is sound because
        nothing mutates a layout after its stage returns —
        ``clamp_regular_nets`` runs inside the layout stage, before any
        view exists — and attacks only read views (the defenses re-split
        a copy of the routing into views of their own).  The dict is
        left out of pickles (:meth:`__getstate__`), so cached layout
        blobs and worker-tier byte sizes are those of a never-split
        layout.
        """
        layer = split_layer if split_layer is not None else self.split_layer
        if layer is None:
            raise ValueError("no split layer configured for this layout")
        views = self.__dict__.setdefault("_views", {})
        view = views.get(layer)
        if view is None:
            view = views[layer] = split_layout(
                self.circuit, self.routing, layer, self.key_nets
            )
        return view

    def __getstate__(self) -> dict:
        """Drop the derived FEOL views from pickles (see :meth:`feol_view`)."""
        state = dict(self.__dict__)
        state.pop("_views", None)
        return state


def build_unprotected_layout(
    circuit: Circuit,
    seed: int = 2019,
    utilization: float = 0.70,
    library: CellLibrary | None = None,
    stack: MetalStack | None = None,
) -> PhysicalLayout:
    """Reference flow: place and route the original netlist."""
    lib = library or NANGATE45
    plan = build_floorplan(circuit, utilization=utilization, library=lib)
    placement = place(circuit, plan, seed=seed, library=lib)
    routing = route_design(circuit, placement, plan, stack=stack, seed=seed)
    return PhysicalLayout(circuit, plan, placement, routing, key_bits=[])


def build_locked_layout(
    locked: LockedCircuit,
    split_layer: int = 4,
    seed: int = 2019,
    utilization: float = 0.70,
    prelift: bool = False,
    library: CellLibrary | None = None,
    stack: MetalStack | None = None,
) -> PhysicalLayout:
    """The paper's secure layout flow (or the Prelift reference)."""
    lib = library or NANGATE45
    stack = stack or STACK
    circuit = locked.circuit
    plan = build_floorplan(circuit, utilization=utilization, library=lib)

    if prelift:
        placement = place(circuit, plan, seed=seed, library=lib)
        routing = route_design(
            circuit, placement, plan, stack=stack, seed=seed
        )
        return PhysicalLayout(
            circuit, plan, placement, routing, list(locked.key_bits)
        )

    rng = rng_for(seed, "tie-randomize", circuit.name)
    fixed = randomize_tie_cells(locked.tie_cells, plan, rng)
    key_nets = set(locked.tie_cells)
    placement = place(
        circuit,
        plan,
        seed=seed,
        fixed_cells=fixed,
        ignore_nets=key_nets,
        library=lib,
    )
    routing = route_design(
        circuit, placement, plan, stack=stack, seed=seed, key_nets=key_nets
    )
    lifting = lift_key_nets(
        routing, locked.key_bits, placement, split_layer, stack=stack
    )
    return PhysicalLayout(
        circuit,
        plan,
        placement,
        routing,
        list(locked.key_bits),
        lifting=lifting,
        split_layer=split_layer,
    )
