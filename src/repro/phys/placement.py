"""Standard-cell placement: force-directed global placement + legalization.

The placer is intentionally faithful to the *behaviour* proximity attacks
exploit: connected cells are pulled toward each other (star net model), so
to-be-connected pins end up physically close — "to-be-connected cells are
placed nearby in the FEOL, mainly to minimize delay".  The whole pipeline
is deterministic given the seed.

Fixed cells (the randomized TIE cells, marked ``dont_touch``) keep their
sites; the legalizer never moves them and packs movable cells around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.cell_library import (
    ROW_HEIGHT_UM,
    SITE_WIDTH_UM,
    CellLibrary,
)
from repro.netlist.circuit import Circuit
from repro.phys.floorplan import Floorplan


@dataclass
class Placement:
    """Cell locations: gate name -> (x, y) of the cell origin (um)."""

    locations: dict[str, tuple[float, float]] = field(default_factory=dict)
    fixed: set[str] = field(default_factory=set)
    widths_sites: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._pin_centers: dict[str, tuple[float, float]] | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_pin_centers", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pin_centers = None

    def location(self, gate: str) -> tuple[float, float]:
        return self.locations[gate]

    def pin_centers(self) -> dict[str, tuple[float, float]]:
        """All pin centres, computed once per placement.

        Routing, lifting and the attack feature pipelines query pin
        locations in inner loops; recomputing the centre arithmetic per
        call was pure overhead, so it is materialised lazily on first
        use.  Placements are treated as immutable once built — mutate
        ``locations`` only before the first query (or drop the cache
        with ``_pin_centers = None``).
        """
        if self._pin_centers is None:
            self._pin_centers = {
                name: (
                    x + self.widths_sites.get(name, 1) * SITE_WIDTH_UM / 2.0,
                    y + ROW_HEIGHT_UM / 2.0,
                )
                for name, (x, y) in self.locations.items()
            }
        return self._pin_centers

    def pin_location(self, gate: str) -> tuple[float, float]:
        """Approximate pin location: cell centre."""
        return self.pin_centers()[gate]


def place(
    circuit: Circuit,
    floorplan: Floorplan,
    seed: int = 2019,
    iterations: int = 24,
    fixed_cells: dict[str, tuple[float, float]] | None = None,
    ignore_nets: set[str] | None = None,
    library: CellLibrary | None = None,
) -> Placement:
    """Place *circuit* onto *floorplan*; returns a legal placement.

    *fixed_cells* pins the named gates at the given locations (TIE cells
    after randomization).  *ignore_nets* removes the named nets from the
    attraction model — the paper's "TIE cells are detached from the
    key-gates [before placement] to avoid inducing any layout-level
    hints".  Primary inputs are represented by their pads and act as fixed
    anchors; they own no placement site.

    Runs the array-native placer of :mod:`repro.phys.compiled`.
    """
    from repro.phys.compiled import place_compiled

    return place_compiled(
        circuit,
        floorplan,
        seed=seed,
        iterations=iterations,
        fixed_cells=fixed_cells,
        ignore_nets=ignore_nets,
        library=library,
    )


def movable_cells(
    circuit: Circuit, fixed_cells: dict[str, tuple[float, float]] | None
) -> list[str]:
    """The placeable gates, in the order both engines process them."""
    return [
        g.name
        for g in circuit.gates.values()
        if not g.is_input and (fixed_cells is None or g.name not in fixed_cells)
    ]


def build_neighbours(
    circuit: Circuit,
    movable: list[str],
    ignore_nets: set[str],
    anchors: dict[str, tuple[float, float]],
) -> dict[str, list[str]]:
    """Adjacency of the attraction model, in reference edge order.

    Shared by both engines so the Jacobi relaxation sums neighbour
    pulls in exactly the same per-cell order (float addition is not
    associative; the order *is* the spec).
    """
    neighbours: dict[str, list[str]] = {name: [] for name in movable}
    fanout = circuit.fanout_map()

    def add_edge(a: str, b: str) -> None:
        if a in neighbours:
            neighbours[a].append(b)
        if b in neighbours:
            neighbours[b].append(a)

    for gate in circuit.gates.values():
        if gate.name in ignore_nets:
            continue  # detached: exerts no attraction
        if gate.is_input and gate.name not in anchors:
            continue  # floating input without a pad: no pull
        for reader in fanout[gate.name]:
            add_edge(gate.name, reader)
    for net in circuit.outputs:
        key = f"PO:{net}"
        if key in anchors:
            add_edge(net, key)
    return neighbours


def assign_cell_widths(
    placement: Placement, circuit: Circuit, lib: CellLibrary
) -> None:
    """Fill ``widths_sites`` from the library mapping (both engines).

    The decomposition-tree width of one (gate type, arity) never
    changes within a library, so it is resolved once per combination
    instead of per gate.
    """
    widths: dict[tuple, int] = {}
    for gate in circuit.gates.values():
        if gate.is_input:
            continue
        if gate.is_tie:
            key = (gate.gate_type, None)
        else:
            key = (gate.gate_type, max(1, len(gate.fanin)))
        width = widths.get(key)
        if width is None:
            if gate.is_tie:
                cells = [lib.cell_for(gate.gate_type, 0)]
            else:
                cells = lib.mapping_for(gate.gate_type, key[1])
            width = widths[key] = sum(c.width_sites for c in cells)
        placement.widths_sites[gate.name] = width


def half_perimeter_wirelength(
    circuit: Circuit, placement: Placement, floorplan: Floorplan
) -> float:
    """Total HPWL over all nets (um) — the placer's quality metric."""
    anchors = floorplan.pad_ring.pads
    fanout = circuit.fanout_map()
    total = 0.0
    for gate in circuit.gates.values():
        points: list[tuple[float, float]] = []
        if gate.is_input:
            if gate.name in anchors:
                points.append(anchors[gate.name])
        else:
            points.append(placement.pin_location(gate.name))
        for reader in fanout[gate.name]:
            points.append(placement.pin_location(reader))
        if gate.name in circuit.outputs and f"PO:{gate.name}" in anchors:
            points.append(anchors[f"PO:{gate.name}"])
        if len(points) >= 2:
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total
