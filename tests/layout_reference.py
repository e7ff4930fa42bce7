"""The pure-Python reference layout flow: the compiled engine's oracle.

``place_reference``, ``route_reference`` and ``split_reference`` are the
original per-cell, per-net and per-stub implementations of placement,
routing and layout splitting.  :mod:`repro.phys.compiled` restates the
same algorithms over NumPy arrays and must stay **bit-identical** to
them: same ``random.Random`` streams in the same order, same float
operation order per cell.  The differential tests in
``tests/test_layout_compiled.py`` and ``tests/test_defense.py`` compare
the two flows with ``==``.

The signatures match :func:`repro.phys.placement.place`,
:func:`repro.phys.routing.route_design` and
:func:`repro.phys.split.split_layout`, so a test can swap any of them
for the reference function (:func:`patch_reference`).  What the compiled engine shares with
this flow (cell order, the attraction graph, cell widths, pair spill,
TIE polarity, the routing constants) stays in :mod:`repro.phys`.
"""

from __future__ import annotations

import math
import random

from repro.netlist.cell_library import (
    NANGATE45,
    ROW_HEIGHT_UM,
    SITE_WIDTH_UM,
    CellLibrary,
)
from repro.netlist.circuit import Circuit
from repro.phys.floorplan import Floorplan
from repro.phys.placement import (
    Placement,
    assign_cell_widths,
    build_neighbours,
    movable_cells,
)
from repro.phys.routing import (
    CAPACITY_FRACTION,
    ROUTING_PAIRS,
    SPILL_FRACTION,
    Pin,
    RoutedNet,
    Routing,
    TwoPinRoute,
    _assign_pair,
    collect_pins,
)
from repro.phys.split import FeolView, SinkStub, SourceStub, _tie_info
from repro.phys.stackup import STACK, MetalStack


def place_reference(
    circuit: Circuit,
    floorplan: Floorplan,
    seed: int = 2019,
    iterations: int = 24,
    fixed_cells: dict[str, tuple[float, float]] | None = None,
    ignore_nets: set[str] | None = None,
    library: CellLibrary | None = None,
) -> Placement:
    """The pure-Python reference placer (the compiled engine's oracle)."""
    lib = library or NANGATE45
    ignore_nets = ignore_nets or set()
    rng = random.Random(seed)
    movable = movable_cells(circuit, fixed_cells)
    fixed_cells = dict(fixed_cells or {})

    positions: dict[str, tuple[float, float]] = {}
    for name in movable:
        positions[name] = (
            rng.uniform(0, floorplan.width_um),
            rng.uniform(0, floorplan.height_um),
        )
    positions.update(fixed_cells)

    anchors = dict(floorplan.pad_ring.pads)

    def pin_pos(net: str) -> tuple[float, float] | None:
        if net in positions:
            return positions[net]
        if net in anchors:
            return anchors[net]
        return None

    # Quadratic placement by Jacobi relaxation on the connectivity
    # Laplacian: each movable cell repeatedly moves to the mean of its
    # neighbours (pads and fixed cells act as boundary conditions).  This
    # is the classic analytic-placement objective whose determinism and
    # wirelength focus create the proximity hints attacks rely on.
    neighbours = build_neighbours(circuit, movable, ignore_nets, anchors)

    def fixed_pos(name: str) -> tuple[float, float] | None:
        if name in anchors:
            return anchors[name]
        if name in fixed_cells:
            return fixed_cells[name]
        return None

    for _ in range(max(iterations, 40)):
        updates: dict[str, tuple[float, float]] = {}
        for name in movable:
            pulls = []
            for other in neighbours[name]:
                p = fixed_pos(other)
                if p is None:
                    p = positions.get(other)
                if p is not None:
                    pulls.append(p)
            if not pulls:
                continue
            updates[name] = (
                sum(p[0] for p in pulls) / len(pulls),
                sum(p[1] for p in pulls) / len(pulls),
            )
        positions.update(updates)

    # Order-preserving spread: relaxation clumps cells around the die
    # centre; remap each axis to its rank percentile so density is even
    # while relative order (= locality) is kept.  Small deterministic
    # jitter breaks rank ties.
    if movable:
        by_x = sorted(movable, key=lambda n: (positions[n][0], n))
        by_y = sorted(movable, key=lambda n: (positions[n][1], n))
        span_x = floorplan.width_um - SITE_WIDTH_UM
        span_y = floorplan.height_um - ROW_HEIGHT_UM
        new_x = {
            name: (rank + 0.5) / len(by_x) * span_x
            for rank, name in enumerate(by_x)
        }
        new_y = {
            name: (rank + 0.5) / len(by_y) * span_y
            for rank, name in enumerate(by_y)
        }
        for name in movable:
            positions[name] = (
                new_x[name] + rng.uniform(-0.1, 0.1),
                new_y[name] + rng.uniform(-0.1, 0.1),
            )

    placement = Placement()
    placement.fixed = set(fixed_cells)
    assign_cell_widths(placement, circuit, lib)
    _legalize(placement, positions, floorplan, movable, fixed_cells)
    return placement


def _legalize(
    placement: Placement,
    positions: dict[str, tuple[float, float]],
    floorplan: Floorplan,
    movable: list[str],
    fixed_cells: dict[str, tuple[float, float]],
) -> None:
    """Snap cells to rows/sites without overlaps (greedy row packing).

    Cells are processed in global-position order per row; each takes the
    nearest free site run wide enough for it.  Fixed cells reserve their
    sites first.
    """
    occupied: dict[int, list[tuple[int, int, str]]] = {
        row: [] for row in range(floorplan.num_rows)
    }

    def reserve(row: int, start: int, width: int, name: str) -> None:
        occupied[row].append((start, start + width, name))

    def fits(row: int, start: int, width: int) -> bool:
        if start < 0 or start + width > floorplan.sites_per_row:
            return False
        for s, e, _ in occupied[row]:
            if start < e and s < start + width:
                return False
        return True

    for name, (x, y) in fixed_cells.items():
        row, site = floorplan.snap(x, y)
        width = placement.widths_sites.get(name, 1)
        reserve(row, site, width, name)
        placement.locations[name] = (
            floorplan.site_x(site),
            floorplan.row_y(row),
        )

    def nearest_fit_in_row(row: int, site: int, width: int) -> int | None:
        """Closest feasible start site in *row*, or None when row is full."""
        runs = sorted(occupied[row])
        best: int | None = None
        best_cost = float("inf")
        cursor = 0
        for run_start, run_end, _ in runs + [
            (floorplan.sites_per_row, floorplan.sites_per_row, "")
        ]:
            gap_start, gap_end = cursor, run_start
            cursor = max(cursor, run_end)
            if gap_end - gap_start < width:
                continue
            candidate = min(max(site, gap_start), gap_end - width)
            cost = abs(candidate - site)
            if cost < best_cost:
                best_cost = cost
                best = candidate
        return best

    order = sorted(movable, key=lambda n: (positions[n][1], positions[n][0]))
    for name in order:
        x, y = positions[name]
        row, site = floorplan.snap(x, y)
        width = placement.widths_sites.get(name, 1)
        placed = False
        for d_row in sorted(
            range(-floorplan.num_rows, floorplan.num_rows), key=abs
        ):
            r = row + d_row
            if r < 0 or r >= floorplan.num_rows:
                continue
            s = nearest_fit_in_row(r, site, width)
            if s is None:
                continue
            reserve(r, s, width, name)
            placement.locations[name] = (
                floorplan.site_x(s),
                floorplan.row_y(r),
            )
            placed = True
            break
        if not placed:
            raise RuntimeError(
                f"legalization failed for {name}: floorplan too full "
                f"(lower the utilization)"
            )


def route_reference(
    circuit: Circuit,
    placement: Placement,
    floorplan: Floorplan,
    stack: MetalStack | None = None,
    seed: int = 2019,
    key_nets: set[str] | None = None,
) -> Routing:
    """The pure-Python reference router (the compiled engine's oracle)."""
    stack = stack or STACK
    rng = random.Random(seed)
    key_nets = key_nets or set()
    routing = Routing()

    for lower in ROUTING_PAIRS:
        if lower + 1 > stack.top:
            continue
        h_layer, v_layer = stack.routing_pair(lower)
        h_tracks = floorplan.height_um / h_layer.pitch_um
        v_tracks = floorplan.width_um / v_layer.pitch_um
        routing.pair_capacity[lower] = CAPACITY_FRACTION * (
            h_tracks * floorplan.width_um + v_tracks * floorplan.height_um
        )
        routing.pair_usage[lower] = 0.0

    all_pins = collect_pins(circuit, placement, floorplan)
    diag = floorplan.width_um + floorplan.height_um
    density = _pin_density_grid(all_pins, floorplan)

    # Short nets first: they claim the thin lower pairs, long nets climb.
    def hpwl(net: str) -> float:
        xs = [p.x for p in all_pins[net]]
        ys = [p.y for p in all_pins[net]]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    for net in sorted(all_pins, key=hpwl):
        pins = all_pins[net]
        routed = RoutedNet(net, pins[0], is_key_net=net in key_nets)
        for sink in pins[1:]:
            dx = abs(sink.x - pins[0].x)
            dy = abs(sink.y - pins[0].y)
            routed.routes.append(
                TwoPinRoute(
                    sink=sink,
                    h_length=dx,
                    v_length=dy,
                    bend_first="H" if rng.random() < 0.5 else "V",
                )
            )
        if routed.is_key_net:
            routing.nets[net] = routed
            continue  # lifted later; consumes no regular capacity here
        length = sum(r.length for r in routed.routes)
        preferred = _preferred_pair(hpwl(net), diag)
        if preferred == 2 and _congestion_spill(
            net, pins, density, floorplan, rng
        ):
            # local congestion: a short net in a pin-dense region gets
            # pushed one pair up — these short spilled nets are the easy
            # targets that give real proximity attacks their hit rate.
            preferred = 4
        routed.lower_layer = _assign_pair(routing, preferred, length)
        routing.pair_usage[routed.lower_layer] += length
        routing.nets[net] = routed
    return routing


def _pin_density_grid(
    all_pins: dict[str, list[Pin]], floorplan: Floorplan
) -> dict[tuple[int, int], int]:
    """Pins per ~4x4um gcell; drives the local-congestion model."""
    grid: dict[tuple[int, int], int] = {}
    for pins in all_pins.values():
        for pin in pins:
            cell = (int(pin.x // 4.0), int(pin.y // 4.0))
            grid[cell] = grid.get(cell, 0) + 1
    return grid


def _congestion_spill(
    net: str,
    pins: list[Pin],
    density: dict[tuple[int, int], int],
    floorplan: Floorplan,
    rng: random.Random,
) -> bool:
    """Deterministically spill a share of short nets in dense regions."""
    local = max(
        density.get((int(p.x // 4.0), int(p.y // 4.0)), 0) for p in pins
    )
    mean_density = (
        sum(density.values()) / len(density) if density else 0.0
    )
    if local < 1.3 * max(1.0, mean_density):
        return False
    return rng.random() < SPILL_FRACTION


def _preferred_pair(span: float, diag: float) -> int:
    """Net-length-driven layer-pair preference."""
    if span > 0.55 * diag:
        return 6
    if span > 0.30 * diag:
        return 4
    return 2


def split_reference(
    circuit: Circuit,
    routing: Routing,
    split_layer: int,
    key_nets: set[str] | None = None,
) -> FeolView:
    """The pure-Python reference splitter (the compiled engine's oracle)."""
    key_nets = key_nets or set()
    view = FeolView(circuit.name, split_layer)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)
    counter = [0]

    def next_id() -> int:
        counter[0] += 1
        return counter[0] - 1

    for net_name, routed in routing.nets.items():
        if routed.is_key_net:
            _emit_key_stubs(view, circuit, routed, next_id)
            continue
        if routed.top_layer <= split_layer:
            view.visible_nets.add(net_name)
            continue
        trunk_missing_only = routed.v_layer <= split_layer < routed.h_layer
        if trunk_missing_only:
            _emit_trunk_stubs(view, circuit, routed, next_id)
        else:
            _emit_pin_escape_stubs(view, circuit, routed, next_id)
    return view


def _emit_key_stubs(view: FeolView, circuit: Circuit, routed, next_id) -> None:
    """Key-nets: stacked vias exactly on the pins, zero FEOL wiring."""
    is_tie, tie_value = _tie_info(circuit, routed.net)
    view.source_stubs.append(
        SourceStub(
            next_id(),
            routed.source.owner,
            routed.net,
            routed.source.x,
            routed.source.y,
            is_tie,
            tie_value,
            trunk_axis=None,
        )
    )
    for route in routed.routes:
        view.sink_stubs.append(
            SinkStub(
                next_id(),
                route.sink.owner,
                route.sink.pin_index,
                routed.net,
                route.sink.x,
                route.sink.y,
                has_escape=False,
                trunk_axis=None,
            )
        )


def _emit_trunk_stubs(view: FeolView, circuit: Circuit, routed, next_id) -> None:
    """Vertical legs visible, horizontal trunk missing: aligned stubs.

    With a V-first bend the source's visible leg ends at (x_src, y_sink);
    with an H-first bend the sink's visible leg ends at (x_sink, y_src).
    Either way both dangling ends of a true pair share one y-row, and the
    missing trunk runs along x.
    """
    is_tie, tie_value = _tie_info(circuit, routed.net)
    sx, sy = routed.source.x, routed.source.y
    for route in routed.routes:
        kx, ky = route.sink.x, route.sink.y
        if route.bend_first == "V":
            src_pt = (sx, ky)
            sink_pt = _nudge_toward(kx, ky, sx, escape=0.4)
        else:
            src_pt = _nudge_toward(sx, sy, kx, escape=0.4)
            sink_pt = (kx, sy)
        view.source_stubs.append(
            SourceStub(
                next_id(),
                routed.source.owner,
                routed.net,
                src_pt[0],
                src_pt[1],
                is_tie,
                tie_value,
                trunk_axis="x",
            )
        )
        view.sink_stubs.append(
            SinkStub(
                next_id(),
                route.sink.owner,
                route.sink.pin_index,
                routed.net,
                sink_pt[0],
                sink_pt[1],
                has_escape=True,
                trunk_axis="x",
            )
        )


def _emit_pin_escape_stubs(view: FeolView, circuit: Circuit, routed, next_id) -> None:
    """Both legs above the split: only short pin escapes remain."""
    is_tie, tie_value = _tie_info(circuit, routed.net)
    centroid_x = (
        sum(r.sink.x for r in routed.routes) / len(routed.routes)
        if routed.routes
        else routed.source.x
    )
    centroid_y = (
        sum(r.sink.y for r in routed.routes) / len(routed.routes)
        if routed.routes
        else routed.source.y
    )
    escape = 2.0
    sx, sy = _escape_point(
        routed.source.x, routed.source.y, centroid_x, centroid_y, escape
    )
    view.source_stubs.append(
        SourceStub(
            next_id(),
            routed.source.owner,
            routed.net,
            sx,
            sy,
            is_tie,
            tie_value,
            trunk_axis=None,
        )
    )
    for route in routed.routes:
        ex, ey = _escape_point(
            route.sink.x, route.sink.y, routed.source.x, routed.source.y, escape
        )
        view.sink_stubs.append(
            SinkStub(
                next_id(),
                route.sink.owner,
                route.sink.pin_index,
                routed.net,
                ex,
                ey,
                has_escape=True,
                trunk_axis=None,
            )
        )


def _nudge_toward(x: float, y: float, toward_x: float, escape: float) -> tuple[float, float]:
    """Short horizontal escape from a pin toward the missing trunk."""
    step = escape if toward_x >= x else -escape
    return (x + step, y)


def _escape_point(
    x: float, y: float, toward_x: float, toward_y: float, escape: float
) -> tuple[float, float]:
    """End of the FEOL escape segment leaving (x, y) toward a partner."""
    if escape <= 0.0:
        return (x, y)
    dx, dy = toward_x - x, toward_y - y
    dist = math.hypot(dx, dy)
    if dist < 1e-9:
        return (x, y)
    step = min(escape, dist / 2.0)
    return (x + dx / dist * step, y + dy / dist * step)


def patch_reference(patch, module, **entry_points):
    """Point *module*'s layout entry points at the reference flow.

    Returns the list of reference functions called, so a test can tell
    the oracle really ran.
    """
    calls = []

    def recording(reference):
        def run(*args, **kwargs):
            calls.append(reference.__name__)
            return reference(*args, **kwargs)

        return run

    for name, reference in entry_points.items():
        patch.setattr(f"{module}.{name}", recording(reference))
    return calls
