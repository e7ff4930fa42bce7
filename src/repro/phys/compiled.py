"""Array-native physical-design engines (placement, routing, split).

The one layout engine every workload runs.  The algorithms are the
pure-Python reference flow's (kept as the test oracle in
``tests/layout_reference.py``), restated over contiguous NumPy arrays —

* **placement** — the Jacobi relaxation runs as gather/scatter-add
  passes over a sparse net-incidence structure instead of per-cell
  dict loops; the order-preserving spread is two stable lexsorts; the
  legalizer keeps per-row occupancy in incrementally-sorted run lists
  instead of re-sorting per cell.
* **routing** — per-net HPWL, the pin-density congestion grid, the
  layer-pair preference and every L-leg length are batched array ops;
  only the inherently sequential residue (RNG bend draws, capacity
  spill state) stays in the per-net loop.
* **split** — trunk-stub alignment, escape-point geometry and key-via
  positions are computed for whole route categories at once; the stub
  objects are materialised from the arrays, and the view's stub-array
  cache is pre-filled so downstream attack pipelines start on the
  array domain for free.

Everything is **bit-identical** to the reference flow: the same
``random.Random`` streams are consumed in the same order, float
reductions run in the same per-cell operation order (the k-slot
accumulation below reproduces sequential neighbour sums exactly), and
``math.hypot`` is routed through :func:`repro.phys.geometry.exact_hypot`.
``tests/test_layout_compiled.py`` enforces equality of placements,
routes, stubs and layout costs against the oracle.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

import numpy as np

from repro.netlist.cell_library import (
    NANGATE45,
    ROW_HEIGHT_UM,
    SITE_WIDTH_UM,
    CellLibrary,
)
from repro.netlist.circuit import Circuit
from repro.phys.floorplan import Floorplan
from repro.phys.geometry import exact_hypot, stub_arrays
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
    RoutedNet,
    Routing,
    TwoPinRoute,
    _assign_pair,
)
from repro.phys.split import FeolView, SinkStub, SourceStub, _tie_info
from repro.phys.stackup import STACK, MetalStack

# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------


def place_compiled(
    circuit: Circuit,
    floorplan: Floorplan,
    seed: int = 2019,
    iterations: int = 24,
    fixed_cells: dict[str, tuple[float, float]] | None = None,
    ignore_nets: set[str] | None = None,
    library: CellLibrary | None = None,
) -> Placement:
    """Array-native placer; bit-identical to ``place_reference``
    in ``tests/layout_reference.py``."""
    lib = library or NANGATE45
    ignore_nets = ignore_nets or set()
    rng = random.Random(seed)
    movable = movable_cells(circuit, fixed_cells)
    fixed_cells = dict(fixed_cells or {})
    anchors = dict(floorplan.pad_ring.pads)
    n = len(movable)

    # Identical RNG stream: two uniforms per movable cell, in order.
    width_um, height_um = floorplan.width_um, floorplan.height_um
    pos_init = np.empty((n, 2), dtype=np.float64)
    for i in range(n):
        pos_init[i, 0] = rng.uniform(0, width_um)
        pos_init[i, 1] = rng.uniform(0, height_um)

    neighbours = build_neighbours(circuit, movable, ignore_nets, anchors)

    # Node table: movable cells first, then every referenced constant
    # (pads and fixed cells) appended once.  Resolution precedence is
    # the reference's: anchors, then fixed cells, then movable.
    index_of = {name: i for i, name in enumerate(movable)}
    const_coords: list[tuple[float, float]] = []
    const_id: dict[str, int] = {}

    def resolve(other: str) -> int | None:
        point = anchors.get(other)
        if point is None:
            point = fixed_cells.get(other)
        if point is not None:
            node = const_id.get(other)
            if node is None:
                node = n + len(const_coords)
                const_id[other] = node
                const_coords.append(point)
            return node
        return index_of.get(other)

    edge_cell: list[int] = []
    edge_node: list[int] = []
    deg = np.zeros(n, dtype=np.float64)
    for i, name in enumerate(movable):
        pulls = 0
        for other in neighbours[name]:
            node = resolve(other)
            if node is None:
                continue
            edge_cell.append(i)
            edge_node.append(node)
            pulls += 1
        deg[i] = pulls

    pos = np.empty((n + len(const_coords), 2), dtype=np.float64)
    pos[:n] = pos_init
    if const_coords:
        pos[n:] = np.asarray(const_coords, dtype=np.float64)

    # The sparse net-incidence structure is cell-major with neighbours
    # in reference adjacency order; ``np.bincount`` accumulates its
    # weights sequentially in input order, so each cell's neighbour sum
    # runs left-to-right exactly like the reference's ``sum()``.
    cell_index = np.asarray(edge_cell, dtype=np.intp)
    node_index = np.asarray(edge_node, dtype=np.intp)
    has_pull = deg > 0
    deg_safe = np.where(has_pull, deg, 1.0)
    for _ in range(max(iterations, 40)):
        sum_x = np.bincount(
            cell_index, weights=pos[node_index, 0], minlength=n
        )
        sum_y = np.bincount(
            cell_index, weights=pos[node_index, 1], minlength=n
        )
        pos[:n, 0] = np.where(has_pull, sum_x / deg_safe, pos[:n, 0])
        pos[:n, 1] = np.where(has_pull, sum_y / deg_safe, pos[:n, 1])

    # Order-preserving spread + deterministic jitter (same rank/order
    # and the same rng draw order as the reference: x then y per cell).
    if n:
        name_order = sorted(range(n), key=lambda i: movable[i])
        name_rank = np.empty(n, dtype=np.intp)
        name_rank[np.asarray(name_order, dtype=np.intp)] = np.arange(
            n, dtype=np.intp
        )
        rank_x = np.empty(n, dtype=np.float64)
        rank_x[np.lexsort((name_rank, pos[:n, 0]))] = np.arange(
            n, dtype=np.float64
        )
        rank_y = np.empty(n, dtype=np.float64)
        rank_y[np.lexsort((name_rank, pos[:n, 1]))] = np.arange(
            n, dtype=np.float64
        )
        span_x = floorplan.width_um - SITE_WIDTH_UM
        span_y = floorplan.height_um - ROW_HEIGHT_UM
        jitter = np.empty((n, 2), dtype=np.float64)
        for i in range(n):
            jitter[i, 0] = rng.uniform(-0.1, 0.1)
            jitter[i, 1] = rng.uniform(-0.1, 0.1)
        final_x = (rank_x + 0.5) / n * span_x + jitter[:, 0]
        final_y = (rank_y + 0.5) / n * span_y + jitter[:, 1]
    else:
        final_x = np.empty(0, dtype=np.float64)
        final_y = np.empty(0, dtype=np.float64)

    placement = Placement()
    placement.fixed = set(fixed_cells)
    assign_cell_widths(placement, circuit, lib)
    _legalize_fast(placement, movable, final_x, final_y, floorplan, fixed_cells)
    return placement


class _RowOccupancy:
    """One row's occupied intervals, merged and sorted.

    The reference legalizer re-sorts a row's reservation list and scans
    every gap per query; this keeps the *maximal free intervals*
    directly (merging touching or overlapping reservations — the
    reference's cursor scan merges them implicitly, and zero-width gaps
    can never fit a cell), so the nearest feasible gap is found by one
    bisect plus a short outward walk.  Decisions are identical: the
    gap containing the target wins at its clamped cost, otherwise the
    nearest fitting gap per side, left side winning cost ties exactly
    like the reference's left-to-right strict-improvement scan.
    """

    __slots__ = ("runs",)

    def __init__(self) -> None:
        self.runs: list[tuple[int, int]] = []

    def reserve(self, start: int, end: int) -> None:
        runs = self.runs
        lo = bisect_left(runs, (start, start))
        # absorb any neighbour that touches or overlaps [start, end)
        while lo > 0 and runs[lo - 1][1] >= start:
            start = min(start, runs[lo - 1][0])
            end = max(end, runs[lo - 1][1])
            lo -= 1
        hi = lo
        while hi < len(runs) and runs[hi][0] <= end:
            end = max(end, runs[hi][1])
            hi += 1
        runs[lo:hi] = [(start, end)]

    def nearest_fit(self, site: int, width: int, sites_per_row: int) -> int | None:
        """Start site of the closest fitting gap, or None when full."""
        runs = self.runs
        if not runs:
            if sites_per_row < width:
                return None
            return min(max(site, 0), sites_per_row - width)
        # Gap g_i spans (end of run i-1, start of run i); g_0 starts at
        # 0 and g_len(runs) ends at sites_per_row.  Locate the gap at or
        # right of ``site`` and walk outward.  ``(site + 1,)`` compares
        # below any ``(site + 1, end)`` tuple, so ``position`` counts
        # the runs whose start is <= site.
        position = bisect_right(runs, (site + 1,))
        best: int | None = None
        best_cost = 0

        def gap(i: int) -> tuple[int, int]:
            gap_start = runs[i - 1][1] if i > 0 else 0
            gap_end = runs[i][0] if i < len(runs) else sites_per_row
            return gap_start, gap_end

        def candidate_in(i: int) -> tuple[int, int] | None:
            gap_start, gap_end = gap(i)
            if gap_end - gap_start < width:
                return None
            start = min(max(site, gap_start), gap_end - width)
            return start, abs(start - site)

        # When ``site`` falls inside gap ``position`` that gap hosts the
        # cheapest candidate and ties against it are impossible (left
        # gaps clamp to strictly smaller sites, right gaps break on
        # >=).  When ``site`` is covered by run ``position - 1`` there
        # is no containing gap, and the left neighbour must win cost
        # ties exactly like the reference's left-to-right scan.
        covered = position > 0 and site < runs[position - 1][1]
        if not covered:
            found = candidate_in(position)
            if found is not None:
                best, best_cost = found
                if best_cost == 0:
                    return best
        left = position - 1
        while left >= 0:
            found = candidate_in(left)
            if found is not None:
                start, cost = found
                if best is None or cost < best_cost:
                    best, best_cost = start, cost
                break  # farther-left gaps only cost more
            left -= 1
        right = position if covered else position + 1
        while right <= len(runs):
            gap_start, _ = gap(right)
            if best is not None and gap_start - site >= best_cost:
                break  # cannot strictly improve: leftward wins ties
            found = candidate_in(right)
            if found is not None:
                start, cost = found
                if best is None or cost < best_cost:
                    best, best_cost = start, cost
                break  # farther-right gaps only cost more
            right += 1
        return best


def _legalize_fast(
    placement: Placement,
    movable: list[str],
    xs: np.ndarray,
    ys: np.ndarray,
    floorplan: Floorplan,
    fixed_cells: dict[str, tuple[float, float]],
) -> None:
    """Greedy row packing over :class:`_RowOccupancy` interval sets.

    Identical decisions to the reference legalizer: same cell order
    (global position, y then x, stable), same 0, -1, +1, -2, ... row
    escalation, same nearest-gap choice per row.
    """
    rows = [_RowOccupancy() for _ in range(floorplan.num_rows)]
    spr = floorplan.sites_per_row

    for name, (x, y) in fixed_cells.items():
        row, site = floorplan.snap(x, y)
        width = placement.widths_sites.get(name, 1)
        rows[row].reserve(site, site + width)
        placement.locations[name] = (
            floorplan.site_x(site),
            floorplan.row_y(row),
        )

    order = np.lexsort((xs, ys)).tolist()
    xs_list = xs.tolist()
    ys_list = ys.tolist()
    num_rows = floorplan.num_rows
    d_rows = sorted(range(-num_rows, num_rows), key=abs)
    for index in order:
        name = movable[index]
        row, site = floorplan.snap(xs_list[index], ys_list[index])
        width = placement.widths_sites.get(name, 1)
        placed = False
        for d_row in d_rows:
            r = row + d_row
            if r < 0 or r >= num_rows:
                continue
            start = rows[r].nearest_fit(site, width, spr)
            if start is None:
                continue
            rows[r].reserve(start, start + width)
            placement.locations[name] = (
                floorplan.site_x(start),
                floorplan.row_y(r),
            )
            placed = True
            break
        if not placed:
            raise RuntimeError(
                f"legalization failed for {name}: floorplan too full "
                f"(lower the utilization)"
            )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def _collect_pins_fast(
    circuit: Circuit, placement: Placement, floorplan: Floorplan
) -> dict[str, list]:
    """`collect_pins` with the per-reader fanin rescan hoisted out.

    The reference scans every reader's full fanin tuple per net
    (O(edges x arity)); here each gate's net -> pin-position map is
    built once, so the collection is O(edges).  Same pins, same order.
    """
    from repro.phys.routing import Pin

    pins: dict[str, list] = {}
    anchors = floorplan.pad_ring.pads
    fanout = circuit.fanout_map()
    centers = placement.pin_centers()
    positions_of: dict[str, dict[str, tuple[int, ...]]] = {}
    for gate in circuit.gates.values():
        if not gate.fanin:
            continue
        spots: dict[str, list[int]] = {}
        for position, fin in enumerate(gate.fanin):
            spots.setdefault(fin, []).append(position)
        positions_of[gate.name] = {
            fin: tuple(indices) for fin, indices in spots.items()
        }
    for gate in circuit.gates.values():
        net = gate.name
        if gate.is_input:
            if net in anchors:
                x, y = anchors[net]
                source = Pin(f"PAD:{net}", "source", x, y)
            else:  # floating input: anchor at origin (unused net)
                source = Pin(f"PAD:{net}", "source", 0.0, 0.0)
        else:
            x, y = centers[net]
            source = Pin(net, "source", x, y)
        net_pins = [source]
        for reader in fanout[net]:
            rx, ry = centers[reader]
            for position in positions_of[reader][net]:
                net_pins.append(Pin(reader, "sink", rx, ry, position))
        if net in circuit.outputs:
            pad = anchors.get(f"PO:{net}")
            if pad is not None:
                net_pins.append(Pin(f"PO:{net}", "sink", pad[0], pad[1]))
        if len(net_pins) >= 2:
            pins[net] = net_pins
    return pins


def route_compiled(
    circuit: Circuit,
    placement: Placement,
    floorplan: Floorplan,
    stack: MetalStack | None = None,
    seed: int = 2019,
    key_nets: set[str] | None = None,
) -> Routing:
    """Array-native router; bit-identical to ``route_reference``
    in ``tests/layout_reference.py``."""
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

    all_pins = _collect_pins_fast(circuit, placement, floorplan)
    if not all_pins:
        return routing
    diag = floorplan.width_um + floorplan.height_um
    net_names = list(all_pins)
    sizes = np.array([len(all_pins[n]) for n in net_names], dtype=np.intp)
    total = int(sizes.sum())
    starts = np.zeros(len(net_names), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    px = np.fromiter(
        (p.x for pins in all_pins.values() for p in pins),
        dtype=np.float64,
        count=total,
    )
    py = np.fromiter(
        (p.y for pins in all_pins.values() for p in pins),
        dtype=np.float64,
        count=total,
    )

    # Per-net HPWL (min/max are order-independent, so reduceat is exact).
    hpwl = (
        np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
    ) + (np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts))

    # Pin-density congestion grid over ~4x4um gcells, as array ops
    # (np.floor_divide matches Python's float // bit-for-bit).
    cell_x = np.floor_divide(px, 4.0).astype(np.int64)
    cell_y = np.floor_divide(py, 4.0).astype(np.int64)
    cell_key = (cell_x << np.int64(32)) + cell_y
    _, inverse, counts = np.unique(
        cell_key, return_inverse=True, return_counts=True
    )
    per_pin_density = counts[inverse]
    local_max = np.maximum.reduceat(per_pin_density, starts)
    mean_density = float(counts.sum() / counts.size) if counts.size else 0.0
    threshold = 1.3 * max(1.0, mean_density)
    spill_eligible = (local_max >= threshold).tolist()

    # Layer-pair preference from net span (same scalar products the
    # reference evaluates per net).
    preferred = np.where(
        hpwl > 0.55 * diag, 6, np.where(hpwl > 0.30 * diag, 4, 2)
    ).tolist()

    # L-shape legs: |sink - source| per pin, batched.
    source_x = np.repeat(px[starts], sizes)
    source_y = np.repeat(py[starts], sizes)
    leg_h = np.abs(px - source_x).tolist()
    leg_v = np.abs(py - source_y).tolist()

    order = np.argsort(hpwl, kind="stable").tolist()
    starts_list = starts.tolist()
    sizes_list = sizes.tolist()
    rng_random = rng.random
    for net_index in order:
        net = net_names[net_index]
        pins = all_pins[net]
        routed = RoutedNet(net, pins[0], is_key_net=net in key_nets)
        base = starts_list[net_index]
        routes = routed.routes
        for offset in range(1, sizes_list[net_index]):
            routes.append(
                TwoPinRoute(
                    sink=pins[offset],
                    h_length=leg_h[base + offset],
                    v_length=leg_v[base + offset],
                    bend_first="H" if rng_random() < 0.5 else "V",
                )
            )
        if routed.is_key_net:
            routing.nets[net] = routed
            continue  # lifted later; consumes no regular capacity here
        length = 0.0
        for offset in range(1, sizes_list[net_index]):
            length += leg_h[base + offset] + leg_v[base + offset]
        pair = preferred[net_index]
        if (
            pair == 2
            and spill_eligible[net_index]
            and rng_random() < SPILL_FRACTION
        ):
            pair = 4
        routed.lower_layer = _assign_pair(routing, pair, length)
        routing.pair_usage[routed.lower_layer] += length
        routing.nets[net] = routed
    return routing


# ----------------------------------------------------------------------
# Split
# ----------------------------------------------------------------------

#: Escape length of fully-missing pin stubs; mirrors the reference.
_ESCAPE_UM = 2.0

#: Trunk-stub nudge length; mirrors the reference.
_TRUNK_NUDGE_UM = 0.4


def split_compiled(
    circuit: Circuit,
    routing: Routing,
    split_layer: int,
    key_nets: set[str] | None = None,
) -> FeolView:
    """Array-native splitter; bit-identical to ``split_reference``
    in ``tests/layout_reference.py``."""
    del key_nets  # the routing's is_key_net flags are authoritative
    view = FeolView(circuit.name, split_layer)
    view.gates = dict(circuit.gates)
    view.outputs = list(circuit.outputs)

    # Pass 1: classify nets, gathering route geometry per category.
    KEY, VISIBLE, TRUNK, ESCAPE = 0, 1, 2, 3
    modes: list[int] = []
    nets: list[RoutedNet] = []
    trunk_rows: list[tuple[float, float, float, float, bool]] = []
    escape_src: list[tuple[float, float, float, float]] = []
    escape_rows: list[tuple[float, float, float, float]] = []
    for routed in routing.nets.values():
        nets.append(routed)
        if routed.is_key_net:
            modes.append(KEY)
            continue
        if routed.top_layer <= split_layer:
            modes.append(VISIBLE)
            continue
        if routed.v_layer <= split_layer < routed.h_layer:
            modes.append(TRUNK)
            sx, sy = routed.source.x, routed.source.y
            for route in routed.routes:
                trunk_rows.append(
                    (sx, sy, route.sink.x, route.sink.y,
                     route.bend_first == "V")
                )
        else:
            modes.append(ESCAPE)
            sx, sy = routed.source.x, routed.source.y
            if routed.routes:
                centroid_x = (
                    sum(r.sink.x for r in routed.routes)
                    / len(routed.routes)
                )
                centroid_y = (
                    sum(r.sink.y for r in routed.routes)
                    / len(routed.routes)
                )
            else:
                centroid_x, centroid_y = sx, sy
            escape_src.append((sx, sy, centroid_x, centroid_y))
            for route in routed.routes:
                escape_rows.append((route.sink.x, route.sink.y, sx, sy))

    # Pass 2: batched stub geometry per category.
    if trunk_rows:
        t = np.asarray(trunk_rows, dtype=np.float64)
        sx, sy, kx, ky = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
        bend_v = t[:, 4].astype(bool)
        nudge_sink = np.where(sx >= kx, _TRUNK_NUDGE_UM, -_TRUNK_NUDGE_UM)
        nudge_src = np.where(kx >= sx, _TRUNK_NUDGE_UM, -_TRUNK_NUDGE_UM)
        trunk_src_x = np.where(bend_v, sx, sx + nudge_src).tolist()
        trunk_src_y = np.where(bend_v, ky, sy).tolist()
        trunk_snk_x = np.where(bend_v, kx + nudge_sink, kx).tolist()
        trunk_snk_y = np.where(bend_v, ky, sy).tolist()
    else:
        trunk_src_x = trunk_src_y = trunk_snk_x = trunk_snk_y = []

    escape_src_x, escape_src_y = _escape_points(escape_src)
    escape_snk_x, escape_snk_y = _escape_points(escape_rows)

    # Pass 3: materialise the stub lists in reference emission order.
    counter = 0
    trunk_at = 0
    esc_net_at = 0
    esc_route_at = 0
    source_stubs = view.source_stubs
    sink_stubs = view.sink_stubs
    for routed, mode in zip(nets, modes):
        if mode == VISIBLE:
            view.visible_nets.add(routed.net)
            continue
        is_tie, tie_value = _tie_info(circuit, routed.net)
        if mode == KEY:
            source_stubs.append(
                SourceStub(
                    counter, routed.source.owner, routed.net,
                    routed.source.x, routed.source.y,
                    is_tie, tie_value, trunk_axis=None,
                )
            )
            counter += 1
            for route in routed.routes:
                sink_stubs.append(
                    SinkStub(
                        counter, route.sink.owner, route.sink.pin_index,
                        routed.net, route.sink.x, route.sink.y,
                        has_escape=False, trunk_axis=None,
                    )
                )
                counter += 1
        elif mode == TRUNK:
            for route in routed.routes:
                source_stubs.append(
                    SourceStub(
                        counter, routed.source.owner, routed.net,
                        trunk_src_x[trunk_at], trunk_src_y[trunk_at],
                        is_tie, tie_value, trunk_axis="x",
                    )
                )
                counter += 1
                sink_stubs.append(
                    SinkStub(
                        counter, route.sink.owner, route.sink.pin_index,
                        routed.net, trunk_snk_x[trunk_at],
                        trunk_snk_y[trunk_at],
                        has_escape=True, trunk_axis="x",
                    )
                )
                counter += 1
                trunk_at += 1
        else:  # ESCAPE
            source_stubs.append(
                SourceStub(
                    counter, routed.source.owner, routed.net,
                    escape_src_x[esc_net_at], escape_src_y[esc_net_at],
                    is_tie, tie_value, trunk_axis=None,
                )
            )
            counter += 1
            esc_net_at += 1
            for route in routed.routes:
                sink_stubs.append(
                    SinkStub(
                        counter, route.sink.owner, route.sink.pin_index,
                        routed.net, escape_snk_x[esc_route_at],
                        escape_snk_y[esc_route_at],
                        has_escape=True, trunk_axis=None,
                    )
                )
                counter += 1
                esc_route_at += 1

    stub_arrays(view)  # pre-fill the array backing while data is hot
    return view


def _escape_points(
    rows: list[tuple[float, float, float, float]],
) -> tuple[list[float], list[float]]:
    """Batched ``_escape_point``: end of the escape segment per row.

    Each row is ``(x, y, toward_x, toward_y)``; the hypot goes through
    :func:`exact_hypot` so results match the scalar reference exactly.
    """
    if not rows:
        return [], []
    r = np.asarray(rows, dtype=np.float64)
    x, y, toward_x, toward_y = r[:, 0], r[:, 1], r[:, 2], r[:, 3]
    dx = toward_x - x
    dy = toward_y - y
    dist = exact_hypot(dx, dy)
    degenerate = dist < 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.minimum(_ESCAPE_UM, dist / 2.0)
        ex = x + dx / dist * step
        ey = y + dy / dist * step
    ex = np.where(degenerate, x, ex)
    ey = np.where(degenerate, y, ey)
    return ex.tolist(), ey.tolist()
