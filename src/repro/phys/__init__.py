"""Physical design substrate: floorplan, place, route, lift, split, cost.

Placement, routing and splitting run on the array-native engine of
:mod:`repro.phys.compiled`, bit-identical to the pure-Python reference
flow that ``tests/layout_reference.py`` keeps as its test oracle.
:mod:`repro.phys.geometry` exposes the shared stub-coordinate arrays,
pairwise scores and the candidate shortlist the attack pipelines consume.
"""

from repro.phys.cost import LayoutCost, measure_layout_cost
from repro.phys.floorplan import Floorplan, build_floorplan
from repro.phys.layout import (
    PhysicalLayout,
    build_locked_layout,
    build_unprotected_layout,
)
from repro.phys.lifting import LiftingResult, lift_key_nets
from repro.phys.package_routing import (
    PackagedDesign,
    attack_packaged_design,
    package_route_keys,
)
from repro.phys.placement import Placement, half_perimeter_wirelength, place
from repro.phys.routing import Routing, RoutedNet, collect_pins, route_design
from repro.phys.split import FeolView, SinkStub, SourceStub, split_layout
from repro.phys.stackup import PAPER_SPLITS, STACK, MetalLayer, MetalStack
from repro.phys.tie_cells import randomize_tie_cells, tie_distance_statistics

__all__ = [
    "FeolView",
    "Floorplan",
    "LayoutCost",
    "LiftingResult",
    "MetalLayer",
    "MetalStack",
    "PAPER_SPLITS",
    "PackagedDesign",
    "PhysicalLayout",
    "Placement",
    "RoutedNet",
    "Routing",
    "SinkStub",
    "SourceStub",
    "STACK",
    "attack_packaged_design",
    "build_floorplan",
    "build_locked_layout",
    "build_unprotected_layout",
    "collect_pins",
    "half_perimeter_wirelength",
    "lift_key_nets",
    "measure_layout_cost",
    "package_route_keys",
    "place",
    "randomize_tie_cells",
    "route_design",
    "split_layout",
    "tie_distance_statistics",
]
