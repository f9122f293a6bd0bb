"""Place & route: floorplan, placement, clock-tree synthesis, routing."""

from .cts import ClockBuffer, ClockTree, synthesize_clock_tree
from .floorplan import Floorplan, IoPin, Row, make_floorplan
from .physical import PhysicalDesign, implement
from .placement import (
    IncrementalHpwl,
    PlacedCell,
    Placement,
    PlacementError,
    hpwl,
    net_pin_positions,
    net_pin_templates,
    place,
    random_place,
)
from .route import (
    GridRouter,
    RoutedNet,
    RoutingResult,
    drc_clean_capacity,
    grid_capacity,
    route,
)

__all__ = [
    "ClockBuffer",
    "ClockTree",
    "Floorplan",
    "GridRouter",
    "IncrementalHpwl",
    "IoPin",
    "PhysicalDesign",
    "PlacedCell",
    "Placement",
    "PlacementError",
    "RoutedNet",
    "RoutingResult",
    "Row",
    "drc_clean_capacity",
    "grid_capacity",
    "hpwl",
    "implement",
    "make_floorplan",
    "net_pin_positions",
    "net_pin_templates",
    "place",
    "random_place",
    "route",
    "synthesize_clock_tree",
]
