"""Grid-based coastal flood risk assessment.

Fishnet tessellation, area-weighted parcel-value apportionment, zonal
elevation statistics, depth-damage costing, sea-level-rise scenario
sweeps, and exploratory data analysis with regression diagnostics.
"""

from .damage import cell_damage, evaluate_curve, load_default_curve
from .geodata import (
    BfeZone,
    DamageCurve,
    Parcel,
    ParseError,
    Raster,
    parse_ascii_grid,
    parse_bfe_zones,
    parse_damage_curve,
    parse_parcels,
    write_ascii_grid,
    write_report,
)
from .grid import GridSpec, cell_rect, make_fishnet
from .overlay import (
    ATTRIBUTION_DTYPE,
    apportion,
    apportion_many,
    clip_to_slab,
    point_in_polygon,
    shoelace_area,
)
from .scenario import ScenarioResult, flooded_cells_geojson, sweep
from .terrain import (
    CellArrays,
    assign_bfe,
    build_cell_states,
    flood_depth,
    zonal_mean_elevation,
)

__version__ = "0.1.0"
