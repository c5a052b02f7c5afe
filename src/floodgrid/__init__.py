"""Grid-based coastal flood risk assessment.

Fishnet tessellation, area-weighted parcel-value apportionment, zonal
elevation statistics, depth-damage costing, sea-level-rise scenario
sweeps, and exploratory data analysis with regression diagnostics.
"""

from .geodata import (BfeZone, DamageCurve, ParcelTable, ParseError, Raster, cell_damage,
                      evaluate_curve, load_default_curve, parse_ascii_grid, parse_bfe_zones,
                      parse_damage_curve, parse_parcels, write_ascii_grid, write_report)
from .terrain import (ATTRIBUTION_DTYPE, CellArrays, GridSpec, ScenarioResult, apportion_many,
                      assign_bfe, build_cell_states, cell_rect, flood_depth, flooded_cells_geojson,
                      make_fishnet, sweep, zonal_mean_elevation)

__version__ = "0.1.0"
