"""Depth-damage costing.

The damage fraction comes from a piecewise-linear curve over depth; cost is
fraction times the cell's exposed value. Fractions lie in [0, 1], so a cell
never loses more than what it holds.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .geodata import DamageCurve, parse_damage_curve


def evaluate_curve(curve: DamageCurve, depth):
    """Damage fraction at ``depth`` by linear interpolation between breakpoints.

    Elementwise over arrays. Depths below the first breakpoint clamp to the
    first fraction, above the last to the last fraction. Each depth is
    interpolated as f0 + ((x - d0) / (d1 - d0)) * (f1 - f0) on the first
    segment whose right end reaches it; ``np.interp`` rounds differently.
    """
    d = np.array([p[0] for p in curve.breakpoints])
    f = np.array([p[1] for p in curve.breakpoints])
    x = np.asarray(depth, dtype=float)
    k = np.clip(np.searchsorted(d, x), 1, len(d) - 1)
    d0, d1, f0, f1 = d[k - 1], d[k], f[k - 1], f[k]
    # depths off the curve's ends are replaced below; on a segment narrower
    # than they are far away (say 1e-308 wide), their ratio would overflow
    with np.errstate(over="ignore", invalid="ignore"):
        out = f0 + ((x - d0) / (d1 - d0)) * (f1 - f0)
    return np.where(x <= d[0], f[0], np.where(x >= d[-1], f[-1], out))[()]


def cell_damage(exposed_value, depth, curve: DamageCurve):
    """Damage cost (USD) at the given flood depth, elementwise.

    Zero where the cell is dry (depth <= 0, or NaN); otherwise curve
    fraction times exposed value.
    """
    return np.where(depth > 0, evaluate_curve(curve, depth) * exposed_value, 0.0)[()]


def load_default_curve() -> DamageCurve:
    """Packaged placeholder curve.

    UNCALIBRATED: the shape loosely mimics published depth-damage curves and
    exists so the pipeline runs out of the box. Real assessments should
    supply a calibrated curve file.
    """
    text = resources.files("floodgrid").joinpath("data/default_curve.json").read_text()
    return parse_damage_curve(text)
