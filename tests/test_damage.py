"""Depth-damage curve evaluation and capped cell costing."""

import numpy as np
import pytest

from floodgrid.damage import cell_damage, evaluate_curve, load_default_curve
from floodgrid.geodata import DamageCurve

LINEAR = DamageCurve([(0.0, 0.0), (10.0, 1.0)])


class TestEvaluateCurve:
    def test_linear_midpoint(self):
        assert evaluate_curve(LINEAR, 5.0) == 0.5

    def test_clamp_low(self):
        assert evaluate_curve(LINEAR, -3.0) == 0.0

    def test_clamp_high(self):
        assert evaluate_curve(LINEAR, 99.0) == 1.0

    def test_breakpoints_exact(self):
        curve = DamageCurve([(0, 0), (1, 0.15), (2, 0.22), (4, 0.3)])
        for d, f in curve.breakpoints:
            assert evaluate_curve(curve, d) == f

    def test_segment_interpolation(self):
        curve = DamageCurve([(0, 0), (4, 0.6), (8, 0.8)])
        assert evaluate_curve(curve, 2.0) == pytest.approx(0.3, rel=1e-12)
        assert evaluate_curve(curve, 6.0) == pytest.approx(0.7, rel=1e-12)


    def test_bit_equal_to_scalar_formula(self):
        # np.interp rounds differently from f0 + ((x - d0) / (d1 - d0)) * (f1 - f0)
        # on this curve; the engine must keep the scalar formula's bits
        curve = DamageCurve([(0, 0), (1.5, 0.12), (3, 0.27), (4.5, 0.41), (7, 0.58),
                             (12, 0.83)])
        pts = curve.breakpoints

        def scalar(x):
            if x <= pts[0][0]:
                return pts[0][1]
            if x >= pts[-1][0]:
                return pts[-1][1]
            for (d0, f0), (d1, f1) in zip(pts, pts[1:]):
                if x <= d1:
                    return f0 + ((x - d0) / (d1 - d0)) * (f1 - f0)

        depths = np.random.default_rng(0).uniform(-1, 13, 20_000)
        want = np.array([scalar(x) for x in depths.tolist()])
        interp = np.interp(depths, [d for d, _ in pts], [f for _, f in pts])
        assert (interp != want).sum() > 1000
        assert evaluate_curve(curve, depths).tobytes() == want.tobytes()


class TestCellDamage:
    def test_dry_cell_is_free(self):
        assert cell_damage(1_000_000, -1.0, LINEAR) == 0.0
        assert cell_damage(1_000_000, 0.0, LINEAR) == 0.0

    def test_cap_binds_at_full_fraction(self):
        assert cell_damage(80_000, 10.0, LINEAR) == 80_000
        assert cell_damage(80_000, 25.0, LINEAR) == 80_000

    def test_interpolated_cost(self):
        curve = DamageCurve([(0.0, 0.0), (4.0, 0.6)])
        assert cell_damage(100_000, 2.0, curve) == pytest.approx(30_000, rel=1e-12)

    def test_randomized_bounds_and_monotonicity(self):
        rng = np.random.default_rng(53)
        for _ in range(10_000):
            n = int(rng.integers(2, 6))
            depths = np.sort(rng.uniform(-2, 12, n))
            while len(set(depths)) < n:
                depths = np.sort(rng.uniform(-2, 12, n))
            fractions = np.sort(rng.uniform(0, 1, n))
            curve = DamageCurve(list(zip(depths, fractions)))
            value = float(rng.uniform(0, 1e6))
            d1, d2 = sorted(rng.uniform(-5, 15, 2))
            c1 = cell_damage(value, d1, curve)
            c2 = cell_damage(value, d2, curve)
            assert 0.0 <= c1 <= value
            assert 0.0 <= c2 <= value
            assert c1 <= c2 + 1e-9 * value
            if d1 <= 0:
                assert c1 == 0.0

    def test_homogeneity_below_cap(self):
        curve = DamageCurve([(0.0, 0.0), (10.0, 0.5)])
        rng = np.random.default_rng(59)
        for _ in range(200):
            value = float(rng.uniform(1, 1e6))
            depth = float(rng.uniform(0.1, 9.9))
            base = cell_damage(value, depth, curve)
            doubled = cell_damage(2 * value, depth, curve)
            assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_default_curve_loads_and_validates():
    curve = load_default_curve()
    assert curve.breakpoints[0] == (0.0, 0.0)
    assert len(curve.breakpoints) == 6
