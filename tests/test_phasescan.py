"""Grid scans: ordering, classification frontier, symmetry, boundary curves."""

from dataclasses import replace

import numpy as np
import pytest

from dicke2 import (
    GridSpec,
    ModelParams,
    Phase,
    analytic_boundary_curve,
    assess,
    boundary_value,
    omega_pm,
    scan,
    stability,
    trivial_fixed_point,
)
from dicke2.phasescan import grid_values, validate_grid

UNIT = ModelParams()


def test_grid_validation():
    with pytest.raises(ValueError, match="count"):
        validate_grid(GridSpec(l1_count=1))
    with pytest.raises(ValueError, match="window"):
        validate_grid(GridSpec(l1_min=2.0, l1_max=1.0))
    with pytest.raises(ValueError, match="window"):
        validate_grid(GridSpec(l2_min=-0.5))
    with pytest.raises(ValueError, match="window"):
        validate_grid(GridSpec(l1_max=np.inf))
    with pytest.raises(ValueError, match="window"):
        validate_grid(GridSpec(l2_min=np.nan))


def test_cell_layout_row_major_lambda1_outer():
    grid = GridSpec(l1_count=3, l2_count=4)
    result = scan(Phase.NORMAL, grid, UNIT)
    assert len(result.cells) == 12
    l1s, l2s = grid_values(grid)
    k = 0
    for l1 in l1s:
        for l2 in l2s:
            assert result.cells[k].lambda1 == l1
            assert result.cells[k].lambda2 == l2
            k += 1


def test_normal_frontier_tracks_quarter_circle():
    grid = GridSpec(l1_count=21, l2_count=21)
    result = scan(Phase.NORMAL, grid, UNIT)
    cell_diag = np.hypot(1.5 / 20, 1.5 / 20)
    radius = np.sqrt(0.5)
    for c in result.cells:
        r = np.hypot(c.lambda1, c.lambda2)
        if abs(r - radius) > cell_diag:
            assert c.superradiant == (r > radius)


def test_normal_axis_threshold():
    grid = GridSpec(l1_count=2, l2_count=61)
    result = scan(Phase.NORMAL, grid, UNIT)
    column = [c for c in result.cells if c.lambda1 == 0.0]
    flips = [
        (a.lambda2, b.lambda2)
        for a, b in zip(column, column[1:])
        if a.superradiant != b.superradiant
    ]
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < np.sqrt(0.5) < hi


def test_mixed1_diagonal_never_superradiant():
    grid = GridSpec(l1_count=21, l2_count=21)
    result = scan(Phase.MIXED1, grid, UNIT)
    for c in result.cells:
        if c.lambda1 == c.lambda2:
            assert not c.superradiant


def test_scan_deterministic_across_repeated_runs():
    grid = GridSpec(l1_count=9, l2_count=9)
    a = scan(Phase.MIXED1, grid, UNIT)
    b = scan(Phase.MIXED1, grid, UNIT)
    assert a.cells == b.cells
    assert a.refined_cells == b.refined_cells
    assert np.array_equal(a.boundary_curve, b.boundary_curve)


def _ulps(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


@pytest.mark.parametrize("phase", list(Phase))
@pytest.mark.parametrize(
    "grid, p",
    [
        (GridSpec(0.05, 1.5, 9, 0.05, 1.5, 11), ModelParams(omega2=1.2)),
        # Equal frequencies and equal axes: the mixed-phase diagonal is refined.
        (GridSpec(0.0, 1.5, 11, 0.0, 1.5, 11), UNIT),
    ],
)
def test_batched_scan_matches_per_cell_oracle(monkeypatch, phase, grid, p):
    calls = []
    real_eig = stability.mpmath.eig

    def counting_eig(*args, **kwargs):
        calls.append(1)
        return real_eig(*args, **kwargs)

    monkeypatch.setattr(stability.mpmath, "eig", counting_eig)
    result = scan(phase, grid, p)
    batched_calls = len(calls)
    calls.clear()
    l1s, l2s = grid_values(grid)
    cells = iter(result.cells)
    for l1 in l1s:
        for l2 in l2s:
            c = next(cells)
            q = replace(p, lambda1=float(l1), lambda2=float(l2))
            report = assess(trivial_fixed_point(phase, q), q)
            assert (c.lambda1, c.lambda2) == (l1, l2)
            assert c.max_growth_rate == report.max_growth_rate
            assert c.superradiant == (report.max_growth_rate > stability.MARGINAL_TOL)
            assert _ulps(c.boundary_b, boundary_value(phase, l1, l2, p)) <= 4
            roots = omega_pm(phase, l1, l2, p)
            for got, want in ((c.omega_plus, roots.omega_plus), (c.omega_minus, roots.omega_minus)):
                assert (got is None) == (want is None)
                if got is not None:
                    assert _ulps(got, want) <= 4
    assert batched_calls == len(calls) == result.refined_cells
    if p == UNIT and phase in (Phase.MIXED1, Phase.MIXED2):
        assert result.refined_cells > 0


def test_normal_scan_symmetric_when_frequencies_match():
    grid = GridSpec(l1_count=13, l2_count=13)
    result = scan(Phase.NORMAL, grid, UNIT)
    n = 13
    for i in range(n):
        for j in range(n):
            a = result.cells[i * n + j]
            b = result.cells[j * n + i]
            assert a.superradiant == b.superradiant
            assert a.max_growth_rate == pytest.approx(b.max_growth_rate, abs=1e-9)


def test_normal_scan_asymmetric_when_frequencies_differ():
    grid = GridSpec(l1_count=13, l2_count=13)
    p = ModelParams(omega1=0.8, omega2=1.6)
    result = scan(Phase.NORMAL, grid, p)
    n = 13
    asymmetric = any(
        result.cells[i * n + j].superradiant != result.cells[j * n + i].superradiant
        for i in range(n)
        for j in range(n)
    )
    assert asymmetric


def test_mixed_scans_are_transposes():
    grid = GridSpec(l1_count=11, l2_count=11)
    m1 = scan(Phase.MIXED1, grid, UNIT)
    m2 = scan(Phase.MIXED2, grid, UNIT)
    n = 11
    for i in range(n):
        for j in range(n):
            assert (
                m1.cells[i * n + j].superradiant == m2.cells[j * n + i].superradiant
            )


def test_boundary_curve_normal_quarter_circle():
    curve = analytic_boundary_curve(Phase.NORMAL, UNIT, samples=101)
    assert len(curve) == 101
    r2 = curve[:, 0] ** 2 + curve[:, 1] ** 2
    assert np.max(np.abs(r2 - 0.5)) < 1e-12
    assert curve[0, 1] == 0.0 and curve[-1, 0] == pytest.approx(0.0, abs=1e-8)


def test_boundary_curve_mixed1_hyperbola():
    curve = analytic_boundary_curve(Phase.MIXED1, UNIT, samples=64, l1_max=6.0, l2_max=5.0)
    assert len(curve) == 64
    diff = curve[:, 0] ** 2 - curve[:, 1] ** 2
    assert np.max(np.abs(diff - 0.5)) < 1e-12


def test_boundary_curve_inverted_empty():
    curve = analytic_boundary_curve(Phase.INVERTED, UNIT, samples=50)
    assert curve.shape == (0, 2)


def test_boundary_curve_respects_window():
    curve = analytic_boundary_curve(Phase.MIXED2, UNIT, samples=80, l1_max=1.5, l2_max=1.5)
    assert len(curve) > 0
    assert np.all(curve <= 1.5 + 1e-15)
    # Mixed2 boundary: lambda2^2 - lambda1^2 = 0.5.
    diff = curve[:, 1] ** 2 - curve[:, 0] ** 2
    assert np.max(np.abs(diff - 0.5)) < 1e-12


def test_scan_result_carries_boundary_curve():
    grid = GridSpec(l1_count=5, l2_count=5)
    result = scan(Phase.NORMAL, grid, UNIT)
    r2 = result.boundary_curve[:, 0] ** 2 + result.boundary_curve[:, 1] ** 2
    assert np.max(np.abs(r2 - 0.5)) < 1e-12
