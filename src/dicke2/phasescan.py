"""Coupling-plane sweeps classifying each cell by the full spectrum.

Each grid cell evaluates the spectrum at the chosen phase's pole fixed
point (the classification authority) together with the analytic
zero-eigenvalue indicator B and the frequency-window roots, so analytic
and numeric pictures can be compared per cell. The scan works one lambda1
row at a time: the row's pole Jacobians are stacked into one batched eig
call, and only the cells whose spectrum lands in the near-marginal band go
through the 30-digit refinement. B and the roots come from one array
formula over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, Phase, trivial_fixed_point, validate_params
from .stability import MARGINAL_TOL, _pole_indicators, _spectra, jacobian


@dataclass(frozen=True)
class GridSpec:
    """Uniform inclusive-endpoint grid over the (lambda1, lambda2) plane."""

    l1_min: float = 0.0
    l1_max: float = 1.5
    l1_count: int = 61
    l2_min: float = 0.0
    l2_max: float = 1.5
    l2_count: int = 61


@dataclass(frozen=True)
class ScanCell:
    lambda1: float
    lambda2: float
    superradiant: bool
    max_growth_rate: float
    boundary_b: float
    omega_plus: float | None
    omega_minus: float | None


@dataclass(frozen=True)
class ScanResult:
    """Row-major cell list (lambda1 outer, lambda2 inner) plus boundary data.

    refined_cells counts the cells whose spectrum was recomputed in 30-digit
    arithmetic; it describes the run and is never written to data files.
    """

    phase: Phase
    grid: GridSpec
    params: ModelParams
    cells: list[ScanCell]
    boundary_curve: np.ndarray
    refined_cells: int = 0


def validate_grid(grid: GridSpec) -> GridSpec:
    for axis in ("l1", "l2"):
        lo = getattr(grid, f"{axis}_min")
        hi = getattr(grid, f"{axis}_max")
        count = getattr(grid, f"{axis}_count")
        if count < 2:
            raise ValueError(f"{axis}_count must be at least 2 (got {count})")
        if not (math.isfinite(hi) and hi > lo >= 0):
            raise ValueError(f"{axis} window must satisfy max > min >= 0 (got [{lo}, {hi}])")
    return grid


def grid_values(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(grid.l1_min, grid.l1_max, grid.l1_count),
        np.linspace(grid.l2_min, grid.l2_max, grid.l2_count),
    )


def scan(phase: Phase, grid: GridSpec, p: ModelParams) -> ScanResult:
    """Classify every grid cell, one batched spectrum per lambda1 row.

    Each cell's verdict and growth rate equal those of assess at that
    cell's pole fixed point.
    """
    validate_params(p)
    validate_grid(grid)
    l1s, l2s = grid_values(grid)
    pole = trivial_fixed_point(phase, p).to_array()
    growth = np.empty((grid.l1_count, grid.l2_count))
    refined_cells = 0
    for i, l1 in enumerate(l1s):
        _, _, growth[i], refined = _spectra(jacobian(pole, replace(p, lambda1=l1, lambda2=l2s)))
        refined_cells += int(refined.sum())
    _, b, w_minus, w_plus = _pole_indicators(phase, replace(p, lambda1=l1s[:, None], lambda2=l2s))
    w_plus, w_minus = (np.where(np.isnan(w), None, w) for w in (w_plus, w_minus))
    rows = zip(l1s.tolist(), growth.tolist(), b.tolist(), w_plus.tolist(), w_minus.tolist())
    cells = [
        ScanCell(l1, l2, g > MARGINAL_TOL, g, bv, wp, wm)
        for l1, *row in rows
        for l2, g, bv, wp, wm in zip(l2s.tolist(), *row)
    ]
    curve = analytic_boundary_curve(
        phase, p, samples=201, l1_max=grid.l1_max, l2_max=grid.l2_max
    )
    return ScanResult(
        phase=phase,
        grid=grid,
        params=p,
        cells=cells,
        boundary_curve=curve,
        refined_cells=refined_cells,
    )


def analytic_boundary_curve(
    phase: Phase,
    p: ModelParams,
    samples: int = 101,
    l1_max: float | None = None,
    l2_max: float | None = None,
) -> np.ndarray:
    """Polyline of B = 0 points, shape (k, 2), empty when no boundary exists.

    The locus solves s1*l1^2/w1 + s2*l2^2/w2 = -(kappa^2+omega_c^2)/(4*omega_c)
    exactly for one coupling as a function of the other: an elliptic arc for
    the normal phase (swept edge to edge by default) and a hyperbolic branch
    for the mixed phases (swept up to the window cap, default 1.5). The
    inverted phase has no real locus at positive cavity frequency.
    """
    validate_params(p)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    beta = (p.kappa**2 + p.omega_c**2) / (4.0 * p.omega_c)
    if l1_max is None:
        l1_max = 1.5
    if l2_max is None:
        l2_max = 1.5

    def sqrt_clipped(r: np.ndarray) -> np.ndarray:
        # Endpoint roundoff can push the radicand a few ulps negative.
        return np.sqrt(np.maximum(r, 0.0))

    if phase is Phase.INVERTED:
        return np.empty((0, 2))
    if phase is Phase.NORMAL:
        arc_l2 = np.sqrt(p.omega2 * beta)
        l2 = np.linspace(0.0, arc_l2, samples)
        l1 = sqrt_clipped(p.omega1 * (beta - l2**2 / p.omega2))
    elif phase is Phase.MIXED1:
        l2 = np.linspace(0.0, l2_max, samples)
        l1 = sqrt_clipped(p.omega1 * (beta + l2**2 / p.omega2))
    else:  # MIXED2
        l1 = np.linspace(0.0, l1_max, samples)
        l2 = sqrt_clipped(p.omega2 * (beta + l1**2 / p.omega1))
    points = np.column_stack([l1, l2])
    keep = (points[:, 0] <= l1_max) & (points[:, 1] <= l2_max)
    return points[keep]
