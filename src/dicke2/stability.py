"""Linearization around fixed points and eigenvalue classification.

The full 8-variable Jacobian is used rather than a hand-reduced one: the
two extra modes are the exact zero eigenvalues contributed by the two
spin-norm conservation laws ("structural zeros"), which are identified by
tolerance and excluded from growth-rate classification. This keeps the
Jacobian valid at superradiant (non-pole) fixed points as well.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from enum import Enum

import mpmath
import numpy as np

from .model import (
    ModelParams,
    Phase,
    _as_array,
    eom_rhs,
    lambda_combined,
    validate_params,
)

#: |Re| and |Im| below this mark a conservation-law zero mode.
STRUCTURAL_ZERO_TOL = 1e-10
#: Growth rates within this of zero classify as Marginal.
MARGINAL_TOL = 1e-8
#: Residual bound a state must meet to count as a fixed point.
FIXED_POINT_TOL = 1e-8
# Non-structural eigenvalues whose |Re| falls in this band are too close to
# the marginal tolerance to trust double-precision QR (defective marginal
# pairs split by ~sqrt(eps)); the spectrum is then recomputed at 30 digits.
_REFINE_BAND = (1e-11, 1e-6)
_REFINE_DPS = 30


class Classification(Enum):
    STABLE = "Stable"
    MARGINAL = "Marginal"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of the linearization at a fixed point plus its verdict.

    max_growth_rate is the largest real part over the non-structural
    eigenvalues; classification is Marginal when its magnitude is below
    MARGINAL_TOL, otherwise Stable/Unstable by sign.
    """

    eigenvalues: np.ndarray
    structural_zero_count: int
    max_growth_rate: float
    classification: Classification


@dataclass(frozen=True)
class BoundaryRoots:
    """Real roots omega_-, omega_+ of w^2 + 4*L*w + kappa^2 = 0, if any.

    A pole fixed point is unstable against zero-frequency fluctuations
    exactly when the cavity frequency lies between the two roots. Both are
    None when the discriminant is negative (no real boundary).
    """

    omega_minus: float | None
    omega_plus: float | None
    lambda_combined: float


def jacobian(s, p: ModelParams) -> np.ndarray:
    """Exact partial derivatives of eom_rhs at any state (not only fixed points).

    Broadcasts over leading axes: s may be a stack of states (..., 8) and
    the couplings of p may be arrays; the result is a (..., 8, 8) stack.
    """
    y = _as_array(s)
    a1 = y[..., 0]
    j1y, j1z, j2y, j2z = y[..., 3], y[..., 4], y[..., 6], y[..., 7]
    c1 = 2.0 * np.asarray(p.lambda1) / np.sqrt(p.n1)
    c2 = 2.0 * np.asarray(p.lambda2) / np.sqrt(p.n2)
    g1 = 2.0 * c1
    g2 = 2.0 * c2
    jac = np.zeros(np.broadcast_shapes(a1.shape, c1.shape, c2.shape) + (8, 8))
    jac[..., 0, 0], jac[..., 0, 1] = -p.kappa, p.omega_c
    jac[..., 1, 0], jac[..., 1, 1] = -p.omega_c, -p.kappa
    jac[..., 1, 2], jac[..., 1, 5] = -c1, -c2
    jac[..., 2, 3] = -p.omega1
    jac[..., 3, 0], jac[..., 3, 2], jac[..., 3, 4] = -g1 * j1z, p.omega1, -g1 * a1
    jac[..., 4, 0], jac[..., 4, 3] = g1 * j1y, g1 * a1
    jac[..., 5, 6] = -p.omega2
    jac[..., 6, 0], jac[..., 6, 5], jac[..., 6, 7] = -g2 * j2z, p.omega2, -g2 * a1
    jac[..., 7, 0], jac[..., 7, 6] = g2 * j2y, g2 * a1
    return jac


def jacobian_fd(s, p: ModelParams, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of eom_rhs; verification oracle."""
    if not h > 0:
        raise ValueError("step h must be positive")
    y = _as_array(s)
    jac = np.empty((8, 8))
    for k in range(8):
        yp, ym = y.copy(), y.copy()
        yp[k] += h
        ym[k] -= h
        jac[:, k] = (eom_rhs(yp, p) - eom_rhs(ym, p)) / (2.0 * h)
    return jac


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix, or of each in a (..., n, n) stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.eigvals(m)


# mpmath's working precision is process-global, so refinements serialize.
_REFINE_LOCK = threading.Lock()


def _eigenvalues_refined(m: np.ndarray) -> np.ndarray:
    """Spectrum recomputed in 30-digit arithmetic (slow, exact input)."""
    with _REFINE_LOCK, mpmath.workdps(_REFINE_DPS):
        ev = mpmath.eig(mpmath.matrix(m.tolist()), left=False, right=False)
    return np.array([complex(e) for e in ev])


def _split_structural(eigs: np.ndarray) -> np.ndarray:
    """Mask the conservation-law modes of each spectrum in a (..., n) stack.

    Up to two near-zero eigenvalues per spectrum are marked, smallest
    magnitude first and ties in index order.
    """
    near_zero = (np.abs(eigs.real) < STRUCTURAL_ZERO_TOL) & (
        np.abs(eigs.imag) < STRUCTURAL_ZERO_TOL
    )
    order = np.argsort(np.where(near_zero, np.abs(eigs), np.inf), axis=-1, kind="stable")
    mask = np.zeros(eigs.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :2], True, axis=-1)
    return mask & near_zero


def _spectra(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classify a stack of Jacobians (n, 8, 8) with one batched eig call.

    Returns the eigenvalues (n, 8), their structural-zero mask, the growth
    rate (largest non-structural real part) per matrix, and a flag per matrix
    telling whether its spectrum was recomputed in 30-digit arithmetic.
    """
    eigs = eigenvalues(jac).astype(complex)
    rate = np.abs(eigs.real)
    lo, hi = _REFINE_BAND
    refined = np.any(~_split_structural(eigs) & (lo < rate) & (rate < hi), axis=-1)
    for k in np.flatnonzero(refined):
        eigs[k] = _eigenvalues_refined(jac[k])
    structural = _split_structural(eigs)
    growth = np.max(np.where(structural, -np.inf, eigs.real), axis=-1)
    return eigs, structural, growth, refined


def assess(fp, p: ModelParams) -> StabilityReport:
    """Eigen-decompose the Jacobian at a fixed point and classify it.

    Raises if fp is not a fixed point (RHS max-norm above FIXED_POINT_TOL).
    """
    validate_params(p)
    residual = float(np.max(np.abs(eom_rhs(fp, p))))
    if residual > FIXED_POINT_TOL:
        raise ValueError(
            f"state is not a fixed point: RHS max-norm {residual:.3e} exceeds {FIXED_POINT_TOL}"
        )
    eigs, structural, growth, _ = _spectra(jacobian(fp, p)[np.newaxis])
    max_growth = float(growth[0])
    if abs(max_growth) < MARGINAL_TOL:
        verdict = Classification.MARGINAL
    elif max_growth > 0:
        verdict = Classification.UNSTABLE
    else:
        verdict = Classification.STABLE
    return StabilityReport(
        eigenvalues=eigs[0],
        structural_zero_count=int(structural[0].sum()),
        max_growth_rate=max_growth,
        classification=verdict,
    )


def _pole_indicators(phase: Phase, q: ModelParams) -> tuple:
    """Combined coupling L, indicator B and window roots (omega_-, omega_+).

    The couplings of q may be arrays; every result broadcasts over them.
    The roots are NaN where the discriminant 4L^2 - kappa^2 is negative.
    """
    lam = lambda_combined(q, phase)
    b = -4.0 * q.omega_c * lam - (q.kappa**2 + q.omega_c**2)
    disc = 4.0 * (lam * lam) - q.kappa**2
    root = np.sqrt(np.where(disc < 0, np.nan, disc))
    return lam, b, -2.0 * lam - root, -2.0 * lam + root


def boundary_value(phase: Phase, lambda1: float, lambda2: float, p: ModelParams) -> float:
    """Signed zero-eigenvalue indicator B = -4*omega_c*L - (kappa^2 + omega_c^2).

    B = 0 is the analytic boundary of the given pole phase in the coupling
    plane; B > 0 marks the zero-frequency instability region.
    """
    q = validate_params(replace(p, lambda1=lambda1, lambda2=lambda2))
    return float(_pole_indicators(phase, q)[1])


def omega_pm(phase: Phase, lambda1: float, lambda2: float, p: ModelParams) -> BoundaryRoots:
    """Cavity-frequency window of instability for a pole phase.

    The roots are -2L +/- sqrt(4L^2 - kappa^2) with L the signed combined
    coupling; one formula covers all four phases through L's sign pair.
    Roots are absent (None) when 4L^2 < kappa^2.
    """
    q = validate_params(replace(p, lambda1=lambda1, lambda2=lambda2))
    lam, _, w_minus, w_plus = _pole_indicators(phase, q)
    if np.isnan(w_plus):
        return BoundaryRoots(None, None, float(lam))
    return BoundaryRoots(float(w_minus), float(w_plus), float(lam))
