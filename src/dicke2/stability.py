"""Linearization around fixed points and eigenvalue classification.

The spin norms |j1| and |j2| are conserved, so at any fixed point the
gradient of each is a left null vector of the 8x8 Jacobian J, and the
states tangent to both spin shells form a J-invariant subspace. The
spectrum is taken of J restricted to that 6-dimensional subspace: the two
conservation-law zeros ("structural zeros") are left out by construction,
not picked out by tolerance. This keeps the linearization valid at
superradiant (non-pole) fixed points as well. mpmath is imported on the
first 30-digit refinement, so a run that refines no spectrum never loads it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams, Phase, _as_array, eom_rhs, lambda_combined

#: Growth rates within this of zero classify as Marginal.
MARGINAL_TOL = 1e-8
#: Residual bound a state must meet to count as a fixed point.
FIXED_POINT_TOL = 1e-8
# Tangent-space eigenvalues whose |Re| falls in this band are too close to
# the marginal tolerance to trust double-precision QR (defective marginal
# pairs split by ~sqrt(eps)); the reduced 6x6 spectrum is then recomputed at
# 30 digits.
_REFINE_BAND = (1e-11, 1e-6)
_REFINE_DPS = 30


class Classification(Enum):
    STABLE = "Stable"
    MARGINAL = "Marginal"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class StabilityReport:
    """Spectrum of the linearization at a fixed point plus its verdict.

    eigenvalues holds the six eigenvalues of the Jacobian restricted to the
    tangent space of the two spin shells, followed by the two exact
    conservation-law zeros, eight in all. max_growth_rate is the largest
    real part of the six; classification is Marginal when its magnitude is
    below MARGINAL_TOL, otherwise Stable/Unstable by sign.
    """

    eigenvalues: np.ndarray
    max_growth_rate: float
    classification: Classification


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


def jacobian_fd(s, p: ModelParams) -> np.ndarray:
    """Central-difference Jacobian of eom_rhs (step 1e-6); verification oracle."""
    h = 1e-6
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


def __getattr__(name: str):
    """Import mpmath on the first read of `stability.mpmath`; it is a global from then on."""
    if name != "mpmath":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global mpmath
    import mpmath
    return mpmath


def _eigenvalues_refined(m: np.ndarray) -> np.ndarray:
    """Spectrum of a reduced 6x6 matrix recomputed in 30-digit arithmetic.

    Slow. At a pole the reduced matrix is J's submatrix without the j1z and
    j2z rows and columns, so its entries are the exact inputs. workdps sets
    mpmath's process-global precision only for this call and restores it
    afterwards; the package runs no threads that could share it. Reading
    mpmath as a module attribute imports it, or calls what is bound there.
    """
    mp = sys.modules[__name__].mpmath
    with mp.workdps(_REFINE_DPS):
        ev = mp.eig(mp.matrix(m.tolist()), left=False, right=False)
    return np.array([complex(e) for e in ev])


def _tangent_basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis (..., 8, 6) of the states tangent to both spin shells.

    Columns: the cavity plane, then for each species the first two columns
    of the Householder reflection that maps j_i onto the z axis. At a pole
    these are coordinate vectors, so T^T J T is exactly J without the j1z
    and j2z rows and columns. Raises ValueError when a spin vector is zero,
    since its tangent plane is undefined.
    """
    y = np.asarray(y, dtype=float)
    t = np.zeros(y.shape[:-1] + (8, 6))
    t[..., 0, 0] = t[..., 1, 1] = 1.0
    for species, row, col in ((1, 2, 2), (2, 5, 4)):
        j = y[..., row : row + 3]
        norm = np.sqrt(np.sum(j * j, axis=-1, keepdims=True))
        if np.any(norm == 0.0):
            raise ValueError(f"spin vector j{species} is zero: its tangent plane is undefined")
        ux, uy, uz = np.moveaxis(j / norm, -1, 0)
        # Reflect along u + sign(uz)*e_z, which never cancels.
        sign = np.where(uz < 0.0, -1.0, 1.0)
        d = 1.0 + np.abs(uz)
        t[..., row : row + 3, col] = np.stack([1.0 - ux * ux / d, -ux * uy / d, -sign * ux], -1)
        t[..., row : row + 3, col + 1] = np.stack([-ux * uy / d, 1.0 - uy * uy / d, -sign * uy], -1)
    return t


def _spectra(y: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify a stack of Jacobians (n, 8, 8) on the tangent space at y.

    y is one state (8,) shared by the whole stack or one state per matrix
    (n, 8). Each Jacobian is projected onto the spin-shell tangent space,
    T^T J T, and the 6x6 stack goes to one batched eig call. Returns the
    eigenvalues (n, 6), the growth rate (largest real part) per matrix, and
    a flag per matrix telling whether its spectrum was recomputed in
    30-digit arithmetic.
    """
    t = _tangent_basis(y)
    reduced = np.swapaxes(t, -1, -2) @ jac @ t
    eigs = eigenvalues(reduced).astype(complex)
    rate = np.abs(eigs.real)
    lo, hi = _REFINE_BAND
    refined = np.any((lo < rate) & (rate < hi), axis=-1)
    for k in np.flatnonzero(refined):
        eigs[k] = _eigenvalues_refined(reduced[k])
    return eigs, np.max(eigs.real, axis=-1), refined


def assess(fp, p: ModelParams) -> StabilityReport:
    """Eigen-decompose the tangent-space Jacobian at a fixed point and classify it.

    Raises if fp is not a fixed point (RHS max-norm above FIXED_POINT_TOL)
    or if either spin vector is zero.
    """
    y = _as_array(fp)
    if y.shape != (8,):
        raise ValueError(f"state must have 8 components (got shape {y.shape})")
    residual = float(np.max(np.abs(eom_rhs(y, p))))
    if not residual <= FIXED_POINT_TOL:  # a NaN residual fails too
        raise ValueError(
            f"state is not a fixed point: RHS max-norm {residual:.3e} exceeds {FIXED_POINT_TOL}"
        )
    eigs, growth, _ = _spectra(y[np.newaxis], jacobian(y, p)[np.newaxis])
    max_growth = float(growth[0])
    if abs(max_growth) < MARGINAL_TOL:
        verdict = Classification.MARGINAL
    elif max_growth > 0:
        verdict = Classification.UNSTABLE
    else:
        verdict = Classification.STABLE
    return StabilityReport(
        eigenvalues=np.concatenate([eigs[0], np.zeros(2, dtype=complex)]),
        max_growth_rate=max_growth,
        classification=verdict,
    )


def pole_indicators(phase: Phase, p: ModelParams) -> tuple:
    """Zero-frequency indicator B and window roots (omega_-, omega_+) of a pole phase.

    B = -4*omega_c*L - (kappa^2 + omega_c^2), with L the phase's signed
    combined coupling (lambda_combined). B = 0 is the pole's analytic
    boundary in the coupling plane, and B > 0 its zero-frequency instability
    region. The roots -2L -/+ sqrt(4L^2 - kappa^2) of w^2 + 4*L*w + kappa^2
    bound the cavity-frequency window: the pole is unstable against
    zero-frequency fluctuations exactly when omega_c lies between them.
    The couplings of p may be arrays; every result broadcasts over them.
    Both roots are NaN where 4L^2 < kappa^2 (no real window).
    """
    lam = lambda_combined(p, phase)
    b = -4.0 * p.omega_c * lam - (p.kappa**2 + p.omega_c**2)
    disc = 4.0 * (lam * lam) - p.kappa**2
    root = np.sqrt(np.where(disc < 0, np.nan, disc))
    return b, -2.0 * lam - root, -2.0 * lam + root


def _boundary_radicand(signs: tuple, species: int, other, p: ModelParams) -> float | np.ndarray:
    """lambda_species^2 on B = 0 with the other coupling held at other (broadcasts).

    B = 0 reads s1*l1^2/omega1 + s2*l2^2/omega2 = -(kappa^2 + omega_c^2)/(4*omega_c).
    The species' own sign is +-1; the other's may be any 2*Jz/n in [-1, 1].
    """
    si, so = signs if species == 1 else signs[::-1]
    wi, wo = (p.omega1, p.omega2) if species == 1 else (p.omega2, p.omega1)
    beta = (p.kappa**2 + p.omega_c**2) / (4.0 * p.omega_c)
    return wi * (-si * beta - si * so * (other * other) / wo)
