"""Steady states: superradiant branches, critical couplings, partial superradiance.

Setting the RHS to zero forces Jiy = 0 and a2 = kappa*a1/omega_c, which
leaves three equations in three unknowns once each spin is written in
shell-respecting polar form Jix = (n_i/2) sin(theta_i),
Jiz = -(n_i/2) cos(theta_i). superradiant_states solves them in closed form
up to one bracketed scalar root; the seeded Newton solver is its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Phase, SystemState, eom_rhs
from .stability import _boundary_radicand

NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-12
_MAX_HALVINGS = 40


class NewtonError(RuntimeError):
    """Newton iteration failed; carries the last iterate (a1, theta1, theta2)."""

    def __init__(self, message: str, last_iterate: np.ndarray):
        super().__init__(message)
        self.last_iterate = np.asarray(last_iterate, dtype=float)


@dataclass(frozen=True)
class FixedPointSolution:
    state: SystemState
    residual_norm: float
    newton_iterations: int


def _polar_state(u: np.ndarray, p: ModelParams) -> SystemState:
    a1, th1, th2 = u
    a2 = p.kappa * a1 / p.omega_c
    j1 = (p.n1 / 2.0 * np.sin(th1), 0.0, -p.n1 / 2.0 * np.cos(th1))
    j2 = (p.n2 / 2.0 * np.sin(th2), 0.0, -p.n2 / 2.0 * np.cos(th2))
    return SystemState(a1, a2, j1, j2)


def _reduced_system(u, p: ModelParams) -> tuple[list[float], list[list[float]]]:
    """Cavity and spin-x residuals at u = (a1, theta1, theta2), and their exact Jacobian."""
    a1, th1, th2 = (float(x) for x in u)
    c1, c2 = 2.0 * p.lambda1 / math.sqrt(p.n1), 2.0 * p.lambda2 / math.sqrt(p.n2)
    k = (p.kappa**2 + p.omega_c**2) / p.omega_c
    h1, h2 = p.n1 / 2.0, p.n2 / 2.0
    s1, k1, s2, k2 = math.sin(th1), math.cos(th1), math.sin(th2), math.cos(th2)
    r = [
        k * a1 + c1 * h1 * s1 + c2 * h2 * s2,
        h1 * (p.omega1 * s1 + 2.0 * c1 * a1 * k1),
        h2 * (p.omega2 * s2 + 2.0 * c2 * a1 * k2),
    ]
    jac = [
        [k, c1 * h1 * k1, c2 * h2 * k2],
        [2.0 * h1 * c1 * k1, h1 * (p.omega1 * k1 - 2.0 * c1 * a1 * s1), 0.0],
        [2.0 * h2 * c2 * k2, 0.0, h2 * (p.omega2 * k2 - 2.0 * c2 * a1 * s2)],
    ]
    return r, jac


def solve_superradiant(
    p: ModelParams, init: tuple[float, float, float] = (0.5, 0.5, 0.1)
) -> FixedPointSolution:
    """Damped Newton solve, with the exact Jacobian, for a fixed point in polar spin coordinates.

    init is (theta1, theta2, a1_seed), three finite numbers. Which branch is
    found depends on the seed; superradiant_states enumerates all of them.
    The iterate may also land on a pole state (a1 = 0); |state.a1| tells the
    two apart. Iterates until the reduced residual is below NEWTON_TOL, for
    at most NEWTON_MAX_ITER steps.
    """
    if p.lambda1 == 0 and p.lambda2 == 0:
        raise ValueError("at least one coupling must be nonzero")
    th1, th2, a1 = init
    u = np.array([a1, th1, th2], dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError(f"Newton seed must be three finite numbers (got {tuple(init)})")
    r, jac = _reduced_system(u, p)
    rnorm = max(map(abs, r))
    iterations = 0
    while not rnorm < NEWTON_TOL:  # NaN fails this test too
        if iterations >= NEWTON_MAX_ITER:
            raise NewtonError(
                f"no convergence after {NEWTON_MAX_ITER} iterations (residual {rnorm:.3e})", u
            )
        try:
            step = np.linalg.solve(jac, [-x for x in r])
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Newton matrix: {exc}", u) from exc
        # Damp by halving until the residual norm stops increasing.
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            u_new = u + scale * step
            r_new, jac_new = _reduced_system(u_new, p)
            if (rnorm_new := max(map(abs, r_new))) <= rnorm:
                break
            scale *= 0.5
        else:
            raise NewtonError(f"damping stalled at residual {rnorm:.3e}", u)
        u, r, jac, rnorm = u_new, r_new, jac_new, rnorm_new
        iterations += 1
    state = _polar_state(u, p)
    full_res = float(np.max(np.abs(eom_rhs(state, p))))
    if not full_res < 1e-10:
        raise NewtonError(f"converged iterate fails the full residual bound ({full_res:.3e})", u)
    return FixedPointSolution(state=state, residual_norm=full_res, newton_iterations=iterations)


def superradiant_states(p: ModelParams) -> list[SystemState]:
    """Every fixed point with a1 != 0, as mirror pairs +a1, -a1.

    A branch carries the Phase signs s_i = sign(Jiz) of the pole it leaves.
    With u = a1^2 and x_i = sqrt(omega_i^2 + 16*lambda_i^2*u/n_i), the spin-x
    equations give (Jix, Jiz) = s_i*(n_i/2)*(4*lambda_i*a1/sqrt(n_i), omega_i)/x_i
    and the cavity one G(u) = -sum_i s_i*4*lambda_i^2/x_i = K = (kappa^2 + omega_c^2)/omega_c;
    G(0) - K is B/omega_c of the pole with the same signs. G is monotone for
    normal, negative for inverted and has at most one extremum for the mixed
    signs, so bisection on monotone brackets finds every root.
    Order: normal, mixed1, mixed2, then u ascending.
    """
    k = (p.kappa * p.kappa + p.omega_c * p.omega_c) / p.omega_c
    omega = (p.omega1, p.omega2)
    amp = (4.0 * p.lambda1 * p.lambda1, 4.0 * p.lambda2 * p.lambda2)
    slope = (16.0 * p.lambda1 * p.lambda1 / p.n1, 16.0 * p.lambda2 * p.lambda2 / p.n2)
    # G < K beyond u = (sum_i lambda_i*sqrt(n_i)/K)^2; at 4x that G <= K/2, past rounding.
    reach = 2.0 * (p.lambda1 * math.sqrt(p.n1) + p.lambda2 * math.sqrt(p.n2)) / k
    states = []
    for pole in (Phase.NORMAL, Phase.MIXED1, Phase.MIXED2):

        def excess(u: float) -> float:
            terms = zip(pole.signs, amp, omega, slope)
            return sum(-s * a / math.sqrt(w * w + v * u) for s, a, w, v in terms) - k

        cuts = [0.0, reach * reach]
        if pole is not Phase.NORMAL and amp[0] > 0 and amp[1] > 0:
            # G' = 0 where (x1/x2)^3 = amp1*slope1 / (amp2*slope2).
            rho = (amp[0] * slope[0] / (amp[1] * slope[1])) ** (2.0 / 3.0)
            den = slope[0] - rho * slope[1]
            u_turn = (rho * omega[1] * omega[1] - omega[0] * omega[0]) / den if den else 0.0
            if 0.0 < u_turn < cuts[1]:
                cuts.insert(1, u_turn)
        for lo, hi in zip(cuts, cuts[1:]):
            f_lo, f_hi = excess(lo), excess(hi)
            if f_lo == 0 or (f_hi != 0 and (f_hi < 0) == (f_lo < 0)):
                continue
            # Keep f(lo) on f_lo's side and f(hi) zero or across until they are adjacent.
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                f_mid = excess(mid)
                lo, hi = (mid, hi) if f_mid != 0 and (f_mid < 0) == (f_lo < 0) else (lo, mid)
            states += [_hemisphere_state(a, pole.signs, p) for a in (math.sqrt(hi), -math.sqrt(hi))]
    return states


def _hemisphere_state(a1: float, signs: tuple[int, int], p: ModelParams) -> SystemState:
    spins = []
    for s, lam, w, n in zip(signs, (p.lambda1, p.lambda2), (p.omega1, p.omega2), (p.n1, p.n2)):
        b = 4.0 * lam / math.sqrt(n) * a1
        x = math.hypot(w, b)
        # + 0.0 keeps an uncoupled species' Jx from printing as -0.0.
        spins.append((s * n * b / (2.0 * x) + 0.0, 0.0, s * n * w / (2.0 * x)))
    return SystemState(a1, p.kappa * a1 / p.omega_c, *spins)


def _superradiant_label(state: SystemState) -> str:
    tag = lambda x: "+" if x >= 0 else "-"
    return f"superradiant a1{tag(state.a1)} j1z{tag(state.j1[2])} j2z{tag(state.j2[2])}"


def critical_lambda(
    phase: Phase, species: int, other_lambda: float, p: ModelParams
) -> float | None:
    """Critical coupling of one species along the zero-eigenvalue boundary.

    Solves B = 0 (see stability.pole_indicators) for the chosen species'
    coupling with the other held at other_lambda, and returns its
    non-negative magnitude. None means no boundary exists along that axis
    (negative radicand) -- absence is a value, not an error. other_lambda
    must be finite and non-negative.
    """
    if species not in (1, 2):
        raise ValueError("species must be 1 or 2")
    if not (math.isfinite(other_lambda) and other_lambda >= 0):
        raise ValueError(f"coupling must be non-negative (got other_lambda={other_lambda})")
    return _critical(phase.signs, species, other_lambda, p)


def _critical(signs: tuple, species: int, other: float, p: ModelParams) -> float | None:
    """Square root of stability._boundary_radicand, or None where it is negative."""
    radicand = _boundary_radicand(signs, species, other, p)
    # On the knife edge the two terms cancel to a few ulps of either sign;
    # treat those as the radicand hitting zero rather than as absence. The
    # radicand with species i south and the other north bounds both terms.
    south = Phase.MIXED1 if species == 1 else Phase.MIXED2
    if radicand < -1e-12 * _boundary_radicand(south.signs, species, other, p):
        return None
    return math.sqrt(max(radicand, 0.0))


def partial_superradiant_jz(p: ModelParams) -> float | None:
    """Jz of species 2 when it is superradiant and species 1 is pinned at its south pole.

    Returns -n2*omega2*(kappa^2+omega_c^2) / (8*lambda2^2*omega_c), or None
    when that value leaves the spin shell (the partial-superradiant branch
    does not exist below threshold).
    """
    if p.lambda2 <= 0:
        raise ValueError("species 2 must have a positive coupling")
    jz = -p.n2 * p.omega2 * (p.kappa**2 + p.omega_c**2) / (8.0 * p.lambda2**2 * p.omega_c)
    if abs(jz) > p.n2 / 2.0:
        return None
    return float(jz)


def critical_lambda1_given_j2z(p: ModelParams, j2z: float) -> float | None:
    """Species-1 critical coupling generalized to an arbitrary species-2 Jz.

    Evaluates sqrt(omega1*(kappa^2+omega_c^2)/(4*omega_c)
    + 2*lambda2^2*omega1*j2z/(n2*omega2)), critical_lambda with species 2's
    sign replaced by 2*j2z/n2; None when the radicand is negative. At
    j2z = -n2/2 this is the normal-phase critical coupling and at +n2/2 the
    mixed1 one, and at the partial-superradiant j2z the radicand cancels to
    zero: the species-1 threshold vanishes once species 2 is superradiant.
    j2z must lie on species 2's spin shell, |j2z| <= n2/2.
    """
    if not abs(j2z) <= p.n2 / 2.0:  # NaN fails too
        raise ValueError(f"j2z must satisfy |j2z| <= n2/2 = {p.n2 / 2.0} (got {j2z})")
    return _critical((-1, 2 * j2z / p.n2), 1, p.lambda2, p)
