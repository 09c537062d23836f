"""Time integration with conservation monitoring and settling detection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, SystemState, eom_rhs, spin_norm_residual, validate_params

#: Default max-norm bound on the RHS below which a state counts as settled.
SETTLE_THRESHOLD = 1e-9


class IntegrationError(RuntimeError):
    """Integration failed (step-size underflow / stiffness).

    Carries the model time at which the integrator gave up.
    """

    def __init__(self, message: str, t_failed: float):
        super().__init__(message)
        self.t_failed = t_failed


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive Runge-Kutta settings; times are in units of 1/kappa."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    t_final: float = 100.0
    sample_interval: float = 0.1


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one integration.

    states holds one row per sample in the shared 8-component layout;
    drift holds the running maximum of the relative spin-norm residual
    |r_i| / (n_i/2)^2, one column per species; nfev counts the
    right-hand-side evaluations the integrator made.
    """

    times: np.ndarray
    states: np.ndarray
    drift: np.ndarray
    nfev: int = 0

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> SystemState:
        return SystemState.from_array(self.states[i])


@dataclass(frozen=True)
class SettleResult:
    """Outcome of settle; nfev is 0 when the initial state already settled."""

    converged: bool
    final_state: SystemState
    residual_norm: float
    elapsed_time: float
    nfev: int = 0


def validate_config(cfg: IntegratorConfig) -> IntegratorConfig:
    """Require positive, finite settings; max_step may be inf (no step cap)."""
    for name in ("rel_tol", "abs_tol", "max_step", "t_final", "sample_interval"):
        value = getattr(cfg, name)
        if not (value > 0 and (math.isfinite(value) or name == "max_step")):
            raise ValueError(f"{name} must be positive (got {value})")
    return cfg


def _sample_times(cfg: IntegratorConfig) -> np.ndarray:
    n = int(np.floor(cfg.t_final / cfg.sample_interval + 1e-9))
    times = cfg.sample_interval * np.arange(n + 1)
    if times[-1] < cfg.t_final - 1e-12 * cfg.t_final:
        times = np.append(times, cfg.t_final)
    else:
        times[-1] = cfg.t_final
    return times


def integrate(s0, p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the equations of motion and sample at a fixed cadence.

    Uses an explicit adaptive Runge-Kutta scheme (DOP853) with embedded
    error control. The spin-norm invariants are not enforced; their drift
    is recorded per sample as a free integration-quality meter.
    """
    validate_params(p)
    validate_config(cfg)
    # Imported here: it dominates start-up, and only integrating commands need it.
    from scipy.integrate import solve_ivp

    y0 = s0.to_array() if isinstance(s0, SystemState) else np.asarray(s0, dtype=float)
    times = _sample_times(cfg)
    sol = solve_ivp(
        lambda t, y: eom_rhs(y, p),
        (0.0, cfg.t_final),
        y0,
        method="DOP853",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        t_eval=times,
    )
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else 0.0
        raise IntegrationError(f"integration failed at t={t_fail}: {sol.message}", t_fail)
    states = sol.y.T
    drift = _running_drift(states, p)
    return Trajectory(times=sol.t, states=states, drift=drift, nfev=int(sol.nfev))


def _running_drift(states: np.ndarray, p: ModelParams) -> np.ndarray:
    shells = np.array([(p.n1 / 2.0) ** 2, (p.n2 / 2.0) ** 2])
    res = np.empty((len(states), 2))
    for i, y in enumerate(states):
        r1, r2 = spin_norm_residual(y, p)
        res[i] = (abs(r1), abs(r2))
    return np.maximum.accumulate(res / shells, axis=0)


def settle(
    s0,
    p: ModelParams,
    cfg: IntegratorConfig,
    threshold: float = SETTLE_THRESHOLD,
) -> SettleResult:
    """Integrate until the RHS max-norm drops below threshold, if ever.

    Convergence is checked at t=0 and then at every sample; reaching
    t_final without meeting the threshold is a normal outcome (undamped
    precession never settles) and is reported, not raised.
    """
    validate_params(p)
    validate_config(cfg)
    y0 = s0.to_array() if isinstance(s0, SystemState) else np.asarray(s0, dtype=float)
    r0 = float(np.max(np.abs(eom_rhs(y0, p))))
    if r0 < threshold:
        return SettleResult(True, SystemState.from_array(y0), r0, 0.0)
    traj = integrate(y0, p, cfg)
    for i in range(1, len(traj)):
        r = float(np.max(np.abs(eom_rhs(traj.states[i], p))))
        if r < threshold:
            return SettleResult(True, traj.state(i), r, float(traj.times[i]), traj.nfev)
    r_end = float(np.max(np.abs(eom_rhs(traj.states[-1], p))))
    return SettleResult(False, traj.state(-1), r_end, float(traj.times[-1]), traj.nfev)


def drift_report(t: Trajectory) -> tuple[float, float]:
    """Max relative conservation drift per species over the trajectory."""
    if len(t) == 0:
        raise ValueError("trajectory is empty")
    return float(t.drift[-1, 0]), float(t.drift[-1, 1])
