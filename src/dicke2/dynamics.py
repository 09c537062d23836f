"""Time integration with conservation monitoring and settling detection."""

from __future__ import annotations

import math
import warnings
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
    |r_i| / (n_i/2)^2, one column per species; nfev and steps count the
    integrator's right-hand-side evaluations and accepted steps.
    """

    times: np.ndarray
    states: np.ndarray
    drift: np.ndarray
    nfev: int = 0
    steps: int = 0

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> SystemState:
        return SystemState.from_array(self.states[i])


@dataclass(frozen=True)
class SettleResult:
    """Outcome of settle; nfev and steps are 0 when the initial state already settled."""

    converged: bool
    final_state: SystemState
    residual_norm: float
    elapsed_time: float
    nfev: int = 0
    steps: int = 0


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


def _samples(s0, p: ModelParams, cfg: IntegratorConfig, times: np.ndarray):
    """Yield (state, nfev, steps so far) at each sample time, starting with s0.

    Each later sample is one run of SciPy's compiled dop853 from the one
    before, so no sample depends on where a caller stops. An exception in
    the RHS (Ctrl-C included) is stored and NaNs returned, which make the
    Fortran loop reject steps until it gives up; it is then re-raised.
    """
    y = s0.to_array() if isinstance(s0, SystemState) else np.asarray(s0, dtype=float)
    if y.shape != (8,) or not np.all(np.isfinite(y)):
        raise ValueError(f"initial state must be 8 finite numbers (got {y.tolist()})")
    yield y, 0, 0
    # Imported here: it dominates start-up, and only integrating calls need it.
    from scipy.integrate import ode

    counts = [0, 0]  # RHS evaluations; solout calls, one per accepted step and per run
    error: list[BaseException] = []

    def rhs(t, y):
        if not error:
            counts[0] += 1
            try:
                return eom_rhs(y, p)
            except BaseException as exc:
                # A Ctrl-C at a callback's entry escapes every try; the next
                # callback then fails with a SystemError caused by it.
                while isinstance(exc, SystemError) and exc.__cause__ is not None:
                    exc = exc.__cause__
                error.append(exc)
        return np.full(8, np.nan)

    def solout(t, y):
        counts[1] += 1

    max_step = 0.0 if math.isinf(cfg.max_step) else cfg.max_step  # 0 means no cap
    solver = ode(rhs).set_integrator(
        "dop853", rtol=cfg.rel_tol, atol=cfg.abs_tol, nsteps=2**31 - 1, max_step=max_step
    )
    solver.set_solout(solout)
    solver.set_initial_value(y, times[0])
    for k, t in enumerate(times[1:], start=1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            y = solver.integrate(t)
        if error:
            raise error[0]
        if solver.get_return_code() < 0:
            t_fail = float(solver.t)
            msg = f"integration failed at t={t_fail}: dop853 code {solver.get_return_code()}"
            raise IntegrationError(msg, t_fail)
        yield y, counts[0], counts[1] - k


def integrate(s0, p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the equations of motion and sample at a fixed cadence.

    Uses an explicit adaptive Runge-Kutta scheme (DOP853) with embedded
    error control. The spin-norm invariants are not enforced; their drift
    is recorded per sample as a free integration-quality meter.
    """
    validate_params(p)
    validate_config(cfg)
    times = _sample_times(cfg)
    samples = list(_samples(s0, p, cfg, times))
    states = np.array([y for y, _, _ in samples])
    _, nfev, steps = samples[-1]
    drift = _running_drift(states, p)
    return Trajectory(times=times, states=states, drift=drift, nfev=nfev, steps=steps)


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

    Convergence is checked at t=0 and then at every sample of `integrate`,
    stopping at the first one under the threshold. Reaching t_final without
    meeting it is a normal outcome (undamped precession never settles) and
    is reported, not raised.
    """
    validate_params(p)
    validate_config(cfg)
    times = _sample_times(cfg)
    for k, (y, nfev, steps) in enumerate(_samples(s0, p, cfg, times)):
        r = float(np.max(np.abs(eom_rhs(y, p))))
        if r < threshold:
            break
    return SettleResult(r < threshold, SystemState.from_array(y), r, float(times[k]), nfev, steps)


def drift_report(t: Trajectory) -> tuple[float, float]:
    """Max relative conservation drift per species over the trajectory."""
    if len(t) == 0:
        raise ValueError("trajectory is empty")
    return float(t.drift[-1, 0]), float(t.drift[-1, 1])
