"""Parameter/state data model and the semiclassical equations of motion.

Two atomic species, each a collective spin of length n_i/2, couple to one
damped cavity mode. The state is eight real numbers in the fixed order
(a1, a2, J1x, J1y, J1z, J2x, J2y, J2z), where a1/a2 are the real and
imaginary cavity quadratures. Every module in the package shares this
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

STATE_LABELS = ("a1", "a2", "j1x", "j1y", "j1z", "j2x", "j2y", "j2z")


class Phase(Enum):
    """The four empty-cavity fixed-point families.

    The value is the spin-pole sign pair (s1, s2), with J_iz = s_i * n_i / 2:
    both spins down is the normal phase, both up the inverted phase, and the
    two up/down combinations are the mixed phases.
    """

    NORMAL = (-1, -1)
    INVERTED = (1, 1)
    MIXED1 = (-1, 1)
    MIXED2 = (1, -1)

    @property
    def signs(self) -> tuple[int, int]:
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Frequencies, rates, couplings and atom numbers of one model instance.

    The cavity decay rate kappa is the frequency unit; all other rates are
    expressed in units of it. Atom numbers are real-valued and positive,
    couplings are non-negative magnitudes.
    """

    omega1: float = 1.0
    omega2: float = 1.0
    omega_c: float = 1.0
    kappa: float = 1.0
    n1: float = 1.0
    n2: float = 1.0
    lambda1: float = 0.0
    lambda2: float = 0.0


@dataclass(frozen=True)
class DriveParams:
    """Transverse-pump drive data behind one effective coupling strength."""

    lambda0: float
    rabi: float
    omega_p: float
    omega_i: float


@dataclass(frozen=True)
class SystemState:
    """One point of the eight-dimensional phase space.

    j1 and j2 are the collective spin vectors (Jx, Jy, Jz) of the two
    species; they are stored read-only so states can be shared freely.
    States off the spin shells |j_i| = n_i/2 are allowed (the dynamics
    preserves whatever shell radius it is given).
    """

    a1: float
    a2: float
    j1: np.ndarray
    j2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("j1", "j2"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must have exactly three components")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))

    @classmethod
    def from_array(cls, y: np.ndarray) -> "SystemState":
        y = np.asarray(y, dtype=float)
        if y.shape != (8,):
            raise ValueError("state vector must have eight components")
        return cls(y[0], y[1], y[2:5], y[5:8])

    def to_array(self) -> np.ndarray:
        return np.concatenate(([self.a1, self.a2], self.j1, self.j2))


def validate_params(p: ModelParams) -> ModelParams:
    """Return p unchanged if all invariants hold, else raise ValueError.

    Every field must be finite. The first violated invariant (in field
    order) is reported by name.
    """
    for name in ("omega1", "omega2", "omega_c", "kappa"):
        v = getattr(p, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive (got {v})")
    for name in ("n1", "n2"):
        v = getattr(p, name)
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"atom number {name} must be positive (got {v})")
    for name in ("lambda1", "lambda2"):
        v = getattr(p, name)
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"coupling must be non-negative (got {name}={v})")
    return p


def coupling_from_pump(d: DriveParams) -> float:
    """Effective coupling lambda0 * rabi / (2 * (omega_p - omega_i))."""
    detuning = d.omega_p - d.omega_i
    if detuning == 0:
        raise ValueError("pump-atom detuning must be nonzero")
    return d.lambda0 * d.rabi / (2.0 * detuning)


def _as_array(s) -> np.ndarray:
    return s.to_array() if isinstance(s, SystemState) else np.asarray(s, dtype=float)


def eom_rhs(s, p: ModelParams) -> np.ndarray:
    """Time derivative of the eight state components.

    Real form of the mean-field equations of motion:

        da1/dt  = -kappa*a1 + omega_c*a2
        da2/dt  = -kappa*a2 - omega_c*a1 - (2*l1/sqrt(n1))*J1x - (2*l2/sqrt(n2))*J2x
        dJix/dt = -omega_i*Jiy
        dJiy/dt =  omega_i*Jix - (4*l_i/sqrt(n_i))*a1*Jiz
        dJiz/dt =  (4*l_i/sqrt(n_i))*a1*Jiy

    Accepts a SystemState or a raw 8-vector (the integrator uses the
    latter). Each spin's norm is an exact constant of this flow. The
    arithmetic runs on Python floats: the integrator calls this function
    once per stage, and numpy scalars would cost twice as much per call.
    """
    a1, a2, j1x, j1y, j1z, j2x, j2y, j2z = _as_array(s).tolist()
    c1 = 2.0 * p.lambda1 / math.sqrt(p.n1)
    c2 = 2.0 * p.lambda2 / math.sqrt(p.n2)
    g1 = 2.0 * c1
    g2 = 2.0 * c2
    return np.array(
        [
            -p.kappa * a1 + p.omega_c * a2,
            -p.kappa * a2 - p.omega_c * a1 - c1 * j1x - c2 * j2x,
            -p.omega1 * j1y,
            p.omega1 * j1x - g1 * a1 * j1z,
            g1 * a1 * j1y,
            -p.omega2 * j2y,
            p.omega2 * j2x - g2 * a1 * j2z,
            g2 * a1 * j2y,
        ]
    )


def spin_norm_residual(s, p: ModelParams) -> tuple[float, float]:
    """Algebraic shell residuals (|j1|^2 - (n1/2)^2, |j2|^2 - (n2/2)^2)."""
    y = _as_array(s)
    r1 = float(y[2] ** 2 + y[3] ** 2 + y[4] ** 2 - (p.n1 / 2.0) ** 2)
    r2 = float(y[5] ** 2 + y[6] ** 2 + y[7] ** 2 - (p.n2 / 2.0) ** 2)
    return r1, r2


def trivial_fixed_point(phase: Phase, p: ModelParams) -> SystemState:
    """Empty-cavity pole state of the given phase; an exact zero of eom_rhs."""
    s1, s2 = phase.signs
    return SystemState(0.0, 0.0, (0.0, 0.0, s1 * p.n1 / 2.0), (0.0, 0.0, s2 * p.n2 / 2.0))


def lambda_combined(p: ModelParams, phase: Phase) -> float | np.ndarray:
    """Signed combined coupling s1*l1^2/omega1 + s2*l2^2/omega2.

    This single scalar drives both the zero-eigenvalue boundary and the
    frequency-window roots of the pole fixed points. The couplings of p may
    be arrays, in which case the result is their elementwise broadcast.
    Squares are products (x*x, correctly rounded), never pow().
    """
    s1, s2 = phase.signs
    return s1 * (p.lambda1 * p.lambda1) / p.omega1 + s2 * (p.lambda2 * p.lambda2) / p.omega2
