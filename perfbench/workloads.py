"""Seeded inputs for the four workloads; pure data, no program calls.

Every generator is a function of (workload, seed) alone, so the same seed
gives the same inputs on any commit. A run works through "rounds": each
round is one fixed mix of requests (four phase scans, eight parameter
points, or one CLI session), and rounds differ only in the drawn values.
"""

from __future__ import annotations

import zlib

import numpy as np

from oracles import pole_growth

#: Rounds generated per run; a run that gets through more repeats them.
ROUNDS = 64
PHASES = ("normal", "inverted", "mixed1", "mixed2")

#: The four Newton seeds (theta1, theta2, a1) `dicke2 fixed-points` starts from.
NEWTON_SEEDS = ((1.2, 1.2, 0.3), (1.2, 1.2, -0.3), (1.2, 0.2, 0.3), (0.2, 1.2, 0.3))
#: Settle horizon and sampling of the `states` workload, in units of 1/kappa.
SETTLE_T_FINAL = 300.0
SETTLE_SAMPLE = 1.0
PERTURB = 1e-3
#: Number of `--version` calls per CLI session (start-up repeats).
CLI_VERSION_CALLS = 4
CLI_SIM_T_FINAL = 200.0


def rng_for(workload: str, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), *extra])


def _unit_params(rng, size=None) -> dict:
    """kappa and omega_c within about +-25 % of 1."""
    return {"kappa": rng.uniform(0.75, 1.25, size), "omega_c": rng.uniform(0.75, 1.25, size)}


def scan_rounds(workload: str, seed: int) -> dict:
    """Model parameters for each phase scan of each round.

    Every phase gets its own draw: the count of refined cells is an
    erratic function of the parameters, and independent draws per phase
    average it over more samples per round.
    """
    rng = rng_for(workload, seed)
    rounds = []
    for _ in range(ROUNDS):
        per_phase = {}
        for phase in PHASES:
            base = {k: float(v) for k, v in _unit_params(rng).items()}
            w1 = float(rng.uniform(0.75, 1.25))
            if workload == "scan_equal_freq":
                w2 = w1
            else:
                w2 = w1 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.35))
            per_phase[phase] = {**base, "omega1": w1, "omega2": w2}
        rounds.append(per_phase)
    if workload == "scan_equal_freq":
        grid = {"l1_count": 61, "l2_count": 61}
    else:
        # On the default window the 101-point grid has lines at 0.015, where
        # the nearly decoupled species' spin mode damps at ~1e-6: inside the
        # 30-digit refinement band, so about 20 cells a round (0 to 70) would
        # be refined. Starting at 0.05 keeps every mode 3x outside the band.
        grid = {"l1_min": 0.05, "l1_count": 101, "l2_min": 0.05, "l2_count": 101}
    return {"grid": grid, "rounds": rounds}


def _point(kind: str, phase: str, perturb: tuple[int, ...], **params) -> dict:
    return {
        "kind": kind,
        "phase": phase,
        "perturb": perturb,
        "params": {k: float(v) for k, v in params.items()},
    }


def _inside_ellipse(rng, w1, w2, beta, lo, hi) -> tuple[float, float]:
    """Couplings at a fraction in [lo, hi] of the normal-phase threshold."""
    f = rng.uniform(lo, hi)
    th = rng.uniform(0.3, 1.27)
    return np.sqrt(f * w1 * beta) * np.cos(th), np.sqrt(f * w2 * beta) * np.sin(th)


def _stable_detuned(rng, count: int) -> list[dict]:
    """Sub-critical normal poles with w1 != w2 decaying at rate >= 0.08.

    The rate bound makes a 1e-3 kick relax below the settle threshold well
    before t_final. About one candidate in sixteen passes the closed-form
    filter, so candidates are drawn in batches.
    """
    points = []
    while len(points) < count:
        n = 4096
        w1 = rng.uniform(0.75, 1.25, n)
        w2 = w1 + rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 0.35, n)
        up = _unit_params(rng, n)
        beta = (up["kappa"] ** 2 + up["omega_c"] ** 2) / (4.0 * up["omega_c"])
        l1, l2 = _inside_ellipse(rng, w1, w2, beta, 0.3, 0.9)
        g = pole_growth(-1, -1, l1, l2, w1, w2, up["kappa"], up["omega_c"])
        for i in np.flatnonzero(g <= -0.08)[: count - len(points)]:
            points.append(
                _point(
                    "stable_detuned", "normal", (0, 2, 5),
                    omega1=w1[i], omega2=w2[i], kappa=up["kappa"][i], omega_c=up["omega_c"][i],
                    lambda1=l1[i], lambda2=l2[i],
                )
            )
    return points


def states_rounds(seed: int) -> dict:
    """Eight parameter points per round, two of each kind.

    - stable_detuned: relaxes early (strictly stable, w1 != w2).
    - mixed1_partial: the README's partial-superradiance settle, jittered;
      most settle near t = 200-300, some run to t_final.
    - marginal_equal: w1 = w2 below threshold; the antisymmetric spin mode
      is kicked and precesses undamped, so it never settles.
    - superradiant_equal: w1 = w2 far above threshold; the dark mode keeps
      the state oscillating, so it never settles.
    """
    rng = rng_for("states", seed)
    stable = iter(_stable_detuned(rng, 2 * ROUNDS))
    rounds = []
    for _ in range(ROUNDS):
        pts = []
        for _ in range(2):
            pts.append(next(stable))
            pts.append(
                _point(
                    "mixed1_partial", "mixed1", (5,),
                    omega1=rng.uniform(0.9, 1.1), omega2=rng.uniform(0.9, 1.1),
                    lambda1=0.0, lambda2=rng.uniform(0.95, 1.1),
                )
            )
            for kind, lo, hi, kick in (
                ("marginal_equal", 0.3, 0.9, (0, 2)),
                ("superradiant_equal", 2.0, 3.0, (0, 2, 5)),
            ):
                w = rng.uniform(0.75, 1.25)
                up = _unit_params(rng)
                beta = (up["kappa"] ** 2 + up["omega_c"] ** 2) / (4.0 * up["omega_c"])
                l1, l2 = _inside_ellipse(rng, w, w, beta, lo, hi)
                pts.append(_point(kind, "normal", kick, omega1=w, omega2=w, lambda1=l1, lambda2=l2, **up))
        rounds.append(pts)
    return {"rounds": rounds}


def cli_rounds(seed: int) -> dict:
    """One README command session per round, with jittered parameters.

    Each entry is (label, argv, output file or None, output kind, expect).
    """
    rng = rng_for("cli_session", seed)
    rounds = []
    for _ in range(ROUNDS):
        wc = float(rng.uniform(0.8, 1.2))
        l1s, l2s = (float(v) for v in rng.uniform(0.2, 0.8, 2))
        l2fp = float(rng.uniform(0.8, 1.2))
        l2sim = float(rng.uniform(0.95, 1.1))
        session = [
            ("stability", ["stability", "--phase", "normal", "--lambda1", repr(l1s), "--lambda2", repr(l2s)],
             None, "stability", {"params": {"lambda1": l1s, "lambda2": l2s}, "signs": (-1, -1)}),
            ("fixed-points", ["fixed-points", "--lambda1", "0", "--lambda2", repr(l2fp)],
             None, "fixed-points", {"params": {"lambda1": 0.0, "lambda2": l2fp}}),
            ("fixed-points", ["fixed-points", "--lambda1", "1.4", "--lambda2", "0.5", "--omega2", "0.6"],
             None, "fixed-points", {"params": {"lambda1": 1.4, "lambda2": 0.5, "omega2": 0.6}}),
            ("simulate", ["simulate", "--phase", "mixed1", "--lambda2", repr(l2sim), "--perturb", "1e-3",
                          "--t-final", repr(CLI_SIM_T_FINAL), "--out", "settle.csv"],
             "settle.csv", "simulate", {"params": {"lambda2": l2sim}, "rows": 2001}),
            ("scan", ["scan", "--phase", "normal", "--omega-c", repr(wc), "--out", "scan.csv"],
             "scan.csv", "scan-csv", {"params": {"omega_c": wc}, "phase": "normal", "rows": 61 * 61}),
            ("scan", ["scan", "--phase", "mixed1", "--format", "matrix", "--value", "omega_plus",
                      "--out", "contours.dat"],
             "contours.dat", "scan-matrix", {"params": {}, "rows": 61, "cols": 61}),
            ("scan", ["scan", "--phase", "inverted", "--format", "json", "--out", "scan.json"],
             "scan.json", "scan-json", {"params": {}, "rows": 61 * 61}),
            ("boundary", ["boundary", "--phase", "normal", "--omega-c", repr(wc), "--samples", "101",
                          "--out", "boundary.csv"],
             "boundary.csv", "boundary", {"params": {"omega_c": wc}, "rows": 101}),
        ]
        session += [("version", ["--version"], None, "version", {"params": {}})] * CLI_VERSION_CALLS
        rounds.append(session)
    return {"rounds": rounds}


def generate(workload: str, seed: int) -> dict:
    if workload in ("scan_equal_freq", "scan_detuned"):
        return scan_rounds(workload, seed)
    if workload == "states":
        return states_rounds(seed)
    if workload == "cli_session":
        return cli_rounds(seed)
    raise ValueError(f"unknown workload {workload!r}")
