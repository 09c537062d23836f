"""Correctness oracles; every check returns a list of problems (empty = pass).

Closed forms are recomputed here in numpy rather than taken from the
program. Tolerances are set so that any correct implementation passes,
including closed-form or batched replacements that round differently; no
check demands identical bytes.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

#: Cells with |B| below this (relative to kappa^2 + omega_c^2) sit on the
#: analytic boundary; their verdict is not checked against B.
B_MARGIN = 1e-9
#: Cells whose closed-form growth rate lies within this of zero are
#: marginal; either verdict is accepted there.
GROWTH_MARGIN = 1e-6
#: Largest accepted difference between a reported and a closed-form
#: growth rate. Defective marginal pairs split by ~sqrt(eps) in double
#: precision, which this allows for.
GROWTH_TOL = 1e-6
#: Same, against the finite-difference Jacobian (its O(1e-10) entry
#: errors grow to O(1e-5) in eigenvalues near defective pairs).
FD_GROWTH_TOL = 1e-4
#: Relative tolerance on B and on the frequency-window roots.
CLOSED_FORM_RTOL = 1e-9
#: Residual a Newton solution must meet (the documented bound).
NEWTON_RESIDUAL = 1e-10
#: Residual a converged settle's final state must meet.
SETTLED_RESIDUAL = 1e-8
#: Relative change of a spin norm allowed over a converged settle.
NORM_RTOL = 1e-7


def rhs(y, p) -> np.ndarray:
    """Mean-field equations of motion, written out independently."""
    a1, a2, j1x, j1y, j1z, j2x, j2y, j2z = np.asarray(y, dtype=float)
    c1 = 2.0 * p.lambda1 / np.sqrt(p.n1)
    c2 = 2.0 * p.lambda2 / np.sqrt(p.n2)
    return np.array(
        [
            -p.kappa * a1 + p.omega_c * a2,
            -p.kappa * a2 - p.omega_c * a1 - c1 * j1x - c2 * j2x,
            -p.omega1 * j1y,
            p.omega1 * j1x - 2.0 * c1 * a1 * j1z,
            2.0 * c1 * a1 * j1y,
            -p.omega2 * j2y,
            p.omega2 * j2x - 2.0 * c2 * a1 * j2z,
            2.0 * c2 * a1 * j2y,
        ]
    )


def combined_coupling(s1, s2, l1, l2, w1, w2):
    return s1 * l1**2 / w1 + s2 * l2**2 / w2


def boundary_b(s1, s2, l1, l2, w1, w2, kappa, omega_c):
    """B = -4*omega_c*L - (kappa^2 + omega_c^2); B > 0 is zero-frequency unstable."""
    lam = combined_coupling(s1, s2, l1, l2, w1, w2)
    return -4.0 * omega_c * lam - (kappa**2 + omega_c**2)


def pole_growth(s1, s2, l1, l2, w1, w2, kappa, omega_c) -> np.ndarray:
    """Largest real part of the six non-conserved modes at a pole, batched.

    They are the roots of
    P(s) = [(s+k)^2 + wc^2](s^2 + w1^2)(s^2 + w2^2)
           + 4 wc [s1 l1^2 w1 (s^2 + w2^2) + s2 l2^2 w2 (s^2 + w1^2)],
    found as eigenvalues of stacked companion matrices. Arguments broadcast.
    """
    s1, s2, l1, l2, w1, w2, k, wc = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (s1, s2, l1, l2, w1, w2, kappa, omega_c))
    )
    a0 = k**2 + wc**2
    q1, q2 = w1**2, w2**2
    drive2 = 4.0 * wc * (s1 * l1**2 * w1 + s2 * l2**2 * w2)
    drive0 = 4.0 * wc * (s1 * l1**2 * w1 * q2 + s2 * l2**2 * w2 * q1)
    # Coefficients of s^5 .. s^0 of the monic degree-6 polynomial.
    coeffs = np.stack(
        [
            2.0 * k,
            a0 + q1 + q2,
            2.0 * k * (q1 + q2),
            a0 * (q1 + q2) + q1 * q2 + drive2,
            2.0 * k * q1 * q2,
            a0 * q1 * q2 + drive0,
        ],
        axis=-1,
    )
    shape = coeffs.shape[:-1]
    comp = np.zeros(shape + (6, 6))
    comp[..., 0, :] = -coeffs
    comp[..., np.arange(1, 6), np.arange(5)] = 1.0
    return np.linalg.eigvals(comp).real.max(axis=-1)


def fd_growth(jac_fd: np.ndarray) -> float:
    """Growth rate from a full 8x8 Jacobian, dropping the two smallest-|lambda| modes."""
    eigs = np.linalg.eigvals(jac_fd)
    keep = np.argsort(np.abs(eigs))[2:]
    return float(eigs[keep].real.max())


def _close(a, b, rtol):
    return abs(a - b) <= rtol * (1.0 + abs(b))


def check_scan(result, phase_signs, p, grid, probe_cells=()) -> list[str]:
    """Check one scan against closed forms.

    `probe_cells` holds (index, growth_from_fd) pairs for seeded cells whose
    growth rate was recomputed from the finite-difference Jacobian.
    """
    problems = []
    n1, n2 = grid.l1_count, grid.l2_count
    cells = result.cells
    if len(cells) != n1 * n2:
        return [f"scan has {len(cells)} cells, expected {n1 * n2}"]
    l1 = np.array([c.lambda1 for c in cells])
    l2 = np.array([c.lambda2 for c in cells])
    want1 = np.repeat(np.linspace(grid.l1_min, grid.l1_max, n1), n2)
    want2 = np.tile(np.linspace(grid.l2_min, grid.l2_max, n2), n1)
    if not (np.allclose(l1, want1, rtol=0, atol=1e-12) and np.allclose(l2, want2, rtol=0, atol=1e-12)):
        problems.append("cell coordinates are not the row-major grid")
    s1, s2 = phase_signs
    args = (s1, s2, l1, l2, p.omega1, p.omega2, p.kappa, p.omega_c)
    b_ref = boundary_b(*args)
    g_ref = pole_growth(*args)
    b_lib = np.array([c.boundary_b for c in cells])
    g_lib = np.array([c.max_growth_rate for c in cells])
    verdict = np.array([bool(c.superradiant) for c in cells])
    bad_b = np.abs(b_lib - b_ref) > CLOSED_FORM_RTOL * (1.0 + np.abs(b_ref))
    if bad_b.any():
        problems.append(f"{int(bad_b.sum())} cells: boundary_b differs from the closed form")
    bad_g = np.abs(g_lib - g_ref) > GROWTH_TOL * (1.0 + np.abs(g_ref))
    if bad_g.any():
        problems.append(f"{int(bad_g.sum())} cells: growth rate differs from the pole polynomial")
    b_scale = B_MARGIN * (p.kappa**2 + p.omega_c**2)
    must_sr = b_ref > b_scale
    if phase_signs == (-1, -1):
        # For the normal pole the zero-frequency mode is the only instability.
        wrong = (must_sr & ~verdict) | ((b_ref < -b_scale) & verdict)
    else:
        wrong = must_sr & ~verdict
    if wrong.any():
        problems.append(f"{int(wrong.sum())} cells: verdict disagrees with B > 0")
    decided = np.abs(g_ref) > GROWTH_MARGIN
    wrong = decided & (verdict != (g_ref > 0))
    if wrong.any():
        problems.append(f"{int(wrong.sum())} cells: verdict disagrees with the growth-rate sign")
    lam = combined_coupling(s1, s2, l1, l2, p.omega1, p.omega2)
    disc = 4.0 * lam**2 - p.kappa**2
    disc_band = CLOSED_FORM_RTOL * (4.0 * lam**2 + p.kappa**2)
    root = np.sqrt(np.maximum(disc, 0.0))
    nan = float("nan")
    w_plus = np.array([nan if c.omega_plus is None else c.omega_plus for c in cells])
    w_minus = np.array([nan if c.omega_minus is None else c.omega_minus for c in cells])
    real, absent = disc > disc_band, disc < -disc_band
    with np.errstate(invalid="ignore"):
        bad_roots = real & ~(
            (np.abs(w_plus - (-2.0 * lam + root)) <= CLOSED_FORM_RTOL * (1.0 + np.abs(-2.0 * lam + root)))
            & (np.abs(w_minus - (-2.0 * lam - root)) <= CLOSED_FORM_RTOL * (1.0 + np.abs(-2.0 * lam - root)))
        )
    bad_roots |= absent & ~(np.isnan(w_plus) & np.isnan(w_minus))
    if bad_roots.any():
        problems.append(f"{int(bad_roots.sum())} cells: omega_pm differs from the closed form")
    for idx, g_fd in probe_cells:
        if abs(g_lib[idx] - g_fd) > FD_GROWTH_TOL * (1.0 + abs(g_fd)):
            problems.append(
                f"cell {idx}: growth {g_lib[idx]!r} vs finite-difference spectrum {g_fd!r}"
            )
    return problems


def probe_indices(rng, phase_signs, p, l1, l2, count: int) -> list[int]:
    """Seeded cells for the finite-difference check, away from marginal ones."""
    s1, s2 = phase_signs
    g = pole_growth(s1, s2, l1, l2, p.omega1, p.omega2, p.kappa, p.omega_c)
    b = boundary_b(s1, s2, l1, l2, p.omega1, p.omega2, p.kappa, p.omega_c)
    eligible = np.flatnonzero((np.abs(g) > 1e-3) & (np.abs(b) > 1e-3))
    if len(eligible) == 0:
        return []
    return sorted(rng.choice(eligible, size=min(count, len(eligible)), replace=False).tolist())


def spin_norms(y) -> tuple[float, float]:
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(y[2:5])), float(np.linalg.norm(y[5:8]))


def check_point(p, y0, solutions, reports, settled, t_final: float) -> list[str]:
    """Check one analysed parameter point of the `states` workload."""
    problems = []
    for sol in solutions:
        res = float(np.max(np.abs(rhs(sol.state.to_array(), p))))
        if not res <= NEWTON_RESIDUAL:
            problems.append(f"Newton solution residual {res:.3e} above {NEWTON_RESIDUAL}")
    for rep in reports:
        if not np.isfinite(rep.max_growth_rate):
            problems.append("stability report has a non-finite growth rate")
    y_end = settled.final_state.to_array()
    if settled.converged:
        res = float(np.max(np.abs(rhs(y_end, p))))
        if not res <= SETTLED_RESIDUAL:
            problems.append(f"converged settle ends off a fixed point (residual {res:.3e})")
        for k, (n0, n1) in enumerate(zip(spin_norms(y0), spin_norms(y_end)), start=1):
            if abs(n1 - n0) > NORM_RTOL * n0:
                problems.append(f"spin {k} norm moved from {n0!r} to {n1!r} during settle")
        if not 0.0 <= settled.elapsed_time <= t_final:
            problems.append(f"settle time {settled.elapsed_time} outside [0, {t_final}]")
    elif abs(settled.elapsed_time - t_final) > 1e-9 * t_final:
        problems.append(f"unconverged settle stopped at t={settled.elapsed_time}, not {t_final}")
    return problems


def mirror_missing(solutions, tol: float = 1e-6) -> int:
    """Superradiant solutions whose Z2 mirror (a -> -a, jx -> -jx) was not found."""
    states = [s.state.to_array() for s in solutions]
    flip = np.array([-1, -1, -1, -1, 1, -1, -1, 1], dtype=float)
    missing = 0
    for y in states:
        if abs(y[0]) < 1e-8:
            continue
        if not any(np.max(np.abs(other - flip * y)) < tol for other in states):
            missing += 1
    return missing


def data_lines(text: str) -> list[str]:
    """Output with '#' metadata lines (and the trailing newline) removed."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def check_cli_output(kind: str, text: str, p, expect: dict) -> list[str]:
    """Check one CLI command's output: it parses and has the right shape."""
    lines = data_lines(text)
    try:
        if kind == "version":
            return [] if text.strip().startswith("dicke2 ") else [f"version output {text!r}"]
        if kind == "stability":
            payload = json.loads("\n".join(lines))
            problems = []
            if len(payload["eigenvalues"]) != 8:
                problems.append("stability JSON does not list eight eigenvalues")
            g = float(pole_growth(*expect["signs"], p.lambda1, p.lambda2, p.omega1, p.omega2, p.kappa, p.omega_c))
            if abs(payload["max_growth_rate"] - g) > GROWTH_TOL * (1.0 + abs(g)):
                problems.append(f"stability growth {payload['max_growth_rate']!r} vs closed form {g!r}")
            return problems
        if kind == "fixed-points":
            payload = json.loads("\n".join(lines))
            problems = []
            points = payload["fixed_points"]
            if len(points) < 4:
                problems.append(f"fixed-points lists {len(points)} states, fewer than the four poles")
            for fp in points:
                y = [fp["state"][k] for k in ("a1", "a2", "j1x", "j1y", "j1z", "j2x", "j2y", "j2z")]
                res = float(np.max(np.abs(rhs(y, p))))
                if not res <= NEWTON_RESIDUAL:
                    problems.append(f"fixed point {fp['branch']} has residual {res:.3e}")
            return problems
        if kind == "simulate":
            rows = list(csv.reader(io.StringIO("\n".join(lines))))
            header, body = rows[0], rows[1:]
            problems = []
            if len(header) != 10 or len(body) != expect["rows"]:
                problems.append(f"simulate CSV is {len(body)}x{len(header)}, expected {expect['rows']}x10")
            if not np.all(np.isfinite(np.array(body, dtype=float))):
                problems.append("simulate CSV holds non-finite values")
            return problems
        if kind == "scan-csv":
            rows = list(csv.reader(io.StringIO("\n".join(lines))))
            body = rows[1:]
            if len(body) != expect["rows"] or any(len(r) != 7 for r in body):
                return [f"scan CSV has {len(body)} rows, expected {expect['rows']} of 7 fields"]
            return _match_library_scan(body, expect["library"])
        if kind == "scan-matrix":
            grid = [ln.split() for ln in lines]
            if len(grid) != expect["rows"] or any(len(r) != expect["cols"] for r in grid):
                return [f"scan matrix is not {expect['rows']}x{expect['cols']}"]
            np.array(grid, dtype=float)
            return []
        if kind == "scan-json":
            payload = json.loads("\n".join(lines))
            if len(payload["cells"]) != expect["rows"]:
                return [f"scan JSON has {len(payload['cells'])} cells, expected {expect['rows']}"]
            return []
        if kind == "boundary":
            rows = list(csv.reader(io.StringIO("\n".join(lines))))
            pts = np.array(rows[1:], dtype=float).reshape(-1, 2)
            problems = []
            if len(pts) != expect["rows"]:
                problems.append(f"boundary has {len(pts)} points, expected {expect['rows']}")
            b = boundary_b(-1, -1, pts[:, 0], pts[:, 1], p.omega1, p.omega2, p.kappa, p.omega_c)
            if np.any(np.abs(b) > 1e-9 * (p.kappa**2 + p.omega_c**2)):
                problems.append("boundary points do not satisfy B = 0")
            return problems
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{kind} output does not parse: {exc}"]
    raise ValueError(f"unknown output kind {kind!r}")


def _match_library_scan(body, library) -> list[str]:
    def num(field):
        return None if field == "" else float(field)

    bad = 0
    for row, cell in zip(body, library.cells):
        if (row[2] == "true") != bool(cell.superradiant):
            bad += 1
            continue
        for field, want in zip(row[3:], (cell.max_growth_rate, cell.boundary_b, cell.omega_plus, cell.omega_minus)):
            got = num(field)
            if (got is None) != (want is None) or (got is not None and not _close(got, want, 1e-9)):
                bad += 1
                break
        if not (_close(float(row[0]), cell.lambda1, 1e-12) and _close(float(row[1]), cell.lambda2, 1e-12)):
            bad += 1
    return [f"{bad} scan CSV rows differ from the library scan"] if bad else []
