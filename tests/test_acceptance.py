"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion (printed even when the assertion fires).
"""

import subprocess
import sys
import time

import numpy as np

from dicke2 import (
    Classification,
    GridSpec,
    IntegratorConfig,
    ModelParams,
    Phase,
    assess,
    critical_lambda1_given_j2z,
    drift_report,
    integrate,
    jacobian,
    jacobian_fd,
    partial_superradiant_jz,
    pole_indicators,
    scan,
    settle,
    solve_superradiant,
    trivial_fixed_point,
)
from dicke2.stability import MARGINAL_TOL

UNIT = ModelParams()


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num}: {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def random_params(rng, lam_hi=1.5):
    return ModelParams(
        omega1=rng.uniform(0.5, 2.0),
        omega2=rng.uniform(0.5, 2.0),
        omega_c=rng.uniform(0.5, 2.0),
        kappa=rng.uniform(0.5, 2.0),
        n1=rng.uniform(0.5, 2.0),
        n2=rng.uniform(0.5, 2.0),
        lambda1=rng.uniform(0.0, lam_hi),
        lambda2=rng.uniform(0.0, lam_hi),
    )


def test_criterion_1_normal_phase_boundary():
    grid = GridSpec(0.0, 1.5, 61, 0.0, 1.5, 61)
    start = time.perf_counter()
    result = scan(Phase.NORMAL, grid, UNIT)
    elapsed = time.perf_counter() - start
    radius = np.sqrt(0.5)
    cell_diag = np.hypot(1.5 / 60, 1.5 / 60)
    mismatches = [
        (c.lambda1, c.lambda2)
        for c in result.cells
        if abs(np.hypot(c.lambda1, c.lambda2) - radius) > cell_diag
        and c.superradiant != (c.lambda1**2 + c.lambda2**2 > 0.5)
    ]
    ok = not mismatches and elapsed < 60.0
    _report(
        1,
        "normal-phase 61x61 frontier matches the quarter circle",
        ok,
        f"{len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_forbidden_mixed_phase_diagonal():
    grid = GridSpec(0.0, 1.5, 61, 0.0, 1.5, 61)
    result = scan(Phase.MIXED1, grid, UNIT)
    diagonal_bad = [
        c.lambda1 for c in result.cells if c.lambda1 == c.lambda2 and c.superradiant
    ]
    p5 = ModelParams(lambda1=5.0, lambda2=5.0)
    report5 = assess(trivial_fixed_point(Phase.MIXED1, p5), p5)
    ok = not diagonal_bad and report5.max_growth_rate <= 1e-8
    _report(
        2,
        "mixed1 diagonal stays non-superradiant up to lambda=5",
        ok,
        f"bad diagonal cells: {diagonal_bad[:3]}, growth(5)={report5.max_growth_rate:.2e}",
    )


def test_criterion_3_mirror_identities():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng, lam_hi=2.0)
        for a, b in [(Phase.INVERTED, Phase.NORMAL), (Phase.MIXED2, Phase.MIXED1)]:
            _, a_minus, a_plus = pole_indicators(a, p)
            _, b_minus, b_plus = pole_indicators(b, p)
            if np.isnan(a_plus) or np.isnan(b_plus):
                assert np.isnan(a_plus) and np.isnan(b_plus)
                continue
            worst = max(worst, abs(a_plus + b_minus), abs(a_minus + b_plus))
    _report(3, "window-root mirror identities over 1000 draws", worst < 1e-12, f"max err {worst:.2e}")


def test_criterion_4_degenerate_boundary_point():
    p = ModelParams(lambda1=0.5, lambda2=0.5)
    _, w_minus, w_plus = pole_indicators(Phase.NORMAL, p)
    report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
    ok = (
        w_plus == 1.0
        and w_minus == 1.0
        and report.classification is Classification.MARGINAL
        and abs(report.max_growth_rate) < 1e-8
    )
    _report(
        4,
        "degenerate boundary point gives window roots (1,1) and marginal spectrum",
        ok,
        f"roots=({w_minus}, {w_plus}), growth={report.max_growth_rate:.2e}",
    )


def test_criterion_5_partial_superradiance():
    p = ModelParams(lambda1=0.0, lambda2=1.0)

    sol = solve_superradiant(p, init=(0.1, 1.2, 0.3))
    ok_a = abs(sol.state.j2[2] + 0.25) <= 1e-10 and sol.residual_norm < 1e-10

    lam1c = critical_lambda1_given_j2z(p, partial_superradiant_jz(p))
    ok_b = lam1c is not None and abs(lam1c) <= 1e-14

    y0 = trivial_fixed_point(Phase.MIXED1, p).to_array()
    y0[5] += 1e-3
    res = settle(y0, p, IntegratorConfig(t_final=200.0, sample_interval=1.0))
    ok_c = abs(res.final_state.j2[2] + 0.25) <= 1e-4

    _report(
        5,
        "partial superradiance: solver, lambda1c=0, settling",
        ok_a and ok_b and ok_c,
        f"j2z={sol.state.j2[2]!r}, lam1c={lam1c!r}, settled j2z={res.final_state.j2[2]!r}",
    )


def test_criterion_6_conservation_battery():
    rng = np.random.default_rng(66)
    cfg = IntegratorConfig(t_final=100.0, sample_interval=1.0)
    worst = 0.0
    for _ in range(100):
        p = random_params(rng)
        u1, u2 = rng.normal(size=3), rng.normal(size=3)
        y0 = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, 2),
                u1 / np.linalg.norm(u1) * p.n1 / 2.0,
                u2 / np.linalg.norm(u2) * p.n2 / 2.0,
            ]
        )
        worst = max(worst, *drift_report(integrate(y0, p, cfg)))
    _report(6, "spin-norm drift < 1e-8 over 100 random runs", worst < 1e-8, f"worst {worst:.2e}")


def test_criterion_7_jacobian_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        p = random_params(rng)
        y = rng.uniform(-1.0, 1.0, 8)
        err = np.max(np.abs(jacobian(y, p) - jacobian_fd(y, p)))
        worst = max(worst, err)
    _report(7, "analytic vs central-difference Jacobian", worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_8_growth_rate_cross_validation():
    rng = np.random.default_rng(88)
    fitted = 0
    worst_rel = 0.0
    while fitted < 20:
        w1, w2, wc, kap = rng.uniform(0.7, 1.4, 4)
        beta = (kap**2 + wc**2) / (4.0 * wc)
        phi = rng.uniform(0.15, np.pi / 2 - 0.15)
        factor = rng.uniform(1.3, 1.7)
        p = ModelParams(
            omega1=w1,
            omega2=w2,
            omega_c=wc,
            kappa=kap,
            lambda1=factor * np.sqrt(w1 * beta) * np.cos(phi),
            lambda2=factor * np.sqrt(w2 * beta) * np.sin(phi),
        )
        pole = trivial_fixed_point(Phase.NORMAL, p)
        eigs, vecs = np.linalg.eig(jacobian(pole, p))
        k = int(np.argmax(eigs.real))
        sigma = float(eigs.real[k])
        v = np.real(vecs[:, k])
        v /= np.linalg.norm(v)
        if sigma < 0.08 or np.hypot(v[0], v[1]) < 0.1:
            continue
        t_final = 12.0 / sigma
        traj = integrate(
            pole.to_array() + 1e-6 * v,
            p,
            IntegratorConfig(t_final=t_final, sample_interval=t_final / 600),
        )
        amp = np.hypot(traj.states[:, 0], traj.states[:, 1])
        mask = (amp > 1e-5) & (amp < 1e-3)
        slope = np.polyfit(traj.times[mask], np.log(amp[mask]), 1)[0]
        worst_rel = max(worst_rel, abs(slope - sigma) / sigma)
        fitted += 1
    _report(
        8,
        "fitted growth rate matches max Re eigenvalue within 5% (20 cases)",
        worst_rel < 0.05,
        f"worst rel err {worst_rel:.3%}",
    )


def test_criterion_9_scan_determinism(tmp_path):
    args = [
        sys.executable,
        "-m",
        "dicke2",
        "scan",
        "--phase",
        "mixed1",
        "--l1-count",
        "31",
        "--l2-count",
        "31",
    ]
    outputs = []
    for run in range(3):
        out = tmp_path / f"scan_{run}.csv"
        proc = subprocess.run(args + ["--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    # Every row must also agree with the per-cell classifier.
    data = [line for line in outputs[0].decode().splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in data[1:]]
    mismatched = 0
    for row in rows:
        q = ModelParams(lambda1=float(row[0]), lambda2=float(row[1]))
        report = assess(trivial_fixed_point(Phase.MIXED1, q), q)
        verdict = "true" if report.max_growth_rate > MARGINAL_TOL else "false"
        if float(row[3]) != report.max_growth_rate or row[2] != verdict:
            mismatched += 1
    ok = identical and len(rows) == 31 * 31 and mismatched == 0
    _report(
        9,
        "scan output byte-identical over three runs and equal to per-cell assess",
        ok,
        f"identical={identical}, rows={len(rows)}, mismatched={mismatched}",
    )
