"""Integration accuracy, conservation drift, settling behavior."""

import time

import numpy as np
import pytest

from dicke2 import dynamics
from dicke2 import (
    IntegrationError,
    IntegratorConfig,
    ModelParams,
    Phase,
    Trajectory,
    assess,
    drift_report,
    eom_rhs,
    integrate,
    jacobian,
    settle,
    trivial_fixed_point,
)

UNIT = ModelParams()
README_P = ModelParams(lambda1=0.0, lambda2=1.0)
README_CFG = IntegratorConfig(t_final=300.0, sample_interval=1.0)


def readme_y0():
    y0 = trivial_fixed_point(Phase.MIXED1, README_P).to_array()
    y0[5] += 1e-3  # tilt species 2 off its (unstable) north pole
    return y0


def test_decoupled_cavity_decays_exponentially():
    cfg = IntegratorConfig(t_final=5.0, sample_interval=0.25)
    y0 = np.array([1.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, -0.5])
    traj = integrate(y0, UNIT, cfg)
    amp = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(amp - np.exp(-UNIT.kappa * traj.times))) < 1e-8


def test_free_precession_rotates_at_atomic_frequency():
    p = ModelParams(omega1=1.3, omega2=0.7)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_final=100.0, sample_interval=0.5)
    r1, r2 = 0.3, 0.25
    y0 = np.array([0.0, 0.0, r1, 0.0, -0.4, r2, 0.0, np.sqrt(0.25 - r2**2)])
    traj = integrate(y0, p, cfg)
    # Jz components stay put, transverse components rotate as cos/sin.
    assert np.max(np.abs(traj.states[:, 4] + 0.4)) < 1e-9
    assert np.max(np.abs(traj.states[:, 2] - r1 * np.cos(p.omega1 * traj.times))) < 1e-6
    assert np.max(np.abs(traj.states[:, 3] - r1 * np.sin(p.omega1 * traj.times))) < 1e-6
    assert np.max(np.abs(traj.states[:, 5] - r2 * np.cos(p.omega2 * traj.times))) < 1e-6
    d1, d2 = drift_report(traj)
    assert d1 < 1e-10 and d2 < 1e-10


def test_early_growth_rate_matches_top_eigenvalue():
    p = ModelParams(lambda1=0.8, lambda2=0.8)
    pole = trivial_fixed_point(Phase.NORMAL, p)
    eigs, vecs = np.linalg.eig(jacobian(pole, p))
    k = np.argmax(eigs.real)
    sigma = float(eigs.real[k])
    v = np.real(vecs[:, k])
    v /= np.linalg.norm(v)
    y0 = pole.to_array() + 1e-6 * v
    cfg = IntegratorConfig(t_final=14.0, sample_interval=0.05)
    traj = integrate(y0, p, cfg)
    amp = np.hypot(traj.states[:, 0], traj.states[:, 1])
    mask = (amp > 1e-5) & (amp < 1e-3)
    slope = np.polyfit(traj.times[mask], np.log(amp[mask]), 1)[0]
    assert abs(slope - sigma) / sigma < 0.05


def test_settle_at_exact_fixed_point_is_immediate():
    p = ModelParams(lambda1=0.4, lambda2=0.4)
    res = settle(trivial_fixed_point(Phase.NORMAL, p), p, IntegratorConfig(t_final=10.0))
    assert res.converged
    assert res.elapsed_time == 0.0
    assert res.residual_norm == 0.0
    assert res.nfev == 0 and res.steps == 0


def test_settle_reaches_partial_superradiant_branch():
    res = settle(readme_y0(), README_P, README_CFG)
    assert res.converged and res.elapsed_time < README_CFG.t_final
    assert 0 < res.steps < res.nfev
    assert res.final_state.j2[2] == pytest.approx(-0.25, abs=1e-6)
    assert abs(res.final_state.j1[2] + 0.5) < 1e-12  # decoupled species stays put


def test_settle_reports_persistent_precession_as_unconverged():
    p = ModelParams()
    y0 = np.array([0.0, 0.0, 0.3, 0.0, -0.4, 0.0, 0.0, -0.5])
    res = settle(y0, p, IntegratorConfig(t_final=20.0, sample_interval=0.5))
    assert not res.converged
    assert res.residual_norm > 1e-3


def test_drift_report_single_sample_and_off_shell():
    p = ModelParams()
    on = integrate(
        trivial_fixed_point(Phase.NORMAL, p).to_array(),
        p,
        IntegratorConfig(t_final=0.1, sample_interval=0.1),
    )
    assert drift_report(on) == (0.0, 0.0)

    # Off-shell start: the invariant is conserved on whatever shell it begins.
    y0 = np.array([0.0, 0.0, 0.0, 0.0, 0.6, 0.0, 0.0, -0.5])
    initial_ratio = abs(0.6**2 - 0.25) / 0.25
    traj = integrate(y0, p, IntegratorConfig(t_final=10.0, sample_interval=0.5))
    d1, _ = drift_report(traj)
    assert d1 == pytest.approx(initial_ratio, rel=1e-8)


def test_drift_report_rejects_empty_trajectory():
    empty = Trajectory(times=np.empty(0), states=np.empty((0, 8)), drift=np.empty((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        drift_report(empty)


def test_conservation_drift_small_over_long_runs():
    rng = np.random.default_rng(7)
    cfg = IntegratorConfig(t_final=100.0, sample_interval=1.0)
    for _ in range(10):
        p = ModelParams(
            omega1=rng.uniform(0.5, 2.0),
            omega2=rng.uniform(0.5, 2.0),
            omega_c=rng.uniform(0.5, 2.0),
            kappa=rng.uniform(0.5, 2.0),
            n1=rng.uniform(0.5, 2.0),
            n2=rng.uniform(0.5, 2.0),
            lambda1=rng.uniform(0.0, 1.5),
            lambda2=rng.uniform(0.0, 1.5),
        )
        u1, u2 = rng.normal(size=3), rng.normal(size=3)
        y0 = np.concatenate(
            [
                rng.uniform(-1.0, 1.0, 2),
                u1 / np.linalg.norm(u1) * p.n1 / 2.0,
                u2 / np.linalg.norm(u2) * p.n2 / 2.0,
            ]
        )
        d1, d2 = drift_report(integrate(y0, p, cfg))
        assert max(d1, d2) < 1e-8


def test_halving_tolerances_never_increases_final_state_error():
    p = ModelParams(lambda1=0.3, lambda2=0.3)
    y0 = np.array([0.1, -0.05, 0.1, 0.05, -0.48742, 0.08, -0.02, -0.49295])

    def final_state(rel_tol, abs_tol):
        cfg = IntegratorConfig(
            rel_tol=rel_tol, abs_tol=abs_tol, t_final=20.0, sample_interval=20.0
        )
        return integrate(y0, p, cfg).states[-1]

    reference = final_state(1e-13, 1e-15)
    errors = []
    rel = 1e-5
    while rel >= 1e-10:
        errors.append(np.max(np.abs(final_state(rel, rel * 1e-2) - reference)))
        rel /= 2.0
    assert all(b <= a for a, b in zip(errors, errors[1:]))


def test_settled_state_agrees_with_assess_classification():
    # A stable sub-critical pole attracts a perturbed neighborhood back.
    # Unequal atomic frequencies: at omega1 == omega2 the antisymmetric spin
    # fluctuation decouples from the cavity and precesses forever.
    p = ModelParams(omega2=1.3, lambda1=0.3, lambda2=0.3)
    pole = trivial_fixed_point(Phase.NORMAL, p)
    assert assess(pole, p).classification.value == "Stable"
    y0 = pole.to_array() + 1e-4 * np.array([1.0, -1.0, 1.0, 0.5, 0.0, -0.5, 1.0, 0.0])
    res = settle(y0, p, IntegratorConfig(t_final=400.0, sample_interval=2.0), threshold=1e-9)
    assert res.converged
    assert np.max(np.abs(eom_rhs(res.final_state, p))) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError, match="t_final"):
        integrate(np.zeros(8), UNIT, IntegratorConfig(t_final=0.0))
    with pytest.raises(ValueError, match="rel_tol"):
        integrate(np.zeros(8), UNIT, IntegratorConfig(rel_tol=-1e-9))
    for name in ("rel_tol", "abs_tol", "t_final", "sample_interval"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                integrate(np.zeros(8), UNIT, IntegratorConfig(**{name: bad}))
    with pytest.raises(ValueError, match="max_step"):
        settle(np.zeros(8), UNIT, IntegratorConfig(max_step=np.nan))
    # An infinite max_step means no cap on the step size.
    assert len(integrate(np.zeros(8), UNIT, IntegratorConfig(max_step=np.inf, t_final=0.1))) == 2


def test_initial_state_must_be_eight_finite_numbers():
    good = readme_y0()
    cfg = IntegratorConfig(t_final=1.0)
    nan, inf = good.copy(), good.copy()
    nan[4], inf[0] = np.nan, np.inf
    for bad in (nan, inf, good[:7], np.append(good, 0.0)):
        for run in (integrate, settle):
            with pytest.raises(ValueError, match="8 finite numbers"):
                run(bad, README_P, cfg)


def _oracle(y0, p, times):
    """SciPy's solve_ivp DOP853 at tight tolerances: the reference the program no longer uses."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: eom_rhs(y, p), (0.0, times[-1]), y0, method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=times)
    assert sol.success
    return sol.y.T


NON_CHAOTIC_CASES = {
    "readme_settle": (readme_y0(), README_P, README_CFG),
    "free_precession": (
        np.array([0.0, 0.0, 0.3, 0.0, -0.4, 0.25, 0.0, np.sqrt(0.25 - 0.25**2)]),
        ModelParams(omega1=1.3, omega2=0.7),
        IntegratorConfig(t_final=100.0, sample_interval=0.5),
    ),
    "kicked_stable_detuned_pole": (
        trivial_fixed_point(Phase.NORMAL, ModelParams(omega2=1.3)).to_array()
        + 1e-4 * np.array([1.0, -1.0, 1.0, 0.5, 0.0, -0.5, 1.0, 0.0]),
        ModelParams(omega2=1.3, lambda1=0.3, lambda2=0.3),
        IntegratorConfig(t_final=200.0, sample_interval=2.0),
    ),
    "decoupled_cavity": (
        np.array([1.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, -0.5]),
        UNIT,
        IntegratorConfig(t_final=5.0, sample_interval=0.25),
    ),
}


@pytest.mark.parametrize("case", sorted(NON_CHAOTIC_CASES))
def test_integrate_matches_tight_tolerance_oracle_at_every_sample(case):
    y0, p, cfg = NON_CHAOTIC_CASES[case]
    traj = integrate(y0, p, cfg)
    assert np.max(np.abs(traj.states - _oracle(y0, p, traj.times))) < 2e-9


@pytest.mark.parametrize("case", sorted(NON_CHAOTIC_CASES))
def test_settle_stops_at_a_sample_of_the_full_run(case):
    y0, p, cfg = NON_CHAOTIC_CASES[case]
    traj = integrate(y0, p, cfg)
    res = settle(y0, p, cfg)
    k = int(np.flatnonzero(traj.times == res.elapsed_time)[0])
    assert np.array_equal(res.final_state.to_array(), traj.states[k])
    residuals = [np.max(np.abs(eom_rhs(y, p))) for y in traj.states[: k + 1]]
    assert res.residual_norm == residuals[-1]
    assert res.converged == (residuals[-1] < 1e-9)
    assert all(r >= 1e-9 for r in residuals[:-1])
    if res.converged and res.elapsed_time < cfg.t_final:
        assert res.nfev < traj.nfev and res.steps < traj.steps
    else:
        assert (res.nfev, res.steps) == (traj.nfev, traj.steps)


def _patched_rhs(monkeypatch, after, outcome):
    calls = [0]

    def rhs(y, p):
        calls[0] += 1
        if calls[0] > after:
            if outcome == "nan":
                return np.full(8, np.nan)
            raise outcome()
        return eom_rhs(y, p)

    monkeypatch.setattr(dynamics, "eom_rhs", rhs)
    return calls


def test_nan_rhs_raises_integration_error_with_failure_time(monkeypatch):
    _patched_rhs(monkeypatch, 2000, "nan")
    with pytest.raises(IntegrationError) as info:
        integrate(readme_y0(), README_P, README_CFG)
    assert 0 < info.value.t_failed < README_CFG.t_final


@pytest.mark.parametrize("exc", [ZeroDivisionError, KeyboardInterrupt])
def test_exception_in_rhs_stops_integration_promptly(monkeypatch, exc):
    calls = _patched_rhs(monkeypatch, 2000, exc)
    t0 = time.perf_counter()
    with pytest.raises(exc):
        integrate(readme_y0(), README_P, README_CFG)
    assert time.perf_counter() - t0 < 1.0
    assert calls[0] == 2001  # no evaluation after the one that raised
