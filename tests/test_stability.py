"""Jacobian, eigen kernel, classification, analytic boundaries."""

from dataclasses import replace

import numpy as np
import pytest

from dicke2 import (
    Classification,
    ModelParams,
    Phase,
    assess,
    boundary_value,
    eigenvalues,
    jacobian,
    jacobian_fd,
    omega_pm,
    trivial_fixed_point,
)

UNIT = ModelParams()


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


def random_state(rng):
    return rng.uniform(-1.0, 1.0, 8)


class TestJacobian:
    def test_decoupled_blocks(self):
        p = ModelParams(omega1=1.3, omega2=0.7, omega_c=1.1, kappa=0.9)
        jac = jacobian(np.zeros(8), p)
        assert np.array_equal(jac[:2, :2], [[-0.9, 1.1], [-1.1, -0.9]])
        assert jac[2, 3] == -1.3 and jac[3, 2] == 1.3
        assert jac[5, 6] == -0.7 and jac[6, 5] == 0.7
        # No cross-coupling without couplings.
        assert np.all(jac[:2, 2:] == 0.0) and np.all(jac[2:, :2] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = random_params(rng)
            y = random_state(rng)
            err = np.max(np.abs(jacobian(y, p) - jacobian_fd(y, p, 1e-6)))
            assert err < 1e-6

    def test_conservation_rows_vanish_at_poles(self):
        p = ModelParams(lambda1=0.9, lambda2=0.4)
        for phase in Phase:
            jac = jacobian(trivial_fixed_point(phase, p), p)
            assert np.all(jac[4] == 0.0)
            assert np.all(jac[7] == 0.0)

    def test_fd_agrees_at_fixed_points(self):
        p = ModelParams(lambda1=0.5, lambda2=1.2)
        fp = trivial_fixed_point(Phase.NORMAL, p)
        err = np.max(np.abs(jacobian(fp, p) - jacobian_fd(fp, p, 1e-6)))
        assert err < 1e-8

    def test_fd_rejects_bad_step(self):
        with pytest.raises(ValueError, match="positive"):
            jacobian_fd(np.zeros(8), UNIT, 0.0)

    def test_broadcasts_over_states_and_couplings(self):
        rng = np.random.default_rng(28)
        p = random_params(rng)
        states = np.stack([random_state(rng) for _ in range(3)])
        l2s = rng.uniform(0.0, 1.5, 5)
        batch = jacobian(states[:, None, :], replace(p, lambda2=l2s))
        assert batch.shape == (3, 5, 8, 8)
        ev = eigenvalues(batch)
        for i, y in enumerate(states):
            for j, l2 in enumerate(l2s):
                single = jacobian(y, replace(p, lambda2=float(l2)))
                assert np.array_equal(batch[i, j], single)
                assert np.array_equal(ev[i, j], eigenvalues(single))


class TestEigenvalues:
    def test_diagonal_matrix(self):
        got = np.sort_complex(eigenvalues(np.diag(np.arange(1.0, 9.0))))
        assert np.allclose(got, np.arange(1.0, 9.0), atol=1e-12)

    def test_cavity_block_closed_form(self):
        got = eigenvalues(np.array([[-1.0, 1.0], [-1.0, -1.0]]))
        assert np.allclose(np.sort_complex(got), [-1 - 1j, -1 + 1j], atol=1e-12)

    def test_spectral_identities(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            m = rng.normal(size=(8, 8))
            ev = eigenvalues(m)
            assert abs(ev.sum() - np.trace(m)) < 1e-9
            det = np.linalg.det(m)
            assert abs(ev.prod() - det) < 1e-6 * max(abs(det), 1.0)

    def test_rejects_nonfinite(self):
        m = np.zeros((8, 8))
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(m)

    def test_conjugate_pair_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng)
            ev = eigenvalues(jacobian(trivial_fixed_point(Phase.NORMAL, p), p))
            conj_sorted = np.sort_complex(np.conj(ev))
            assert np.max(np.abs(np.sort_complex(ev) - conj_sorted)) < 1e-9


class TestAssess:
    def test_subcritical_pole_is_stable(self):
        # Unequal atomic frequencies so every spin fluctuation damps through
        # the cavity; see test_equal_frequency_dark_mode_is_marginal.
        p = ModelParams(omega2=1.3, lambda1=0.3, lambda2=0.3)
        report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
        assert report.classification is Classification.STABLE
        assert report.structural_zero_count == 2
        assert report.max_growth_rate < -1e-3

    def test_equal_frequency_dark_mode_is_marginal(self):
        # At omega1 == omega2 the antisymmetric spin fluctuation cancels its
        # own cavity drive and precesses undamped: the sub-critical pole is
        # marginal (growth exactly zero), not asymptotically stable.
        p = ModelParams(lambda1=0.3, lambda2=0.3)
        report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
        assert report.classification is Classification.MARGINAL
        assert report.max_growth_rate == 0.0
        # Breaking either symmetry restores strict stability.
        broken = ModelParams(omega1=0.9, omega2=1.2, lambda1=0.3, lambda2=0.3)
        assert (
            assess(trivial_fixed_point(Phase.NORMAL, broken), broken).classification
            is Classification.STABLE
        )

    def test_supercritical_pole_is_unstable(self):
        p = ModelParams(lambda1=0.8, lambda2=0.8)
        report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
        assert report.classification is Classification.UNSTABLE

    def test_exact_boundary_is_marginal(self):
        p = ModelParams(lambda1=0.5, lambda2=0.5)
        report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
        assert report.classification is Classification.MARGINAL
        assert abs(report.max_growth_rate) < 1e-8
        # The boundary zero mode is not swallowed by the structural pair.
        assert report.structural_zero_count == 2

    def test_rejects_non_fixed_point(self):
        y = np.array([0.5, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, -0.5])
        with pytest.raises(ValueError, match="not a fixed point"):
            assess(y, ModelParams(lambda1=0.5, lambda2=0.5))

    def test_mixed1_equal_couplings_marginal_even_at_large_coupling(self):
        # Defective marginal pairs; needs the refined spectrum to stay honest.
        for lam in (0.5, 1.275, 5.0):
            p = ModelParams(lambda1=lam, lambda2=lam)
            report = assess(trivial_fixed_point(Phase.MIXED1, p), p)
            assert report.classification is Classification.MARGINAL
            assert abs(report.max_growth_rate) < 1e-10


class TestBoundaryValue:
    def test_normal_boundary_point(self):
        assert boundary_value(Phase.NORMAL, 0.5, 0.5, UNIT) == 0.0

    def test_mixed1_diagonal_is_forbidden(self):
        for lam in (0.1, 1.0, 5.0):
            assert boundary_value(Phase.MIXED1, lam, lam, UNIT) == -2.0

    def test_inverted_never_crosses(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            p = random_params(rng, lam_hi=3.0)
            assert boundary_value(Phase.INVERTED, p.lambda1, p.lambda2, p) < 0

    def test_sign_agrees_with_spectrum_on_grid(self):
        # Analytic eta=0 indicator vs the eigenvalue classifier, normal phase.
        band = 1e-3
        for l1 in np.linspace(0.0, 1.5, 41):
            for l2 in np.linspace(0.0, 1.5, 41):
                b = boundary_value(Phase.NORMAL, l1, l2, UNIT)
                if abs(b) < band:
                    continue
                p = ModelParams(lambda1=float(l1), lambda2=float(l2))
                report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
                unstable = report.classification is Classification.UNSTABLE
                assert unstable == (b > 0)


class TestOmegaPm:
    def test_degenerate_double_root(self):
        roots = omega_pm(Phase.NORMAL, 0.5, 0.5, UNIT)
        assert roots.omega_minus == 1.0 and roots.omega_plus == 1.0

    def test_mixed1_diagonal_absent(self):
        roots = omega_pm(Phase.MIXED1, 0.8, 0.8, UNIT)
        assert roots.omega_minus is None and roots.omega_plus is None

    def test_zero_coupling_absent(self):
        for phase in Phase:
            roots = omega_pm(phase, 0.0, 0.0, UNIT)
            assert roots.omega_plus is None

    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p = random_params(rng, lam_hi=2.0)
            for phase in Phase:
                roots = omega_pm(phase, p.lambda1, p.lambda2, p)
                if roots.omega_plus is None:
                    continue
                assert roots.omega_minus <= roots.omega_plus
                lam = roots.lambda_combined
                for w in (roots.omega_minus, roots.omega_plus):
                    assert abs(w**2 + 4.0 * lam * w + p.kappa**2) < 1e-12 * max(
                        1.0, w**2
                    )

    def test_mirror_identities_exact(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            p = random_params(rng, lam_hi=2.0)
            for a, b in [(Phase.INVERTED, Phase.NORMAL), (Phase.MIXED2, Phase.MIXED1)]:
                ra = omega_pm(a, p.lambda1, p.lambda2, p)
                rb = omega_pm(b, p.lambda1, p.lambda2, p)
                if ra.omega_plus is None:
                    assert rb.omega_plus is None
                    continue
                assert ra.omega_plus == -rb.omega_minus
                assert ra.omega_minus == -rb.omega_plus

    def test_mixed_phase_species_swap(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            p = random_params(rng, lam_hi=2.0)
            swapped = ModelParams(
                omega1=p.omega2,
                omega2=p.omega1,
                omega_c=p.omega_c,
                kappa=p.kappa,
                n1=p.n2,
                n2=p.n1,
                lambda1=p.lambda2,
                lambda2=p.lambda1,
            )
            r1 = omega_pm(Phase.MIXED1, p.lambda1, p.lambda2, p)
            r2 = omega_pm(Phase.MIXED2, swapped.lambda1, swapped.lambda2, swapped)
            if r1.omega_plus is None:
                assert r2.omega_plus is None
            else:
                assert r1.omega_plus == pytest.approx(r2.omega_plus, abs=1e-12)
                assert r1.omega_minus == pytest.approx(r2.omega_minus, abs=1e-12)

    def test_instability_window_membership(self):
        # The pole is unstable exactly when omega_c lies between the roots.
        lam1, lam2 = 0.7, 0.7
        roots = omega_pm(Phase.NORMAL, lam1, lam2, UNIT)
        assert roots.omega_plus is not None
        for wc in np.linspace(0.1, 4.0, 40):
            if min(abs(wc - roots.omega_minus), abs(wc - roots.omega_plus)) < 0.02:
                continue
            p = ModelParams(omega_c=float(wc), lambda1=lam1, lambda2=lam2)
            report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
            inside = roots.omega_minus < wc < roots.omega_plus
            assert (report.classification is Classification.UNSTABLE) == inside
