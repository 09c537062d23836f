"""Jacobian, eigen kernel, classification, analytic boundaries."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from dicke2 import (
    Classification,
    ModelParams,
    NewtonError,
    Phase,
    assess,
    eigenvalues,
    jacobian,
    jacobian_fd,
    lambda_combined,
    pole_indicators,
    solve_superradiant,
    trivial_fixed_point,
)
from dicke2.stability import MARGINAL_TOL, _tangent_basis

UNIT = ModelParams()
# Rows and columns of J that survive at a pole: everything but j1z and j2z.
POLE_TANGENT = [0, 1, 2, 3, 5, 6]
# Z2 symmetry of the equations of motion: (a, jx, jy) -> -(a, jx, jy).
MIRROR = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0])


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


def _near_zero_pair(eigs):
    """Up to two eigenvalues within 1e-10 of zero, smallest magnitude first."""
    near = (np.abs(eigs.real) < 1e-10) & (np.abs(eigs.imag) < 1e-10)
    order = np.argsort(np.where(near, np.abs(eigs), np.inf), kind="stable")
    mask = np.zeros(eigs.shape, dtype=bool)
    mask[order[:2]] = True
    return mask & near


def full_spectrum_oracle(y, p):
    """Growth rate and verdict from the whole 8x8 spectrum.

    The two conservation-law zeros are split off by tolerance, and spectra
    with a remaining |Re| in (1e-11, 1e-6) are recomputed at 30 digits.
    """
    jac = jacobian(y, p)
    eigs = np.linalg.eigvals(jac)
    rate = np.abs(eigs.real)
    if np.any(~_near_zero_pair(eigs) & (1e-11 < rate) & (rate < 1e-6)):
        with mpmath.workdps(30):
            ev = mpmath.eig(mpmath.matrix(jac.tolist()), left=False, right=False)
        eigs = np.array([complex(e) for e in ev])
    growth = float(np.max(eigs.real[~_near_zero_pair(eigs)]))
    if abs(growth) < MARGINAL_TOL:
        return growth, Classification.MARGINAL
    return growth, Classification.UNSTABLE if growth > 0 else Classification.STABLE


@pytest.fixture(scope="module")
def superradiant_states():
    """Newton-found superradiant fixed points at random parameters.

    About a third of the parameter draws have equal atomic frequencies.
    """
    rng = np.random.default_rng(31)
    found = []
    while len(found) < 240:
        p = random_params(rng, lam_hi=2.0)
        if rng.uniform() < 0.3:
            p = replace(p, omega2=p.omega1)
        seen = set()
        for seed in ((1.2, 1.2, 0.3), (1.2, 1.2, -0.3), (1.2, 0.2, 0.3), (0.2, 1.2, 0.3)):
            try:
                sol = solve_superradiant(p, init=seed)
            except NewtonError:
                continue
            key = tuple(np.round(sol.state.to_array(), 6))
            if abs(sol.state.a1) >= 1e-8 and key not in seen:
                seen.add(key)
                found.append((sol.state.to_array(), p))
    return found


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
            err = np.max(np.abs(jacobian(y, p) - jacobian_fd(y, p)))
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
        err = np.max(np.abs(jacobian(fp, p) - jacobian_fd(fp, p)))
        assert err < 1e-8

    def test_tangent_projection_is_the_pole_submatrix(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = random_params(rng)
            for phase in Phase:
                y = trivial_fixed_point(phase, p).to_array()
                jac = jacobian(y, p)
                t = _tangent_basis(y)
                # Equal entry by entry; only the sign of a zero entry can differ.
                assert np.array_equal(t.T @ jac @ t, jac[np.ix_(POLE_TANGENT, POLE_TANGENT)])

    def test_tangent_basis_is_orthonormal_and_tangent(self):
        rng = np.random.default_rng(30)
        states = rng.uniform(-1.0, 1.0, (500, 8)) * rng.uniform(1e-3, 1e3, (500, 1))
        t = _tangent_basis(states)
        assert t.shape == (500, 8, 6)
        assert np.max(np.abs(np.swapaxes(t, -1, -2) @ t - np.eye(6))) <= 1e-15
        for row in (2, 5):
            j = states[:, row : row + 3]
            u = j / np.linalg.norm(j, axis=-1, keepdims=True)
            assert np.max(np.abs(np.einsum("nk,nkc->nc", u, t[:, row : row + 3, :]))) <= 1e-15

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
        # The boundary zero mode is one of the six tangent eigenvalues, not
        # swallowed by the structural pair.
        assert np.min(np.abs(report.eigenvalues[:6])) < MARGINAL_TOL

    def test_rejects_non_fixed_point(self):
        y = np.array([0.5, 0.0, 0.0, 0.0, -0.5, 0.0, 0.0, -0.5])
        with pytest.raises(ValueError, match="not a fixed point"):
            assess(y, ModelParams(lambda1=0.5, lambda2=0.5))

    @pytest.mark.parametrize(
        "index, value, match",
        [
            (0, np.nan, "not a fixed point"),
            (4, np.inf, "not a fixed point"),
            (7, np.nan, "not a fixed point"),
            (None, None, "state must have 8 components"),
        ],
        ids=["nan-a1", "inf-j1z", "nan-j2z", "seven-components"],
    )
    def test_malformed_state_rejected_where_it_enters(self, index, value, match):
        # A NaN residual must fail the fixed-point bound, and a short state
        # must be refused before the equations of motion unpack it.
        p = ModelParams(lambda1=0.5, lambda2=0.5)
        y = trivial_fixed_point(Phase.NORMAL, p).to_array()
        if index is None:
            y = y[:7]
        else:
            y[index] = value
        with pytest.raises(ValueError, match=match):
            assess(y, p)

    def test_zero_spin_vector_rejected(self):
        # A zero spin is a fixed point of its own precession, but it has no
        # shell and so no tangent plane to restrict to.
        with pytest.raises(ValueError, match="j1 is zero"):
            assess(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5]), UNIT)
        with pytest.raises(ValueError, match="j2 is zero"):
            assess(np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]), UNIT)

    @pytest.mark.parametrize("omega2", [1.0, 1.0 + 1e-6, 1.2])
    @pytest.mark.parametrize("phase", list(Phase))
    def test_poles_match_full_spectrum_oracle(self, phase, omega2):
        # The 9x9 grid holds the lambda = 0 lines and the mixed diagonal.
        lams = np.linspace(0.0, 1.5, 9)
        for l1 in lams:
            for l2 in lams:
                p = ModelParams(omega2=omega2, lambda1=float(l1), lambda2=float(l2))
                y = trivial_fixed_point(phase, p).to_array()
                growth, verdict = full_spectrum_oracle(y, p)
                report = assess(y, p)
                assert report.classification is verdict
                assert abs(report.max_growth_rate - growth) <= 1e-12

    def test_superradiant_states_match_full_spectrum_oracle(self, superradiant_states):
        assert len(superradiant_states) >= 200
        assert any(p.omega1 == p.omega2 for _, p in superradiant_states)
        assert any(p.omega1 != p.omega2 for _, p in superradiant_states)
        for y, p in superradiant_states:
            growth, verdict = full_spectrum_oracle(y, p)
            report = assess(y, p)
            assert report.classification is verdict
            assert abs(report.max_growth_rate - growth) <= 1e-12
            assert report.eigenvalues.shape == (8,)
            assert np.all(report.eigenvalues[6:] == 0)

    def test_mirror_image_of_a_superradiant_state_has_the_same_verdict(self, superradiant_states):
        for y, p in superradiant_states:
            report = assess(y, p)
            mirrored = assess(MIRROR * y, p)
            assert mirrored.classification is report.classification
            assert abs(mirrored.max_growth_rate - report.max_growth_rate) <= 1e-12

    def test_mixed1_equal_couplings_marginal_even_at_large_coupling(self):
        # Defective marginal pairs; needs the refined spectrum to stay honest.
        for lam in (0.5, 1.275, 5.0):
            p = ModelParams(lambda1=lam, lambda2=lam)
            report = assess(trivial_fixed_point(Phase.MIXED1, p), p)
            assert report.classification is Classification.MARGINAL
            assert abs(report.max_growth_rate) < 1e-10


class TestBoundaryValue:
    def test_normal_boundary_point(self):
        assert pole_indicators(Phase.NORMAL, replace(UNIT, lambda1=0.5, lambda2=0.5))[0] == 0.0

    def test_mixed1_diagonal_is_forbidden(self):
        for lam in (0.1, 1.0, 5.0):
            assert pole_indicators(Phase.MIXED1, replace(UNIT, lambda1=lam, lambda2=lam))[0] == -2.0

    def test_inverted_never_crosses(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            p = random_params(rng, lam_hi=3.0)
            assert pole_indicators(Phase.INVERTED, p)[0] < 0

    def test_sign_agrees_with_spectrum_on_grid(self):
        # Analytic eta=0 indicator vs the eigenvalue classifier, normal phase.
        band = 1e-3
        for l1 in np.linspace(0.0, 1.5, 41):
            for l2 in np.linspace(0.0, 1.5, 41):
                p = ModelParams(lambda1=float(l1), lambda2=float(l2))
                b = pole_indicators(Phase.NORMAL, p)[0]
                if abs(b) < band:
                    continue
                report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
                unstable = report.classification is Classification.UNSTABLE
                assert unstable == (b > 0)


class TestOmegaPm:
    def test_degenerate_double_root(self):
        _, w_minus, w_plus = pole_indicators(Phase.NORMAL, replace(UNIT, lambda1=0.5, lambda2=0.5))
        assert w_minus == 1.0 and w_plus == 1.0

    def test_mixed1_diagonal_absent(self):
        _, w_minus, w_plus = pole_indicators(Phase.MIXED1, replace(UNIT, lambda1=0.8, lambda2=0.8))
        assert np.isnan(w_minus) and np.isnan(w_plus)

    def test_zero_coupling_absent(self):
        for phase in Phase:
            _, _, w_plus = pole_indicators(phase, replace(UNIT, lambda1=0.0, lambda2=0.0))
            assert np.isnan(w_plus)

    def test_roots_satisfy_quadratic(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            p = random_params(rng, lam_hi=2.0)
            for phase in Phase:
                _, w_minus, w_plus = pole_indicators(phase, p)
                if np.isnan(w_plus):
                    continue
                assert w_minus <= w_plus
                lam = lambda_combined(p, phase)
                for w in (w_minus, w_plus):
                    assert abs(w**2 + 4.0 * lam * w + p.kappa**2) < 1e-12 * max(
                        1.0, w**2
                    )

    def test_mirror_identities_exact(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            p = random_params(rng, lam_hi=2.0)
            for a, b in [(Phase.INVERTED, Phase.NORMAL), (Phase.MIXED2, Phase.MIXED1)]:
                _, a_minus, a_plus = pole_indicators(a, p)
                _, b_minus, b_plus = pole_indicators(b, p)
                if np.isnan(a_plus):
                    assert np.isnan(b_plus)
                    continue
                assert a_plus == -b_minus
                assert a_minus == -b_plus

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
            _, minus1, plus1 = pole_indicators(Phase.MIXED1, p)
            _, minus2, plus2 = pole_indicators(Phase.MIXED2, swapped)
            if np.isnan(plus1):
                assert np.isnan(plus2)
            else:
                assert plus1 == pytest.approx(plus2, abs=1e-12)
                assert minus1 == pytest.approx(minus2, abs=1e-12)

    def test_instability_window_membership(self):
        # The pole is unstable exactly when omega_c lies between the roots.
        lam1, lam2 = 0.7, 0.7
        _, w_minus, w_plus = pole_indicators(Phase.NORMAL, replace(UNIT, lambda1=lam1, lambda2=lam2))
        assert not np.isnan(w_plus)
        for wc in np.linspace(0.1, 4.0, 40):
            if min(abs(wc - w_minus), abs(wc - w_plus)) < 0.02:
                continue
            p = ModelParams(omega_c=float(wc), lambda1=lam1, lambda2=lam2)
            report = assess(trivial_fixed_point(Phase.NORMAL, p), p)
            inside = w_minus < wc < w_plus
            assert (report.classification is Classification.UNSTABLE) == inside
