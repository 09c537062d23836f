"""Steady-state enumeration and solver, critical constants, partial superradiance."""

from dataclasses import replace

import numpy as np
import pytest

from dicke2 import steadystate
from dicke2 import (
    Classification,
    ModelParams,
    NewtonError,
    Phase,
    analytic_boundary_curve,
    assess,
    critical_lambda,
    critical_lambda1_given_j2z,
    eom_rhs,
    partial_superradiant_jz,
    pole_indicators,
    solve_superradiant,
    spin_norm_residual,
    superradiant_states,
    trivial_fixed_point,
)
from dicke2.steadystate import _reduced_system

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


class TestSteadyResidual:
    def test_trivial_fixed_points_vanish(self):
        p = ModelParams(lambda1=0.7, lambda2=0.2)
        for phase in Phase:
            assert np.all(eom_rhs(trivial_fixed_point(phase, p), p) == 0.0)

    def test_transverse_y_component_forbidden(self):
        # A nonzero Jiy violates the spin-x steady-state equation.
        y = np.array([0.0, 0.0, 0.0, 0.2, -0.458, 0.0, 0.0, -0.5])
        res = eom_rhs(y, UNIT)
        assert np.max(np.abs(res)) > 0.01


class TestSolveSuperradiant:
    def test_partial_superradiant_branch(self):
        p = ModelParams(lambda1=0.0, lambda2=1.0)
        sol = solve_superradiant(p, init=(0.1, 1.2, 0.3))
        assert abs(sol.state.a1) >= 1e-8
        assert sol.residual_norm < 1e-10
        assert sol.state.j2[2] == pytest.approx(-0.25, abs=1e-10)
        assert abs(sol.state.j2[0]) == pytest.approx(np.sqrt(0.25 - 0.0625), abs=1e-10)
        assert abs(abs(sol.state.j1[2]) - 0.5) < 1e-12  # species 1 pinned at a pole
        r1, r2 = spin_norm_residual(sol.state, p)
        assert abs(r1) < 1e-15 and abs(r2) < 1e-15

    def test_subcritical_seeds_land_on_degenerate_branch(self):
        p = ModelParams(lambda1=0.1, lambda2=0.1)
        sol = solve_superradiant(p, init=(0.2, 0.2, 0.05))
        assert abs(sol.state.a1) < 1e-8

    def test_branch_is_dynamically_stable(self):
        p = ModelParams(lambda1=0.0, lambda2=1.0)
        sol = solve_superradiant(p, init=(0.1, 1.2, 0.3))
        report = assess(sol.state, p)
        assert report.max_growth_rate <= 1e-8

    def test_residual_checked_against_full_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_params(rng)
            if p.lambda1 == 0 and p.lambda2 == 0:
                continue
            try:
                sol = solve_superradiant(
                    p, init=(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-0.5, 0.5))
                )
            except NewtonError:
                continue
            assert sol.residual_norm < 1e-10
            r1, r2 = spin_norm_residual(sol.state, p)
            assert abs(r1) < 1e-14 and abs(r2) < 1e-14

    def test_requires_some_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            solve_superradiant(ModelParams(), init=(0.3, 0.3, 0.1))

    def test_nonconvergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(steadystate, "NEWTON_MAX_ITER", 1)
        p = ModelParams(lambda1=0.0, lambda2=1.0)
        with pytest.raises(NewtonError) as info:
            solve_superradiant(p, init=(0.1, 1.2, 0.3))
        assert info.value.last_iterate.shape == (3,)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_nonfinite_seed_rejected_where_it_enters(self, slot, value):
        init = [0.1, 1.2, 0.3]
        init[slot] = value
        with pytest.raises(ValueError, match="Newton seed must be three finite numbers"):
            solve_superradiant(ModelParams(lambda2=1.0), init=tuple(init))


def varied_params(rng, count):
    """Random points where every fourth has omega1 = omega2 and some lambda_i = 0."""
    for i in range(count):
        p = random_params(rng, lam_hi=2.5)
        if i % 4 == 0:
            p = replace(p, omega2=p.omega1)
        if i % 10 in (1, 2):
            p = replace(p, **{f"lambda{i % 10}": 0.0})
        yield p


def fd_newton_jacobian(u, p, h=1e-7):
    """Central-difference Jacobian of the reduced residual; oracle for the exact one."""
    jac = np.empty((3, 3))
    for k in range(3):
        up, um = np.array(u, dtype=float), np.array(u, dtype=float)
        up[k] += h
        um[k] -= h
        r_plus, r_minus = _reduced_system(up, p)[0], _reduced_system(um, p)[0]
        jac[:, k] = (np.array(r_plus) - np.array(r_minus)) / (2.0 * h)
    return jac


class TestNewtonJacobian:
    def test_exact_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(17)
        # varied_params includes lambda_i = 0 and omega1 = omega2 points.
        for p in varied_params(rng, 200):
            u = (rng.uniform(-1.5, 1.5), rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            _, jac = _reduced_system(u, p)
            assert np.max(np.abs(np.array(jac) - fd_newton_jacobian(u, p))) < 1e-6, (p, u)


def hemispheres(state):
    """Signs of (J1z, J2z): the Phase signs of the pole a branch bifurcates from."""
    return (-1 if state.j1[2] < 0 else 1, -1 if state.j2[2] < 0 else 1)


ANGLES = (0.3, 1.2, 2.6)
SEED_GRID = [(t1, t2, a1) for t1 in ANGLES for t2 in ANGLES for a1 in (0.5, -0.5)]


class TestSuperradiantStates:
    def test_lists_every_state_newton_finds(self):
        rng = np.random.default_rng(21)
        listed = found = 0
        for p in varied_params(rng, 200):
            states = np.array([s.to_array() for s in superradiant_states(p)]).reshape(-1, 8)
            listed += len(states)
            hits = set()
            for seed in SEED_GRID:
                try:
                    sol = solve_superradiant(p, init=seed)
                except NewtonError:
                    continue
                if abs(sol.state.a1) < 1e-8:
                    continue
                dist = np.max(np.abs(states - sol.state.to_array()), axis=1)
                assert dist.size and dist.min() <= 1e-8, (p, sol.state)
                hits.add(int(dist.argmin()))
            found += len(hits)
        # The oracle reaches most states, so the check is not vacuous.
        assert listed > 400 and found > listed // 2

    def test_mirror_pairs_residuals_and_distinctness(self):
        rng = np.random.default_rng(22)
        mirror = np.array([-1, -1, -1, -1, 1, -1, -1, 1])  # (a, jx, jy) -> -(a, jx, jy)
        for p in varied_params(rng, 200):
            states = [s.to_array() for s in superradiant_states(p)]
            for y in states:
                assert any(np.array_equal(mirror * y, z) for z in states)
                assert np.max(np.abs(eom_rhs(y, p))) <= 1e-13
                assert max(map(abs, spin_norm_residual(y, p))) <= 1e-14
            for i, y in enumerate(states):
                for z in states[:i]:
                    assert np.max(np.abs(y - z)) > 1e-9

    def test_branch_count_parity_follows_the_pole_boundary(self):
        # At u = a1^2 = 0 the branch equation's excess is B/omega_c of the
        # pole phase with the branch's signs, and it is negative at large u: an
        # odd number of branches with those signs exists exactly where the pole has B > 0.
        rng = np.random.default_rng(23)
        checks = two_roots = 0
        for p in varied_params(rng, 1000):
            patterns = [hemispheres(s) for s in superradiant_states(p) if s.a1 > 0]
            for phase in Phase:
                b = pole_indicators(phase, p)[0]
                count = patterns.count(phase.signs)
                assert count <= 2
                assert (count % 2 == 1) == (b > 0), (p, phase, count, b)
                two_roots += count == 2
                checks += 1
        assert checks == 4000 and two_roots > 0

    def test_normal_branch_is_never_unstable_and_a_mixed_branch_never_stable(self):
        # Observed, not proven: the branch that leaves the normal pole (j1z, j2z < 0)
        # holds the attractor, and a branch that leaves a mixed pole never does.
        # Marginal occurs on both (omega1 = omega2, lambda_i = 0).
        rng = np.random.default_rng(27)
        normal = mixed = 0
        for p in varied_params(rng, 400):
            for s in superradiant_states(p):
                signs = hemispheres(s)
                verdict = assess(s, p).classification
                if signs == (-1, -1):
                    assert verdict is not Classification.UNSTABLE, (p, s)
                    normal += 1
                elif signs[0] != signs[1]:
                    assert verdict is not Classification.STABLE, (p, s)
                    mixed += 1
        assert normal > 100 and mixed > 100

    def test_branches_bifurcate_from_the_analytic_boundary(self):
        rng = np.random.default_rng(24)
        # Stepping outside a pole's boundary curve along the coupling that
        # raises its B, the branch with the pole's signs starts at a1^2 -> 0.
        outward = {Phase.NORMAL: (1, 1), Phase.MIXED1: (1, 0), Phase.MIXED2: (0, 1)}
        for _ in range(10):
            p = random_params(rng)
            for phase, (d1, d2) in outward.items():
                for l1, l2 in analytic_boundary_curve(phase, p, samples=5)[1:-1]:
                    last = np.inf
                    for eps in (1e-3, 1e-6, 1e-9):
                        q = replace(p, lambda1=l1 * (1 + d1 * eps), lambda2=l2 * (1 + d2 * eps))
                        assert pole_indicators(phase, q)[0] > 0
                        states = superradiant_states(q)
                        u = [s.a1**2 for s in states if s.a1 > 0 and hemispheres(s) == phase.signs]
                        assert len(u) == 1 and u[0] < last
                        last = u[0]
                    assert last < 1e-7

    def test_no_mixed_branch_on_the_mixed_diagonal(self):
        # omega1 = omega2, n1 = n2, lambda1 = lambda2: the two hemisphere
        # terms cancel, so no mixed pole can turn superradiant.
        rng = np.random.default_rng(25)
        for _ in range(2000):
            w, n, lam = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0)
            p = ModelParams(
                omega1=w, omega2=w, n1=n, n2=n, lambda1=lam, lambda2=lam,
                omega_c=rng.uniform(0.5, 2.0), kappa=rng.uniform(0.5, 2.0),
            )
            assert all(hemispheres(s) in ((1, 1), (-1, -1)) for s in superradiant_states(p))

    def test_input(self):
        assert superradiant_states(ModelParams()) == []
        with pytest.raises(ValueError):
            superradiant_states(ModelParams(lambda1=float("nan")))


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda p: critical_lambda(Phase.NORMAL, 1, np.nan, p), "coupling", id="nan"),
        pytest.param(lambda p: critical_lambda(Phase.NORMAL, 1, np.inf, p), "coupling", id="inf"),
        pytest.param(lambda p: critical_lambda(Phase.MIXED2, 2, -0.1, p), "coupling", id="neg"),
        pytest.param(lambda p: critical_lambda1_given_j2z(p, np.nan), "j2z", id="j2z-nan"),
        pytest.param(lambda p: critical_lambda1_given_j2z(p, -np.inf), "j2z", id="j2z-inf"),
        pytest.param(lambda p: critical_lambda1_given_j2z(p, 5.0), "j2z", id="j2z-off-shell"),
        pytest.param(lambda p: critical_lambda1_given_j2z(p, -0.5000001), "j2z", id="j2z-below"),
    ],
)
def test_critical_couplings_reject_bad_free_inputs(call, match):
    # Free inputs are checked where they enter, never turned into nan or a wrong number.
    with pytest.raises(ValueError, match=match):
        call(ModelParams(lambda2=1.0))


class TestCriticalLambda:
    def test_normal_single_species_threshold(self):
        cc = critical_lambda(Phase.NORMAL, 2, 0.0, UNIT)
        assert cc == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_normal_radicand_hits_zero(self):
        cc = critical_lambda(Phase.NORMAL, 1, np.sqrt(0.5), UNIT)
        assert cc == pytest.approx(0.0, abs=1e-8)

    def test_normal_no_boundary_beyond_other_threshold(self):
        assert critical_lambda(Phase.NORMAL, 1, 1.0, UNIT) is None

    def test_mixed1_species1(self):
        cc = critical_lambda(Phase.MIXED1, 1, 0.5, UNIT)
        assert cc == pytest.approx(np.sqrt(0.75), abs=1e-12)

    def test_inverted_has_no_zero_frequency_boundary(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_params(rng)
            assert critical_lambda(Phase.INVERTED, 1, p.lambda2, p) is None
            assert critical_lambda(Phase.INVERTED, 2, p.lambda1, p) is None

    def test_on_boundary_value_vanishes(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(300):
            p = random_params(rng, lam_hi=2.5)
            for phase in Phase:
                for species in (1, 2):
                    other = p.lambda2 if species == 1 else p.lambda1
                    cc = critical_lambda(phase, species, other, p)
                    if cc is None:
                        continue
                    if species == 1:
                        b = pole_indicators(phase, replace(p, lambda1=cc, lambda2=other))[0]
                    else:
                        b = pole_indicators(phase, replace(p, lambda1=other, lambda2=cc))[0]
                    assert abs(b) < 1e-12
                    checked += 1
        assert checked > 100

    def test_normal_curve_involution(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            p = random_params(rng)
            lam2 = rng.uniform(0.0, 0.9) * np.sqrt(
                p.omega2 * (p.kappa**2 + p.omega_c**2) / (4 * p.omega_c)
            )
            lam1 = critical_lambda(Phase.NORMAL, 1, lam2, p)
            assert lam1 is not None
            back = critical_lambda(Phase.NORMAL, 2, lam1, p)
            assert back is not None
            assert back == pytest.approx(lam2, abs=1e-10)

    def test_boundary_curve_points_equal_critical_lambda(self):
        # The polyline and critical_lambda solve B = 0 with the same arithmetic.
        rng = np.random.default_rng(19)
        points = 0
        for _ in range(200):
            p = random_params(rng)
            for phase, swept in ((Phase.NORMAL, 2), (Phase.MIXED1, 2), (Phase.MIXED2, 1)):
                windows = dict(l1_max=rng.uniform(0.5, 3.0), l2_max=rng.uniform(0.5, 3.0))
                for point in analytic_boundary_curve(phase, p, samples=41, **windows):
                    other, solved = point[swept - 1], point[2 - swept]
                    assert critical_lambda(phase, 3 - swept, other, p) == solved, (p, phase, point)
                    points += 1
        assert points > 10000


class TestPartialSuperradiance:
    def test_reference_value(self):
        assert partial_superradiant_jz(ModelParams(lambda2=1.0)) == -0.25

    def test_touches_pole_at_threshold(self):
        jz = partial_superradiant_jz(ModelParams(lambda2=np.sqrt(0.5)))
        assert jz == pytest.approx(-0.5, abs=1e-12)

    def test_absent_below_threshold(self):
        assert partial_superradiant_jz(ModelParams(lambda2=0.5)) is None

    def test_requires_positive_coupling(self):
        with pytest.raises(ValueError, match="positive coupling"):
            partial_superradiant_jz(ModelParams())


class TestCriticalLambda1GivenJ2z:
    def test_vanishes_on_partial_superradiant_branch(self):
        p = ModelParams(lambda2=1.0)
        jz = partial_superradiant_jz(p)
        lam1c = critical_lambda1_given_j2z(p, jz)
        assert lam1c is not None
        assert abs(lam1c) <= 1e-14

    def test_reduces_to_normal_phase_expression_at_south_pole(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            p = random_params(rng)
            general = critical_lambda1_given_j2z(p, -p.n2 / 2.0)
            direct = critical_lambda(Phase.NORMAL, 1, p.lambda2, p)
            assert general == direct

    def test_reduces_to_mixed1_expression_at_north_pole(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            p = random_params(rng)
            general = critical_lambda1_given_j2z(p, p.n2 / 2.0)
            direct = critical_lambda(Phase.MIXED1, 1, p.lambda2, p)
            assert direct is not None
            assert general == direct
