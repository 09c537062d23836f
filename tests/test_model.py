"""Model layer: equations of motion vs complex oracle, invariants, examples."""

import numpy as np
import pytest

from dicke2 import (
    DriveParams,
    ModelParams,
    Phase,
    SystemState,
    coupling_from_pump,
    eom_rhs,
    lambda_combined,
    spin_norm_residual,
    trivial_fixed_point,
    validate_params,
)

UNIT = ModelParams()


def complex_rhs(y, p):
    """Oracle: the equations of motion evaluated in complex arithmetic.

    Works with a = a1 + i*a2 and J_i- = J_ix - i*J_iy directly, then maps
    the complex derivatives back to the real 8-component layout.
    """
    a = y[0] + 1j * y[1]
    j1m = y[2] - 1j * y[3]
    j2m = y[5] - 1j * y[6]
    j1p, j2p = np.conj(j1m), np.conj(j2m)
    j1z, j2z = y[4], y[7]
    e1 = 1j * p.lambda1 / np.sqrt(p.n1)
    e2 = 1j * p.lambda2 / np.sqrt(p.n2)
    x = np.conj(a) + a
    dj1z = e1 * x * (j1m - j1p)
    dj2z = e2 * x * (j2m - j2p)
    dj1m = -1j * p.omega1 * j1m + 2.0 * e1 * x * j1z
    dj2m = -1j * p.omega2 * j2m + 2.0 * e2 * x * j2z
    da = -(p.kappa + 1j * p.omega_c) * a - e1 * (j1p + j1m) - e2 * (j2p + j2m)
    assert abs(dj1z.imag) == 0 and abs(dj2z.imag) == 0
    return np.array(
        [
            da.real,
            da.imag,
            dj1m.real,
            -dj1m.imag,
            dj1z.real,
            dj2m.real,
            -dj2m.imag,
            dj2z.real,
        ]
    )


def random_params(rng):
    return ModelParams(
        omega1=rng.uniform(0.5, 2.0),
        omega2=rng.uniform(0.5, 2.0),
        omega_c=rng.uniform(0.5, 2.0),
        kappa=rng.uniform(0.5, 2.0),
        n1=rng.uniform(0.5, 2.0),
        n2=rng.uniform(0.5, 2.0),
        lambda1=rng.uniform(0.0, 1.5),
        lambda2=rng.uniform(0.0, 1.5),
    )


def random_onshell_state(rng, p):
    u1 = rng.normal(size=3)
    u2 = rng.normal(size=3)
    j1 = u1 / np.linalg.norm(u1) * p.n1 / 2.0
    j2 = u2 / np.linalg.norm(u2) * p.n2 / 2.0
    return np.concatenate([rng.uniform(-2.0, 2.0, 2), j1, j2])


class TestValidateParams:
    def test_unit_configuration_passes(self):
        p = ModelParams(lambda1=0.5, lambda2=0.5)
        assert validate_params(p) is p

    def test_zero_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa must be positive"):
            validate_params(ModelParams(kappa=0.0))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="coupling must be non-negative"):
            validate_params(ModelParams(lambda1=-0.1))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="omega2 must be positive"):
            validate_params(ModelParams(omega2=-1.0))

    def test_nonpositive_atom_number_rejected(self):
        with pytest.raises(ValueError, match="atom number n1 must be positive"):
            validate_params(ModelParams(n1=0.0))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("omega1", "omega1 must be positive"),
            ("omega_c", "omega_c must be positive"),
            ("kappa", "kappa must be positive"),
            ("n2", "atom number n2 must be positive"),
            ("lambda1", "coupling must be non-negative"),
            ("lambda2", "coupling must be non-negative"),
        ],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rejected(self, field, message, value):
        with pytest.raises(ValueError, match=message):
            validate_params(ModelParams(**{field: value}))


class TestCouplingFromPump:
    def test_direct_arithmetic(self):
        assert coupling_from_pump(DriveParams(1.0, 2.0, 2.0, 1.0)) == 1.0
        assert coupling_from_pump(DriveParams(0.5, 4.0, 3.0, 1.0)) == 0.5

    def test_zero_single_atom_coupling(self):
        assert coupling_from_pump(DriveParams(0.0, 7.0, 2.0, 1.0)) == 0.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="detuning"):
            coupling_from_pump(DriveParams(1.0, 2.0, 1.3, 1.3))


class TestEomRhs:
    def test_matches_complex_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = random_params(rng)
            y = random_onshell_state(rng, p)
            got = eom_rhs(y, p)
            want = complex_rhs(y, p)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_pole_states_are_exact_zeros(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_params(rng)
            for phase in Phase:
                rhs = eom_rhs(trivial_fixed_point(phase, p), p)
                assert np.all(rhs == 0.0)

    def test_decoupled_cavity(self):
        p = ModelParams()
        state = SystemState(1.0, 0.0, (0.0, 0.0, -0.5), (0.0, 0.0, -0.5))
        rhs = eom_rhs(state, p)
        assert rhs[0] == -p.kappa
        assert rhs[1] == -p.omega_c
        assert np.all(rhs[2:] == 0.0)

    def test_spin_derivative_orthogonal_to_spin(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_params(rng)
            y = random_onshell_state(rng, p)
            d = eom_rhs(y, p)
            for sl in (slice(2, 5), slice(5, 8)):
                dot = float(np.dot(y[sl], d[sl]))
                scale = np.linalg.norm(y[sl]) * max(np.linalg.norm(d[sl]), 1.0)
                assert abs(dot) <= 1e-12 * scale

    def test_accepts_state_and_vector(self):
        p = ModelParams(lambda1=0.3, lambda2=0.7)
        y = np.array([0.1, -0.2, 0.1, 0.0, -0.45, 0.0, 0.2, 0.4])
        s = SystemState.from_array(y)
        assert np.array_equal(eom_rhs(y, p), eom_rhs(s, p))


class TestSpinNormResidual:
    def test_pole_state(self):
        r1, r2 = spin_norm_residual(trivial_fixed_point(Phase.NORMAL, UNIT), UNIT)
        assert r1 == 0.0 and r2 == 0.0

    def test_three_four_five(self):
        s = SystemState(0.0, 0.0, (0.3, 0.4, 0.0), (0.0, 0.0, 0.5))
        r1, r2 = spin_norm_residual(s, UNIT)
        assert r1 == 0.0 and r2 == 0.0

    def test_off_shell(self):
        s = SystemState(0.0, 0.0, (0.0, 0.0, 0.6), (0.0, 0.0, 0.5))
        r1, _ = spin_norm_residual(s, UNIT)
        assert r1 == pytest.approx(0.11, abs=1e-15)


class TestTrivialFixedPoint:
    def test_normal_pole(self):
        s = trivial_fixed_point(Phase.NORMAL, UNIT)
        assert s.a1 == 0.0 and s.a2 == 0.0
        assert tuple(s.j1) == (0.0, 0.0, -0.5)
        assert tuple(s.j2) == (0.0, 0.0, -0.5)

    def test_mixed1_pole(self):
        s = trivial_fixed_point(Phase.MIXED1, UNIT)
        assert s.j1[2] == -0.5 and s.j2[2] == 0.5

    def test_sign_pairs(self):
        assert Phase.NORMAL.signs == (-1, -1)
        assert Phase.INVERTED.signs == (1, 1)
        assert Phase.MIXED1.signs == (-1, 1)
        assert Phase.MIXED2.signs == (1, -1)


class TestLambdaCombined:
    def test_normal_value(self):
        p = ModelParams(lambda1=0.5, lambda2=0.5)
        assert lambda_combined(p, Phase.NORMAL) == -0.5

    def test_mixed_cancellation(self):
        p = ModelParams(lambda1=0.8, lambda2=0.8)
        assert lambda_combined(p, Phase.MIXED1) == 0.0

    def test_no_coupling(self):
        assert lambda_combined(ModelParams(), Phase.INVERTED) == 0.0

    def test_species_swap_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_params(rng)
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
            for phase, mirror in [
                (Phase.NORMAL, Phase.NORMAL),
                (Phase.INVERTED, Phase.INVERTED),
                (Phase.MIXED1, Phase.MIXED2),
                (Phase.MIXED2, Phase.MIXED1),
            ]:
                a = lambda_combined(p, phase)
                b = lambda_combined(swapped, mirror)
                assert a == pytest.approx(b, abs=1e-15)


class TestSystemState:
    def test_array_roundtrip(self):
        y = np.arange(8.0)
        assert np.array_equal(SystemState.from_array(y).to_array(), y)

    def test_spins_are_read_only(self):
        s = trivial_fixed_point(Phase.NORMAL, UNIT)
        with pytest.raises(ValueError):
            s.j1[0] = 1.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            SystemState(0.0, 0.0, (1.0, 2.0), (0.0, 0.0, 0.5))
        with pytest.raises(ValueError):
            SystemState.from_array(np.zeros(7))
