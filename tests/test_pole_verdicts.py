"""Exact pole verdicts from where the pole spectrum can cross the imaginary axis."""

from collections import Counter
from dataclasses import replace

import numpy as np

from dicke2 import (
    Classification,
    GridSpec,
    ModelParams,
    Phase,
    assess,
    lambda_combined,
    pole_indicators,
    scan,
    trivial_fixed_point,
)
from dicke2.phasescan import grid_values
from dicke2.stability import MARGINAL_TOL


def pole_unstable(phase, p):
    """Exact class of a pole, unstable or not, for lambda1, lambda2 > 0 and positive frequencies.

    The couplings of p may be arrays; the result broadcasts over them.

    At a pole, with l_i = s_i*lambda_i^2, A_i = s^2 + omega_i^2 and
    C = (s + kappa)^2 + omega_c^2, the six tangent-space eigenvalues are the
    roots of the real sextic P(s) = C*A1*A2 + 4*omega_c*(l1*omega1*A2 + l2*omega2*A1),
    whose leading coefficient is 1. Write L = l1/omega1 + l2/omega2 (lambda_combined)
    and B = -4*omega_c*L - (kappa^2 + omega_c^2) (pole_indicators).

    1. Crossings. On s = i*nu the A_i and the coupling term are real and
       Im C = 2*kappa*nu, so Im P(i*nu) = 2*kappa*nu*A1*A2: a root can reach
       the imaginary axis only at nu = 0 or nu = +-omega_i. There
       P(0) = -omega1^2*omega2^2*B and P(i*omega1) = 4*omega_c*l1*omega1*(omega2^2 - omega1^2),
       likewise for species 2. With omega1 != omega2 and both couplings
       positive, the count of unstable roots therefore changes only across B = 0.
    2. Parity. Non-real roots come in conjugate pairs, so the sign of P(0)
       is (-1)^(number of positive real roots), and that number has the
       parity of the count of unstable roots. B > 0 makes the count odd:
       every pole is unstable there.
    3. Weak coupling. As the couplings shrink, P -> C*A1*A2, with roots
       -kappa +- i*omega_c and +-i*omega_i. The root near i*omega_i moves by
       about 2i*omega_c*l_i/C(i*omega_i), whose real part has the sign of
       l_i*Im C(i*omega_i) = l_i*2*kappa*omega_i, the sign s_i. So at weak
       coupling each species at its upper pole (s_i = +1) brings one unstable
       pair and a species at its lower pole none. B < 0 is a half-plane in
       (lambda1^2, lambda2^2) that reaches weak coupling, so with omega1 != omega2
       it holds 0 unstable roots at the normal pole, 2 at a mixed pole and 4
       at the inverted pole (whose L > 0 makes B < 0 everywhere). With 2.:
       normal is unstable iff B > 0; inverted, mixed1 and mixed2 always are.
    4. Equal frequencies, omega1 = omega2 = w. Then P = A*Q with
       Q = C*A + 4*omega_c*w^2*L. The factor A pins a pair at +-i*w, so no
       pole is Stable. Q(0) = -w^2*B and Q(i*w) = 4*omega_c*w^2*L, so Q's
       count changes only across B = 0 and L = 0, and near L = 0 the pair
       near +-i*w moves with the sign of L, as in 3. So Q has no unstable
       root exactly where B <= 0 and L <= 0 (at L = 0 its pair sits on the
       axis: the defective pair of the mixed diagonal). Normal has L < 0 and
       inverted L > 0: normal is unstable iff B > 0, inverted always is, and
       a mixed pole is unstable iff B > 0 or L > 0.

    Where the exact class is unstable but the growth rate is within
    MARGINAL_TOL (near lambda_i = 0 or omega1 ~ omega2), a tolerance
    verdict reads Marginal, so comparisons skip |growth| <= MARGINAL_TOL.
    """
    b = pole_indicators(phase, p)[0]
    if phase is Phase.NORMAL:
        return b > 0
    if phase is Phase.INVERTED or p.omega1 != p.omega2:
        return np.full(np.shape(b), True)
    return (b > 0) | (lambda_combined(p, phase) > 0)


def random_params(rng, equal_frequencies):
    omega1 = rng.uniform(0.5, 2.0)
    return ModelParams(
        omega1=omega1,
        omega2=omega1 if equal_frequencies else rng.uniform(0.5, 2.0),
        omega_c=rng.uniform(0.5, 2.0),
        kappa=rng.uniform(0.5, 2.0),
        n1=rng.uniform(0.5, 2.0),
        n2=rng.uniform(0.5, 2.0),
    )


def test_scan_and_assess_verdicts_follow_the_exact_table():
    rng = np.random.default_rng(60)
    grid = GridSpec(l1_min=0.05, l1_max=2.5, l1_count=15, l2_min=0.05, l2_max=2.5, l2_count=15)
    l1s, l2s = grid_values(grid)
    # (equal frequencies, exact class) -> cells compared; the table's branches must all be hit.
    compared = Counter()
    marginal = 0
    for k in range(8):
        equal = k % 2 == 0
        p = random_params(rng, equal)
        on_grid = replace(p, lambda1=l1s[:, None], lambda2=l2s)
        for phase in Phase:
            want = pole_unstable(phase, on_grid)
            growth = np.array([c.max_growth_rate for c in scan(phase, grid, p).cells])
            growth = growth.reshape(want.shape)
            decided = np.abs(growth) > MARGINAL_TOL
            assert np.array_equal((growth > 0)[decided], want[decided]), (p, phase)
            # Couplings start at 0.05 and no draw is near-degenerate, so no
            # exactly unstable cell has a growth rate within the tolerance.
            assert not np.any(want & ~decided), (p, phase)
            for cls in (False, True):
                compared[equal, cls] += int((decided & (want == cls)).sum())
            # Exactly not unstable at omega1 = omega2 means Marginal: a pair sits on the axis.
            if equal:
                assert np.all(np.abs(growth[~want]) <= MARGINAL_TOL), (p, phase)
                marginal += int((~want).sum())
            i, j = rng.integers(grid.l1_count), rng.integers(grid.l2_count)
            q = replace(p, lambda1=float(l1s[i]), lambda2=float(l2s[j]))
            report = assess(trivial_fixed_point(phase, q), q)
            if abs(report.max_growth_rate) > MARGINAL_TOL:
                assert (report.classification is Classification.UNSTABLE) == want[i, j]
    assert compared[(False, False)] > 0 and compared[(False, True)] > 0
    assert compared[(True, True)] > 0 and marginal > 0
