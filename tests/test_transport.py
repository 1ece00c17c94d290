"""Strength transport, the mechanism of the proof (Busch & Gudder, Lett.
Math. Phys. 47, 1999): a family member phi maps each weak atom t P to
f_p(t) phi(P), so for every effect A and ray P the strength of phi(A) along
phi(P) is f_p of the strength of A along P.

* The closed form on the images agrees with f_p of the closed form on the
  originals to TRANSPORT relative, 1e-3 eps_eq = 1e-12 (1.3e-15 was the
  worst seen over these 120 cases, 1.7e-14 over 200 other seeds).
* The bisection on the images, a second route that never reads the
  formula, lies within the bound ``test_reference.py`` holds it to, taking
  f_p of the closed form as the truth: at most 2^-27 below, and above by at
  most 1.05 t^2 ||phi(A)^-1 v||^2 times the slack (0.97 of it the worst seen).
* Šemrl's order automorphism (``test_controls.py``, p = 0.3, q = 0.5) keeps
  order but not zero products; along the top eigenvector of phi(P) the
  strength misses f_p of the original by 0.013 to 0.13, so the check fails.

The p sweep, -1e3 to 0.99, leaves out the region where f_p saturates,
p = -1e6 and below, where f_p crushes every sampled spectrum
towards 0 and the images' strengths are of order 1/|p| or less.  The
relative residual held there too on these seeds (1.4e-15 at p = -1e6,
9.4e-16 at p = -(2^53 + 2)), but fp_eval itself is off by up to 5.3e-11
relative near x = 1 at p = -1e6 (``test_reference.py``).
"""

import numpy as np
import pytest

from effectkit.autos import apply_to_ray, random_automorphism
from effectkit.effects import make_ray, sample_effect, sample_ray
from effectkit.fracfun import fp_eval
from effectkit.numkern import DEFAULT_TOL, frobenius
from effectkit.strength import BISECT_ITERATIONS, strength_bisect, strength_closed
from test_controls import _order_automorphism

TRANSPORT = 1e-3 * DEFAULT_TOL.eps_eq
EPS = np.finfo(float).eps
SEEDS = range(3)


@pytest.mark.parametrize("p", [-1e3, -1.0, 0.0, 0.5, 0.99])
@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_a_family_member_transports_the_strength_by_f_p(n, p):
    for conj in (False, True):
        for seed in SEEDS:
            rng = np.random.default_rng([13, n, seed, int(conj)])
            phi = random_automorphism(n, p, conj, rng)
            A, ray = sample_effect(n, rng), sample_ray(n, rng)
            B, image = phi(A), apply_to_ray(phi, ray)
            want = fp_eval(p, strength_closed(A, ray).value)
            closed = strength_closed(B, image)
            assert closed.in_range and abs(closed.value - want) <= TRANSPORT * want

            x = np.linalg.solve(B.matrix, image.vector)
            solved = float(np.vdot(x, x).real)
            slack = DEFAULT_TOL.eps_psd * max(1.0, frobenius(B.matrix - want * image.matrix))
            bisected = strength_bisect(B, image)
            low = want * (1.0 - TRANSPORT) - 2.0**-BISECT_ITERATIONS - 4 * EPS
            assert low <= bisected <= want * (1.0 + TRANSPORT) + 1.05 * want**2 * solved * slack


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_an_order_automorphism_outside_the_family_does_not_transport_the_strength(n, seed):
    phi = _order_automorphism(n, seed, 0.3, 0.5)
    rng = np.random.default_rng([17, n, seed])
    A, ray = sample_effect(n, rng), sample_ray(n, rng)
    image = make_ray(np.linalg.eigh(phi(ray.projection).matrix)[1][:, -1])
    gap = abs(strength_closed(phi(A), image).value - fp_eval(0.3, strength_closed(A, ray).value))
    assert gap > 1e-3
