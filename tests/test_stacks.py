"""Stacked primitives against the per-matrix ones, bit for bit.

Every stacked step the verification suites run (sampling, validation,
decisions, map application) must give each member exactly the bits the
per-matrix call gives it, or the reports would change.
"""

import numpy as np
import pytest

from effectkit.autos import apply, random_automorphism
from effectkit.effects import (
    EffectStack,
    _make_effect_stack,
    _sample_effect_stack,
    _sample_ray_stack,
    _stack_effects,
    leq,
    make_effect,
    orthocomplement,
    sample_effect,
    sample_ray,
    zero_product,
)
from effectkit.errors import DimensionError, HermiticityViolation, SpectrumOutOfRange
from effectkit.fracfun import fp_apply
from effectkit.numkern import (
    DEFAULT_TOL,
    _haar_unitary_stack,
    _random_effect_stack,
    _random_ray_stack,
    _vector_norm,
    frobenius,
    haar_unitary,
    hermitize,
    mat_sqrt,
    pinv_sqrt,
    psd_leq,
    random_effect,
    random_ray,
)
from effectkit.sequential import seq_product

DIMS = (1, 2, 3, 8)
T = 6


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_effect(E, F) -> bool:
    return same(E.matrix, F.matrix) and same(E.eigenvalues, F.eigenvalues) and same(E.eigenvectors, F.eigenvectors)


def rngs(seed: int):
    return [np.random.default_rng([seed, k]) for k in range(T)]


def effect_pairs(n: int, seed: int):
    """Two stacks of sampled effects and the same effects sampled one by one."""
    A, B = _sample_effect_stack(n, rngs(seed)), _sample_effect_stack(n, rngs(seed + 1))
    singles = [(sample_effect(n, np.random.default_rng([seed, k])), sample_effect(n, np.random.default_rng([seed + 1, k])))
               for k in range(T)]
    return A, B, singles


def _haar_reference(n, rng):
    """haar_unitary as first written, on a lone matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def _effect_reference(n, rng):
    """random_effect as first written, on a lone matrix."""
    Q = _haar_reference(n, rng)
    return hermitize((Q * rng.uniform(0.0, 1.0, size=n)) @ Q.conj().T)


def _ray_reference(n, rng):
    """random_ray as first written, on a lone vector."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", DIMS + (64,))
def test_samplers_draw_each_trial_as_alone(n):
    U = _haar_unitary_stack(n, rngs(1))
    M = _random_effect_stack(n, rngs(2))
    v = _random_ray_stack(n, rngs(3))
    for k in range(T):
        assert same(U[k], haar_unitary(n, np.random.default_rng([1, k])))
        assert same(U[k], _haar_reference(n, np.random.default_rng([1, k])))
        assert same(M[k], random_effect(n, np.random.default_rng([2, k])))
        assert same(M[k], _effect_reference(n, np.random.default_rng([2, k])))
        assert same(v[k], random_ray(n, np.random.default_rng([3, k])))
        assert same(v[k], _ray_reference(n, np.random.default_rng([3, k])))
    # A lone draw also takes an integer seed.
    assert same(haar_unitary(n, 5), _haar_reference(n, np.random.default_rng(5)))


@pytest.mark.parametrize("n", DIMS + (64,))
def test_norms_and_hermitize_match_numpy(n):
    rng = np.random.default_rng(n)
    scale = 10.0 ** rng.uniform(-6, 6, (T, n, n))
    M = scale * (rng.standard_normal((T, n, n)) + 1j * rng.standard_normal((T, n, n)))
    norms = frobenius(M)
    rows = _vector_norm(M[:, 0, :])
    H = hermitize(M)
    for k in range(T):
        assert norms[k] == np.linalg.norm(M[k]) == frobenius(M[k])
        assert rows[k] == np.linalg.norm(M[k, 0, :]) == _vector_norm(M[k, 0, :])
        assert same(H[k], 0.5 * (M[k] + M[k].conj().T))
    # A lone matrix is summed in memory order, as np.linalg.norm sums it.
    for F in (np.asfortranarray(M[0]), M[0].T, M[0].conj().T):
        assert frobenius(F) == np.linalg.norm(F)


@pytest.mark.parametrize("n", DIMS)
def test_sampled_stacks_match_sampled_effects_and_rays(n):
    E = _sample_effect_stack(n, rngs(4))
    P = _sample_ray_stack(n, rngs(5))
    assert isinstance(E, EffectStack) and len(E) == T and E.dim == n
    for k in range(T):
        assert same_effect(E[k], sample_effect(n, np.random.default_rng([4, k])))
        assert same_effect(P[k], sample_ray(n, np.random.default_rng([5, k])).projection)


@pytest.mark.parametrize("n", DIMS)
def test_validation_takes_the_rebuild_branch_per_member(n):
    rng = np.random.default_rng(10 + n)
    Ms = _random_effect_stack(n, rngs(6))
    # Member 1 sticks out of [0, 1] by less than eps_psd on both sides,
    # member 3 below 0 only: both are clamped and rebuilt, the rest not.
    Q = haar_unitary(n, rng)
    w = np.linspace(-0.5 * DEFAULT_TOL.eps_psd, 1.0 + 0.5 * DEFAULT_TOL.eps_psd, n)
    Ms[1] = hermitize((Q * w) @ Q.conj().T)
    Ms[3] = hermitize((Q * np.full(n, -0.5 * DEFAULT_TOL.eps_psd)) @ Q.conj().T)
    S = _make_effect_stack(Ms)
    for k in range(T):
        alone = make_effect(Ms[k])
        assert same_effect(S[k], alone)
    assert not same(S[1].matrix, hermitize(Ms[1]))
    assert same(S[0].matrix, hermitize(Ms[0]))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize(
    "spoil,error",
    [
        (lambda M: M.__setitem__((0, -1), M[0, -1] + 1e-3j), HermiticityViolation),
        (lambda M: M.__setitem__((0, 0), np.nan), HermiticityViolation),
        (lambda M: M.__setitem__((0, 0), np.inf), HermiticityViolation),
        (lambda M: M.__setitem__((0, 0), 1.5), SpectrumOutOfRange),
    ],
    ids=["non-hermitian", "nan", "inf", "spectrum"],
)
def test_a_bad_member_raises_what_make_effect_raises(n, spoil, error):
    Ms = _random_effect_stack(n, rngs(7))
    bad = Ms[2].copy()
    spoil(bad)
    Ms[2] = bad
    with pytest.raises(error) as alone:
        make_effect(bad)
    with pytest.raises(error) as stacked:
        _make_effect_stack(Ms)
    assert str(stacked.value) == str(alone.value)


def test_stack_and_matrix_inputs_are_not_mixed_up():
    stack = np.zeros((2, 2, 2))
    with pytest.raises(DimensionError):
        _make_effect_stack(np.eye(2))
    with pytest.raises(DimensionError):
        _make_effect_stack(np.zeros((0, 2, 2)))
    for matrix_only in (make_effect, mat_sqrt, pinv_sqrt, lambda M: psd_leq(M, M)):
        with pytest.raises(DimensionError):
            matrix_only(stack)


@pytest.mark.parametrize("n", DIMS)
def test_decisions_match_per_pair(n):
    A, B, singles = effect_pairs(n, 8)
    # seq_product gives ordered pairs and a ray is orthogonal to its
    # complement, so both outcomes of each decision appear.
    C = seq_product(B, A)
    below, above = leq(C, B), leq(B, C)
    P = _sample_ray_stack(n, rngs(13))
    apart, orthogonal = zero_product(A, B), zero_product(P, orthocomplement(P))
    assert below.shape == (T,) and below.dtype == bool
    assert below.all() and not above.any()
    assert orthogonal.all() and not apart.any()
    for k, (a, b) in enumerate(singles):
        c = seq_product(b, a)
        ray = sample_ray(n, np.random.default_rng([13, k])).projection
        assert same_effect(C[k], c)
        assert below[k] == leq(c, b) and above[k] == leq(b, c)
        assert apart[k] == zero_product(a, b)
        assert orthogonal[k] == zero_product(ray, orthocomplement(ray))
        assert same_effect(orthocomplement(A)[k], orthocomplement(a))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("p", [-1e6, 0.0, 0.5, 0.999999])
def test_map_application_matches_per_effect(n, conjugate, p):
    A, _, singles = effect_pairs(n, 9)
    phi = random_automorphism(n, p, conjugate, 11)
    image = apply(phi, A)
    fa = fp_apply(p, A)
    for k, (a, _) in enumerate(singles):
        assert same_effect(image[k], apply(phi, a))
        assert same_effect(fa[k], fp_apply(p, a))


@pytest.mark.parametrize("n", DIMS)
def test_stack_effects_round_trip(n):
    A = _sample_effect_stack(n, rngs(12))
    again = _stack_effects([A[k] for k in range(len(A))])
    assert same(again.matrix, A.matrix)
    assert same(again.eigenvalues, A.eigenvalues)
    assert same(again.eigenvectors, A.eigenvectors)


@pytest.mark.parametrize("block", [1, 7])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, block):
    from effectkit import autos, suites

    def shrink(A):
        return make_effect(0.5 * A.matrix + 0.25 * np.eye(A.dim))

    phi = random_automorphism(3, 0.5, True, 17)
    runs = [
        lambda: autos.verify_order(phi, 10, 19),
        lambda: autos.verify_zero_product(phi, 10, 19),
        lambda: autos.verify_zero_product(shrink, 10, 19, dim=3),
        lambda: autos.verify_ortho(phi, 10, 19),
        lambda: autos.verify_sequential(phi, 10, 19),
        lambda: autos.verify_transition(phi, 10, 19),
        lambda: autos.verify_scalar_pair(phi, 0.3, 10, 19),
    ]
    default = [run().to_dict() for run in runs]
    monkeypatch.setattr(suites, "_BLOCK_ENTRIES", block * 3 * 3)
    assert [run().to_dict() for run in runs] == default


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("suite", ["coexist", "strength-oracle", "pexider"])
def test_suite_reports_do_not_depend_on_the_block_size(monkeypatch, capsys, block, suite):
    from effectkit import suites
    from effectkit.cli import main

    argv = ["verify", "--suite", suite, "--dims", "2,3", "--trials", "10", "--seed", "19"]
    main(argv)
    default = capsys.readouterr().out
    monkeypatch.setattr(suites, "_BLOCK_ENTRIES", block * 3 * 3)
    main(argv)
    assert capsys.readouterr().out == default


def _closed_reference(A, v, tol=DEFAULT_TOL):
    """strength_closed as first written, one effect at a time."""
    w = A.eigenvalues
    mags = np.abs(A.eigenvectors.conj().T @ v)
    cutoff = tol.eps_rank * float(w[-1])
    kernel = w <= cutoff
    near = False
    if np.any(kernel):
        kmax = float(mags[kernel].max())
        near = tol.eps_rank / 10.0 <= kmax <= tol.eps_rank * 10.0
        if kmax > tol.eps_rank:
            return 0.0, False, near
    kept = ~kernel
    near = near or bool(np.any(kept & (w <= 10.0 * cutoff) & (mags > tol.eps_rank)))
    return min(1.0, max(0.0, 1.0 / float(np.sum(mags[kept] ** 2 / w[kept])))), True, near


def _leq_reference(M, N, tol=DEFAULT_TOL):
    """The Loewner test as first written, for one pair of exactly Hermitian matrices."""
    D = hermitize(N - M)
    return np.linalg.eigvalsh(D)[0] >= -tol.eps_psd * max(1.0, np.linalg.norm(D))


def _bisect_reference(A, P, tol=DEFAULT_TOL):
    """strength_bisect as first written: one Loewner test at a time."""
    from effectkit.strength import BISECT_ITERATIONS

    if _leq_reference(1.0 * P, A.matrix, tol):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if _leq_reference(mid * P, A.matrix, tol):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("n", DIMS + (16,))
def test_strength_routes_match_their_first_form(n):
    from effectkit.effects import _ray, make_ray
    from effectkit.strength import _bisect, _closed, strength_bisect, strength_closed

    # Members of every kernel size, rays spread over the range with a leak
    # into the kernel below or above eps_rank (in or out of the range), and
    # a member whose projection fits below it at t = 1 (strength 1).
    effects, vectors = [], []
    for k in range(3 * n + 3):
        rng = np.random.default_rng([14, n, k])
        Q = haar_unitary(n, rng)
        w = np.sort(rng.uniform(0.0, 1.0, n))
        kernel = k % (n + 1)
        w[:kernel] = 0.0
        coefficients = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        coefficients[:kernel] *= 10.0 ** rng.uniform(-12, -4)
        v = Q @ coefficients
        if k == 0:
            w[:], v = 1.0, Q[:, 0]
        effects.append(make_effect(hermitize((Q * w) @ Q.conj().T)))
        vectors.append(v)
    A = _stack_effects(effects)
    vec, rays = _ray(np.stack(vectors))
    value, in_range, near = _closed(A.eigenvalues, A.eigenvectors, vec, DEFAULT_TOL)
    bisected = _bisect(rays.matrix, A.matrix, DEFAULT_TOL)
    assert in_range.any() and not in_range.all() and bisected.max() == 1.0
    for k, (a, v) in enumerate(zip(effects, vectors)):
        ray = make_ray(v)
        want = _closed_reference(a, ray.vector)
        alone = strength_closed(a, ray)
        assert same(value[k], want[0]) and (in_range[k], near[k]) == want[1:]
        assert same(alone.value, want[0]) and (alone.in_range, alone.near_cutoff) == want[1:]
        want = _bisect_reference(a, ray.projection.matrix)
        assert same(bisected[k], want) and same(strength_bisect(a, ray), want)


@pytest.mark.parametrize("n", DIMS)
def test_ray_matrix_is_the_ray_without_its_basis(n):
    from effectkit.effects import _ray, _ray_matrix

    for v in (random_ray(n, 41) * 3.0, _random_ray_stack(n, rngs(41))):
        vec, projection = _ray(v)
        got_vec, got_matrix = _ray_matrix(v)
        assert same(got_vec, vec) and same(got_matrix, projection.matrix)


def test_coexist_and_strength_suites_build_no_ray_basis(monkeypatch):
    # Only make_ray and the transition suite's rays read the basis that a
    # complete QR builds; the orthogonal vector of the coexist suite's
    # fixed controls is its only complete QR, whatever the trials.
    from effectkit import coexist, strength

    complete = []
    real_qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        complete.append(mode == "complete")
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)

    def complete_qrs(run):
        complete.clear()
        run()
        return sum(complete)

    atom = make_effect(0.9 * sample_ray(3, 5).projection.matrix)
    assert complete_qrs(lambda: coexist.coexists_with_all_probe(atom, 40, 3)) == 0
    assert complete_qrs(lambda: coexist.coexists_with_all_probe(sample_effect(3, 5), 40, 3)) == 0
    assert complete_qrs(lambda: strength._strength_oracle_suite(20, 3, DEFAULT_TOL, 3)) == 0
    assert complete_qrs(lambda: coexist._coexist_suite(20, 3, DEFAULT_TOL, 3)) == 1
