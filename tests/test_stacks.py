"""Stacked primitives against the per-matrix ones, bit for bit.

Every stacked step the verification suites run (sampling, validation,
decisions, map application) must give each member exactly the bits the
per-matrix call gives it, or the reports would change.
"""

import numpy as np
import pytest

from effectkit.autos import apply, random_automorphism
from effectkit.effects import (
    _sample_effect_stack,
    _sample_ray_stack,
    _spectral,
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
    _norms,
    _random_effect_stack,
    _random_ray_stack,
    eig_hermitian,
    frobenius,
    haar_unitary,
    hermitize,
    mat_sqrt,
    pinv_sqrt,
    psd_leq,
    random_effect,
    random_ray,
    require_hermitian,
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
    rows = _norms(M[:, 0, :])
    H = hermitize(M)
    for k in range(T):
        assert norms[k] == np.linalg.norm(M[k]) == frobenius(M[k])
        assert rows[k] == np.linalg.norm(M[k, 0, :]) == _norms(M[k, 0, :])
        assert same(H[k], 0.5 * (M[k] + M[k].conj().T))
    # A lone matrix is summed in memory order, as np.linalg.norm sums it.
    for F in (np.asfortranarray(M[0]), M[0].T, M[0].conj().T):
        assert frobenius(F) == np.linalg.norm(F)


@pytest.mark.parametrize("n", DIMS)
def test_sampled_stacks_match_sampled_effects_and_rays(n):
    E = _sample_effect_stack(n, rngs(4))
    P = _sample_ray_stack(n, rngs(5))
    assert E.matrix.shape == (T, n, n) and E.eigenvalues.shape == (T, n) and len(E) == T and E.dim == n
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
    S = _spectral(hermitize(Ms), DEFAULT_TOL)
    for k in range(T):
        alone = make_effect(Ms[k])
        assert same_effect(S[k], alone)
    assert not same(S[1].matrix, hermitize(Ms[1]))
    assert same(S[0].matrix, hermitize(Ms[0]))


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize(
    "spoil,error,text",
    [
        (lambda M: M.__setitem__((0, -1), M[0, -1] + 1e-3j), HermiticityViolation, "matrix is not Hermitian: defect "),
        (lambda M: M.__setitem__((0, 0), np.nan), HermiticityViolation, "matrix has non-finite entries"),
        (lambda M: M.__setitem__((0, 0), np.inf), HermiticityViolation, "matrix has non-finite entries"),
        (lambda M: M.__setitem__((0, 0), 1.5), SpectrumOutOfRange, None),
    ],
    ids=["non-hermitian", "nan", "inf", "spectrum"],
)
def test_a_bad_member_raises_what_make_effect_raises(n, spoil, error, text):
    Ms = _random_effect_stack(n, rngs(7))
    bad = Ms[2].copy()
    spoil(bad)
    Ms[2] = bad
    with pytest.raises(error) as alone:
        make_effect(bad)
    if text is None:
        # A spectral rule: a built stack takes it for all members at once.
        with pytest.raises(error) as stacked:
            _spectral(Ms, DEFAULT_TOL)
        assert str(stacked.value) == str(alone.value)
    else:
        # Outside input is validated one matrix at a time; its texts are pinned.
        if text.endswith("defect "):
            text += "2.000e-03" if n == 1 else "1.414e-03"
        assert str(alone.value) == text


def test_stack_and_matrix_inputs_are_not_mixed_up():
    stack = np.zeros((2, 2, 2))
    for matrix_only in (make_effect, mat_sqrt, pinv_sqrt, require_hermitian, eig_hermitian, lambda M: psd_leq(M, M)):
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
def test_len_and_indexing_read_a_stack_and_trace_a_lone_effect(n):
    # One Effect type holds both shapes; each reads only the shape it has.
    A = _sample_effect_stack(n, rngs(13))
    lone = A[0]
    assert lone.trace() == float(np.trace(lone.matrix).real) and len(A) == T and lone and A
    for wrong in (lambda: len(lone), lambda: lone[0], lambda: lone[0:1], A.trace):
        with pytest.raises(TypeError):
            wrong()
    # A stack of stacks indexes to a stack, and a slice keeps the stack axis.
    outer = _sample_effect_stack(n, rngs(14), m=2)
    assert len(outer) == 2 and len(outer[1]) == T and outer[1][T - 1].matrix.shape == (n, n)
    assert len(A[1:3]) == 2 and same_effect(A[1:3][0], A[1])


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


FAMILY_SUITES = ["order", "zero-product", "ortho", "sequential", "transition", "scalar-pair"]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("suite", ["coexist", "strength-oracle", "pexider"] + FAMILY_SUITES)
def test_suite_reports_do_not_depend_on_the_block_size(monkeypatch, capsys, block, suite):
    # By default the six entries of a family suite at one dimension share
    # blocks, and at n = 8 their 72 trials fill blocks of 32, so entries
    # straddle blocks.  One trial per block (block 1) shares none; block 7
    # holds 7 trials at n = 3.
    from effectkit import suites
    from effectkit.cli import main

    if suite in FAMILY_SUITES:
        argv = ["verify", "--suite", suite, "--dims", "2,3,8", "--p=-1e6,0,0.999999", "--trials", "12", "--seed", "19"]
    else:
        argv = ["verify", "--suite", suite, "--dims", "2,3", "--trials", "10", "--seed", "19"]
    main(argv)
    default = capsys.readouterr().out
    monkeypatch.setattr(suites, "_BLOCK_ENTRIES", 1 if block == 1 else block * 3 * 3)
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
    """strength_bisect of the effect matrix A along the ray projection P as
    first written: every Loewner test run, one at a time."""
    from effectkit.strength import BISECT_ITERATIONS

    if _leq_reference(1.0 * P, A, tol):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if _leq_reference(mid * P, A, tol):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("n", DIMS + (16,))
def test_strength_routes_match_their_first_form(n):
    from effectkit.effects import _ray_matrix, make_ray
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
    vec, rays = _ray_matrix(np.stack(vectors))
    value, in_range, near = _closed(A.eigenvalues, A.eigenvectors, vec, DEFAULT_TOL)
    bisected = [_bisect(P, a, DEFAULT_TOL) for P, a in zip(rays, A.matrix)]
    assert in_range.any() and not in_range.all() and max(bisected) == 1.0
    for k, (a, v) in enumerate(zip(effects, vectors)):
        ray = make_ray(v)
        want = _closed_reference(a, ray.vector)
        alone = strength_closed(a, ray)
        assert same(value[k], want[0]) and (in_range[k], near[k]) == want[1:]
        assert same(alone.value, want[0]) and (alone.in_range, alone.near_cutoff) == want[1:]
        want = _bisect_reference(a.matrix, ray.matrix)
        assert same(bisected[k], want) and same(strength_bisect(a, ray), want)


@pytest.mark.parametrize("n", DIMS)
def test_ray_matrix_is_the_ray_without_its_basis(n):
    # A ray holds what _ray_matrix gives; its projection adds the basis
    # alone, and a stack's member k is the projection of ray k.
    from effectkit.effects import _ray, _ray_matrix, make_ray

    vectors = _random_ray_stack(n, rngs(41)) * 3.0
    vec, P = _ray_matrix(vectors)
    projections = _ray(vec, P)
    assert same(projections.matrix, P)
    for k, v in enumerate(vectors):
        ray = make_ray(v)
        assert same(ray.vector, vec[k]) and same(ray.matrix, P[k])
        assert same_effect(ray.projection, projections[k])


@pytest.fixture
def complete_qrs(monkeypatch):
    """A counter of the complete QRs, the eigenbasis of a ray, that a call runs."""
    complete = []
    real_qr = np.linalg.qr

    def recording_qr(a, mode="reduced"):
        complete.append(mode == "complete")
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)

    def count(run):
        complete.clear()
        run()
        return sum(complete)

    return count


def test_coexist_and_strength_suites_build_no_ray_basis(complete_qrs, tmp_path):
    # Only a ray's projection and the transition suite's rays read the
    # basis that a complete QR builds; the orthogonal vector of the coexist
    # suite's fixed controls is its only complete QR, whatever the trials.
    # The strength command reads its ray document without a basis too.
    import json

    from effectkit import coexist, strength
    from effectkit.cli import main, matrix_to_doc

    atom = make_effect(0.9 * sample_ray(3, 5).matrix)
    assert complete_qrs(lambda: coexist.coexists_with_all_probe(atom, 40, 3)) == 0
    assert complete_qrs(lambda: coexist.coexists_with_all_probe(sample_effect(3, 5), 40, 3)) == 0
    assert complete_qrs(lambda: strength._STRENGTH_ORACLE.run([3], 20, [3], 3, DEFAULT_TOL)[0]) == 0
    assert complete_qrs(lambda: coexist._COEXIST.run([3], 20, [3], 3, DEFAULT_TOL)[0]) == 1

    eff, ray = tmp_path / "eff.json", tmp_path / "ray.json"
    eff.write_text(json.dumps(matrix_to_doc(random_effect(3, 5))))
    ray.write_text(json.dumps({"n": 3, "entries": [[x.real, x.imag] for x in random_ray(3, 6).tolist()]}))
    argv = ["strength", "--effect", str(eff), "--ray", str(ray)]
    codes = []
    assert complete_qrs(lambda: codes.append(main(argv))) == 0
    assert complete_qrs(lambda: codes.append(main(argv + ["--oracle"]))) == 0
    assert codes == [0, 0]


@pytest.mark.parametrize("n", DIMS)
def test_a_ray_builds_its_basis_on_its_first_read(complete_qrs, n):
    # Building, sampling and mapping a ray run no complete QR, nor do the
    # lone strength and coexist routes.  The first read of .projection runs
    # one and keeps its result: the QR completion written out below.
    from effectkit import coexist, strength
    from effectkit.autos import apply_to_ray
    from effectkit.effects import WeakAtom, make_ray

    rays = []
    assert complete_qrs(lambda: rays.append(make_ray(3.0 * random_ray(n, 42)))) == 0
    assert complete_qrs(lambda: rays.append(sample_ray(n, 43))) == 0
    phi = random_automorphism(n, 0.5, True, 44)
    assert complete_qrs(lambda: rays.append(apply_to_ray(phi, rays[0]))) == 0
    A = sample_effect(n, 45)
    lone = [
        lambda: strength.strength_closed(A, rays[0]),
        lambda: strength.strength_bisect(A, rays[1]),
        lambda: coexist.coexists_with_weak_atom(A, WeakAtom(0.3, rays[2])),
    ]
    if n >= 2:
        e = np.eye(n)
        P, Q, R = make_ray(e[0]), make_ray(e[1]), make_ray(e[0] + 2.0 * e[1])
        lone += [
            lambda: strength.strength_two_block(0.5, P, Q, R),
            lambda: coexist.coexist_rank_one(0.5, P, 0.4, R),
        ]
    for run in lone:
        assert complete_qrs(run) == 0

    for ray in rays:
        assert complete_qrs(lambda: ray.projection) == 1
        first = ray.projection
        assert complete_qrs(lambda: ray.projection) == 0 and ray.projection is first
        vec = ray.vector
        Q = np.linalg.qr(vec[:, None], mode="complete")[0]
        w = np.zeros(n)
        w[-1] = 1.0
        assert same(first.matrix, ray.matrix) and same(ray.matrix, hermitize(np.outer(vec, vec.conj())))
        assert same(first.eigenvalues, w)
        assert same(first.eigenvectors, np.concatenate([Q[:, 1:], vec[:, None]], axis=1))


@pytest.mark.parametrize("n", (1, 2, 3, 8, 64))
def test_block_draws_equal_per_generator_draws(n):
    from effectkit.numkern import _draws

    for m in (1, 2, 4):
        gens, refs = rngs(20), rngs(20)
        Z, w = _draws(gens, (n, n), m, spectra=True)
        v = _draws(gens, (n,), m)[0]
        for k, rng in enumerate(refs):
            for j in range(m):
                assert same(Z[j, k], rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                assert same(w[j, k], rng.uniform(0.0, 1.0, n))
            for j in range(m):
                assert same(v[j, k], rng.standard_normal(n) + 1j * rng.standard_normal(n))
        assert [g.bit_generator.state for g in gens] == [r.bit_generator.state for r in refs]


@pytest.mark.parametrize("n", (1, 2, 3, 8, 64))
def test_a_sampler_call_for_several_effects_equals_one_call_each(n):
    gens, refs = rngs(21), rngs(21)
    stacks = _sample_effect_stack(n, gens, DEFAULT_TOL, 3)
    rays = _sample_ray_stack(n, gens, 2)
    for S in stacks:
        assert same_effect(S, _sample_effect_stack(n, refs))
    for S in rays:
        assert same_effect(S, _sample_ray_stack(n, refs))
    M = _random_effect_stack(n, gens, 2)
    v = _random_ray_stack(n, gens, 2)
    assert same(M[0], _random_effect_stack(n, refs)) and same(M[1], _random_effect_stack(n, refs))
    assert same(v[0], _random_ray_stack(n, refs)) and same(v[1], _random_ray_stack(n, refs))
    assert [g.bit_generator.state for g in gens] == [r.bit_generator.state for r in refs]


def test_internal_effects_skip_only_a_check_they_pass(monkeypatch, capsys):
    # Effects the program builds take the spectral rules alone.  Each such
    # matrix is its own hermitization bit for bit, so it passes the
    # hermiticity check and gives the Effect that outside input gives.
    from effectkit import autos, coexist, effects, sequential, strength
    from effectkit.cli import main

    real = effects._spectral
    callers = set()

    def checked(name):
        def spectral(H, tol):
            assert same(hermitize(H), H)
            E = real(H, tol)
            members = H.reshape((-1,) + H.shape[-2:])
            checked = np.stack([require_hermitian(M, tol) for M in members]).reshape(H.shape)
            assert same_effect(E, real(checked, tol))
            callers.add(name)
            return E

        return spectral

    for module in (autos, coexist, effects, sequential, strength):
        monkeypatch.setattr(module, "_spectral", checked(module.__name__))
    codes = []
    for argv in (["--dims", "2,3,8", "--p=-1e3,0,0.5"], ["--dims", "2", "--p", "0.9", "--tol", "1e-3"]):
        codes.append(main(["verify", "--suite", "all", "--trials", "12", "--seed", "4", *argv]))
    for suite in ("order", "sequential", "strength-oracle"):
        codes.append(main(["verify", "--suite", suite, "--dims", "1", "--p", "0.5", "--trials", "12", "--seed", "4"]))
    assert capsys.readouterr().err == "" and set(codes) <= {0, 1}
    assert callers == {m.__name__ for m in (autos, coexist, effects, sequential, strength)}


def test_an_order_block_samples_under_one_qr_and_one_eigh(monkeypatch):
    # The two entries of a group (one map each, conj 0 and 1) share one
    # n = 3 block, and it costs what one entry's block costs.  One sampler
    # call draws the block's four effects: one QR and one eigendecomposition;
    # the other eigh validates the sequential product.  Each of the two
    # pairs then maps each side once, every member by its entry's map, and
    # takes one spectrum for the pair and one for its images: 4 map
    # applications, 4 eigvalsh.
    from effectkit import autos

    maps = [random_automorphism(3, 0.5, False, 1), random_automorphism(3, 0.5, True, 2)]
    calls = []
    for name in ("qr", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    real_map = autos._map_members
    monkeypatch.setattr(autos, "_map_members", lambda *a, **k: calls.append("map") or real_map(*a, **k))
    reports = autos._ORDER.run(maps, 10, [3, 4], 3, DEFAULT_TOL)
    assert [report.failures for report in reports] == [0, 0]
    assert sorted(calls) == ["eigh", "eigh"] + ["eigvalsh"] * 4 + ["map"] * 4 + ["qr"]
    # Each entry's report is the one it gets alone.
    assert [r.to_dict() for r in reports] == [autos.verify_order(m, 10, s).to_dict() for m, s in zip(maps, [3, 4])]


def _square(A):
    """Spectral squaring, a black box that keeps zero products but not order."""
    return make_effect(hermitize((A.eigenvectors * A.eigenvalues**2) @ A.eigenvectors.conj().T))


def _smear(A):
    """A black box that sends lam I to an effect that is not a scalar."""
    P = np.zeros((A.dim, A.dim))
    P[0, 0] = 1.0
    return make_effect(0.5 * A.matrix + 0.25 * P)


@pytest.mark.parametrize("n", [2, 3])
def test_a_group_of_family_members_and_black_boxes_gives_each_entry_its_lone_report(n):
    # A group's controls map one stack with a member per entry.  A family
    # member at p = 0 passes them and one at p = 0.5 fails; squaring keeps
    # lam I a scalar and smearing does not, so the scalar-pair value check
    # is NaN on both black boxes.  Each entry's report is its one-entry run's.
    from effectkit import autos

    maps = [random_automorphism(n, 0.0, False, 5), _square, random_automorphism(n, 0.5, True, 6), _smear]
    seeds = [1, 2, 3, 4]
    fixed, pair = "half-identity-fixed-point", "sequential-scalar-pair"
    runs = [  # each suite, its one-entry run, and the check each entry's counterexample names
        (autos._ORTHO, autos.verify_ortho, [None, fixed, fixed, fixed]),
        (autos._SEQUENTIAL, autos.verify_sequential, [None, "sequential", pair, pair]),
        (
            autos._scalar_pair_suite(0.3),
            lambda phi, *a, **k: autos.verify_scalar_pair(phi, 0.3, *a, **k),
            [None, None, None, "scalar-image"],
        ),
    ]
    for suite, alone, checks in runs:
        reports = [r.to_dict() for r in suite.run(maps, 6, seeds, n, DEFAULT_TOL)]
        assert reports == [alone(phi, 6, seed, dim=n).to_dict() for phi, seed in zip(maps, seeds)]
        assert [r["counterexample"] and r["counterexample"]["check"] for r in reports] == checks


def test_a_family_group_maps_each_control_stack_in_one_call(monkeypatch):
    # Suite.run calls a group's controls once, and they map all four
    # entries' I/2 (or lam I), and the I/2 * I/2 of the sequential pair,
    # in one _map_members call each.
    import dataclasses

    from effectkit import autos

    cases = [(0.0, False), (0.0, True), (0.5, False), (0.5, True)]
    maps = [random_automorphism(3, p, conj, k) for k, (p, conj) in enumerate(cases)]
    real_map = autos._map_members
    mapped = []
    monkeypatch.setattr(autos, "_map_members", lambda *a: mapped.append(len(a[-1].matrix)) or real_map(*a))

    def step(maps, n, tol, block):  # maps nothing
        return [("none", np.zeros(len(block.rngs)), 0.0, {})]

    for suite, stacks in ((autos._ORTHO, 1), (autos._SEQUENTIAL, 2), (autos._scalar_pair_suite(0.3), 1)):
        calls = []
        counted = dataclasses.replace(suite, step=step, controls=lambda *a: calls.append(a) or suite.controls(*a))
        mapped.clear()
        counted.run(maps, 5, [1, 2, 3, 4], 3, DEFAULT_TOL)
        assert len(calls) == 1 and mapped == [4] * stacks


# At seeds 7 and 17 of the second list a shared block meets another
# entry's failing member first; at caps 1 and 7 the strength-oracle step
# can meet a failing ray pair before a failing effect.
@pytest.mark.parametrize(
    "suite, dims, ps, tol, seed",
    [pytest.param("all", "2,3", ps, 1e-7, s, id=f"{ps}-{s}") for ps, s in
     [("0,0.5", s) for s in range(1, 6)] + [("0,0.5,-3", 7), ("0,0.5,-3", 17)]]
    + [
        pytest.param("coexist", "2,3,8", "0,0.5", 1e-9, 5, id="coexist-1e-9-5"),
        pytest.param("strength-oracle", "2,3,8", "0,0.5", 1e-7, 5, id="strength-oracle-1e-7-5"),
    ],
)
def test_a_group_that_raises_gives_the_error_of_an_entry_by_entry_run(monkeypatch, capsys, suite, dims, ps, tol, seed):
    # At these --tol a built effect's round-off eigenvalue fails eps_psd.
    # Every effect verify checks is built by the program, so the error
    # names --tol and no member: exit 2, nothing on stdout, one message at
    # every block cap, whichever member a stacked step refuses first.  Run
    # entry by entry, in report order, an entry still refuses its effect.
    import itertools

    from effectkit import suites
    from effectkit.cli import SUITES, main

    sweep = {"n": [int(n) for n in dims.split(",")], "p": [float(p) for p in ps.split(",")]}
    sweep["conj"] = (False, True)
    chosen = [s for s in SUITES if suite in ("all", s.name)]
    cases = [(s, case) for s in chosen for case in itertools.product(*(sweep[a] for a in s.axes))]
    argv = ["verify", "--suite", suite, "--dims", dims, f"--p={ps}", "--trials", "10", "--seed", str(seed)]
    message = f"error: --tol {tol!r} is below the round-off of the values verify builds\n"
    for entries in (suites._BLOCK_ENTRIES, 1, 7):
        monkeypatch.setattr(suites, "_BLOCK_ENTRIES", entries)
        assert main([*argv, "--tol", str(tol)]) == 2
        assert capsys.readouterr() == ("", message)
        with pytest.raises(SpectrumOutOfRange):
            for counter, (s, case) in enumerate(cases):
                child = suites._suite_seed(seed, counter)
                subject = random_automorphism(*case, child) if "p" in s.axes else child
                s.run([subject], 10, [child], case[0] if case else 1, DEFAULT_TOL.scaled(tol))


def test_a_refused_ray_pair_gives_the_same_tol_message(monkeypatch, capsys):
    # At n = 2 the first refusal of this run is an effect's spectrum at the
    # default cap, and the two-block check's ray pair (OrthogonalityError)
    # at caps 1 and 7: both are round-off of built values, one message.
    from effectkit import strength, suites
    from effectkit.cli import main
    from effectkit.errors import OrthogonalityError

    argv = ["verify", "--suite", "strength-oracle", "--dims", "1,2,3,8", "--trials", "10", "--seed", "2"]
    message = "error: --tol 1e-07 is below the round-off of the values verify builds\n"
    refusals = {suites._BLOCK_ENTRIES: SpectrumOutOfRange, 1: OrthogonalityError, 7: OrthogonalityError}
    seed = suites._suite_seed(2, 1)  # the n = 2 entry, the second child seed
    for entries, refusal in refusals.items():
        monkeypatch.setattr(suites, "_BLOCK_ENTRIES", entries)
        with pytest.raises(refusal):
            strength._STRENGTH_ORACLE.run([seed], 10, [seed], 2, DEFAULT_TOL.scaled(1e-7))
        assert main([*argv, "--tol", "1e-7"]) == 2
        assert capsys.readouterr() == ("", message)


def _is_scalar_reference(M, tol):
    """``is_scalar`` as first written, on a lone matrix."""
    lam = float(np.trace(M).real) / M.shape[0]
    if frobenius(M - lam * np.eye(M.shape[0])) <= tol.eps_eq:
        return True, float(lam)
    return False, None


@pytest.mark.parametrize("n", DIMS + (32, 64))
def test_the_scalar_rule_and_stack_match_per_matrix(n):
    # np.trace on a stack sums each member's diagonal as on a lone matrix,
    # so the stacked rule decides each member as the lone rule does.
    from effectkit.effects import (
        _effect, _scalar_rule, _scalar_stack, identity_effect, is_scalar, scalar_effect, zero_effect,
    )

    xs = np.arange(1, T + 1) / (T + 1.0)
    S = _scalar_stack(n, xs)
    for k, x in enumerate(xs.tolist()):
        assert same_effect(S[k], scalar_effect(n, x))
    # identity_effect and zero_effect, built by scalar_effect, are the I and 0
    # that np.eye and np.zeros once built directly.
    eye = np.eye(n, dtype=np.complex128)
    assert same_effect(identity_effect(n), _effect(eye, np.ones(n), eye.copy()))
    assert same_effect(zero_effect(n), _effect(np.zeros((n, n), dtype=np.complex128), np.zeros(n), eye))
    images = apply(random_automorphism(n, 0.5, True, n), S).matrix
    near = S.matrix + 1e-9 * _random_effect_stack(n, rngs(1))  # a perturbed scalar, near the eps_eq bound
    for M in (images, near, _random_effect_stack(n, rngs(n))):
        traces = np.trace(M, axis1=-2, axis2=-1)
        ok, lams = _scalar_rule(M, DEFAULT_TOL)
        for k in range(T):
            assert same(traces[k], np.trace(M[k]))
            expected = _is_scalar_reference(M[k], DEFAULT_TOL)
            assert (bool(ok[k]), float(lams[k]) if ok[k] else None) == expected
            assert is_scalar(_effect(M[k], np.zeros(n), np.eye(n)), DEFAULT_TOL) == expected


def _fit_reference(phi, grid, dim, tol):
    """``autos._fit_family`` as first written: per grid point one
    ``scalar_effect``, one map call and one lone scalar decision."""
    from effectkit import autos
    from effectkit.effects import scalar_effect
    from effectkit.errors import NotInFamily
    from effectkit.fracfun import FpParam, fit_frac, interior_grid

    n = autos._map_dim(phi, dim)
    samples = []
    for x in interior_grid(grid):
        ok, mu = _is_scalar_reference(phi(scalar_effect(n, float(x))).matrix, tol)
        if not ok:
            raise NotInFamily(f"image of {x:.6g} * I is not scalar")
        if not (0.0 < mu < 1.0):
            raise NotInFamily(f"scalar image {mu!r} leaves the open unit interval")
        samples.append((float(x), float(mu)))
    fit = fit_frac(samples)
    limit = 100 * tol.eps_rank
    if abs(fit.c - 1.0) > limit:
        raise NotInFamily(f"fitted exponent {fit.c!r} deviates from 1 beyond {limit}")
    return FpParam(1.0 - fit.a), fit


def _fit_outcome(fit, *args):
    """The bytes of every figure ``effectkit fit`` prints, or the type and
    message of what the fit raised."""
    try:
        param, found = fit(*args)
    except Exception as error:
        return type(error), str(error)
    return np.array([param.p, found.a, found.c, abs(found.c - 1.0), found.residual]).tobytes()


@pytest.mark.parametrize("n", (1, 2, 3, 8, 32, 64))
def test_a_stacked_fit_equals_the_per_point_fit(monkeypatch, n):
    # At the scaled tolerance many fits fail: an image is not scalar (at a
    # grid point of a later block too) or the exponent is off 1.  Caps 1
    # and 7 * n**2 split the grid into blocks of 1 and 7 points.
    import itertools

    from effectkit import autos, suites

    mapped = []
    real_map = autos._map_members

    def recording_map(U, conjugate, p, A):
        mapped.append(len(A))
        return real_map(U, conjugate, p, A)

    tols = (DEFAULT_TOL, DEFAULT_TOL.scaled(1e-6))
    for p, conj in itertools.product((-1e6, -1.0, 0.0, 0.5, 0.999999), (False, True)):
        phi = random_automorphism(n, p, conj, n)
        for grid, tol in itertools.product((3, 25, 50), tols):
            expected = _fit_outcome(_fit_reference, phi, grid, None, tol)
            # One run per distinct cap: at n = 64 the default cap is 1, as is 7's.
            caps = {max(1, entries // (n * n)): entries for entries in (suites._BLOCK_ENTRIES, 1, 7, 7 * n * n)}
            for cap, entries in caps.items():
                monkeypatch.setattr(suites, "_BLOCK_ENTRIES", entries)
                monkeypatch.setattr(autos, "_map_members", recording_map)
                mapped.clear()
                assert _fit_outcome(autos._fit_family, phi, grid, None, tol) == expected
                monkeypatch.undo()
                assert mapped and max(mapped) <= cap  # at n = 64, one point per call
                assert mapped[:-1] == [cap] * (len(mapped) - 1)


def test_a_black_box_fit_maps_one_point_per_call_in_grid_order():
    # Each black-box map sees the scalar effects of the per-point fit, one
    # call per point in grid order, and the fit raises what it raised: the
    # negative controls of test_autos.py, a map that fails on its fifth
    # call, and the identity (p = 0).
    from effectkit import autos
    from effectkit.effects import scalar_effect

    P = make_effect(np.diag([1.0, 0.0])).matrix
    controls = {
        "orthocomplement": orthocomplement,
        "square": lambda A: make_effect(A.matrix @ A.matrix),
        "smear": lambda A: make_effect(0.5 * A.matrix + 0.25 * P),
        "zero": lambda A: scalar_effect(A.dim, 0.0),
        "fifth": lambda A: A,
        "identity": lambda A: A,
    }
    for name, control in controls.items():
        runs = []
        for fit in (_fit_reference, autos._fit_family):
            calls = []

            def phi(A, calls=calls, control=control, name=name):
                calls.append(A)
                if name == "fifth" and len(calls) == 5:
                    raise RuntimeError("fifth call")
                return control(A)

            runs.append((_fit_outcome(fit, phi, 25, 2, DEFAULT_TOL), calls))
        (expected, reference_calls), (outcome, calls) = runs
        assert outcome == expected, name
        assert len(calls) == len(reference_calls), name
        assert all(same_effect(A, B) for A, B in zip(calls, reference_calls)), name
