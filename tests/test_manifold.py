import math
import re
from bisect import bisect_left

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import truncflow.manifold
from truncflow.errors import SingularInput
from truncflow.manifold import (
    AntisymmetricMatrix,
    OrthogonalMatrix,
    antisym_project,
    check_orthogonal,
    check_orthogonal_stack,
    expm_antisym,
    frobenius_norm,
    moving_layers,
    orthogonality_error,
    polar_decompose,
    random_rotations,
    reproject,
    retract,
    retract_stack,
)

RNG = np.random.default_rng(1234)

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# theta_m for Pade degrees m = 3, 5, 7, 9, 13 (Higham 2005, Table 2.3)
THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068, 5.371920351148152)


def one_norm(a):
    return np.abs(a).sum(axis=0).max()


def pade_band(norm):
    """(degree index, squaring count) a matrix of 1-norm `norm` takes alone: the lowest Pade
    degree 3, 5, 7, 9 whose theta bounds it (index 0-3), else degree 13 (index 4) with the fewest
    squarings that bring it below theta_13."""
    band = bisect_left(THETA, norm, hi=4)
    return band, max(0, math.ceil(math.log2(norm / THETA[-1]))) if band == 4 else 0


def random_antisym(q, rng=RNG):
    g = rng.normal(size=(q, q))
    return AntisymmetricMatrix(0.5 * (g - g.T))


class TestAntisymProject:
    def test_strict_upper(self):
        out = antisym_project([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(out.mat, [[0.0, 0.5], [-0.5, 0.0]])

    def test_kills_symmetric(self):
        out = antisym_project([[2.0, 3.0], [3.0, 5.0]])
        assert np.all(out.mat == 0.0)

    def test_hand_computed(self):
        # (A - A^T)/2 for A = [[1,4],[-2,7]]: off-diagonal (4 - (-2))/2 = 3
        out = antisym_project([[1.0, 4.0], [-2.0, 7.0]])
        np.testing.assert_allclose(out.mat, [[0.0, 3.0], [-3.0, 0.0]])

    def test_idempotent_and_exact_antisymmetry(self):
        for _ in range(20):
            a = RNG.normal(size=(4, 4))
            p = antisym_project(a)
            np.testing.assert_array_equal(p.mat + p.mat.T, np.zeros((4, 4)))
            np.testing.assert_allclose(antisym_project(p.mat).mat, p.mat, rtol=0, atol=0)

    def test_decomposition_identity(self):
        for _ in range(20):
            a = RNG.normal(size=(5, 5))
            rebuilt = antisym_project(a).mat + 0.5 * (a + a.T)
            assert np.linalg.norm(rebuilt - a) <= 1e-14 * np.linalg.norm(a)


class TestPolarDecompose:
    def test_identity(self):
        p, r = polar_decompose(np.eye(3))
        np.testing.assert_allclose(p, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(r.mat, np.eye(3), atol=1e-14)

    def test_scaled_rotation(self):
        r0 = random_rotations(1, 4, RNG)[0]
        p, r = polar_decompose(3.0 * r0)
        np.testing.assert_allclose(p, 3.0 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(r.mat, r0, atol=1e-12)

    def test_reconstruction_random(self):
        for _ in range(20):
            w = RNG.normal(size=(4, 4)) + 2.0 * np.eye(4)
            p, r = polar_decompose(w)
            np.testing.assert_allclose(p @ r.mat, w, rtol=0, atol=1e-10 * np.linalg.norm(w))
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(p) > 0)

    def test_ill_conditioned_within_bound(self):
        # condition number 1e6 still reconstructs to 1e-10 relative
        u = random_rotations(1, 3, RNG)[0]
        v = random_rotations(1, 3, RNG)[0]
        w = (u * np.array([1.0, 1e-3, 1e-6])) @ v
        p, r = polar_decompose(w)
        assert np.linalg.norm(p @ r.mat - w) <= 1e-10 * np.linalg.norm(w)

    def test_singular_raises(self):
        w = np.ones((3, 3))
        with pytest.raises(SingularInput):
            polar_decompose(w)

    def test_zero_raises_singular_without_dividing(self):
        # the ratio sigma_min/sigma_max is 0/0 here; warnings are errors, so dividing would raise
        # a RuntimeWarning instead
        for q in (1, 3):
            with pytest.raises(SingularInput, match=r"^matrix is numerically singular \(it is zero\)$"):
                polar_decompose(np.zeros((q, q)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN made the SVD fail to converge, and inf gave an all-NaN P without complaint
        w = np.eye(2)
        w[0, 0] = bad
        with pytest.raises(ValueError, match="^matrix has no polar decomposition: it has a non-finite entry$"):
            polar_decompose(w)


class TestExpmAntisym:
    def test_zero(self):
        # the Pade path itself returns the identity bit for bit, at every size
        for q in range(1, 9):
            out = expm_antisym(AntisymmetricMatrix(np.zeros((q, q))))
            assert out.mat.tobytes() == np.eye(q).tobytes()
        # and a zero layer inside a moving stack keeps its rotation bit for bit
        rng = np.random.default_rng(7)
        rotations = random_rotations(3, 3, rng)
        gens = np.array([random_antisym(3, rng).mat, np.zeros((3, 3)), 50.0 * random_antisym(3, rng).mat])
        out = retract_stack(rotations, gens, 1.0)
        assert out[1].tobytes() == rotations[1].tobytes()
        assert not np.array_equal(out[[0, 2]], rotations[[0, 2]])

    def test_planar_rotation(self):
        # exp([[0, t], [-t, 0]]) = [[cos t, sin t], [-sin t, cos t]]
        t = np.pi / 2
        out = expm_antisym(AntisymmetricMatrix([[0.0, t], [-t, 0.0]]))
        np.testing.assert_allclose(out.mat, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
        out = expm_antisym(AntisymmetricMatrix([[0.0, -t], [t, 0.0]]))
        np.testing.assert_allclose(out.mat, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    def test_orthogonal_unit_determinant(self):
        for _ in range(10):
            a = random_antisym(5)
            m = expm_antisym(a)
            assert np.linalg.norm(m.mat.T @ m.mat - np.eye(5)) <= 1e-8
            assert abs(np.linalg.det(m.mat) - 1.0) <= 1e-8

    def test_against_scipy_reference(self):
        for scale in (0.1, 1.0, 10.0, 80.0):
            a = AntisymmetricMatrix(scale * random_antisym(5).mat)
            ours = expm_antisym(a).mat
            ref = scipy.linalg.expm(a.mat)
            assert np.linalg.norm(ours - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_inverse_identity(self):
        a = random_antisym(4)
        m = expm_antisym(a).mat @ expm_antisym(AntisymmetricMatrix(-a.mat)).mat
        assert np.linalg.norm(m - np.eye(4)) <= 1e-10


class TestRetract:
    def test_zero_step_returns_same_object(self):
        r = OrthogonalMatrix(random_rotations(1, 3, RNG)[0])
        assert retract(r, random_antisym(3), 0.0) is r

    def test_zero_generator_returns_same_object(self):
        r = OrthogonalMatrix(random_rotations(1, 3, RNG)[0])
        assert retract(r, AntisymmetricMatrix(np.zeros((3, 3))), 0.7) is r

    def test_rotation_by_pi(self):
        r = OrthogonalMatrix(np.eye(2))
        omega = AntisymmetricMatrix([[0.0, 1.0], [-1.0, 0.0]])
        out = retract(r, omega, np.pi)
        np.testing.assert_allclose(out.mat, -np.eye(2), atol=1e-14)

    def test_stays_orthogonal_many_steps(self):
        r = OrthogonalMatrix(random_rotations(1, 4, RNG)[0])
        omega = random_antisym(4)
        for _ in range(500):
            r = retract(r, omega, 1e-2)
        assert r.orthogonality_error() <= 1e-10

    def test_nonfinite_step_rejected(self):
        with pytest.raises(ValueError):
            retract(OrthogonalMatrix(random_rotations(1, 2, RNG)[0]), random_antisym(2), np.inf)

    def test_overflowing_generator_rejected(self):
        # a finite step whose step * omega overflows has no finite 1-norm to scale from: the
        # exponential says so (numpy's own overflow warning is silenced here)
        omega = AntisymmetricMatrix([[0.0, 2.0], [-2.0, 0.0]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="1-norm is inf"):
            retract(OrthogonalMatrix(random_rotations(1, 2, RNG)[0]), omega, 1e308)

    def test_generator_too_large_for_the_group_rejected(self):
        # up to MAX_SQUARINGS squarings the result stays on the group; a step * omega that needs
        # more raises by name before any product, so numpy warns of nothing (warnings are errors)
        assert truncflow.manifold.MAX_SQUARINGS == 16
        rng = np.random.default_rng(0)
        r = OrthogonalMatrix(random_rotations(1, 3, rng)[0])
        omega = random_antisym(3, rng)
        omega = AntisymmetricMatrix(omega.mat * (0.3 / one_norm(omega.mat)))  # 1-norm 0.3
        assert retract(r, omega, 1e6).orthogonality_error() <= 1e-10  # 1-norm 3e5: 16 squarings
        edge = THETA[-1] * 2.0**16 / 0.3  # the step at which step * omega needs a 17th squaring
        assert retract(r, omega, 0.999 * edge).orthogonality_error() <= 1e-10
        for step, squarings in ((1.001 * edge, 17), (1e8, 23), (1e20, 63)):
            norm = one_norm(step * omega.mat)
            assert pade_band(norm) == (4, squarings)
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"cannot exponentiate a stack whose largest 1-norm is {norm:.6g}: it needs "
                    f"{squarings} squarings, more than the 16 that keep it on the group") + "$"):
                retract(r, omega, step)


@st.composite
def rotation_stacks(draw):
    """(rotations, generators, step): L = 1-4 layers in Q = 2-4.  Each step * generator is zero
    (one in four) or a random direction of Frobenius norm 1e-6 to 100, log-uniform over 1e-6 to 1
    and over 1 to 100 alike, so a stack mixes Pade degrees 3 to 13 and squaring counts 0 to 6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([1.0, 0.5, -0.7, 1e-3]))
    q, depth = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    rotations = random_rotations(depth, q, rng)
    gens = np.zeros((depth, q, q))
    for k in range(depth):
        if rng.random() >= 0.25:
            g = random_antisym(q, rng).mat
            size = 10.0 ** (rng.uniform(-6.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, 2.0))
            gens[k] = g * (size / abs(step) / np.linalg.norm(g))
    return rotations, gens, step


class TestRetractStack:
    @PROPERTY
    @given(rotation_stacks())
    def test_each_layer_near_the_reference(self, stack):
        # one degree and one squaring count for the whole stack still give every layer the
        # exponential to double precision, relative to its own 1-norm
        rotations, gens, step = stack
        out = retract_stack(rotations, gens, step)
        for k in range(len(rotations)):
            ref = scipy.linalg.expm(step * gens[k]) @ rotations[k]
            assert np.linalg.norm(out[k] - ref) <= 1e-13 * max(1.0, one_norm(step * gens[k]))
            assert np.linalg.norm(out[k].T @ out[k] - np.eye(len(out[k]))) <= 1e-13

    @PROPERTY
    @given(rotation_stacks())
    def test_one_band_stack_as_if_alone(self, stack):
        # the layers of a draw that share one Pade band, and at degree 13 one squaring count,
        # retract together bit for bit as each does alone
        rotations, gens, step = stack
        bands = {}
        for k in np.flatnonzero(moving_layers(gens)):
            bands.setdefault(pade_band(one_norm(step * gens[k])), []).append(k)
        for layers in bands.values():
            out = retract_stack(rotations[layers], gens[layers], step)
            for i, k in enumerate(layers):
                alone = retract(OrthogonalMatrix(rotations[k]), AntisymmetricMatrix(gens[k]), step).mat
                assert out[i].tobytes() == alone.tobytes()

    @PROPERTY
    @given(rotation_stacks())
    def test_zero_generators_keep_their_rotation(self, stack):
        rotations, gens, step = stack
        out = retract_stack(rotations, gens, step)
        still = ~moving_layers(gens)
        assert out[still].tobytes() == rotations[still].tobytes()
        if still.all():
            assert out is rotations
        assert retract_stack(rotations, gens, 0.0) is rotations

    def test_mixed_squaring_counts(self):
        # 1-norms 1e-6, 1, 100 and 0: squaring counts 0, 0, 5 and a layer left as it is; one
        # generator inside each Pade degree band (3, 5, 7, 9, 13); and each band's edge theta_m
        # and the next float above it, on a generator whose 1-norm is exactly that number
        norms = [1e-6, 1.0, 100.0, 0.0, 1e-2, 0.2, 0.9, 2.0, 4.0]
        gens = [n * g / np.abs(g).sum(axis=0).max() for n, g in zip(norms, (random_antisym(3).mat for _ in norms))]
        edge = 0.5 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])  # 1-norm 1
        for theta in THETA:
            for n in (theta, np.nextafter(theta, np.inf)):
                gens.append(n * edge)
                assert np.abs(gens[-1]).sum(axis=0).max() == n
        gens = np.array(gens)
        rotations = random_rotations(len(gens), 3, RNG)
        out = retract_stack(rotations, gens, 1.0)
        assert out[3].tobytes() == rotations[3].tobytes()
        for k in set(range(len(gens))) - {3}:
            ref = scipy.linalg.expm(gens[k]) @ rotations[k]
            assert np.linalg.norm(out[k] - ref) <= 1e-12
            assert np.linalg.norm(out[k].T @ out[k] - np.eye(3)) <= 1e-13


class TestRandomRotations:
    def test_a_stack_is_its_layers_drawn_in_turn(self):
        # one (depth, dim, dim) draw takes the values of depth (dim, dim) draws, and each layer is
        # exponentiated bit for bit as the one-layer wrappers do it alone, at its own Pade order
        mixed = 0
        for dim in range(1, 9):
            for depth in range(1, 7):
                for seed in range(4):
                    got = random_rotations(depth, dim, np.random.default_rng((dim, depth, seed)))
                    rng = np.random.default_rng((dim, depth, seed))
                    in_turn = np.array([random_rotations(1, dim, rng)[0] for _ in range(depth)])
                    rng = np.random.default_rng((dim, depth, seed))
                    gens = [antisym_project(rng.normal(size=(dim, dim))) for _ in range(depth)]
                    assert got.shape == (depth, dim, dim)
                    assert got.tobytes() == in_turn.tobytes()
                    assert got.tobytes() == np.array([expm_antisym(g).mat for g in gens]).tobytes()
                    mixed += len({pade_band(one_norm(g.mat)) for g in gens}) > 1
        assert mixed >= 50  # stacks whose layers pick different Pade orders

    def test_read_only_and_on_the_group(self):
        out = random_rotations(3, 4, np.random.default_rng(5))
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0
        assert max(np.linalg.norm(r.T @ r - np.eye(4)) for r in out) <= 1e-13

    @pytest.mark.parametrize("depth, dim, name", [(0, 2, "depth"), (-1, 2, "depth"), (2, 0, "dim"),
                                                  (2, -1, "dim")])
    def test_bad_sizes_rejected_by_name(self, depth, dim, name):
        # dim 0 said "expected a square matrix", and dim -1 failed inside numpy; neither draws
        rng = np.random.default_rng(6)
        bad = depth if name == "depth" else dim
        with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {bad}$"):
            random_rotations(depth, dim, rng)
        assert rng.normal() == np.random.default_rng(6).normal()


class TestTypes:
    def test_orthogonal_invariant_enforced(self):
        with pytest.raises(ValueError):
            OrthogonalMatrix(np.eye(3) + 1e-6)

    def test_antisymmetric_invariant_enforced(self):
        with pytest.raises(ValueError):
            AntisymmetricMatrix([[0.0, 1.0], [-1.0 + 1e-9, 0.0]])

    def test_nan_rejected(self):
        # NaN compares false with any bound, so the bounds are tested as "not err <= tol"
        with pytest.raises(ValueError, match="not orthogonal"):
            OrthogonalMatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not antisymmetric"):
            AntisymmetricMatrix([[0.0, np.nan], [np.nan, 0.0]])

    @pytest.mark.filterwarnings("error")
    def test_infinite_entries_rejected_without_warning(self):
        for m in ([[0.0, np.inf], [-np.inf, 0.0]], [[np.inf, 0.0], [0.0, -np.inf]]):
            with pytest.raises(ValueError, match="non-finite entry"):
                AntisymmetricMatrix(m)

    def test_immutability(self):
        r = OrthogonalMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            r.mat = np.zeros((2, 2))
        with pytest.raises(ValueError):
            r.mat[0, 0] = 5.0

    def test_constructors_copy_the_callers_array(self):
        # a view passed in stays writeable, and writing through its base later leaves
        # the validated matrix as it was checked
        big = np.zeros((5, 5))
        big[:3, :3] = random_rotations(1, 3, RNG)[0]
        big[3:, 3:] = random_antisym(2).mat
        rot, gen = OrthogonalMatrix(big[:3, :3]), AntisymmetricMatrix(big[3:, 3:])
        kept = rot.mat.copy(), gen.mat.copy()
        assert big.flags.writeable
        big[:] = 7.0
        np.testing.assert_array_equal(rot.mat, kept[0])
        np.testing.assert_array_equal(gen.mat, kept[1])
        assert rot.orthogonality_error() <= 1e-10

    def test_reproject_cleans_drift(self):
        rng = np.random.default_rng(303)  # its own draws, whatever ran before it
        r = OrthogonalMatrix(random_rotations(1, 4, rng)[0])
        dirty = r.mat + 1e-11 * rng.normal(size=(4, 4))
        cleaned = reproject(OrthogonalMatrix(dirty))
        assert cleaned.orthogonality_error() <= 1e-14


def test_group_gradient_trace_identity():
    # for f(R) = tr(C^T R): d/ds f(exp(s w) R)|_0 = -tr(w pi_-(grad_R f R^T))
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = int(rng.integers(2, 6))
        c = rng.normal(size=(q, q))
        r = OrthogonalMatrix(random_rotations(1, q, rng)[0])
        w = 0.5 * (lambda g: g - g.T)(rng.normal(size=(q, q)))
        eps = 1e-6
        w_a = AntisymmetricMatrix(w)
        f_plus = np.trace(c.T @ retract(r, w_a, eps).mat)
        f_minus = np.trace(c.T @ retract(r, w_a, -eps).mat)
        fd = (f_plus - f_minus) / (2 * eps)
        analytic = -np.trace(w @ antisym_project(c @ r.mat.T).mat)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestCheckOrthogonalStack:
    """One pass over an (L, Q, Q) stack decides as check_orthogonal does layer by layer."""

    def test_each_error_is_its_layers_bit_for_bit(self):
        # drift scaled around ORTHO_TOL, so both verdicts occur, and the stack's verdict on each
        # layer is the per-layer one; the first layer that fails is the one named
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(600):
            q, depth = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            stack = np.array(random_rotations(depth, q, rng))
            stack += rng.normal(size=stack.shape) * 10.0 ** rng.uniform(-12.5, -9.5, size=(depth, 1, 1))
            errs = [orthogonality_error(r) for r in stack]
            fails = [k for k, err in enumerate(errs) if not err <= 1e-10]
            verdicts.add(bool(fails))
            if not fails:
                check_orthogonal_stack(stack)
                continue
            with pytest.raises(ValueError) as raised:
                check_orthogonal_stack(stack)
            with pytest.raises(ValueError) as alone:
                check_orthogonal(stack[fails[0]], f"rotation {fails[0]}")
            assert str(raised.value) == str(alone.value)
        assert verdicts == {False, True}

    def test_nan_entry_fails_by_name(self):
        stack = np.stack([np.eye(3)] * 3)
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^layer 2 is not orthogonal: \|\|R\^T R - I\|\| = nan$"):
            check_orthogonal_stack(stack, "layer")


class TestFrobeniusNorm:
    @PROPERTY
    @given(st.integers(1, 8).flatmap(lambda q: st.sampled_from([(q,), (q, q)])).flatmap(
        lambda shape: arrays(float, shape, elements=st.floats(-1e100, 1e100, allow_subnormal=False))))
    def test_is_numpys_norm_bit_for_bit(self, a):
        # the same arithmetic as np.linalg.norm(a): the square root of the raveled dot product,
        # also on a transposed (non-contiguous) view
        for x in (a, a.T):
            assert np.float64(frobenius_norm(x)).tobytes() == np.linalg.norm(x).tobytes()


def expm_stack_by_numpy(a):
    """The stack exponential as numpy's public API spells it: a fresh np.eye and np.linalg.solve."""
    norm = float(np.abs(a).sum(axis=-2).max())
    degree, squarings = pade_band(norm)
    if squarings:
        a = a / 2.0**squarings
    b = truncflow.manifold._PADE[degree]
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    power, odd, even = a2, b[1] * ident + b[3] * a2, b[0] * ident + b[2] * a2
    for j in range(4, len(b), 2):
        power = power @ a2
        odd, even = odd + b[j + 1] * power, even + b[j] * power
    u = a @ odd
    r = np.linalg.solve(even - u, even + u)
    for _ in range(squarings):
        r = r @ r
    return r


class TestExpmStackSolve:
    """The exponential solves through the gufunc behind np.linalg.solve, without its wrapper; a
    numpy upgrade that moves or changes that gufunc shows here."""

    def test_solves_through_numpys_own_gufunc(self):
        import numpy.linalg._linalg as linalg
        assert truncflow.manifold._solve is linalg._umath_linalg.solve

    @PROPERTY
    @given(st.integers(0, 4), st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_is_the_np_linalg_solve_exponential_bit_for_bit(self, degree, q, depth, seed):
        # (L, Q, Q) stacks of general matrices whose largest 1-norm picks each Pade degree, at
        # degree 13 with 0-6 squarings
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(depth, q, q))
        lo, hi = ((THETA[degree - 1] if degree else 1e-8), THETA[degree]) if degree < 4 else (THETA[3], 300.0)
        a *= math.exp(rng.uniform(math.log(lo), math.log(hi))) / np.abs(a).sum(axis=-2).max()
        assert pade_band(float(np.abs(a).sum(axis=-2).max()))[0] == degree
        assert truncflow.manifold._expm_stack(a).tobytes() == expm_stack_by_numpy(a).tobytes()
