import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from truncflow.errors import SingularInput
from truncflow.manifold import (
    AntisymmetricMatrix,
    OrthogonalMatrix,
    antisym_project,
    expm_antisym,
    moving_layers,
    polar_decompose,
    random_orthogonal,
    reproject,
    retract,
    retract_stack,
)

RNG = np.random.default_rng(1234)

# derandomized: the same examples on every run, and no example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# theta_m for Pade degrees m = 3, 5, 7, 9, 13 (Higham 2005, Table 2.3)
THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068, 5.371920351148152)


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
        r0 = random_orthogonal(4, RNG)
        p, r = polar_decompose(3.0 * r0.mat)
        np.testing.assert_allclose(p, 3.0 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(r.mat, r0.mat, atol=1e-12)

    def test_reconstruction_random(self):
        for _ in range(20):
            w = RNG.normal(size=(4, 4)) + 2.0 * np.eye(4)
            p, r = polar_decompose(w)
            np.testing.assert_allclose(p @ r.mat, w, rtol=0, atol=1e-10 * np.linalg.norm(w))
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(p) > 0)

    def test_ill_conditioned_within_bound(self):
        # condition number 1e6 still reconstructs to 1e-10 relative
        u = random_orthogonal(3, RNG).mat
        v = random_orthogonal(3, RNG).mat
        w = (u * np.array([1.0, 1e-3, 1e-6])) @ v
        p, r = polar_decompose(w)
        assert np.linalg.norm(p @ r.mat - w) <= 1e-10 * np.linalg.norm(w)

    def test_singular_raises(self):
        w = np.ones((3, 3))
        with pytest.raises(SingularInput):
            polar_decompose(w)


class TestExpmAntisym:
    def test_zero(self):
        out = expm_antisym(AntisymmetricMatrix(np.zeros((3, 3))))
        np.testing.assert_array_equal(out.mat, np.eye(3))

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
        r = random_orthogonal(3, RNG)
        assert retract(r, random_antisym(3), 0.0) is r

    def test_zero_generator_returns_same_object(self):
        r = random_orthogonal(3, RNG)
        assert retract(r, AntisymmetricMatrix(np.zeros((3, 3))), 0.7) is r

    def test_rotation_by_pi(self):
        r = OrthogonalMatrix(np.eye(2))
        omega = AntisymmetricMatrix([[0.0, 1.0], [-1.0, 0.0]])
        out = retract(r, omega, np.pi)
        np.testing.assert_allclose(out.mat, -np.eye(2), atol=1e-14)

    def test_stays_orthogonal_many_steps(self):
        r = random_orthogonal(4, RNG)
        omega = random_antisym(4)
        for _ in range(500):
            r = retract(r, omega, 1e-2)
        assert r.orthogonality_error() <= 1e-10

    def test_nonfinite_step_rejected(self):
        with pytest.raises(ValueError):
            retract(random_orthogonal(2, RNG), random_antisym(2), np.inf)


@st.composite
def rotation_stacks(draw):
    """(rotations, generators, step): L = 1-4 layers in Q = 2-4.  Each step * generator is zero
    (one in four) or a random direction of Frobenius norm 1e-6 to 100, log-uniform over 1e-6 to 1
    and over 1 to 100 alike, so a stack mixes Pade degrees 3 to 13 and squaring counts 0 to 6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([1.0, 0.5, -0.7, 1e-3]))
    q, depth = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    rotations = np.array([random_orthogonal(q, rng).mat for _ in range(depth)])
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
    def test_each_layer_as_if_alone(self, stack):
        rotations, gens, step = stack
        out = retract_stack(rotations, gens, step)
        for k in range(len(rotations)):
            alone = retract(OrthogonalMatrix(rotations[k]), AntisymmetricMatrix(gens[k]), step).mat
            assert out[k].tobytes() == alone.tobytes()
            assert out[k].tobytes() == retract_stack(rotations[k:k + 1], gens[k:k + 1], step)[0].tobytes()

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
        rotations = np.array([random_orthogonal(3, RNG).mat for _ in gens])
        out = retract_stack(rotations, gens, 1.0)
        assert out[3].tobytes() == rotations[3].tobytes()
        for k in set(range(len(gens))) - {3}:
            ref = scipy.linalg.expm(gens[k]) @ rotations[k]
            assert np.linalg.norm(out[k] - ref) <= 1e-12
            assert np.linalg.norm(out[k].T @ out[k] - np.eye(3)) <= 1e-13
            assert out[k].tobytes() == retract_stack(rotations[k:k + 1], gens[k:k + 1], 1.0)[0].tobytes()


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
        big[:3, :3] = random_orthogonal(3, RNG).mat
        big[3:, 3:] = random_antisym(2).mat
        rot, gen = OrthogonalMatrix(big[:3, :3]), AntisymmetricMatrix(big[3:, 3:])
        kept = rot.mat.copy(), gen.mat.copy()
        assert big.flags.writeable
        big[:] = 7.0
        np.testing.assert_array_equal(rot.mat, kept[0])
        np.testing.assert_array_equal(gen.mat, kept[1])
        assert rot.orthogonality_error() <= 1e-10

    def test_reproject_cleans_drift(self):
        r = random_orthogonal(4, RNG)
        dirty = r.mat + 1e-11 * RNG.normal(size=(4, 4))
        cleaned = reproject(OrthogonalMatrix(dirty))
        assert cleaned.orthogonality_error() <= 1e-14


def test_group_gradient_trace_identity():
    # for f(R) = tr(C^T R): d/ds f(exp(s w) R)|_0 = -tr(w pi_-(grad_R f R^T))
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = int(rng.integers(2, 6))
        c = rng.normal(size=(q, q))
        r = random_orthogonal(q, rng)
        w = 0.5 * (lambda g: g - g.T)(rng.normal(size=(q, q)))
        eps = 1e-6
        w_a = AntisymmetricMatrix(w)
        f_plus = np.trace(c.T @ retract(r, w_a, eps).mat)
        f_minus = np.trace(c.T @ retract(r, w_a, -eps).mat)
        fd = (f_plus - f_minus) / (2 * eps)
        analytic = -np.trace(w @ antisym_project(c @ r.mat.T).mat)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))
