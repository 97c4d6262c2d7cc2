import numpy as np
import pytest
import scipy.linalg

from truncflow.errors import SingularInput
from truncflow.manifold import (
    AntisymmetricMatrix,
    OrthogonalMatrix,
    antisym_project,
    expm_antisym,
    polar_decompose,
    random_orthogonal,
    reproject,
    retract,
)

RNG = np.random.default_rng(1234)


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
