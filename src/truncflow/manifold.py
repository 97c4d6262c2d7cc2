"""Dense linear algebra on the orthogonal group O(Q).

Rotations are represented by :class:`OrthogonalMatrix`, generators of the
group by :class:`AntisymmetricMatrix`.  Both wrappers verify their defining
bound at construction, at the public boundary.  Integration stages advance
plain arrays by :func:`retract_array`, which stays on the group by
construction; the integrator checks the bound once per accepted step.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInput

ORTHO_TOL = 1e-10
ANTISYM_TOL = 1e-12

# After this many retractions a rotation is re-projected onto the group by
# polar decomposition to cancel accumulated round-off.
REPOLAR_EVERY = 100


def as_square(a) -> np.ndarray:
    """Validate and return `a` as a float Q x Q array, Q >= 1."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def orthogonality_error(m: np.ndarray) -> float:
    """||m^T m - I||_F of the square array m."""
    return float(np.linalg.norm(m.T @ m - np.eye(m.shape[0])))


def check_orthogonal(m: np.ndarray) -> None:
    """Raise ValueError unless the square array m has ||m^T m - I||_F <= 1e-10 (NaN fails)."""
    err = orthogonality_error(m)
    if not err <= ORTHO_TOL:
        raise ValueError(f"matrix is not orthogonal: ||R^T R - I|| = {err:.3e}")


class OrthogonalMatrix:
    """A Q x Q matrix R with ||R^T R - I||_F <= 1e-10, immutable."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = as_square(mat)
        check_orthogonal(m)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "OrthogonalMatrix":
        return cls(np.eye(dim))

    def orthogonality_error(self) -> float:
        return orthogonality_error(self.mat)

    def __repr__(self):
        return f"OrthogonalMatrix(dim={self.dim})"


class AntisymmetricMatrix:
    """A Q x Q matrix A with ||A + A^T||_F <= 1e-12 * max(1, ||A||_F)."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = as_square(mat)
        if not np.all(np.isfinite(m)):  # before m + m.T, where inf - inf would warn
            raise ValueError("matrix is not antisymmetric: it has a non-finite entry")
        err = np.linalg.norm(m + m.T)
        if not err <= ANTISYM_TOL * max(1.0, np.linalg.norm(m)):
            raise ValueError(f"matrix is not antisymmetric: ||A + A^T|| = {err:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("AntisymmetricMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "AntisymmetricMatrix":
        return cls(np.zeros((dim, dim)))

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def __repr__(self):
        return f"AntisymmetricMatrix(dim={self.dim}, norm={self.norm():.3e})"


def antisym_project(a) -> AntisymmetricMatrix:
    """Project a square matrix onto the antisymmetric matrices, (A - A^T)/2."""
    m = as_square(a)
    return AntisymmetricMatrix(0.5 * (m - m.T))


def polar_decompose(w) -> tuple[np.ndarray, OrthogonalMatrix]:
    """Left polar decomposition W = P R with P symmetric positive definite.

    Computed from the SVD W = U S V^T as P = U S U^T, R = U V^T.  Raises
    :class:`SingularInput` when the smallest singular value is below
    1e-12 times the largest.
    """
    m = as_square(w)
    u, s, vh = np.linalg.svd(m)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularInput(
            f"matrix is numerically singular (sigma_min/sigma_max = {s[-1] / s[0]:.3e})"
        )
    p = (u * s) @ u.T
    r = u @ vh
    return 0.5 * (p + p.T), OrthogonalMatrix(r)


# Coefficients of the degree-13 Pade approximant to exp, n + k = 13.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def _expm_pade13(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring matrix exponential at fixed Pade order 13."""
    norm = np.linalg.norm(a, 1)
    # theta_13: largest 1-norm for which the order-13 approximant is accurate
    # to double precision without scaling.
    squarings = max(0, int(np.ceil(np.log2(norm / 5.371920351148152)))) if norm > 0 else 0
    a = a / (2.0**squarings)
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def expm_antisym(a: AntisymmetricMatrix) -> OrthogonalMatrix:
    """Exponential of an antisymmetric generator; the result is orthogonal."""
    if a.norm() == 0.0:
        return OrthogonalMatrix.identity(a.dim)
    return OrthogonalMatrix(_expm_pade13(a.mat))


def retract_array(r: np.ndarray, omega: np.ndarray, step: float) -> np.ndarray:
    """Unvalidated exp(step * omega) @ r; a zero step or generator returns `r` itself."""
    if step == 0.0 or np.linalg.norm(omega) == 0.0:
        return r
    return _expm_pade13(step * omega) @ r


def retract(r: OrthogonalMatrix, omega: AntisymmetricMatrix, step: float) -> OrthogonalMatrix:
    """Move R along the group: exp(step * omega) @ R.

    A zero step or zero generator returns `r` itself, bit-exactly.
    """
    if not np.isfinite(step):
        raise ValueError("step must be finite")
    out = retract_array(r.mat, omega.mat, step)
    return r if out is r.mat else OrthogonalMatrix(out)


def reproject(r: OrthogonalMatrix) -> OrthogonalMatrix:
    """Snap a rotation back onto the group via polar decomposition."""
    _, clean = polar_decompose(r.mat)
    return clean


def random_orthogonal(dim: int, rng: np.random.Generator) -> OrthogonalMatrix:
    """Haar-ish random rotation: exponential of a random antisymmetric matrix."""
    g = rng.normal(size=(dim, dim))
    return expm_antisym(antisym_project(g))
