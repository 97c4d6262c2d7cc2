"""Dense linear algebra on the orthogonal group O(Q).

Rotations are represented by :class:`OrthogonalMatrix`, generators of the
group by :class:`AntisymmetricMatrix`.  Both wrappers verify their defining
bound at construction, at the public boundary.  Integration stages advance
the (L, Q, Q) stack of rotations by :func:`retract_stack`, one exponential for all
layers at once, which stays on the group by construction; the integrator checks the
bound once per accepted step.  The exponential takes each matrix's Pade degree from
that matrix's 1-norm (Higham 2005): an integration step's generators are small, so
a stage's whole stack normally takes degree 3, and only a large generator pays for
degree 13 with scaling and squaring.  :func:`retract` and :func:`expm_antisym` are
its one-layer case.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .errors import SingularInput

ORTHO_TOL = 1e-10
ANTISYM_TOL = 1e-12

# After this many retractions a rotation is re-projected onto the group by
# polar decomposition to cancel accumulated round-off.
REPOLAR_EVERY = 100


def as_square(a) -> np.ndarray:
    """Validate `a` and return a float Q x Q copy of it, Q >= 1; the caller's array stays theirs."""
    m = np.array(a, dtype=float)
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


# theta_m for m = 3, 5, 7, 9, 13: the largest 1-norm for which the degree-m Pade approximant
# to exp is accurate to double precision without scaling (Higham 2005, Table 2.3).
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068, 5.371920351148152)

# Coefficients b_0 .. b_m of the degree-m Pade approximants to exp, m = 3, 5, 7, 9, 13.
_PADE = (
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
     2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
     129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
     40840800.0, 960960.0, 16380.0, 182.0, 1.0),
)


def moving_layers(generators: np.ndarray) -> np.ndarray:
    """Which of the (L, Q, Q) `generators` move their rotation at a nonzero step: (L,) bool,
    true where the generator's Frobenius norm is nonzero (a generator whose squared entries all
    underflow to 0 counts as zero)."""
    return (generators * generators).sum(axis=(-2, -1)) != 0.0


def _pade13_scaled(a: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring at Pade degree 13 of every matrix in the stack `a`, whose 1-norms are
    `norms`.  Each matrix is scaled and squared by its own count."""
    counts = [max(0, int(np.ceil(np.log2(norm / _THETA[-1])))) if norm > 0 else 0
              for norm in norms.tolist()]
    fewest, most = min(counts), max(counts)
    if most > 0:
        a = a / np.array([2.0**c for c in counts])[:, None, None]
    b = _PADE[-1]
    ident = np.eye(a.shape[-1])
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
    for _ in range(fewest):
        r = r @ r
    for done in range(fewest, most):  # only the matrices whose count is not yet reached
        more = np.array(counts) > done
        m = r[more]
        r[more] = m @ m
    return r


def _expm_band(a: np.ndarray, norms: np.ndarray, band: int) -> np.ndarray:
    """exp of every matrix in the stack `a`, whose 1-norms `norms` all lie in one degree `band`.

    Bands 0-3 take the Pade approximant of degree m = 3, 5, 7 or 9 with no scaling:
    u = a (b_1 I + b_3 a^2 + ...), v = b_0 I + b_2 a^2 + ..., solved as (v - u)^-1 (v + u).
    Band 4 takes degree 13 with scaling and squaring (:func:`_pade13_scaled`)."""
    if band == 4:
        return _pade13_scaled(a, norms)
    b = _PADE[band]
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    power, odd, even = a2, b[1] * ident + b[3] * a2, b[0] * ident + b[2] * a2
    for j in range(4, len(b), 2):  # a^4, ..., a^(m-1)
        power = power @ a2
        odd, even = odd + b[j + 1] * power, even + b[j] * power
    u = a @ odd
    return np.linalg.solve(even - u, even + u)


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in the (L, Q, Q) stack `a` (Higham 2005).

    Each matrix takes the lowest Pade degree m in 3, 5, 7, 9 whose theta_m bounds its own
    1-norm; above theta_9 it takes degree 13, scaled and squared by its own count.  So a layer
    is exponentiated bit for bit as if alone.  An integration step's generators are small
    (h ||Omega||_1 of order 1e-3), so a stage's whole stack is normally below theta_3 and takes
    degree 3 at once: two products and a solve, against six products at degree 13."""
    norms = np.abs(a).sum(axis=-2).max(axis=-1)  # each matrix's 1-norm
    bands = [bisect_left(_THETA, norm, hi=4) for norm in norms.tolist()]  # 0-3: degree 3-9; 4: 13
    if min(bands) == max(bands):  # one band: an integration stage's stack, or a single matrix
        return _expm_band(a, norms, bands[0])
    r = np.empty_like(a)
    for band in set(bands):
        pick = np.array(bands) == band
        r[pick] = _expm_band(a[pick], norms[pick], band)
    return r


def retract_stack(rotations: np.ndarray, generators: np.ndarray, step: float) -> np.ndarray:
    """Unvalidated exp(step * generators[k]) @ rotations[k] for every layer k of the (L, Q, Q)
    stacks.  A layer whose generator is zero keeps its rotation bit for bit; a zero step, or
    no moving layer, returns `rotations` itself."""
    if step == 0.0:
        return rotations
    moving = moving_layers(generators)
    moved = np.count_nonzero(moving)
    if moved == 0:
        return rotations
    if moved == len(moving):
        return _expm_stack(step * generators) @ rotations
    out = rotations.copy()
    out[moving] = _expm_stack(step * generators[moving]) @ rotations[moving]
    return out


def expm_antisym(a: AntisymmetricMatrix) -> OrthogonalMatrix:
    """Exponential of an antisymmetric generator; the result is orthogonal."""
    if a.norm() == 0.0:
        return OrthogonalMatrix.identity(a.dim)
    return OrthogonalMatrix(_expm_stack(a.mat[None])[0])


def retract(r: OrthogonalMatrix, omega: AntisymmetricMatrix, step: float) -> OrthogonalMatrix:
    """Move R along the group: exp(step * omega) @ R, the one-layer case of :func:`retract_stack`.

    A zero step or zero generator returns `r` itself, bit-exactly.
    """
    if not np.isfinite(step):
        raise ValueError("step must be finite")
    stack = r.mat[None]
    out = retract_stack(stack, omega.mat[None], step)
    return r if out is stack else OrthogonalMatrix(out[0])


def reproject(r: OrthogonalMatrix) -> OrthogonalMatrix:
    """Snap a rotation back onto the group via polar decomposition."""
    _, clean = polar_decompose(r.mat)
    return clean


def random_orthogonal(dim: int, rng: np.random.Generator) -> OrthogonalMatrix:
    """Haar-ish random rotation: exponential of a random antisymmetric matrix."""
    g = rng.normal(size=(dim, dim))
    return expm_antisym(antisym_project(g))
