"""Dense linear algebra on the orthogonal group O(Q).

Rotations are represented by :class:`OrthogonalMatrix`, generators of the
group by :class:`AntisymmetricMatrix`.  Both wrappers verify their defining
bound at construction, at the public boundary.  Integration stages advance
the (L, Q, Q) stack of rotations by :func:`retract_stack`, one exponential for all
layers at once, which stays on the group by construction; the integrator checks the
bound once per accepted step.  The exponential takes one Pade degree for the whole stack
from its largest 1-norm (Higham 2005), and at degree 13 one squaring count: an integration
step's generators are small, so a stage's whole stack normally takes degree 3, and only a
large generator pays for degree 13 with scaling and squaring; one so large that more than
MAX_SQUARINGS squarings would carry the result off the group raises ValueError.  A group of
members, each its own (L, Q, Q) stack, retracts through the same function with one step per
member; there each member's largest 1-norm picks its own degree, so members never change one
another's bits.  :func:`retract` and :func:`expm_antisym` are its one-layer case.  A stage's
matrices are 2x2 to 4x4, so the exponential's cost is mostly per-call overhead: it solves
through the LAPACK gufunc that `np.linalg.solve` dispatches to, without that function's
wrapper, and reads one read-only identity per Q, built once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache

import numpy as np
from numpy.linalg._umath_linalg import solve as _solve  # np.linalg.solve's gufunc: the same gesv

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


def frobenius_norm(a: np.ndarray) -> float:
    """||a||_F of a float array, the arithmetic of `np.linalg.norm(a)`: the square root of the
    raveled array's dot product with itself, without that function's dispatch."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


@cache
def _identity(q: int) -> np.ndarray:
    """The Q x Q identity, read-only, built once per Q."""
    ident = np.eye(q)
    ident.setflags(write=False)
    return ident


def orthogonality_error(m: np.ndarray) -> float:
    """||m^T m - I||_F of the square array m."""
    return frobenius_norm(m.T @ m - _identity(m.shape[0]))


def check_orthogonal(m: np.ndarray, name: str = "matrix") -> None:
    """Raise ValueError naming `name` unless the square array m has ||m^T m - I||_F <= 1e-10
    (NaN fails)."""
    err = orthogonality_error(m)
    if not err <= ORTHO_TOL:
        raise ValueError(f"{name} is not orthogonal: ||R^T R - I|| = {err:.3e}")


class OrthogonalMatrix:
    """A Q x Q matrix R with ||R^T R - I||_F <= 1e-10, immutable."""

    __slots__ = ("mat",)

    def __init__(self, mat, name: str = "matrix"):
        m = as_square(mat)
        check_orthogonal(m, name)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

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
        err = frobenius_norm(m + m.T)
        if not err <= ANTISYM_TOL * max(1.0, frobenius_norm(m)):
            raise ValueError(f"matrix is not antisymmetric: ||A + A^T|| = {err:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("AntisymmetricMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        return frobenius_norm(self.mat)

    def __repr__(self):
        return f"AntisymmetricMatrix(dim={self.dim}, norm={self.norm():.3e})"


def antisym_project(a) -> AntisymmetricMatrix:
    """Project a square matrix onto the antisymmetric matrices, (A - A^T)/2."""
    m = as_square(a)
    return AntisymmetricMatrix(0.5 * (m - m.T))


def polar_decompose(w) -> tuple[np.ndarray, OrthogonalMatrix]:
    """Left polar decomposition W = P R with P symmetric positive definite.

    Computed from the SVD W = U S V^T as P = U S U^T, R = U V^T.  Raises
    :class:`SingularInput` when sigma_min <= 1e-12 sigma_max (the zero matrix
    too), and ValueError on a non-finite entry.
    """
    m = as_square(w)
    if not np.all(np.isfinite(m)):  # before the SVD, which fails to converge on NaN and turns inf into NaN
        raise ValueError("matrix has no polar decomposition: it has a non-finite entry")
    u, s, vh = np.linalg.svd(m)
    if not s[0] > 0.0:  # all singular values zero: no ratio to report
        raise SingularInput("matrix is numerically singular (it is zero)")
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

# The most squarings the exponential takes.  Each one doubles the round-off: over 20,000 random
# antisymmetric generators each at Q = 2, 3, 4 and 8, 16 squarings kept ||R^T R - I||_F <= 6.2e-11
# and 17 reached 1.4e-10, past ORTHO_TOL.  So a 1-norm above theta_13 * 2^16 (about 3.5e5) fails.
MAX_SQUARINGS = 16

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
    return np.add.reduce(generators * generators, axis=(-2, -1)) != 0.0


def _pade_order(norm: float) -> tuple[int, int]:
    """The Pade degree (0-3: m = 3-9; 4: m = 13) and squaring count of a stack whose largest 1-norm
    is `norm`: the lowest of 3, 5, 7, 9 whose theta_m bounds it, else 13 with the fewest squarings
    that bring it below theta_13.  A norm that is not finite, or needs more than MAX_SQUARINGS
    squarings, raises ValueError."""
    if not math.isfinite(norm):
        raise ValueError(f"cannot exponentiate a stack whose largest 1-norm is {norm}")
    degree = bisect_left(_THETA, norm, hi=4)
    squarings = max(0, math.ceil(math.log2(norm / _THETA[-1]))) if degree == 4 else 0
    if squarings > MAX_SQUARINGS:
        raise ValueError(f"cannot exponentiate a stack whose largest 1-norm is {norm:.6g}: it needs "
                         f"{squarings} squarings, more than the {MAX_SQUARINGS} that keep it on the group")
    return degree, squarings


@cache
def _pade_identities(degree: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """b_1 I and b_0 I of the Q x Q identity at Pade degree `degree`, read-only, built once each."""
    b, ident = _PADE[degree], _identity(q)
    out = b[1] * ident, b[0] * ident
    for a in out:
        a.setflags(write=False)
    return out


def _expm_stack(a: np.ndarray, order: tuple[int, int] | None = None) -> np.ndarray:
    """Matrix exponential of every matrix in the (L, Q, Q) stack `a` (Higham 2005).

    One Pade degree and squaring count serve the whole stack: `order`, else those the stack's
    largest 1-norm picks (:func:`_pade_order`), so a layer is exponentiated bit for bit as if
    alone when its own 1-norm picks the same.  The approximant is u = a (b_1 I + b_3 a^2 + ...),
    v = b_0 I + b_2 a^2 + ..., solved as (v - u)^-1 (v + u), of a / 2^s and squared s times.  An
    integration step's generators are small (h ||Omega||_1 of order 1e-3), so a stage's whole
    stack normally takes degree 3: two products and a solve.  A stack whose largest 1-norm is not
    finite, or needs more than MAX_SQUARINGS squarings, raises ValueError before any product."""
    if order is None:  # the ufuncs' reductions themselves, as `.sum` and `.max` call them
        order = _pade_order(float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=None)))
    degree, squarings = order
    if squarings:
        a = a / 2.0**squarings
    b = _PADE[degree]
    odd0, even0 = _pade_identities(degree, a.shape[-1])
    a2 = a @ a
    power, odd, even = a2, odd0 + b[3] * a2, even0 + b[2] * a2
    for j in range(4, len(b), 2):  # a^4, ..., a^(m-1)
        power = power @ a2
        odd, even = odd + b[j + 1] * power, even + b[j] * power
    u = a @ odd
    r = _solve(even - u, even + u, signature="dd->d")
    for _ in range(squarings):
        r = r @ r
    return r


def retract_stack(rotations: np.ndarray, generators: np.ndarray, step) -> np.ndarray:
    """Unvalidated exp(step * generators[k]) @ rotations[k] for every layer k of the (L, Q, Q)
    stacks, the moving layers through one :func:`_expm_stack`: a layer moves bit for bit as if
    alone when the stack's largest 1-norm picks the degree and squaring count its own does.  A
    layer whose generator is zero keeps its rotation bit for bit; a zero step, or no moving
    layer, returns `rotations` itself.

    A group of B members stacks them (B, L, Q, Q), with one step per member, `step` (B,).  Each
    member's moving layers take the degree and squaring count of that member's own largest
    1-norm, so every member moves bit for bit as in its own call and no member's generators
    change another's bits; members that pick the same share one Pade evaluation, normally all of
    them.  A group with no moving layer returns `rotations` itself."""
    if rotations.ndim == 3:
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
    moving = moving_layers(generators)  # (B, L)
    if not moving.any():
        return rotations
    a = step[:, None, None, None] * generators
    norms = np.abs(a).sum(axis=-2).max(axis=-1)  # every layer's 1-norm, (B, L)
    orders = [_pade_order(norm) for norm in np.where(moving, norms, 0.0).max(axis=-1).tolist()]
    distinct = set(orders)
    out = rotations.copy()
    for order in distinct:
        layers = moving if len(distinct) == 1 else moving & np.array([o == order for o in orders])[:, None]
        out[layers] = _expm_stack(a[layers], order) @ rotations[layers]
    return out


def expm_antisym(a: AntisymmetricMatrix) -> OrthogonalMatrix:
    """Exponential of an antisymmetric generator; the result is orthogonal, and the identity
    bit for bit for a zero generator."""
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
