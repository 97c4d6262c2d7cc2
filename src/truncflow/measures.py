"""Training clusters as empirical measures, and their sector-constrained moments.

Every cluster is a finite set of points, so every moment is a finite sum;
no quadrature appears anywhere.  Moments are taken of the pushed-forward
measure, i.e. of the points z = R(x + beta) in the layer's rotated frame,
and sectors are keyed by their activity pattern, a tuple of Q booleans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCluster
from .model import ModelState, push


class TrainingSet:
    """Q clusters of length-Q points, a tuple of read-only, non-empty, finite arrays; cluster l carries label l."""

    def __init__(self, clusters):
        cl = tuple(np.asarray(c, dtype=float) for c in clusters)
        if not cl:
            raise ValueError("need at least one cluster")
        q = len(cl)
        for i, c in enumerate(cl):
            if c.ndim != 2 or c.shape[1] != q:
                raise ValueError(
                    f"cluster {i} has shape {c.shape}; expected (N_{i}, {q})"
                )
            if c.shape[0] < 1:
                raise EmptyCluster(f"cluster {i} is empty")
            bad = np.argwhere(~np.isfinite(c))
            if len(bad):
                point, coord = bad[0]
                raise ValueError(f"cluster {i} point {point} coordinate {coord} is {c[point, coord]}, not finite")
            c.setflags(write=False)
        self.clusters = cl

    @property
    def q(self) -> int:
        return len(self.clusters)

    @property
    def counts(self) -> list[int]:
        return [c.shape[0] for c in self.clusters]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_dict(self, labels=None) -> dict:
        doc = {"q": self.q, "clusters": [c.tolist() for c in self.clusters]}
        if labels is not None:
            doc["labels"] = np.asarray(labels, dtype=float).tolist()
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> tuple["TrainingSet", np.ndarray | None]:
        """Parse {"q": int, "clusters": [[[x...]...]...], "labels": [[y...]...]}.

        A rejected document raises ValueError, or EmptyCluster for an empty
        cluster, whose message starts with the key at fault: "clusters",
        "q" or "labels".
        """
        if "clusters" not in doc:
            raise ValueError("clusters is missing from the training-set document")
        try:
            ts = cls(doc["clusters"])
        except (ValueError, EmptyCluster) as exc:
            raise type(exc)(f"clusters rejected: {exc}") from exc
        q = doc.get("q", ts.q)
        if not isinstance(q, int) or isinstance(q, bool) or q != ts.q:
            raise ValueError(f"q must be the number of clusters, {ts.q}, got {q!r}")
        labels = doc.get("labels")
        if labels is not None:
            try:
                labels = np.asarray(labels, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"labels must be numbers: {exc}") from exc
            if labels.shape != (ts.q, ts.q):
                raise ValueError(f"labels must have shape ({ts.q}, {ts.q}), got {labels.shape}")
            if not np.all(np.isfinite(labels)):
                raise ValueError("labels must be finite")
        return ts, labels

    @classmethod
    def load(cls, path) -> tuple["TrainingSet", np.ndarray | None]:
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class Moments:
    """Free and sector-constrained moments of one pushed-forward cluster.

    i0 is the total mass (1 for a probability measure); i1 the mean of the
    pushed points; j0[r] / j0_perp[r] the fraction of points with coordinate
    r positive / truncated; j1_by_sector[nu] the per-sector first moment
    (1/N) sum z and j2_by_sector[nu] the per-sector second moment
    (1/N) sum z z^T, keyed only by occupied sectors; a sector nu is the
    tuple of Q booleans `z > 0` of its points.
    """

    i0: float
    i1: np.ndarray
    j0: np.ndarray
    j0_perp: np.ndarray
    j1_by_sector: dict[tuple[bool, ...], np.ndarray] = field(default_factory=dict)
    j2_by_sector: dict[tuple[bool, ...], np.ndarray] = field(default_factory=dict)


def compute_moments(rotation, beta, cluster, mask=None) -> Moments:
    """Moments of one cluster pushed forward by the layer (R, beta), as arrays (Q, Q) and (Q,).

    The pushed points are the rows z_i = R(x_i + beta).  `mask` (boolean
    (N, Q)) overrides the sign patterns z > 0 that assign points to sectors,
    as the right-hand sides' `frozen_masks` do.
    """
    pts = np.asarray(cluster, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyCluster("cluster must contain at least one point")
    z = (pts + beta) @ rotation.T
    n = z.shape[0]
    pos = (z > 0.0) if mask is None else mask
    j0 = pos.mean(axis=0)
    # rows grouped by mask; for a few points a dict is ~3x faster than np.unique(pos, axis=0)
    rows: dict[tuple[bool, ...], list[int]] = {}
    for i, bits in enumerate(map(tuple, pos.tolist())):
        rows.setdefault(bits, []).append(i)
    return Moments(
        i0=1.0,
        i1=z.mean(axis=0),
        j0=j0,
        j0_perp=1.0 - j0,
        j1_by_sector={bits: z[idx].sum(axis=0) / n for bits, idx in rows.items()},
        j2_by_sector={bits: (z[idx].T @ z[idx]) / n for bits, idx in rows.items()},
    )


def check_cluster_separation(state: ModelState, data: TrainingSet):
    """Does every layer act as the identity on the chained images of every other cluster?

    Returns (ok, violations) where violations lists, in ascending order, the (layer, cluster,
    point) triples whose image, pushed through the layers before it, is not strictly inside the
    layer's positive sector.
    """
    violations = []
    for l, pts in enumerate(data.clusters):
        nus = push(state.rotations, state.betas, pts)[1]
        violations.extend((k, l, int(i)) for k, nu in enumerate(nus) if k != l
                          for i in np.flatnonzero(~np.all(nu, axis=1)))
    return (not violations), sorted(violations)
