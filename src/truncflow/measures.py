"""Training clusters as empirical measures, and their sector-constrained moments.

Every cluster is a finite set of points, so every moment is a finite sum;
no quadrature appears anywhere.  Moments are taken of the pushed-forward
measure, i.e. of the points z = R(x + beta) in the layer's rotated frame,
and sectors are keyed by their activity pattern, a tuple of Q booleans.
Separation is decided here, once: :func:`separation_violations` lists the
(layer, cluster, point) triples of a mask list that break it, and both
:func:`check_cluster_separation` and ``flows.FrozenMasks`` read that list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCluster
from .model import ModelState, check_data, push


class TrainingSet:
    """Q clusters of length-Q points, non-empty and finite; cluster l carries label l.

    The constructor copies the points into one read-only array `points` (N, Q); cluster l's rows
    are `points[offsets[l]:offsets[l + 1]]`, and `clusters[l]` is a read-only view of them.  The
    row slices and cluster sizes are computed here, once.
    """

    def __init__(self, clusters):
        cl = [np.asarray(c, dtype=float) for c in clusters]
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
        self.points = np.concatenate(cl)
        self.offsets = np.cumsum([0] + [len(c) for c in cl])
        self.points.setflags(write=False)
        self.offsets.setflags(write=False)
        bounds = self.offsets.tolist()
        self._rows = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
        self._counts = tuple(hi - lo for lo, hi in zip(bounds[:-1], bounds[1:]))
        self.clusters = tuple(self.points[rows] for rows in self._rows)

    def rows(self, l: int) -> slice:
        """Cluster l's rows of `points`, and of every (N, Q) array over them."""
        return self._rows[l]

    def locate(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (cluster, point) indices of the given rows of `points`."""
        cluster = np.searchsorted(self.offsets, rows, side="right") - 1
        return cluster, rows - self.offsets[cluster]

    @property
    def q(self) -> int:
        return len(self.clusters)

    @property
    def counts(self) -> list[int]:
        return list(self._counts)

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

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
        if not isinstance(doc, dict) or "clusters" not in doc:
            raise ValueError("clusters is missing from the training-set document")
        if not isinstance(doc["clusters"], list):
            raise ValueError(f"clusters must be a list of clusters, got {doc['clusters']!r}")
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


def check_mask(mask, shape: tuple, name: str) -> None:
    """Raise ValueError, naming the mask `name`, unless `mask` is a bool array of `shape`."""
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == shape):
        got = f"{mask.dtype} of shape {mask.shape}" if isinstance(mask, np.ndarray) else type(mask).__name__
        raise ValueError(f"{name} is {got}; expected bool of shape {shape}")


def compute_moments(rotation, beta, cluster, mask=None) -> Moments:
    """Moments of one cluster pushed forward by the layer (R, beta), as arrays (Q, Q) and (Q,).

    The pushed points are the rows z_i = R(x_i + beta).  `mask`, a bool array
    of the cluster's shape (N, Q) (:func:`check_mask`), overrides the sign
    patterns z > 0 that assign points to sectors, as the right-hand sides'
    `frozen_masks` do.
    """
    pts = np.asarray(cluster, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyCluster("cluster must contain at least one point")
    if mask is not None:
        check_mask(mask, pts.shape, "mask")
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


def separation_violations(masks, data: TrainingSet) -> list[tuple[int, int, int]]:
    """The (layer, cluster, point) triples, in ascending order, of the rows outside cluster k that
    the activities `masks[k]` (N, Q) truncate in some coordinate; a layer k >= Q has no cluster
    of its own, so every row it truncates is listed."""
    violations = []
    for k, nu in enumerate(masks):
        clusters, points = data.locate(np.flatnonzero(~np.all(nu, axis=1)))
        violations.extend((k, l, i) for l, i in zip(clusters.tolist(), points.tolist()) if l != k)
    return violations


def check_cluster_separation(state: ModelState, data: TrainingSet):
    """Does every layer act as the identity on the chained images of every other cluster?

    Returns (ok, violations) where violations are the :func:`separation_violations` of one push
    of all points: the (layer, cluster, point) triples whose image, pushed through the layers
    before it, is not strictly inside the layer's positive sector.  A state of more layers than
    clusters raises IndexRange, and one whose Q is not the data's ValueError
    (:func:`~truncflow.model.check_data`).
    """
    check_data(state, data, own_clusters=True)
    violations = separation_violations(push(state.rotations, state.betas, data.points)[1], data)
    return (not violations), violations
