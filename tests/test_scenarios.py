"""The scenario builders' outputs, pinned by digest.

Each digest covers every array a builder returns, bit for bit: the rotations, biases, output map,
labels and pulled labels of the state, and the points and cluster offsets of the data.  They were
recorded before the builders drew their candidate points in blocks and their random rotations as
one stack, so any change to the random stream, the order of the draws or the arithmetic that
turns draws into a configuration moves them.
"""

import hashlib
import platform
import sys

import numpy as np
import pytest

from truncflow.measures import TrainingSet
from truncflow.scenarios import make_separated_config, named_initial_state
from truncflow.verify import _random_state_and_data

pytestmark = pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                                reason="the digests are recorded on x86_64 Linux")

# make_separated_config over q 1-6 (q = 1 only fully truncated), n_per 1, 4 and 20, seeds 0-4
SEPARATED = "bb5d1a08105417fe3e1bd46af2799293732d0145d84b9494ce61fdfbd583f5a0"
# named_initial_state("random-orthogonal", ...) at seeds 0-3, on Q = 2 and Q = 3 data, depth Q and 5
RANDOM_ORTHOGONAL = "7a50c1d9b9eb7b2b828535bca8ee878680c0eb8082bbdf3545e4125e0e11bb1b"
# the equivalence suite's draws at suite seeds 0 and 1, in the suite's order
EQUIVALENCE_DRAWS = {0: "9d65f2a65d3fb30a87ae18766b85b966eb3caa4c41f29b7451b080796176b9b1",
                     1: "8861139ef357cbca9b36551e008fcfa760767aae0d35f1b440d5f0b48b2035c3"}


def update(h, state, data: TrainingSet | None = None) -> None:
    for a in (state.rotations, state.betas, state.output_map, state.labels, state.pulled_labels):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    if data is not None:
        h.update(data.points.tobytes())
        h.update(np.asarray(data.offsets, dtype=np.int64).tobytes())


def separated_digest() -> str:
    h = hashlib.sha256()
    for q in range(1, 7):
        for truncation in ("partial", "full") if q > 1 else ("full",):
            for n_per in (1, 4, 20):
                for seed in range(5):
                    h.update(repr((q, truncation, n_per, seed)).encode())
                    update(h, *make_separated_config(q, n_per=n_per, seed=seed, truncation=truncation))
    return h.hexdigest()


def random_orthogonal_digest() -> str:
    h = hashlib.sha256()
    for q in (2, 3):
        data = TrainingSet([5.0 * np.eye(q)[l] + np.arange(2 * q).reshape(2, q) / 10 for l in range(q)])
        for depth in (q, 5):
            for seed in range(4):
                update(h, named_initial_state("random-orthogonal", data, np.eye(q), depth=depth, seed=seed))
    return h.hexdigest()


def equivalence_draws_digest(seed: int) -> str:
    """The suite's draws from its one stream, in its order: 500 unstructured cases, 50 separated
    configurations and 200 unstructured chains, each with its point and layer range."""
    rng = np.random.default_rng((seed, 4))
    h = hashlib.sha256()
    for _ in range(500):
        update(h, *_random_state_and_data(int(rng.integers(2, 5)), 8, rng))
    for _ in range(50):
        q = int(rng.integers(2, 5))
        update(h, *make_separated_config(q, n_per=4, seed=int(rng.integers(2**31))))
    for _ in range(200):
        state, data = _random_state_and_data(int(rng.integers(2, 5)), 3, rng)
        update(h, state, data)
        x = rng.normal(size=state.dim) * 2.0
        lo = int(rng.integers(0, state.depth))
        hi = int(rng.integers(lo, state.depth + 1))
        h.update(x.tobytes())
        h.update(repr((lo, hi)).encode())
    return h.hexdigest()


def test_separated_configs_match_recorded_digest():
    assert separated_digest() == SEPARATED


def test_random_orthogonal_states_match_recorded_digest():
    assert random_orthogonal_digest() == RANDOM_ORTHOGONAL


@pytest.mark.parametrize("seed", [0, 1])
def test_equivalence_suite_draws_match_recorded_digest(seed):
    assert equivalence_draws_digest(seed) == EQUIVALENCE_DRAWS[seed]
