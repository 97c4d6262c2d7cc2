"""Input-space gradient-flow dynamics of deep ReLU networks.

Simulates the descent flow of cumulative biases and rotations induced by
truncation maps acting on clustered training data, together with the
collapsed- and clustered-data flows of the output map, and verifies the
analytic structure (equilibria, exponential rates, conservation laws,
closed forms) numerically.
"""

from .errors import (
    BadOrdering,
    EmptyCluster,
    IndexRange,
    LabelInsideData,
    NearKink,
    SingularGram,
    SingularInput,
    StepUnderflow,
    TruncflowError,
)
from .flows import (
    CollapsedState,
    OneDimFlow,
    chained_projectors,
    clustered_explicit,
    collapsed_rhs,
    conserved_quantity,
    effective_rhs,
    general_rhs,
    moment_form_rhs,
    one_dim_flow,
)
from .integrate import (
    Event,
    FlowSample,
    IntegratorOptions,
    Trajectory,
    fit_phase_exponents,
    freeze_time,
    integrate_collapsed,
    integrate_effective,
    integrate_general,
    write_events_csv,
    write_trajectory_csv,
)
from .manifold import (
    AntisymmetricMatrix,
    OrthogonalMatrix,
    antisym_project,
    expm_antisym,
    polar_decompose,
    retract,
)
from .measures import (
    Moments,
    TrainingSet,
    check_cluster_separation,
    compute_moments,
)
from .model import (
    LayerParams,
    ModelState,
    chained_truncation,
    euclidean_cost,
    standard_cost,
)
from .oracle import FDSettings, fd_grad_beta, fd_grad_collapsed, fd_grad_rotation, reference_integrate

__version__ = "0.1.0"
