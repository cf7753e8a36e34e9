"""Grid-sampled upper bounds on restoration entropy via metric-adapted
singular values on the positive-definite-matrix manifold."""

from .dynamics import (
    CompactSet,
    SystemModel,
    builtin_systems,
    default_region,
    invariance_spot_check,
    lanford_region,
    lanford_system,
    linear_map_system,
    linear_ode_system,
    identity_system,
    make_system,
)
from .entropy import (
    BoundReport,
    OracleResult,
    bound,
    lanford_closed_form,
    lyapunov_oracle,
    proximate_entropy,
)
from .errors import (
    ConfigError,
    NumericError,
    ToolkitError,
    UnknownSystemError,
)
from .metrics import MetricField, lanford_metric, minimizing_metric
from .spd import (
    as_spd,
    congruence,
    distance,
    geodesic,
    karcher_barycenter,
    log_singular_values,
    lyapunov_solve,
    power,
    vectorial_distance,
)

__version__ = "0.1.0"
