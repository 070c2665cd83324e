"""Energy-splitting surface aided full-duplex NOMA: analysis and simulation."""

from .config import (
    ConfigError,
    PowerAllocation,
    SystemConfig,
    baseline_config,
    default_power_allocation,
    dump_config,
    load_config,
)
from .specfun import gauss_legendre
from .geometry import (
    OrderSpec,
    ordered_pathloss_density,
    ordered_pathloss_mean,
    outside_point_pathloss_mean,
    pair_pathloss_mean,
)
from .channel import (
    RicianLink,
    StarRisState,
    build_links,
    sample_rician,
)
from .rates import (
    RateInputs,
    RateReport,
    build_rate_inputs,
    expectation_terms,
    rate_report,
    weighted_sum_rate,
)
from .simulator import SimPlan, simulate, simulate_clusters
from .design import (
    InfeasibleTargetsError,
    PgamSettings,
    aligned_state,
    min_power_allocation,
    pgam_optimize,
    project_amplitudes,
    project_phases,
    suboptimal_phases,
)

__version__ = "0.1.0"
