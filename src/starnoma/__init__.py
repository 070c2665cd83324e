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
from .specfun import HypParams, SeriesConvergenceError, gamma, gauss_legendre, hyp_pfq
from .geometry import (
    OrderSpec,
    UserLayout,
    ordered_pathloss_density,
    ordered_pathloss_mean,
    outside_point_pathloss_mean,
    pair_pathloss_mean,
    sample_layout,
)
from .channel import (
    RicianLink,
    StarRisState,
    build_links,
    sample_rician,
)
from .clustering import ClusterPlan, cluster_users, pair_users
from .rates import (
    RateInputs,
    RateReport,
    build_rate_inputs,
    dl_rate_edge,
    dl_rate_mid,
    dl_rate_strong,
    expectation_terms,
    rate_report,
    ul_rate_edge,
    ul_rate_mid,
    ul_rate_strong,
    weighted_sum_rate,
)
from .simulator import SimPlan, estimate_expectation, simulate, simulate_clusters
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
