"""Open-loop sensor transmission-rate schedules for continuous-discrete
Kalman filtering with Poisson measurement arrivals.

Design a rate table by optimizing the information-form surrogate, then
certify it: the inverted information surrogate and the covariance surrogate
bracket the Monte Carlo mean of the exact filter from below and above.
"""

from .bounds import (
    BracketReport,
    objective_bracket,
    save_bracket_report,
    scale_sensor_noise,
    snr_sweep,
    trajectory_bracket,
    write_snr_csv,
)
from .cdkf import (
    ArrivalRecord,
    FilterState,
    SimulationResult,
    rollout_covariance,
    rollout_information,
    simulate_realization,
)
from .model import (
    FeasibilityReport,
    Instance,
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    SystemModel,
    ValidationError,
    WeightSpec,
    information_increment,
    load_instance,
    load_schedule,
    random_instance,
    save_instance,
    save_schedule,
    validate_schedule,
)
from .montecarlo import (
    McEstimate,
    McTrajectories,
    mc_mean_trajectories,
    mc_objective,
    run_seed,
    sample_arrivals,
    save_mc_report,
)
from .optimize import (
    BenchmarkResult,
    ProjectionError,
    ShootingProblem,
    SolveOptions,
    SolveReport,
    benchmark_assembly,
    centered_rates,
    gradient_check,
    objective,
    objective_and_gradient,
    project_schedule,
    project_stage,
    solve,
)
from .riccati import (
    PositiveDefinitenessError,
    Trajectory,
    covariance_decrement,
    flow_cov,
    flow_info,
    invert_trajectory,
    jump_cov,
    jump_info,
    node_weights,
    pathwise_cost,
)
from .surrogate import (
    integrate_cov_surrogate,
    integrate_info_surrogate,
    stage_increments,
)

__version__ = "0.1.0"
