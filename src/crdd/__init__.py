"""crdd: crosstalk-robust dynamical decoupling toolkit.

Builds DD pulse schedules (XY4, EDD, KDD, UR10, UR12, RGA64c), applies the
staggering and padding transforms that make them robust to static ZZ
crosstalk on 2-colorable qubit graphs, verifies first-order suppression via
control-matrix integrals, and reproduces the survival-probability experiment
pipeline in exact small-scale simulation.
"""
from .sequences import (
    ColoredSchedule, PulseShape, PulseSpec, QubitGraph, Segment, Sequence,
    build_named, cr_dd, cr_variant, envelope_amplitude, named_phases, pad,
    sim_dd, sim_variant, two_color,
)
from .control import (
    ControlTrace, ErrorMatrix, SuppressionReport, SymmetryReport,
    bang_bang_trace, chi1, chi2, classify_all, classify_symmetry,
    control_trace, propagate, verify_first_order,
)
from .sim import (
    DeviceModel, StateSpec, SurvivalPoint, SurvivalRecord, cycle_propagator,
    evolve, idle_schedule, prepare_states,
)
from .fitting import (
    BootstrapCI, FitResult, bootstrap_mean_ci, fit_decay, time_avg_survival,
)
from .experiment import (
    ExperimentPlan, default_plan, fit_dataset, run_experiment, schedule_points,
    summarize,
)

__version__ = "0.1.0"
