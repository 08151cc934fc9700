"""Collision-cone barrier safety filtering for acceleration-controlled vehicles.

A reference controller proposes an input; the filter minimally modifies
it so the relative velocity toward each obstacle stays outside that
obstacle's collision cone, with the guarantee encoded as a control
barrier constraint solved per step by a tiny QP.

The numerical core is one pure Python kernel module;
`kernel_backend()` names it.
"""

from ._backend import kernel_backend
from .cbf import (
    CbfEvaluation,
    Obstacle,
    c3bf_eval,
    effective_radius,
    ellipse_cbf_eval,
    hocbf_eval,
)
from .controllers import (
    ControllerSpec,
    ReferencePath,
    reference_input,
)
from .engine import (
    SafetyMetrics,
    Scenario,
    TrajectoryLog,
    classify_behavior,
    run_scenario,
    safety_metrics,
)
from .errors import ConeCbfError, SimulationError, ValidationError
from .models import (
    BicycleState,
    ModelParams,
    PointMassState,
    UnicycleState,
    integrate_step,
    slip_from_steering,
)
from .qpfilter import FilterConfig, FilterResult, activation_gate, filter_qp, filter_single
from .scenario_io import load_scenario, parse_scenario, save_scenario, scenario_to_dict

__version__ = "0.1.0"

__all__ = [
    "BicycleState",
    "CbfEvaluation",
    "ConeCbfError",
    "ControllerSpec",
    "FilterConfig",
    "FilterResult",
    "ModelParams",
    "Obstacle",
    "PointMassState",
    "ReferencePath",
    "SafetyMetrics",
    "Scenario",
    "SimulationError",
    "TrajectoryLog",
    "UnicycleState",
    "ValidationError",
    "activation_gate",
    "c3bf_eval",
    "classify_behavior",
    "effective_radius",
    "ellipse_cbf_eval",
    "filter_qp",
    "filter_single",
    "hocbf_eval",
    "integrate_step",
    "kernel_backend",
    "load_scenario",
    "parse_scenario",
    "reference_input",
    "run_scenario",
    "safety_metrics",
    "save_scenario",
    "scenario_to_dict",
    "slip_from_steering",
]
