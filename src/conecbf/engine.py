"""Deterministic closed-loop scenario execution.

Each step k, at the step's start state and time t = k*dt: evaluate the
reference input and the configured barrier per obstacle at its state at
t, filter the reference through the QP under the scenario's run_filter
(which gates the obstacles by the perception boundary), log, then
integrate the vehicle with the filtered input held constant. Each limit
on the numbers lives with the parameter it reads: reference_input
clamps the reference by its controller's bound, integrate_step caps the
speed state by the model params, and run_filter holds the input box the
params give the model. Identical scenarios produce identical logs.
"""

from dataclasses import dataclass, field, replace
from math import atan2, hypot, inf, radians

from ._backend import kernel
from .cbf import CBF_KINDS, Obstacle, _HOCBF_MOVING_BICYCLE, c3bf_eval, effective_radius, ellipse_cbf_eval, hocbf_eval
from .controllers import ControllerSpec, _STANLEY_BICYCLE_ONLY, reference_input
from .errors import SimulationError, ValidationError
from .models import ModelParams, _MODEL_OF, _name, _require_finite, _unfit_inputs, integrate_step
from .qpfilter import FilterConfig, _unfiltered, filter_qp

# halt margin below the effective radius before declaring a collision
COLLISION_SLACK = 1e-6
# consecutive degenerate-filter steps tolerated before aborting
DEGENERATE_STEP_BUDGET = 200
# most integration steps one run may take; longer runs are refused up front
MAX_STEPS = 10**6

# behavior-label thresholds (documented constants, see classify_behavior)
TURN_THRESHOLD_DEG = 15.0
BRAKE_SPEED_FRACTION = 0.10


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete declarative experiment description.

    Built by keyword only: the order of the fields is the key order of a
    scenario document. `name`, `model` and `initial_state` are required;
    every other field has its default here, the one a document that
    leaves its key out reads too (a missing controller is 'zero').

    Two values are worked out when built, neither of them a field (so
    documents, comparison and hash leave them out, and `replace` builds
    them anew). `radii` holds each obstacle's effective_radius under
    `params`, in obstacle order: the radius every reader of a run takes.
    `run_filter` is the FilterConfig a run applies: `filter` with the
    input box that `params.input_box` gives the model, which is `filter`
    itself unless the box is a default.
    """

    name: str
    model: str
    params: ModelParams = ModelParams()
    initial_state: object
    obstacles: tuple = ()
    controller: ControllerSpec = ControllerSpec(kind="zero")
    filter: FilterConfig = FilterConfig()
    dt: float = field(default=0.01, metadata={"section": "sim"})
    duration: float = field(default=10.0, metadata={"section": "sim"})
    cbf: str = "c3bf"
    hocbf_gamma1: float = 1.0

    def __post_init__(self):
        _name(self.name, "Scenario.name")
        if _MODEL_OF.get(type(self.initial_state)) != self.model:
            raise _unfit_inputs("Scenario", self.model, self.initial_state)
        for key, cls in (("params", ModelParams), ("controller", ControllerSpec), ("filter", FilterConfig)):
            if type(getattr(self, key)) is not cls:
                raise ValidationError(f"Scenario.{key}: expected a {cls.__name__}, got {getattr(self, key)!r}")
        if not (isinstance(self.obstacles, tuple) and all(type(o) is Obstacle for o in self.obstacles)):
            raise ValidationError(f"Scenario.obstacles: expected a tuple of Obstacle, got {self.obstacles!r}")
        if self.cbf not in CBF_KINDS:
            raise ValidationError(f"unknown cbf kind {self.cbf!r}")
        _require_finite(
            "Scenario", ("dt", "duration", "hocbf_gamma1"), (self.dt, self.duration, self.hocbf_gamma1)
        )
        if not 0 < self.dt <= self.duration:
            raise ValidationError(
                f"need 0 < dt <= duration, got dt={self.dt}, duration={self.duration}"
            )
        if self.duration / self.dt > MAX_STEPS:
            raise ValidationError(
                f"duration/dt = {self.duration / self.dt:.3g} steps exceeds MAX_STEPS={MAX_STEPS}"
            )
        if not self.hocbf_gamma1 > 0:
            raise ValidationError(f"hocbf_gamma1 must be > 0, got {self.hocbf_gamma1}")
        radii = tuple([effective_radius(o, self.params) for o in self.obstacles])
        for r in radii:
            if r >= self.filter.activation_radius:
                raise ValidationError(
                    f"activation_radius {self.filter.activation_radius} must exceed "
                    f"effective radius {r}"
                )
        if self.cbf == "hocbf" and self.model == "bicycle":
            if any(o.moves() for o in self.obstacles):
                raise ValidationError(_HOCBF_MOVING_BICYCLE)
        if self.controller.kind == "stanley" and self.model != "bicycle":
            raise ValidationError(_STANLEY_BICYCLE_ONLY)
        box = self.params.input_box(self.model, self.filter.input_bounds)
        run_filter = self.filter if box is self.filter.input_bounds else replace(self.filter, input_bounds=box)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "run_filter", run_filter)

    @property
    def n_steps(self) -> int:
        """Integration steps of a full run; its log holds n_steps + 1 records."""
        return int(self.duration / self.dt + 1e-9)


@dataclass
class TrajectoryLog:
    """Column-oriented per-step record of one run."""

    scenario: Scenario
    t: list = field(default_factory=list)
    states: list = field(default_factory=list)
    u_ref: list = field(default_factory=list)
    u_star: list = field(default_factory=list)
    h: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    dist: list = field(default_factory=list)
    active: list = field(default_factory=list)
    penetration: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)
    infeasible: list = field(default_factory=list)
    collided: bool = False
    collision_step: int = None
    collision_obstacle: int = None

    def __len__(self):
        return len(self.t)


def run_scenario(sc: Scenario) -> TrajectoryLog:
    """Execute a scenario to completion or until a collision verdict.

    The log gains one record per step boundary, sc.n_steps + 1 in
    total. Each step calls reference_input, the barrier of the run's
    kind once per obstacle (c3bf_eval, ellipse_cbf_eval or hocbf_eval,
    read by its module name at call time, as are the others), filter_qp
    and integrate_step. An obstacle collides once its center distance
    falls to COLLISION_SLACK below its radius in sc.radii. A `cbf: none`
    run evaluates the cone barrier and filters nothing, but takes psi
    and the input refusals from the filter's own rule
    (qpfilter._unfiltered), and applies u_ref saturated to the box.
    Raises SimulationError on integrator divergence, when the filter's
    rule refuses a step's numbers (a non-finite u_ref or a NaN distance,
    say), whatever the barrier kind, or when the filter stays degenerate
    for more than DEGENERATE_STEP_BUDGET consecutive steps. An `sc` that
    is not a Scenario raises ValidationError.
    """
    if not isinstance(sc, Scenario):
        raise ValidationError(f"run_scenario needs a Scenario, got {type(sc).__name__}")
    n_steps = sc.n_steps
    state = sc.initial_state
    model, params, dt, obstacles, controller = sc.model, sc.params, sc.dt, sc.obstacles, sc.controller
    n_obs = len(obstacles)
    # an obstacle collides once its center distance falls to its limit
    limits = [r - COLLISION_SLACK for r in sc.radii]
    cfg = sc.run_filter
    kind, gamma1 = sc.cbf, sc.hocbf_gamma1
    filters = kind != "none"
    # shared by every step on which no constraint binds
    no_active = (False,) * n_obs
    # one record per step, in TrajectoryLog field order
    records = []
    degenerate_run = 0
    for k in range(n_steps + 1):
        t = k * dt
        u_ref = reference_input(controller, model, state, params)
        if kind == "ellipse":
            evals = [ellipse_cbf_eval(model, state, o, t) for o in obstacles]
        elif kind == "hocbf":
            evals = [hocbf_eval(model, state, o, gamma1, params, t) for o in obstacles]
        else:
            evals = [c3bf_eval(model, state, o, params, t) for o in obstacles]
        hs, _, _, penetrations, dists = zip(*evals) if evals else ((),) * 5
        try:
            u_cmd, _, binding, psis, degenerate, infeasible = (filter_qp if filters else _unfiltered)(u_ref, evals, cfg)
        except ValidationError as exc:
            raise SimulationError(f"filter failed at step {k}: {exc}", step=k)
        active = tuple([i in binding for i in range(n_obs)]) if binding else no_active
        records.append((
            t, state.as_tuple(), u_ref, u_cmd, hs, psis, dists, active, penetrations,
            degenerate, infeasible,
        ))
        for i, (d, limit) in enumerate(zip(dists, limits)):
            if d <= limit:
                return TrajectoryLog(sc, *map(list, zip(*records)), True, k, i)
        degenerate_run = degenerate_run + 1 if degenerate else 0
        if degenerate_run > DEGENERATE_STEP_BUDGET:
            raise SimulationError(
                f"filter degenerate for {degenerate_run} consecutive steps", step=k
            )
        if k == n_steps:
            break
        try:
            state = integrate_step(model, state, u_cmd, dt, params)
        except ValidationError as exc:
            raise SimulationError(f"integration failed at step {k}: {exc}", step=k)
    return TrajectoryLog(sc, *map(list, zip(*records)))


def _speed_series(log: TrajectoryLog):
    if log.scenario.model == "pointmass":
        return [hypot(s[2], s[3]) for s in log.states]
    return [s[3] for s in log.states]


def _heading_series(log: TrajectoryLog):
    """Unwrapped heading; for the point mass, the velocity direction."""
    if log.scenario.model == "pointmass":
        vd = log.scenario.controller._v_target
        prev = atan2(vd[1], vd[0]) if hypot(*vd) > 0 else 0.0
        raw = []
        for s in log.states:
            if hypot(s[2], s[3]) > 1e-3:
                prev = atan2(s[3], s[2])
            raw.append(prev)
    else:
        raw = [s[2] for s in log.states]
    out = [raw[0]]
    for th in raw[1:]:
        out.append(out[-1] + kernel.wrap_angle(th - out[-1]))
    return out


def _target_speed(sc: Scenario) -> float:
    if sc.controller.kind == "zero":
        return 0.0
    if sc.model == "pointmass":
        return hypot(*sc.controller._v_target)
    return sc.controller.v_des


def classify_behavior(log: TrajectoryLog):
    """Qualitative labels for a completed run (possibly several).

    braking    -- speed drops below 10% of the target after having
                  reached 90% of it, with heading change under 15
                  degrees and no reversal
    turning    -- heading change of at least 15 degrees without reversing
    reversing  -- signed speed crosses below zero (unicycle/bicycle)
    overtaking -- a moving obstacle's along-track position relative to
                  the vehicle flips from ahead to behind
    """
    if not isinstance(log, TrajectoryLog):
        raise ValidationError(f"classify_behavior needs a TrajectoryLog, got {type(log).__name__}")
    if not log.t:
        return ()
    labels = []
    speeds = _speed_series(log)
    headings = _heading_series(log)
    v_des = _target_speed(log.scenario)
    turn = max(abs(th - headings[0]) for th in headings)
    turn_limit = radians(TURN_THRESHOLD_DEG)
    v_min = min(speeds)
    reversed_ = log.scenario.model != "pointmass" and v_min < -1e-9
    if reversed_:
        labels.append("reversing")
    if turn >= turn_limit and not reversed_:
        labels.append("turning")
    if v_des > 0 and not reversed_ and turn < turn_limit:
        up = next((k for k, v in enumerate(speeds) if v >= 0.9 * v_des), None)
        if up is not None and min(speeds[up:]) < BRAKE_SPEED_FRACTION * v_des:
            labels.append("braking")
    # overtaking: along-track relative position flips sign ahead -> behind
    start = log.states[0]
    end = log.states[-1]
    track = (end[0] - start[0], end[1] - start[1])
    norm = hypot(*track)
    if norm > 1e-9:
        tx, ty = track[0] / norm, track[1] / norm

        def along(o, k):
            cx, cy, _, _ = o.state_at(log.t[k])
            return (log.states[k][0] - cx) * tx + (log.states[k][1] - cy) * ty

        if any(o.moves() and along(o, 0) < 0 and along(o, -1) > 0 for o in log.scenario.obstacles):
            labels.append("overtaking")
    return tuple(labels)


@dataclass(frozen=True)
class SafetyMetrics:
    """Run summary used by reports and the acceptance gate."""

    min_clearance: tuple
    min_clearance_overall: float
    min_h: float
    active_fraction: float
    max_u_safe: float
    max_abs_beta: float = None


def safety_metrics(log: TrajectoryLog) -> SafetyMetrics:
    """Clearance, barrier, and filter-effort summary of a completed log."""
    if not isinstance(log, TrajectoryLog):
        raise ValidationError(f"safety_metrics needs a TrajectoryLog, got {type(log).__name__}")
    sc = log.scenario
    if sc.obstacles and log.t:
        # min(d) - r is min(d - r) bit for bit: rounding keeps the order
        per_obs = tuple(min(column) - r for column, r in zip(zip(*log.dist), sc.radii))
        min_h = min(map(min, log.h))
        overall = min(per_obs)
    else:
        per_obs = ()
        min_h = inf
        overall = inf
    if log.t:
        n_active = sum(1 for flags in log.active if any(flags))
        frac = n_active / len(log.t)
        max_us = max(hypot(us[0] - ur[0], us[1] - ur[1]) for us, ur in zip(log.u_star, log.u_ref))
    else:
        frac = 0.0
        max_us = 0.0
    max_beta = None
    if sc.model == "bicycle":
        max_beta = max(abs(u[1]) for u in log.u_star) if log.t else 0.0
    return SafetyMetrics(per_obs, overall, min_h, frac, max_us, max_beta)
