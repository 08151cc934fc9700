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
from .cbf import CBF_KINDS, c3bf_eval, effective_radius, ellipse_cbf_eval, hocbf_eval
from .controllers import ControllerSpec, reference_input
from .errors import SimulationError, ValidationError
from .models import (
    MODEL_KINDS,
    ModelParams,
    STATE_TYPES,
    _require_finite,
    integrate_step,
)
from .qpfilter import FilterConfig, filter_qp

# halt margin below the effective radius before declaring a collision
COLLISION_SLACK = 1e-6
# consecutive degenerate-filter steps tolerated before aborting
DEGENERATE_STEP_BUDGET = 200
# most integration steps one run may take; longer runs are refused up front
MAX_STEPS = 10**6

# behavior-label thresholds (documented constants, see classify_behavior)
TURN_THRESHOLD_DEG = 15.0
BRAKE_SPEED_FRACTION = 0.10


@dataclass(frozen=True)
class Scenario:
    """Complete declarative experiment description.

    `run_filter`, worked out when built, is the FilterConfig a run
    applies: `filter` with the input box that `params.input_box` gives
    the model, which is `filter` itself unless the box is a default.
    """

    name: str
    model: str
    params: ModelParams
    initial_state: object
    obstacles: tuple
    controller: ControllerSpec
    filter: FilterConfig
    dt: float = field(default=0.01, metadata={"section": "sim"})
    duration: float = field(default=10.0, metadata={"section": "sim"})
    cbf: str = "c3bf"
    hocbf_gamma1: float = 1.0

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValidationError(f"unknown model kind {self.model!r}")
        if self.cbf not in CBF_KINDS:
            raise ValidationError(f"unknown cbf kind {self.cbf!r}")
        if not isinstance(self.initial_state, STATE_TYPES[self.model]):
            raise ValidationError(
                f"initial state type {type(self.initial_state).__name__} does not "
                f"match model {self.model!r}"
            )
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
        for o in self.obstacles:
            r = effective_radius(o, self.params)
            if r >= self.filter.activation_radius:
                raise ValidationError(
                    f"activation_radius {self.filter.activation_radius} must exceed "
                    f"effective radius {r}"
                )
        if self.cbf == "hocbf" and self.model == "bicycle":
            if any(o.moves() for o in self.obstacles):
                raise ValidationError(
                    "hocbf with a moving obstacle is invalid for the bicycle model"
                )
        if self.controller.kind == "stanley" and self.model != "bicycle":
            raise ValidationError("stanley controller is bicycle-only")
        box = self.params.input_box(self.model, self.filter.input_bounds)
        run_filter = self.filter if box is self.filter.input_bounds else replace(self.filter, input_bounds=box)
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
    total. Raises SimulationError on integrator divergence, when the
    filter refuses a step's numbers (a non-finite u_ref or a NaN
    distance, say), or when the filter stays degenerate for more than
    DEGENERATE_STEP_BUDGET consecutive steps.
    """
    n_steps = sc.n_steps
    state = sc.initial_state
    model, params, dt, obstacles, controller = sc.model, sc.params, sc.dt, sc.obstacles, sc.controller
    n_obs = len(obstacles)
    # an obstacle collides once its center distance falls to its limit
    limits = [effective_radius(o, params) - COLLISION_SLACK for o in obstacles]
    cfg = sc.run_filter
    # the barrier, chosen once, as a positional call on (state, obstacle, t)
    # that looks its function up by module name at call time; with
    # cbf='none' the cone barrier is still evaluated for the log, but
    # nothing is filtered
    if sc.cbf == "ellipse":
        def barrier(state, o, t):
            return ellipse_cbf_eval(model, state, o, t)
    elif sc.cbf == "hocbf":
        gamma1 = sc.hocbf_gamma1

        def barrier(state, o, t):
            return hocbf_eval(model, state, o, gamma1, params, t)
    else:
        def barrier(state, o, t):
            return c3bf_eval(model, state, o, params, t)
    filtering = sc.cbf != "none"
    gamma = sc.filter.gamma
    # shared by every step on which no constraint binds
    no_active = (False,) * n_obs
    # one record per step, in TrajectoryLog field order
    records = []
    degenerate_run = 0
    for k in range(n_steps + 1):
        t = k * dt
        u_ref = reference_input(controller, model, state, params)
        evals = [barrier(state, o, t) for o in obstacles]
        if evals:
            hs, lfhs, lghs, penetrations, dists = zip(*evals)
        else:
            hs = lfhs = lghs = penetrations = dists = ()
        if filtering:
            try:
                u_cmd, _, binding, psis, degenerate, infeasible = filter_qp(u_ref, evals, cfg)
            except ValidationError as exc:
                raise SimulationError(f"filter failed at step {k}: {exc}", step=k)
            active = tuple([i in binding for i in range(n_obs)]) if binding else no_active
        else:
            u_cmd, degenerate, infeasible, active = u_ref, False, False, no_active
            ur0, ur1 = u_ref
            psis = tuple([
                lfh + g0 * ur0 + g1 * ur1 + gamma * h
                for h, lfh, (g0, g1) in zip(hs, lfhs, lghs)
            ])
            # unfiltered, the actuators saturate u_ref (filter_qp saturates its own)
            if cfg.input_bounds is not None:
                (lo0, hi0), (lo1, hi1) = cfg.input_bounds
                u_cmd = (min(max(ur0, lo0), hi0), min(max(ur1, lo1), hi1))
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
    sc = log.scenario
    radii = [effective_radius(o, sc.params) for o in sc.obstacles]
    if sc.obstacles and log.t:
        # min(d) - r is min(d - r) bit for bit: rounding keeps the order
        per_obs = tuple(min(column) - r for column, r in zip(zip(*log.dist), radii))
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
