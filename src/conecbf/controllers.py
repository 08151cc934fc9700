"""Reference controllers the safety filter sits on top of.

These only need to produce plausible (possibly collision-course)
references: a proportional speed/yaw law for the unicycle, a P speed
law plus a Stanley-style lateral tracker for the bicycle, and a
velocity-tracking law for the point mass. `reference_input`, the laws'
one caller and the entry point that checks inputs, picks the model's law
and applies the controller's `a_max`.
"""

from dataclasses import dataclass
from math import atan2, hypot, inf

from ._backend import kernel
from .errors import ValidationError
from .models import (
    BicycleState,
    ModelParams,
    PointMassState,
    UnicycleState,
    _MODEL_OF,
    _require_finite,
    _require_vector,
    _require_vectors,
    _unfit_inputs,
    slip_from_steering,
)

# speed floor inside the cross-track arctan, keeps the term bounded at rest
V_FLOOR = 0.5
# steering-angle clamp ahead of the slip mapping
DELTA_MAX = 1.2
# the refusal of a Stanley tracker off the bicycle, by Scenario and
# reference_input alike
_STANLEY_BICYCLE_ONLY = "stanley controller is bicycle-only"


@dataclass(frozen=True)
class ReferencePath:
    """Piecewise-linear path through ordered waypoints.

    A closed path also runs from its last waypoint back to its first.
    Every segment, the closing one included, must have a finite squared
    length > 0. The one loop that checks this also keeps each segment's
    (start, dx, dy, squared length, unit tangent, heading) in
    `_segments`, so that the tracker's tick derives none of them.
    `_segments` is not a field: documents, `==` and hash do not see it,
    and `replace` builds it anew.
    """

    waypoints: tuple
    closed: bool = False

    def __post_init__(self):
        rows = _require_vectors("ReferencePath.waypoints", ("x", "y"), self.waypoints)
        if not isinstance(self.closed, bool):
            raise ValidationError(f"ReferencePath.closed: expected True or False, got {self.closed!r}")
        pts = tuple((float(x), float(y)) for x, y in rows)
        if len(pts) < 2:
            raise ValidationError("a path needs at least 2 waypoints")
        segments = []
        for a, b in zip(pts, pts[1:] + pts[:1] if self.closed else pts[1:]):
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            seg2 = dx * dx + dy * dy
            if not 0 < seg2 < inf:
                raise ValidationError(
                    f"consecutive waypoints must differ by a finite squared length: {a} -> {b} gives {seg2!r}"
                )
            norm = hypot(dx, dy)
            tangent = (dx / norm, dy / norm)
            segments.append((a, dx, dy, seg2, tangent, atan2(tangent[1], tangent[0])))
        object.__setattr__(self, "waypoints", pts)
        object.__setattr__(self, "_segments", tuple(segments))


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative reference-controller choice for a scenario.

    kind 'p'       -- proportional law (per-model semantics): thrust
                      a = k1 (v_des - v), yaw input alpha = -k2 omega
    kind 'stanley' -- bicycle only: P speed + Stanley lateral tracking
    kind 'zero'    -- zero reference (filter acts alone)
    """

    kind: str = "p"
    k1: float = 1.0
    k2: float = 0.0
    v_des: float = 0.0
    v_des_vec: tuple = None
    a_max: float = None
    k_e: float = 1.0
    path: ReferencePath = None

    def __post_init__(self):
        if self.kind not in ("p", "stanley", "zero"):
            raise ValidationError(f"unknown controller kind {self.kind!r}")
        if self.kind == "stanley" and self.path is None:
            raise ValidationError("stanley controller needs a path")
        if self.path is not None and type(self.path) is not ReferencePath:
            raise ValidationError(f"ControllerSpec.path: expected a ReferencePath, got {self.path!r}")
        _require_finite(
            "ControllerSpec", ("k1", "k2", "v_des", "k_e"), (self.k1, self.k2, self.v_des, self.k_e)
        )
        if not self.k1 > 0:
            raise ValidationError(f"k1 must be > 0, got {self.k1}")
        if not self.k2 >= 0:
            raise ValidationError(f"k2 must be >= 0, got {self.k2}")
        if self.v_des_vec is not None:
            vec = _require_vector("ControllerSpec.v_des_vec", ("x", "y"), self.v_des_vec)
            object.__setattr__(self, "v_des_vec", vec)
        if self.a_max is not None:
            _require_finite("ControllerSpec", ("a_max",), (self.a_max,))
            if not self.a_max > 0:
                raise ValidationError(f"a_max must be > 0, got {self.a_max}")
        # the point mass's target velocity: v_des_vec, else v_des along x
        object.__setattr__(self, "_v_target", self.v_des_vec or (self.v_des, 0.0))


def p_controller(s: UnicycleState, c: ControllerSpec):
    """Speed-tracking, yaw-damping reference for the unicycle."""
    return (c.k1 * (c.v_des - s.v), -c.k2 * s.omega)


def p_speed_bicycle(s: BicycleState, c: ControllerSpec) -> float:
    """Speed-tracking reference acceleration for the bicycle."""
    return c.k1 * (c.v_des - s.v)


def p_velocity(s: PointMassState, c: ControllerSpec):
    """Velocity-vector tracking reference for the point mass."""
    k1, (vx, vy) = c.k1, c._v_target
    return (k1 * (vx - s.vx), k1 * (vy - s.vy))


def _nearest_on_path(path: ReferencePath, x: float, y: float):
    """Closest point over all segments: (point, tangent, heading, distance)."""
    best = None
    for (ax, ay), dx, dy, seg2, tangent, heading in path._segments:
        t = ((x - ax) * dx + (y - ay) * dy) / seg2
        t = min(max(t, 0.0), 1.0)
        px = ax + t * dx
        py = ay + t * dy
        d = hypot(x - px, y - py)
        if best is None or d < best[3]:
            best = ((px, py), tangent, heading, d)
    return best


def stanley_lateral(
    s: BicycleState, path: ReferencePath, k_e: float, p: ModelParams
) -> float:
    """Stanley-style slip-angle reference for path tracking.

    Heading error plus arctan(k_e * e / max(v, floor)), where e is the
    cross-track error signed positive when the vehicle sits left of the
    path; the steering angle is mapped through the slip relation and
    clamped to beta_max. Positive beta turns left.
    """
    (px, py), (tx, ty), heading, d = _nearest_on_path(path, s.x, s.y)
    # left of the path <=> tangent x offset cross product positive
    ox = s.x - px
    oy = s.y - py
    e = d if (tx * oy - ty * ox) > 0 else -d
    heading_err = kernel.wrap_angle(heading - s.theta)
    delta = heading_err - atan2(k_e * e, max(s.v, V_FLOOR))
    delta = min(max(delta, -DELTA_MAX), DELTA_MAX)
    # read first: params without the fields fail here, which reference_input
    # reports under its name, not in slip_from_steering under its own
    beta_max = p.beta_max
    beta = slip_from_steering(delta, p)
    return min(max(beta, -beta_max), beta_max)


def reference_input(c: ControllerSpec, model: str, s, p: ModelParams = None):
    """The reference input u_ref of controller `c` on `model` at state `s`.

    The model's law runs first: p_controller on the unicycle,
    p_speed_bicycle with the stanley_lateral slip (under params `p`) or
    zero slip on the bicycle, p_velocity on the point mass. Then a_max
    clamps the thrust a of the unicycle and the bicycle, and both
    components (ax, ay) of the point mass. A 'zero' controller gives
    (0, 0). An unknown model, a state that is not exactly a
    STATE_TYPES[model] (whatever the controller), params `p` that are
    neither None nor a ModelParams, a controller that is not a
    ControllerSpec or a 'stanley' controller off the bicycle raises
    ValidationError.
    """
    if _MODEL_OF.get(type(s)) != model:
        raise _unfit_inputs("reference_input", model, s)
    if p is not None and p.__class__ is not ModelParams:
        raise _unfit_inputs("reference_input", model, s, f"p must be None or a ModelParams, got {p!r}")
    try:
        if c.kind == "zero":
            return (0.0, 0.0)
        if model == "bicycle":
            u = (p_speed_bicycle(s, c), stanley_lateral(s, c.path, c.k_e, p) if c.kind == "stanley" else 0.0)
        elif c.kind == "stanley":
            raise ValidationError(_STANLEY_BICYCLE_ONLY)
        elif model == "unicycle":
            u = p_controller(s, c)
        else:
            u = p_velocity(s, c)
        a_max = c.a_max
    except AttributeError as exc:
        raise _unfit_inputs("reference_input", model, s, exc) from exc
    if a_max is None:
        return u
    a0 = min(max(u[0], -a_max), a_max)
    return (a0, min(max(u[1], -a_max), a_max) if model == "pointmass" else u[1])
