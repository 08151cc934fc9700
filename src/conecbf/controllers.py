"""Reference controllers the safety filter sits on top of.

These only need to produce plausible (possibly collision-course)
references: a proportional speed/yaw law for the unicycle, a P speed
law plus a Stanley-style lateral tracker for the bicycle, and a
velocity-tracking law for the point mass. `reference_input` picks the
model's law and applies the controller's `a_max`.
"""

from dataclasses import dataclass
from math import atan2, hypot

from ._backend import kernel
from .errors import ValidationError
from .models import (
    BicycleState,
    MODEL_KINDS,
    ModelParams,
    PointMassState,
    UnicycleState,
    _require_finite,
    _require_vector,
    _require_vectors,
    slip_from_steering,
)

# speed floor inside the cross-track arctan, keeps the term bounded at rest
V_FLOOR = 0.5
# steering-angle clamp ahead of the slip mapping
DELTA_MAX = 1.2


@dataclass(frozen=True)
class ReferencePath:
    """Piecewise-linear path through ordered waypoints."""

    waypoints: tuple
    closed: bool = False

    def __post_init__(self):
        _require_vectors("ReferencePath.waypoints", ("x", "y"), self.waypoints)
        pts = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(pts) < 2:
            raise ValidationError("a path needs at least 2 waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValidationError("consecutive waypoints must differ")
        object.__setattr__(self, "waypoints", pts)

    def segments(self):
        pts = self.waypoints
        segs = list(zip(pts, pts[1:]))
        if self.closed:
            segs.append((pts[-1], pts[0]))
        return segs


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
        _require_finite(
            "ControllerSpec", ("k1", "k2", "v_des", "k_e"), (self.k1, self.k2, self.v_des, self.k_e)
        )
        if not self.k1 > 0:
            raise ValidationError(f"k1 must be > 0, got {self.k1}")
        if not self.k2 >= 0:
            raise ValidationError(f"k2 must be >= 0, got {self.k2}")
        if self.v_des_vec is not None:
            _require_vector("ControllerSpec.v_des_vec", ("x", "y"), self.v_des_vec)
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
    """Closest point over all segments: (point, tangent, distance)."""
    best = None
    for (ax, ay), (bx, by) in path.segments():
        dx = bx - ax
        dy = by - ay
        seg2 = dx * dx + dy * dy
        t = ((x - ax) * dx + (y - ay) * dy) / seg2
        t = min(max(t, 0.0), 1.0)
        px = ax + t * dx
        py = ay + t * dy
        d = hypot(x - px, y - py)
        if best is None or d < best[2]:
            norm = hypot(dx, dy)
            best = ((px, py), (dx / norm, dy / norm), d)
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
    (px, py), (tx, ty), d = _nearest_on_path(path, s.x, s.y)
    # left of the path <=> tangent x offset cross product positive
    ox = s.x - px
    oy = s.y - py
    e = d if (tx * oy - ty * ox) > 0 else -d
    heading_err = kernel.wrap_angle(atan2(ty, tx) - s.theta)
    delta = heading_err - atan2(k_e * e, max(s.v, V_FLOOR))
    delta = min(max(delta, -DELTA_MAX), DELTA_MAX)
    beta = slip_from_steering(delta, p)
    return min(max(beta, -p.beta_max), p.beta_max)


def reference_input(c: ControllerSpec, model: str, s, p: ModelParams = None):
    """The reference input u_ref of controller `c` on `model` at state `s`.

    The model's law runs first: p_controller on the unicycle,
    p_speed_bicycle with the stanley_lateral slip (under params `p`) or
    zero slip on the bicycle, p_velocity on the point mass. Then a_max
    clamps the thrust a of the unicycle and the bicycle, and both
    components (ax, ay) of the point mass. A 'zero' controller gives
    (0, 0). An unknown model raises ValidationError.
    """
    if model not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {model!r}")
    if c.kind == "zero":
        return (0.0, 0.0)
    if model == "unicycle":
        u = p_controller(s, c)
    elif model == "bicycle":
        u = (p_speed_bicycle(s, c), stanley_lateral(s, c.path, c.k_e, p) if c.kind == "stanley" else 0.0)
    else:
        u = p_velocity(s, c)
    if c.a_max is None:
        return u
    a0 = min(max(u[0], -c.a_max), c.a_max)
    return (a0, min(max(u[1], -c.a_max), c.a_max) if model == "pointmass" else u[1])
