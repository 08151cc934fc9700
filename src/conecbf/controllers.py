"""Reference controllers the safety filter sits on top of.

These only need to produce plausible (possibly collision-course)
references: a proportional speed/yaw law for the unicycle, a P speed
law plus a Stanley-style lateral tracker for the bicycle, and a
velocity-tracking law for the point mass.
"""

from dataclasses import dataclass
from math import atan2, hypot

from ._backend import kernel
from .errors import ValidationError
from .models import (
    BicycleState,
    ModelParams,
    PointMassState,
    UnicycleState,
    _require_finite,
    _require_vectors,
    slip_from_steering,
)

# speed floor inside the cross-track arctan, keeps the term bounded at rest
V_FLOOR = 0.5
# steering-angle clamp ahead of the slip mapping
DELTA_MAX = 1.2


@dataclass(frozen=True)
class PGains:
    """Proportional gains: a = k1 (v_des - v), alpha = -k2 omega."""

    k1: float
    k2: float = 0.0
    v_des: float = 0.0

    def __post_init__(self):
        _require_finite("PGains", ("k1", "k2", "v_des"), (self.k1, self.k2, self.v_des))
        if not self.k1 > 0:
            raise ValidationError(f"k1 must be > 0, got {self.k1}")
        if not self.k2 >= 0:
            raise ValidationError(f"k2 must be >= 0, got {self.k2}")


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


def p_controller(s: UnicycleState, g: PGains):
    """Speed-tracking, yaw-damping reference for the unicycle."""
    return (g.k1 * (g.v_des - s.v), -g.k2 * s.omega)


def p_speed_bicycle(s: BicycleState, g: PGains, a_max: float = None) -> float:
    """Speed-tracking reference acceleration, optionally saturated."""
    a = g.k1 * (g.v_des - s.v)
    if a_max is not None:
        a = min(max(a, -a_max), a_max)
    return a


def p_velocity(s: PointMassState, k1: float, v_des):
    """Velocity-vector tracking reference for the point mass."""
    return (k1 * (v_des[0] - s.vx), k1 * (v_des[1] - s.vy))


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
