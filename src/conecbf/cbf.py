"""Collision-cone barrier candidate and the two classical baselines.

The candidate keeps the relative velocity between vehicle and obstacle
outside the cone of directions that lead into the obstacle's bounding
circle:

    h = <p_rel, v_rel> + ||p_rel|| ||v_rel|| cos(phi),
    cos(phi) = sqrt(||p_rel||^2 - r^2) / ||p_rel||.

Obstacle coordinates are treated as extended state with piecewise-constant
velocity, so h admits ordinary Lie derivatives and the standard barrier
machinery applies even for moving obstacles.

The ellipse baseline and its second-order extension are provided to
reproduce their known degeneracies (missing input columns) next to the
cone candidate.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite

from ._backend import kernel
from .errors import UnsupportedCbfError, ValidationError
from .models import ModelParams

CBF_KINDS = ("c3bf", "ellipse", "hocbf", "none")


@dataclass(frozen=True)
class Obstacle:
    """Elliptical obstacle with piecewise-constant velocity.

    (cx, cy) is the center at t = 0 and (vx, vy) its initial velocity;
    `segments` optionally re-points the velocity at given times, each
    entry being (t_start, vx, vy) with strictly increasing t_start > 0.
    c1, c2 are the semi-axes along x and y.
    """

    cx: float
    cy: float
    vx: float = 0.0
    vy: float = 0.0
    c1: float = 1.0
    c2: float = 1.0
    segments: tuple = ()

    def __post_init__(self):
        vals = [self.cx, self.cy, self.vx, self.vy, self.c1, self.c2]
        for t, vx, vy in self.segments:
            vals += [t, vx, vy]
        if not all(isfinite(v) for v in vals):
            raise ValidationError("Obstacle: non-finite field")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValidationError("Obstacle semi-axes must be > 0")
        times = [t for t, _, _ in self.segments]
        if any(t <= 0 for t in times) or times != sorted(set(times)):
            raise ValidationError("segment times must be strictly increasing and > 0")
        # anchor positions at each segment start so center_at() is exact
        anchors = [(0.0, self.cx, self.cy, self.vx, self.vy)]
        for t, vx, vy in self.segments:
            t0, x0, y0, vx0, vy0 = anchors[-1]
            anchors.append((t, x0 + vx0 * (t - t0), y0 + vy0 * (t - t0), vx, vy))
        object.__setattr__(self, "_anchors", tuple(anchors))
        object.__setattr__(self, "_times", tuple(a[0] for a in anchors))

    def moves(self) -> bool:
        return any(a[3] != 0.0 or a[4] != 0.0 for a in self._anchors)

    def state_at(self, t: float):
        """Center and velocity (cx, cy, vx, vy) at time t >= 0.

        The one owner of obstacle motion; barrier evaluations given t use it.
        """
        i = bisect_right(self._times, t) - 1
        t0, x0, y0, vx, vy = self._anchors[i]
        return (x0 + vx * (t - t0), y0 + vy * (t - t0), vx, vy)


@dataclass(frozen=True)
class CbfEvaluation:
    """Barrier value with its Lie-derivative decomposition.

    h' along the extended flow equals lfh + lgh . u for any input u.
    `penetration` marks configurations inside the effective radius, where
    the cone degenerates to a half-plane.
    """

    h: float
    lfh: float
    lgh: tuple
    penetration: bool
    dist: float


def effective_radius(o: Obstacle, p: ModelParams) -> float:
    """Bounding-circle radius absorbing obstacle shape and vehicle width."""
    return max(o.c1, o.c2) + 0.5 * p.w


def c3bf_eval(model: str, s, o: Obstacle, p: ModelParams, t: float = None) -> CbfEvaluation:
    """Cone barrier with analytic Lie derivatives for the extended state.

    With t given, the obstacle is read as `o.state_at(t)` places it; else as given.
    """
    r = effective_radius(o, p)
    cx, cy, vx, vy = (o.cx, o.cy, o.vx, o.vy) if t is None else o.state_at(t)
    if model == "unicycle":
        out = kernel.c3bf_unicycle(
            s.x, s.y, s.theta, s.v, s.omega, p.l, cx, cy, vx, vy, r
        )
    elif model == "bicycle":
        out = kernel.c3bf_bicycle(
            s.x, s.y, s.theta, s.v, p.l_r, cx, cy, vx, vy, r
        )
    elif model == "pointmass":
        out = kernel.c3bf_pointmass(s.x, s.y, s.vx, s.vy, cx, cy, vx, vy, r)
    else:
        raise ValidationError(f"unknown model kind {model!r}")
    h, lfh, lg0, lg1, dist, pen = out
    return CbfEvaluation(h, lfh, (lg0, lg1), pen != 0.0, dist)


def ellipse_cbf_eval(model: str, s, o: Obstacle, t: float = None) -> CbfEvaluation:
    """Ellipse distance barrier; degenerate input columns are structural; `t` as in c3bf_eval."""
    cx, cy, vx, vy = (o.cx, o.cy, o.vx, o.vy) if t is None else o.state_at(t)
    if model == "unicycle":
        out = kernel.ellipse_unicycle(
            s.x, s.y, s.theta, s.v, cx, cy, vx, vy, o.c1, o.c2
        )
    elif model == "bicycle":
        out = kernel.ellipse_bicycle(
            s.x, s.y, s.theta, s.v, cx, cy, vx, vy, o.c1, o.c2
        )
    elif model == "pointmass":
        out = kernel.ellipse_pointmass(
            s.x, s.y, s.vx, s.vy, cx, cy, vx, vy, o.c1, o.c2
        )
    else:
        raise ValidationError(f"unknown model kind {model!r}")
    h, lfh, lg0, lg1, dist, pen = out
    return CbfEvaluation(h, lfh, (lg0, lg1), False, dist)


def hocbf_eval(
    model: str, s, o: Obstacle, gamma1: float, p: ModelParams = None, t: float = None
) -> CbfEvaluation:
    """Second-order ellipse barrier h2 = Lf h1 + gamma1 h1.

    The bicycle/moving-obstacle combination is rejected: obstacle
    velocities can always be chosen to defeat the constraint there.
    `t` selects the obstacle's state as in c3bf_eval.
    """
    if gamma1 <= 0:
        raise ValidationError(f"gamma1 must be > 0, got {gamma1}")
    cx, cy, vx, vy = (o.cx, o.cy, o.vx, o.vy) if t is None else o.state_at(t)
    if model == "unicycle":
        out = kernel.hocbf_unicycle(
            s.x, s.y, s.theta, s.v, s.omega, cx, cy, vx, vy, o.c1, o.c2, gamma1
        )
    elif model == "bicycle":
        if o.moves():
            raise UnsupportedCbfError(
                "second-order ellipse barrier is not valid for the bicycle "
                "with a moving obstacle"
            )
        if p is None:
            raise ValidationError("bicycle barrier needs ModelParams (l_r)")
        out = kernel.hocbf_bicycle(
            s.x, s.y, s.theta, s.v, p.l_r, cx, cy, vx, vy, o.c1, o.c2, gamma1
        )
    elif model == "pointmass":
        out = kernel.hocbf_pointmass(
            s.x, s.y, s.vx, s.vy, cx, cy, vx, vy, o.c1, o.c2, gamma1
        )
    else:
        raise ValidationError(f"unknown model kind {model!r}")
    h, lfh, lg0, lg1, dist, pen = out
    return CbfEvaluation(h, lfh, (lg0, lg1), False, dist)
