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

from dataclasses import dataclass, field
from math import inf

from ._backend import kernel
from ._pykernel import CbfEvaluation
from .errors import ValidationError
from .models import ModelParams, _MODEL_OF, _require_finite, _require_vectors, _unfit_inputs

CBF_KINDS = ("c3bf", "ellipse", "hocbf", "none")
# the one pairing of barrier, model and obstacle refused, by Scenario and
# hocbf_eval alike: obstacle velocities can always be chosen to defeat the
# second-order ellipse barrier of the bicycle
_HOCBF_MOVING_BICYCLE = "hocbf with a moving obstacle is invalid for the bicycle model"


@dataclass(frozen=True, slots=True)
class Obstacle:
    """Elliptical obstacle with piecewise-constant velocity.

    (cx, cy) is the center at t = 0 and (vx, vy) its initial velocity;
    `segments` optionally re-points the velocity at given times, each
    entry being (t_start, vx, vy) with strictly increasing t_start > 0,
    kept as a tuple of tuples. c1, c2 are the semi-axes along x and y; all
    are checked when built.

    Slotted like the vehicle states: no instance __dict__. Beyond its
    fields it holds one slot, `_anchors`, the exact (t_start, x, y, vx, vy)
    at each segment start, latest first; left out of init, repr,
    comparison and hash, so `replace` builds it anew.
    """

    cx: float
    cy: float
    vx: float = 0.0
    vy: float = 0.0
    c1: float = 1.0
    c2: float = 1.0
    segments: tuple = ()
    _anchors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y, vx, vy = self.cx, self.cy, self.vx, self.vy
        _require_finite("Obstacle", ("cx", "cy", "vx", "vy", "c1", "c2"), (x, y, vx, vy, self.c1, self.c2))
        segments = _require_vectors("Obstacle.segments", ("t", "vx", "vy"), self.segments)
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValidationError("Obstacle semi-axes must be > 0")
        # one pass checks the start times and anchors the state at each
        anchors, t0 = [], 0.0
        for t, v0, v1 in segments:
            if not t > t0:
                raise ValidationError("segment times must be strictly increasing and > 0")
            x, y = x + vx * (t - t0), y + vy * (t - t0)
            anchors.append((t, x, y, v0, v1))
            t0, vx, vy = t, v0, v1
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "_anchors", tuple(anchors[::-1]))

    def moves(self) -> bool:
        return bool(self.vx or self.vy or self.segments and any(v0 or v1 for _, v0, v1 in self.segments))

    def state_at(self, t: float):
        """Center and velocity (cx, cy, vx, vy) at time t >= 0.

        The one owner of obstacle motion; barrier evaluations given t use it.
        A t that is not a finite number >= 0 (NaN, negative, infinite, a
        string, a bool, an int beyond the doubles) raises ValidationError: at
        t = inf a moving obstacle's still axis would read 0 * inf = NaN.
        """
        try:
            if t.__class__ is not bool and 0 <= t < inf:
                # the latest anchor at or before t, else the fields (t - 0.0 is t)
                for t0, x0, y0, vx, vy in self._anchors:
                    if t >= t0:
                        return (x0 + vx * (t - t0), y0 + vy * (t - t0), vx, vy)
                return (self.cx + self.vx * t, self.cy + self.vy * t, self.vx, self.vy)
        except (TypeError, OverflowError):
            pass
        raise ValidationError(f"obstacle time must be a finite number >= 0, got {t!r}")


def _radius(o, p):
    return max(o.c1, o.c2) + 0.5 * p.w


def effective_radius(o: Obstacle, p: ModelParams) -> float:
    """Bounding-circle radius absorbing obstacle shape and vehicle width.

    An `o` or `p` without the fields raises ValidationError.
    """
    try:
        return _radius(o, p)
    except AttributeError as exc:
        raise ValidationError(f"effective_radius needs an Obstacle and ModelParams: {exc}") from exc


def c3bf_eval(model: str, s, o: Obstacle, p: ModelParams, t: float = None) -> CbfEvaluation:
    """Cone barrier with analytic Lie derivatives for the extended state.

    With t given, the obstacle is read as `o.state_at(t)` places it; else
    from its fields. Every model takes params `p`, and only a ModelParams;
    the unicycle's `l` places the body center that `dist` is measured
    from, under every barrier kind. Inputs that do not fit `model` raise
    ValidationError.
    """
    if _MODEL_OF.get(type(s)) != model:
        raise _unfit_inputs("c3bf_eval", model, s)
    if p.__class__ is not ModelParams:
        raise _unfit_inputs("c3bf_eval", model, s, f"p must be a ModelParams, got {p!r}")
    try:
        # unchecked, so that a bad o names c3bf_eval and the model
        r = _radius(o, p)
        cx, cy, vx, vy = (o.cx, o.cy, o.vx, o.vy) if t is None else o.state_at(t)
        if model == "unicycle":
            return kernel.c3bf_unicycle(s.x, s.y, s.theta, s.v, s.omega, p.l, cx, cy, vx, vy, r)
        if model == "bicycle":
            return kernel.c3bf_bicycle(s.x, s.y, s.theta, s.v, p.l_r, cx, cy, vx, vy, r)
        return kernel.c3bf_pointmass(s.x, s.y, s.vx, s.vy, cx, cy, vx, vy, r)
    except AttributeError as exc:
        raise _unfit_inputs("c3bf_eval", model, s, exc) from exc


def ellipse_cbf_eval(model: str, s, o: Obstacle, p: ModelParams, t: float = None) -> CbfEvaluation:
    """Ellipse distance barrier; degenerate input columns are structural; `p` and `t` as in c3bf_eval."""
    if _MODEL_OF.get(type(s)) != model:
        raise _unfit_inputs("ellipse_cbf_eval", model, s)
    if p.__class__ is not ModelParams:
        raise _unfit_inputs("ellipse_cbf_eval", model, s, f"p must be a ModelParams, got {p!r}")
    try:
        cx, cy, vx, vy = (o.cx, o.cy, o.vx, o.vy) if t is None else o.state_at(t)
        if model == "unicycle":
            return kernel.ellipse_unicycle(s.x, s.y, s.theta, s.v, p.l, cx, cy, vx, vy, o.c1, o.c2)
        if model == "bicycle":
            return kernel.ellipse_bicycle(s.x, s.y, s.theta, s.v, cx, cy, vx, vy, o.c1, o.c2)
        return kernel.ellipse_pointmass(s.x, s.y, s.vx, s.vy, cx, cy, vx, vy, o.c1, o.c2)
    except AttributeError as exc:
        raise _unfit_inputs("ellipse_cbf_eval", model, s, exc) from exc


def hocbf_eval(model: str, s, o: Obstacle, gamma1: float, p: ModelParams, t: float = None) -> CbfEvaluation:
    """Second-order ellipse barrier h2 = Lf h1 + gamma1 h1.

    A gamma1 that is not a finite number > 0 (a bool is none) raises
    ValidationError, and so does the bicycle/moving-obstacle combination:
    obstacle velocities can always be chosen to defeat the constraint
    there. `p` and `t` as in c3bf_eval.
    """
    if _MODEL_OF.get(type(s)) != model:
        raise _unfit_inputs("hocbf_eval", model, s)
    if p.__class__ is not ModelParams:
        raise _unfit_inputs("hocbf_eval", model, s, f"p must be a ModelParams, got {p!r}")
    # + 0.0 turns an integer beyond the doubles into OverflowError
    try:
        ok = gamma1.__class__ is not bool and 0.0 < gamma1 + 0.0 < inf
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"gamma1 must be a finite number > 0, got {gamma1!r}")
    try:
        cx, cy, vx, vy = (o.cx, o.cy, o.vx, o.vy) if t is None else o.state_at(t)
        if model == "unicycle":
            return kernel.hocbf_unicycle(s.x, s.y, s.theta, s.v, s.omega, p.l, cx, cy, vx, vy, o.c1, o.c2, gamma1)
        if model == "bicycle":
            if o.moves():
                raise ValidationError(_HOCBF_MOVING_BICYCLE)
            return kernel.hocbf_bicycle(s.x, s.y, s.theta, s.v, p.l_r, cx, cy, vx, vy, o.c1, o.c2, gamma1)
        return kernel.hocbf_pointmass(s.x, s.y, s.vx, s.vy, cx, cy, vx, vy, o.c1, o.c2, gamma1)
    except AttributeError as exc:
        raise _unfit_inputs("hocbf_eval", model, s, exc) from exc
