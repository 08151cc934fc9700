"""Vehicle models: states, parameters and fixed-step integration.

Three acceleration-controlled models are supported:

* unicycle  -- state (x, y, theta, v, omega), inputs (a, alpha)
* bicycle   -- state (x, y, theta, v), inputs (a, beta), small slip angle
* pointmass -- state (x, y, vx, vy), inputs (ax, ay)

All operations are pure functions; states are immutable. Inputs are plain
(u0, u1) tuples whose meaning depends on the model.
"""

from dataclasses import dataclass, fields, replace
from math import atan, inf, isfinite, isinf, pi, tan

from ._backend import kernel
from .errors import ValidationError

ControlInput = tuple[float, float]


def _require_finite(where, names, values, inf_ok=()):
    """Raise ValidationError unless each value is a finite number.

    The values named in `inf_ok` may also be +-inf; NaN never passes. A
    string, None or an integer beyond the double range fails too. The
    error names the value as `where.name`. Callers pass field values, not
    `vars(obj)`, which would give every instance a dict and slow its
    attribute reads.
    """
    try:
        if all(map(isfinite, values)):
            return
    except (TypeError, OverflowError):
        pass
    for name, v in zip(names, values):
        try:
            ok = isfinite(v) or name in inf_ok and isinf(v)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            kind = "non-NaN" if name in inf_ok else "finite"
            raise ValidationError(f"{where}.{name}: expected a {kind} number, got {v!r}")


def _require_vector(where, names, value, inf_ok=()):
    """Raise ValidationError unless `value` is a sequence of len(names) numbers.

    The numbers are checked as in _require_finite, which alone would
    accept a short sequence (it zips names with values).
    """
    try:
        ok = len(value) == len(names)
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{where}: expected ({', '.join(names)}), got {value!r}")
    _require_finite(where, names, value, inf_ok)


def _require_vectors(where, names, rows, count=None, inf_ok=()):
    """Raise ValidationError unless `rows` is a sequence of vectors.

    Each row is checked by _require_vector; `count`, if given, fixes the
    number of rows.
    """
    try:
        n = len(rows)
    except TypeError:
        n = None
    if n is None or count is not None and n != count:
        want = "a sequence" if count is None else f"{count} rows"
        raise ValidationError(f"{where}: expected {want} of ({', '.join(names)}), got {rows!r}")
    for row in rows:
        _require_vector(where, names, row, inf_ok)


@dataclass(frozen=True, slots=True)
class UnicycleState:
    """Pose, speed and yaw rate; theta is normalized to (-pi, pi]."""

    x: float
    y: float
    theta: float
    v: float
    omega: float

    def __post_init__(self):
        _require_finite("UnicycleState", ("x", "y", "theta", "v", "omega"), self.as_tuple())
        object.__setattr__(self, "theta", kernel.wrap_angle(self.theta))

    def as_tuple(self):
        return (self.x, self.y, self.theta, self.v, self.omega)


@dataclass(frozen=True, slots=True)
class BicycleState:
    """Center-of-mass pose and speed; theta is normalized to (-pi, pi]."""

    x: float
    y: float
    theta: float
    v: float

    def __post_init__(self):
        _require_finite("BicycleState", ("x", "y", "theta", "v"), self.as_tuple())
        object.__setattr__(self, "theta", kernel.wrap_angle(self.theta))

    def as_tuple(self):
        return (self.x, self.y, self.theta, self.v)


@dataclass(frozen=True, slots=True)
class PointMassState:
    """Planar double-integrator state."""

    x: float
    y: float
    vx: float
    vy: float

    def __post_init__(self):
        _require_finite("PointMassState", ("x", "y", "vx", "vy"), self.as_tuple())

    def as_tuple(self):
        return (self.x, self.y, self.vx, self.vy)


@dataclass(frozen=True)
class ModelParams:
    """Geometry and validity limits shared by the vehicle models.

    l        -- body-center offset from the differential-drive axis (unicycle)
    l_f, l_r -- front/rear axle distances from the center of mass (bicycle)
    w        -- maximum vehicle width, absorbed into the effective radius
    beta_max -- slip-angle magnitude cap keeping the small-angle model valid
    v_max    -- speed-state cap of the unicycle and bicycle; inf leaves it free
    """

    l: float = 0.0
    l_f: float = 1.0
    l_r: float = 1.0
    w: float = 0.0
    beta_max: float = 0.2
    v_max: float = float("inf")

    def __post_init__(self):
        names = ("l", "l_f", "l_r", "w", "beta_max", "v_max")
        _require_finite("ModelParams", names, [getattr(self, n) for n in names], inf_ok=("v_max",))
        if self.l < 0:
            raise ValidationError(f"body-center offset l must be >= 0, got {self.l}")
        if self.l_f <= 0 or self.l_r <= 0:
            raise ValidationError("axle distances l_f, l_r must be > 0")
        if self.w < 0:
            raise ValidationError(f"vehicle width must be >= 0, got {self.w}")
        if not 0 < self.beta_max < pi / 2:
            raise ValidationError(f"beta_max must lie in (0, pi/2), got {self.beta_max}")
        if not self.v_max > 0:
            raise ValidationError(f"v_max must be > 0, got {self.v_max}")

    def input_box(self, model: str, bounds):
        """The input box a run of `model` filters with, given the box `bounds`.

        A finite v_max caps a speed state, which the point mass lacks.
        beta_max bounds the bicycle's slip, which keeps the small-slip model
        valid: by default the box is [-beta_max, beta_max] on the slip and
        open on the thrust, and a given box must lie within that slip box.
        Any other box is `bounds` itself.
        """
        if model == "pointmass" and self.v_max < inf:
            raise ValidationError("params.v_max caps the speed state of the unicycle and bicycle only")
        if model != "bicycle":
            return bounds
        lo, hi = (-self.beta_max, self.beta_max) if bounds is None else bounds[1]
        if lo < -self.beta_max or hi > self.beta_max:
            raise ValidationError(f"bicycle slip bounds [{lo}, {hi}] exceed beta_max={self.beta_max}")
        return bounds or ((-inf, inf), (lo, hi))


STATE_TYPES = {
    "unicycle": UnicycleState,
    "bicycle": BicycleState,
    "pointmass": PointMassState,
}

MODEL_KINDS = tuple(STATE_TYPES)

STATE_FIELDS = {kind: tuple(f.name for f in fields(t)) for kind, t in STATE_TYPES.items()}


def slip_from_steering(delta: float, p: ModelParams) -> float:
    """Slip angle at the center of mass for a given steering angle."""
    if not abs(delta) < pi / 2:
        raise ValidationError(f"steering angle must satisfy |delta| < pi/2, got {delta}")
    return atan(p.l_r / (p.l_f + p.l_r) * tan(delta))


def integrate_step(model: str, s, u: ControlInput, dt: float, p: ModelParams = None):
    """Advance one state by a fixed RK4 step with zero-order-hold input.

    The state types normalize the heading. Given params `p`, a finite
    p.v_max then caps the speed state v of the unicycle and the bicycle.
    Raises ValidationError when the result is non-finite, or when `u` is
    not a pair of numbers.
    """
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt}")
    # a malformed u fails in the unpacking or, holding a non-number, inside
    # the kernel call; the checks cost nothing on the normal path
    try:
        u0, u1 = u
    except (TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"input u must be a pair of numbers, got {u!r}") from exc
    try:
        if model == "pointmass":
            return PointMassState(*kernel.rk4_pointmass(s.x, s.y, s.vx, s.vy, u0, u1, dt))
        if model == "unicycle":
            s = UnicycleState(*kernel.rk4_unicycle(s.x, s.y, s.theta, s.v, s.omega, u0, u1, dt))
        elif model == "bicycle":
            if p is None:
                raise ValidationError("bicycle integration needs ModelParams (l_r)")
            if abs(u1) > p.beta_max:
                raise ValidationError(f"|beta|={abs(u1):.4f} exceeds beta_max={p.beta_max}")
            s = BicycleState(*kernel.rk4_bicycle(s.x, s.y, s.theta, s.v, u0, u1, p.l_r, dt))
        else:
            raise ValidationError(f"unknown model kind {model!r}")
    except TypeError as exc:
        raise ValidationError(f"input u must be a pair of numbers, got {u!r}") from exc
    except ValueError as exc:
        # cos of a stage heading that overflowed to infinity
        raise ValidationError(f"the step diverged: {exc}") from exc
    # the cap acts on a state its type has checked: a non-finite speed raises
    if p is not None and abs(s.v) > p.v_max:
        s = replace(s, v=p.v_max if s.v > 0 else -p.v_max)
    return s
