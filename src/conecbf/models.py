"""Vehicle models: states, parameters and fixed-step integration.

Three acceleration-controlled models are supported:

* unicycle  -- state (x, y, theta, v, omega), inputs (a, alpha)
* bicycle   -- state (x, y, theta, v), inputs (a, beta), small slip angle
* pointmass -- state (x, y, vx, vy), inputs (ax, ay)

All operations are pure functions; states are immutable. Inputs are plain
(u0, u1) tuples whose meaning depends on the model.
"""

import re
from dataclasses import dataclass, fields, replace
from math import atan, inf, isfinite, isinf, pi, tan

from ._backend import kernel
from .errors import ValidationError

ControlInput = tuple[float, float]


def _require_finite(where, names, values, inf_ok=()):
    """Raise ValidationError unless each value is a finite number.

    The values named in `inf_ok` may also be +-inf; NaN never passes. A
    string, None, a bool or an integer beyond the double range fails too:
    a document cannot hold a bool where it takes a number, so a record that
    held one would save a file that does not load. The error names the
    value as `where.name`. Callers pass a sequence of field values, not
    `vars(obj)`, which would give every instance a dict and slow its
    attribute reads.
    """
    for name, v in zip(names, values):
        try:
            ok = type(v) is not bool and (isfinite(v) or name in inf_ok and isinf(v))
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            kind = "non-NaN" if name in inf_ok else "finite"
            raise ValidationError(f"{where}.{name}: expected a {kind} number, got {v!r}")


# the text a scenario name may hold: the characters of XML 1.0, all of
# which UTF-8 can carry (no lone surrogate among them)
_NAME_TEXT = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]*")


def _name(v, where: str) -> str:
    """A scenario name: a string that both UTF-8 and XML 1.0 can carry.

    Scenario checks its name by this rule, and parse_scenario the
    document's, each naming its own `where`.
    """
    if not (isinstance(v, str) and _NAME_TEXT.fullmatch(v)):
        raise ValidationError(f"{where}: expected a string that UTF-8 and XML 1.0 can carry, got {v!r}")
    return v


def _require_vector(where, names, value, inf_ok=()):
    """`value` as a tuple, or ValidationError unless it is a sequence of len(names) numbers.

    The numbers are checked as in _require_finite, which alone would
    accept a short sequence (it zips names with values). The tuple holds
    the values themselves, unconverted, so a frozen record that stores it
    keeps every bit and no later change to the caller's sequence reaches it.
    """
    try:
        ok = len(value) == len(names)
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{where}: expected ({', '.join(names)}), got {value!r}")
    _require_finite(where, names, value, inf_ok)
    return tuple(value)


def _require_vectors(where, names, rows, count=None, inf_ok=()):
    """`rows` as a tuple of tuples, or ValidationError unless it is a sequence of vectors.

    Each row is checked and frozen by _require_vector; `count`, if given,
    fixes the number of rows.
    """
    try:
        n = len(rows)
    except TypeError:
        n = None
    if n is None or count is not None and n != count:
        want = "a sequence" if count is None else f"{count} rows"
        raise ValidationError(f"{where}: expected {want} of ({', '.join(names)}), got {rows!r}")
    return tuple([_require_vector(where, names, row, inf_ok) for row in rows])


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

# the model of each state type, keyed by the type: the one rule of which
# state a model takes reads it, and never hashes the model value
_MODEL_OF = {t: kind for kind, t in STATE_TYPES.items()}

STATE_FIELDS = {kind: tuple(f.name for f in fields(t)) for kind, t in STATE_TYPES.items()}


def _unfit_inputs(where, model, s, exc=None):
    """The ValidationError for inputs that do not fit `model`.

    An unknown model kind; else the reason `exc`: the AttributeError of an
    argument lacking a field (a tuple for an obstacle, a controller or
    params, None for params that a model reads), or params that are not
    None and not a ModelParams; else a state that is not exactly of
    STATE_TYPES[model].
    Each entry point that reads a state of a named model opens with the one
    test `_MODEL_OF.get(type(s)) != model`, so a look-alike, a subclass, a
    state of another model or an unknown model, hashable or not, is refused
    before any field is read.
    """
    if model not in MODEL_KINDS:
        return ValidationError(f"unknown model kind {model!r}")
    if exc is not None:
        return ValidationError(f"{where}: inputs do not fit the {model} model: {exc}")
    return ValidationError(f"{where}: the {model} model takes a {STATE_TYPES[model].__name__}, got {s!r}")


def slip_from_steering(delta: float, p: ModelParams) -> float:
    """Slip angle at the center of mass for a given steering angle.

    A delta that is not a real number with |delta| < pi/2 raises
    ValidationError (a complex one fails the comparison, and a bool is
    refused), as do params `p` without the axle distances.
    """
    try:
        ok = delta.__class__ is not bool and -pi / 2 < delta < pi / 2
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"steering angle must satisfy |delta| < pi/2, got {delta!r}")
    try:
        return atan(p.l_r / (p.l_f + p.l_r) * tan(delta))
    except AttributeError as exc:
        raise _unfit_inputs("slip_from_steering", "bicycle", None, exc) from exc


def integrate_step(model: str, s, u: ControlInput, dt: float, p: ModelParams = None):
    """Advance one state by a fixed RK4 step with zero-order-hold input.

    The state types normalize the heading. Given params `p`, a finite
    p.v_max then caps the speed state v of the unicycle and the bicycle.
    Raises ValidationError when `s` is not exactly a STATE_TYPES[model],
    when dt is not a finite number > 0, when `u` is not a pair of numbers,
    when `p` is neither None nor a ModelParams, when a bicycle step has no
    params to read l_r and beta_max from, or when the result is
    non-finite. Neither a bool nor an int beyond the doubles is a number
    to them.
    """
    if _MODEL_OF.get(type(s)) != model:
        raise _unfit_inputs("integrate_step", model, s)
    if p is not None and p.__class__ is not ModelParams:
        raise _unfit_inputs("integrate_step", model, s, f"p must be None or a ModelParams, got {p!r}")
    # + 0.0 turns an integer beyond the doubles into OverflowError
    try:
        dt_ok = dt.__class__ is not bool and 0.0 < dt + 0.0 < inf
    except (TypeError, OverflowError):
        dt_ok = False
    if not dt_ok:
        raise ValidationError(f"dt must be a finite number > 0, got {dt!r}")
    # a malformed u fails in the unpacking or, holding a non-number, inside
    # the kernel call; the checks cost nothing on the normal path
    try:
        u0, u1 = u
        if u0.__class__ is bool or u1.__class__ is bool:
            raise TypeError("a bool is not a number")
    except (TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"input u must be a pair of numbers, got {u!r}") from exc
    try:
        if model == "pointmass":
            return PointMassState(*kernel.rk4_pointmass(s.x, s.y, s.vx, s.vy, u0, u1, dt))
        if model == "unicycle":
            s = UnicycleState(*kernel.rk4_unicycle(s.x, s.y, s.theta, s.v, s.omega, u0, u1, dt))
        else:
            if abs(u1) > p.beta_max:
                raise ValidationError(f"|beta|={abs(u1):.4f} exceeds beta_max={p.beta_max}")
            s = BicycleState(*kernel.rk4_bicycle(s.x, s.y, s.theta, s.v, u0, u1, p.l_r, dt))
        # the cap acts on a state its type has checked: a non-finite speed raises
        if p is not None and abs(s.v) > p.v_max:
            s = replace(s, v=p.v_max if s.v > 0 else -p.v_max)
    except AttributeError as exc:
        raise _unfit_inputs("integrate_step", model, s, exc) from exc
    except (TypeError, OverflowError) as exc:
        raise ValidationError(f"input u must be a pair of numbers, got {u!r}") from exc
    except ValueError as exc:
        # cos of a stage heading that overflowed to infinity
        raise ValidationError(f"the step diverged: {exc}") from exc
    return s
