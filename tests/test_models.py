"""Vehicle states, the derivative oracle's hand values, and the integrator."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import ext_derivative

from conecbf import (
    BicycleState,
    ControllerSpec,
    FilterConfig,
    ModelParams,
    Obstacle,
    PointMassState,
    ReferencePath,
    UnicycleState,
    ValidationError,
    integrate_step,
    slip_from_steering,
)
from conecbf._backend import kernel


def vehicle_derivative(model, s, u, p=None):
    """Vehicle block of the oracle's extended-state derivative."""
    params = {"l_r": p.l_r} if p is not None else {}
    z = (*s.as_tuple(), 0.0, 0.0)
    return tuple(float(d) for d in ext_derivative(model, z, u, (0.0, 0.0), params)[:-2])


class TestUnicycleDerivative:
    def test_heading_aligned_unit_speed(self):
        d = vehicle_derivative("unicycle", UnicycleState(0, 0, 0, 1, 0), (0, 0))
        assert d == (1, 0, 0, 0, 0)

    def test_quarter_turn_heading(self):
        d = vehicle_derivative("unicycle", UnicycleState(0, 0, math.pi / 2, 2, 0.5), (1, -1))
        assert d == pytest.approx((0, 2, 0.5, 1, -1), abs=1e-15)

    def test_diagonal_heading(self):
        d = vehicle_derivative(
            "unicycle", UnicycleState(3, -2, math.pi / 4, math.sqrt(2), 0), (0, 0)
        )
        assert d == pytest.approx((1, 1, 0, 0, 0), abs=1e-15)


class TestBicycleDerivative:
    P = ModelParams(l_f=1.0, l_r=1.0)

    def test_zero_slip_straight_line(self):
        d = vehicle_derivative("bicycle", BicycleState(0, 0, 0, 1), (0, 0), self.P)
        assert d == (1, 0, 0, 0)

    def test_hand_evaluated_slip(self):
        d = vehicle_derivative("bicycle", BicycleState(0, 0, 0, 2), (1, 0.1), self.P)
        assert d == pytest.approx((2, 0.2, 0.2, 1), abs=1e-15)

    def test_zero_speed_annihilates_steer(self):
        d = vehicle_derivative("bicycle", BicycleState(0, 0, 0, 0), (0, 0.3), self.P)
        assert d == (0, 0, 0, 0)

    def test_rejects_large_slip(self):
        with pytest.raises(ValidationError, match="beta_max"):
            integrate_step("bicycle", BicycleState(0, 0, 0, 1), (0, 0.3), 0.01, self.P)


class TestPointMassDerivative:
    def test_drift_only(self):
        d = vehicle_derivative("pointmass", PointMassState(0, 0, 1, 2), (0, 0))
        assert d == (1, 2, 0, 0)

    def test_pure_acceleration(self):
        d = vehicle_derivative("pointmass", PointMassState(5, 5, 0, 0), (1, -1))
        assert d == (0, 0, 1, -1)

    def test_superposition(self):
        d = vehicle_derivative("pointmass", PointMassState(1, 0, -1, 1), (0.5, 0.5))
        assert d == (-1, 1, 0.5, 0.5)


class TestSlipFromSteering:
    def test_odd_at_zero(self):
        assert slip_from_steering(0.0, ModelParams()) == 0.0

    def test_hand_value(self):
        p = ModelParams(l_f=1.0, l_r=1.0)
        assert slip_from_steering(math.pi / 4, p) == pytest.approx(math.atan(0.5), abs=1e-12)

    @given(st.floats(-1.5, 1.5))
    def test_odd(self, d):
        p = ModelParams(l_f=0.8, l_r=1.3)
        assert slip_from_steering(-d, p) == pytest.approx(-slip_from_steering(d, p), abs=1e-15)

    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    @example(-5e-324, 0.0)
    def test_strictly_increasing(self, d1, d2):
        # the slope is at least l_r/(l_f+l_r) = 0.45 on [-1.5, 1.5], so a gap
        # of 1e-9 keeps the slips apart; closer angles may round to one slip
        p = ModelParams(l_f=1.1, l_r=0.9)
        if d1 < d2:
            b1, b2 = slip_from_steering(d1, p), slip_from_steering(d2, p)
            assert b1 <= b2
            if d2 - d1 >= 1e-9:
                assert b1 < b2


class TestShapeChecks:
    # a tuple-valued field takes any sequence of the right shape and keeps
    # a frozen copy of it; tests/test_contract.py refuses the wrong shapes
    def test_well_shaped_values_accepted(self):
        assert FilterConfig(input_bounds=[[-1, 1], [-math.inf, 2]]).input_bounds == ((-1, 1), (-math.inf, 2))
        assert Obstacle(0, 0, segments=[(1.0, 0.5, 0.0)]).moves()
        assert ReferencePath([[0, 0], [1, 0]]).waypoints == ((0.0, 0.0), (1.0, 0.0))
        assert ControllerSpec(v_des_vec=[1.0, 0.0]).v_des_vec == (1.0, 0.0)

    def test_records_keep_frozen_copies_of_the_callers_sequences(self):
        # a later change to the caller's list must not reach a frozen record,
        # whose checks and derived values saw the list as it was
        bounds = [[-1.0, 1.0], [-1.0, 1.0]]
        segments = [[1.0, 0.5, 0.0]]
        vec = [1.0, 0.0]
        cfg = FilterConfig(input_bounds=bounds)
        o = Obstacle(0, 0, segments=segments)
        c = ControllerSpec(v_des_vec=vec)
        bounds[0][0] = math.nan
        segments[0][0] = -1.0
        segments.append([2.0, 1.0, 1.0])
        vec[0] = math.nan
        assert cfg.input_bounds == ((-1.0, 1.0), (-1.0, 1.0))
        assert cfg._bounds == (-1.0, 1.0, -1.0, 1.0)
        assert o.segments == ((1.0, 0.5, 0.0),) and o._anchors == ((1.0, 0.0, 0.0, 0.5, 0.0),)
        assert c.v_des_vec == (1.0, 0.0) == c._v_target
        # tuples all the way down: the records hash, and equal their tuple form
        for built, frozen in (
            (Obstacle(1, 1, segments=[(1.0, 0, 0)]), Obstacle(1, 1, segments=((1.0, 0, 0),))),
            (FilterConfig(input_bounds=[[-1, 1], [-1, 1]]), FilterConfig(input_bounds=((-1, 1), (-1, 1)))),
            (ControllerSpec(v_des_vec=[1.0, 0.0]), ControllerSpec(v_des_vec=(1.0, 0.0))),
        ):
            assert built == frozen and hash(built) == hash(frozen)

    def test_frozen_copies_keep_the_values_themselves(self):
        # no conversion: an int stays the int it was, a double keeps its bits
        big = 2**60 + 1
        o = Obstacle(0, 0, segments=[[big, 0.1, 0.0]])
        assert o.segments[0][0] is big
        cfg = FilterConfig(input_bounds=np.array([[-1.0, 1.0], [-2.0, 2.0]]))
        assert cfg.input_bounds == ((-1.0, 1.0), (-2.0, 2.0)) and type(cfg.input_bounds[0]) is tuple


class TestIntegrateStep:
    def test_constant_velocity_exact(self):
        s = integrate_step("unicycle", UnicycleState(0, 0, 0, 1, 0), (0, 0), 0.1)
        assert s.as_tuple() == pytest.approx((0.1, 0, 0, 1, 0), abs=1e-15)

    def test_pointmass_polynomial_exact(self):
        s = integrate_step("pointmass", PointMassState(0, 0, 0, 0), (2, 0), 0.5)
        assert s.as_tuple() == pytest.approx((0.25, 0, 1, 0), abs=1e-15)

    def test_unicycle_circular_arc(self):
        # constant v=1, omega=1: x = sin(t), y = 1 - cos(t)
        s = UnicycleState(0, 0, 0, 1, 1)
        for _ in range(1):
            s = integrate_step("unicycle", s, (0, 0), 0.01)
        assert s.x == pytest.approx(math.sin(0.01), abs=1e-9)
        assert s.y == pytest.approx(1 - math.cos(0.01), abs=1e-9)

    def test_fourth_order_convergence(self):
        # error against the analytic arc over 1 s shrinks >= 15x per halving
        def run(dt):
            s = UnicycleState(0, 0, 0, 1, 1)
            n = round(1.0 / dt)
            for _ in range(n):
                s = integrate_step("unicycle", s, (0, 0), dt)
            return math.hypot(s.x - math.sin(1.0), s.y - (1 - math.cos(1.0)))

        e1 = run(0.02)
        e2 = run(0.01)
        assert e1 / e2 >= 15.0

    def test_heading_renormalized(self):
        s = UnicycleState(0, 0, 3.0, 0, 2.0)
        s = integrate_step("unicycle", s, (0, 0), 0.2)
        assert -math.pi < s.theta <= math.pi


def _stagewise_rk4_unicycle(x, y, th, v, om, a, al, dt):
    """The unicycle RK4 step in stage-by-stage closure form, float for float."""

    def f(xx, yy, tt, vv, oo):
        return vv * math.cos(tt), vv * math.sin(tt), oo, a, al

    k1 = f(x, y, th, v, om)
    h2 = 0.5 * dt
    k2 = f(x + h2 * k1[0], y + h2 * k1[1], th + h2 * k1[2], v + h2 * k1[3], om + h2 * k1[4])
    k3 = f(x + h2 * k2[0], y + h2 * k2[1], th + h2 * k2[2], v + h2 * k2[3], om + h2 * k2[4])
    k4 = f(x + dt * k3[0], y + dt * k3[1], th + dt * k3[2], v + dt * k3[3], om + dt * k3[4])
    w = dt / 6.0
    return (
        x + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        th + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        v + dt * a,
        om + dt * al,
    )


def _stagewise_rk4_bicycle(x, y, th, v, a, be, lr, dt):
    """The bicycle RK4 step in stage-by-stage closure form, float for float."""

    def f(xx, yy, tt, vv):
        ct = math.cos(tt)
        st = math.sin(tt)
        return vv * ct - vv * be * st, vv * st + vv * be * ct, vv * be / lr, a

    k1 = f(x, y, th, v)
    h2 = 0.5 * dt
    k2 = f(x + h2 * k1[0], y + h2 * k1[1], th + h2 * k1[2], v + h2 * k1[3])
    k3 = f(x + h2 * k2[0], y + h2 * k2[1], th + h2 * k2[2], v + h2 * k2[3])
    k4 = f(x + dt * k3[0], y + dt * k3[1], th + dt * k3[2], v + dt * k3[3])
    w = dt / 6.0
    return (
        x + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        th + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        v + dt * a,
    )


def _rk4_heading(rng):
    """Headings within 1e-3 of +-pi (the wrap), within 1e-9 of 0 (where the
    heading increment's every bit shows), or anywhere, a third each."""
    pick = rng.random()
    if pick < 1 / 3:
        return rng.choice((-1.0, 1.0)) * (math.pi - rng.uniform(-1e-3, 1e-3))
    if pick < 2 / 3:
        return rng.uniform(-1e-9, 1e-9)
    return rng.uniform(-math.pi, math.pi)


def _rk4_position(rng):
    """Positions near the origin, where the stage sum's every bit shows, or anywhere."""
    return rng.uniform(-1e-6, 1e-6) if rng.random() < 0.5 else rng.uniform(-50, 50)


class TestRk4StagesExact:
    # the scalar RK4 stages must give the same bits as the stage-by-stage
    # closure form on every input, headings near +-pi included; the kernels
    # return the raw heading and the state types wrap it
    N = 3000

    def test_unicycle_bit_for_bit(self):
        rng = random.Random(20231)
        for _ in range(self.N):
            args = (
                _rk4_position(rng), _rk4_position(rng), _rk4_heading(rng),
                rng.uniform(-3, 3), rng.uniform(-4, 4),
                rng.uniform(-5, 5), rng.uniform(-5, 5), rng.choice((0.001, 0.01, 0.05, 0.2)),
            )
            assert kernel.rk4_unicycle(*args) == _stagewise_rk4_unicycle(*args), args

    def test_bicycle_bit_for_bit(self):
        rng = random.Random(20232)
        for _ in range(self.N):
            args = (
                _rk4_position(rng), _rk4_position(rng), _rk4_heading(rng),
                rng.uniform(-3, 3), rng.uniform(-5, 5), rng.uniform(-0.3, 0.3),
                rng.uniform(0.2, 2.0), rng.choice((0.001, 0.01, 0.05, 0.2)),
            )
            assert kernel.rk4_bicycle(*args) == _stagewise_rk4_bicycle(*args), args

    def test_heading_wrap_exercised(self):
        # a step across +pi: the kernel's heading passes pi, and the state
        # integrate_step builds holds its wrap, near -pi
        s = UnicycleState(0.0, 0.0, math.pi - 1e-4, 1.0, 1.0)
        args = (*s.as_tuple(), 0.0, 0.0, 0.01)
        out = kernel.rk4_unicycle(*args)
        assert out == _stagewise_rk4_unicycle(*args)
        assert out[2] > math.pi
        theta = integrate_step("unicycle", s, (0.0, 0.0), 0.01).theta
        assert theta == kernel.wrap_angle(out[2]) < -math.pi + 0.02
        s = BicycleState(0.0, 0.0, math.pi - 1e-4, 1.0)
        args = (*s.as_tuple(), 0.0, 0.2, 1.0, 0.01)
        out = kernel.rk4_bicycle(*args)
        assert out == _stagewise_rk4_bicycle(*args)
        assert out[2] > math.pi
        theta = integrate_step("bicycle", s, (0.0, 0.2), 0.01, ModelParams(l_r=1.0)).theta
        assert theta == kernel.wrap_angle(out[2]) < -math.pi + 0.02
        # below -pi: a state built there, and a clockwise step across -pi,
        # both land near +pi
        assert UnicycleState(0.0, 0.0, -3.5, 1.0, 0.0).theta == pytest.approx(2 * math.pi - 3.5, abs=1e-15)
        # -pi is the open end of (-pi, pi], so it wraps to +pi
        assert UnicycleState(0.0, 0.0, -math.pi, 1.0, 0.0).theta == math.pi
        s = UnicycleState(0.0, 0.0, -math.pi + 1e-4, 1.0, -1.0)
        out = kernel.rk4_unicycle(*s.as_tuple(), 0.0, 0.0, 0.01)
        assert out[2] < -math.pi
        theta = integrate_step("unicycle", s, (0.0, 0.0), 0.01).theta
        assert theta == kernel.wrap_angle(out[2]) > math.pi - 0.02


class TestInputPairChecked:
    # any sequence pair is an input; a step that diverges is refused
    def test_integrate_step_pair_still_accepted(self):
        s = UnicycleState(0, 0, 0, 1, 0)
        assert integrate_step("unicycle", s, [0.5, 0.0], 0.1) == integrate_step(
            "unicycle", s, (0.5, 0.0), 0.1
        )

    def test_overflowed_heading_raises_validation_error(self):
        # cos of a heading that overflowed to infinity; a ValueError would
        # escape the engine's SimulationError and the CLI's exit codes
        s = UnicycleState(0, 0, 0, 1, 1e308)
        with pytest.raises(ValidationError, match="diverged"):
            integrate_step("unicycle", s, (0.0, 1e308), 10.0)


class TestSpeedCap:
    """integrate_step caps the speed state at p.v_max after the state check."""

    CAP = ModelParams(v_max=1.2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("model", ["unicycle", "bicycle"])
    def test_caps_both_signs(self, model, sign):
        if model == "unicycle":
            state = UnicycleState(0, 0, 0.3, sign, 0.2)
        else:
            state = BicycleState(0, 0, 0.3, sign)
        free = integrate_step(model, state, (5.0 * sign, 0.1), 0.1, ModelParams())
        capped = integrate_step(model, state, (5.0 * sign, 0.1), 0.1, self.CAP)
        assert abs(free.v) > 1.2
        assert capped.v == 1.2 * sign
        # only the speed changes
        assert capped.as_tuple()[:3] == free.as_tuple()[:3]
        assert capped.as_tuple()[4:] == free.as_tuple()[4:]

    def test_speed_within_the_cap_is_kept(self):
        s = UnicycleState(0, 0, 0, 1.0, 0)
        assert integrate_step("unicycle", s, (1.0, 0.0), 0.1, self.CAP).v == pytest.approx(1.1)

    def test_no_params_leaves_the_speed_uncapped(self):
        s = UnicycleState(0, 0, 0, 1.0, 0)
        assert integrate_step("unicycle", s, (5.0, 0.0), 0.1).v == pytest.approx(1.5)

    def test_point_mass_has_no_speed_state_to_cap(self):
        s = PointMassState(0, 0, 1.0, 1.0)
        assert integrate_step("pointmass", s, (5.0, 5.0), 0.1, self.CAP) == integrate_step(
            "pointmass", s, (5.0, 5.0), 0.1
        )

    @pytest.mark.parametrize("model,state", [
        ("unicycle", UnicycleState(0, 0, 0, 1e308, 0)),
        ("bicycle", BicycleState(0, 0, 0, 1e308)),
    ])
    def test_non_finite_speed_raises_instead_of_capped(self, model, state):
        with pytest.raises(ValidationError, match="expected a finite number"):
            integrate_step(model, state, (1e308, 0.0), 1.0, ModelParams(v_max=1.0))


class TestInputBox:
    """ModelParams.input_box: the box a run of each model filters with."""

    P = ModelParams(beta_max=0.2)

    def test_bicycle_default_is_the_slip_box(self):
        assert self.P.input_box("bicycle", None) == ((-math.inf, math.inf), (-0.2, 0.2))

    def test_given_bicycle_box_is_kept(self):
        box = ((-1.0, 1.0), (-0.1, 0.2))
        assert self.P.input_box("bicycle", box) is box

    def test_bicycle_box_beyond_beta_max_rejected(self):
        with pytest.raises(ValidationError, match="beta_max"):
            self.P.input_box("bicycle", ((-1.0, 1.0), (-0.25, 0.2)))

    @pytest.mark.parametrize("model", ["unicycle", "pointmass"])
    @pytest.mark.parametrize("box", [None, ((-1.0, 1.0), (-1.0, 1.0))])
    def test_other_models_keep_the_given_box(self, model, box):
        assert self.P.input_box(model, box) is box

    def test_point_mass_refuses_a_speed_cap(self):
        with pytest.raises(ValidationError, match="v_max"):
            ModelParams(v_max=1.0).input_box("pointmass", None)


class TestSlottedStates:
    @pytest.mark.parametrize("state", [
        UnicycleState(0, 1, 2, 3, 4), BicycleState(0, 1, 2, 3), PointMassState(0, 1, 2, 3)
    ], ids=["unicycle", "bicycle", "pointmass"])
    def test_no_instance_dict_and_frozen(self, state):
        assert not hasattr(state, "__dict__")
        with pytest.raises(AttributeError):
            state.x = 5.0
        assert type(state)(*state.as_tuple()) == state
