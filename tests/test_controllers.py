"""Reference controllers: proportional laws and the Stanley tracker."""

import math

import pytest

from conecbf import (
    BicycleState,
    ControllerSpec,
    FilterConfig,
    ModelParams,
    PointMassState,
    ReferencePath,
    Scenario,
    UnicycleState,
    ValidationError,
    integrate_step,
    p_controller,
    p_speed_bicycle,
    p_velocity,
    reference_input,
    run_scenario,
    stanley_lateral,
)

STRAIGHT = ReferencePath(((0.0, 0.0), (50.0, 0.0)))
PARAMS = ModelParams(l_f=1.2, l_r=1.2, beta_max=0.3)


class TestPController:
    def test_equilibrium(self):
        g = ControllerSpec(k1=2.0, k2=1.0, v_des=1.5)
        assert p_controller(UnicycleState(0, 0, 0, 1.5, 0), g) == (0.0, 0.0)

    def test_hand_values(self):
        g = ControllerSpec(k1=2.0, k2=1.0, v_des=1.0)
        u = p_controller(UnicycleState(0, 0, 0, 0.5, 0.2), g)
        assert u == pytest.approx((1.0, -0.2))

    def test_linear_in_speed_error(self):
        g = ControllerSpec(k1=3.0, k2=0.5, v_des=2.0)
        a1 = p_controller(UnicycleState(0, 0, 0, 1.0, 0), g)[0]
        a2 = p_controller(UnicycleState(0, 0, 0, 0.0, 0), g)[0]
        assert a2 == pytest.approx(2 * a1)

    def test_speed_converges_exponentially(self):
        # obstacle-free closed loop: monotone decay at rate k1, checked
        # against the exponential envelope with 1e-6 slack over 10/k1 s
        g = ControllerSpec(k1=1.5, k2=1.0, v_des=2.0)
        s = UnicycleState(0, 0, 0, 0, 0)
        dt = 0.01
        horizon = 10.0 / g.k1
        err0 = abs(g.v_des - s.v)
        errs = [err0]
        for k in range(round(horizon / dt)):
            s = integrate_step("unicycle", s, p_controller(s, g), dt)
            err = abs(g.v_des - s.v)
            assert err <= err0 * math.exp(-g.k1 * (k + 1) * dt) + 1e-6
            errs.append(err)
        assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(errs, errs[1:]))

    def test_gain_validation(self):
        with pytest.raises(ValidationError):
            ControllerSpec(k1=0.0)


class TestPSpeedBicycle:
    def test_equilibrium(self):
        assert p_speed_bicycle(BicycleState(0, 0, 0, 2.0), ControllerSpec(k1=1.0, v_des=2.0)) == 0.0

    def test_unit_case(self):
        assert p_speed_bicycle(BicycleState(0, 0, 0, 1.0), ControllerSpec(k1=1.0, v_des=2.0)) == 1.0

    def test_saturation(self):
        # reference_input applies the controller's a_max to the law's
        # output, and the engine logs its answer as u_ref
        sc = Scenario(
            name="sat", model="bicycle", params=PARAMS, initial_state=BicycleState(0, 0, 0, 0.0),
            obstacles=(), controller=ControllerSpec(kind="p", k1=5.0, v_des=3.0, a_max=2.0),
            filter=FilterConfig(), duration=0.01,
        )
        a = run_scenario(sc).u_ref[0][0]
        assert a == 2.0


class TestPVelocity:
    def test_tracks_vector(self):
        u = p_velocity(PointMassState(0, 0, 0.5, -0.5), ControllerSpec(k1=2.0, v_des_vec=(1.0, 1.0)))
        assert u == pytest.approx((1.0, 3.0))


class TestStanleyLateral:
    def test_on_path_aligned_zero(self):
        s = BicycleState(10.0, 0.0, 0.0, 1.0)
        assert stanley_lateral(s, STRAIGHT, 1.0, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_left_of_path_steers_right(self):
        s = BicycleState(10.0, 1.0, 0.0, 1.0)
        assert stanley_lateral(s, STRAIGHT, 1.0, PARAMS) < 0

    def test_mirror_symmetry(self):
        sl = BicycleState(10.0, 1.0, 0.1, 1.0)
        sr = BicycleState(10.0, -1.0, -0.1, 1.0)
        bl = stanley_lateral(sl, STRAIGHT, 1.0, PARAMS)
        br = stanley_lateral(sr, STRAIGHT, 1.0, PARAMS)
        assert bl == pytest.approx(-br, abs=1e-12)

    def test_clamped_to_beta_max(self):
        s = BicycleState(10.0, 5.0, 2.5, 1.0)
        b = stanley_lateral(s, STRAIGHT, 3.0, PARAMS)
        assert abs(b) <= PARAMS.beta_max

    def test_rejects_empty_path(self):
        with pytest.raises(ValidationError):
            ReferencePath(((1.0, 1.0),))
        with pytest.raises(ValidationError):
            ReferencePath(((1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValidationError, match="needs a path"):
            ControllerSpec(kind="stanley")

    def test_cross_track_converges_from_offset(self):
        # 1 m offset on a straight path settles under 0.05 m within 15 s
        s = BicycleState(0.0, 1.0, 0.0, 2.0)
        g = ControllerSpec(k1=1.0, v_des=2.0)
        dt = 0.01
        worst_tail = 0.0
        for k in range(1500):
            beta = stanley_lateral(s, STRAIGHT, 1.2, PARAMS)
            a = p_speed_bicycle(s, g)
            s = integrate_step("bicycle", s, (a, beta), dt, PARAMS)
            if k >= 1200:
                worst_tail = max(worst_tail, abs(s.y))
        assert worst_tail <= 0.05

    def test_closed_path_wraps(self):
        square = ReferencePath(((0, 0), (10, 0), (10, 10), (0, 10)), closed=True)
        s = BicycleState(-1.0, 5.0, -math.pi / 2, 1.0)
        b = stanley_lateral(s, square, 1.0, PARAMS)
        assert math.isfinite(b)


class TestReferenceInput:
    """reference_input: the model's law, then the controller's a_max."""

    @pytest.mark.parametrize("v,a", [(0.0, 2.0), (6.0, -2.0)])
    def test_a_max_clamps_unicycle_thrust_only(self, v, a):
        # alpha = -k2 omega = -10 lies outside [-a_max, a_max] and is kept
        spec = ControllerSpec(kind="p", k1=5.0, k2=10.0, v_des=3.0, a_max=2.0)
        assert reference_input(spec, "unicycle", UnicycleState(0, 0, 0, v, 1.0)) == (a, -10.0)

    @pytest.mark.parametrize("v,a", [(0.0, 0.05), (6.0, -0.05)])
    def test_a_max_clamps_bicycle_thrust_only(self, v, a):
        spec = ControllerSpec(kind="stanley", k1=5.0, v_des=3.0, k_e=1.0, path=STRAIGHT, a_max=0.05)
        state = BicycleState(0, -5.0, 0, v)
        beta = stanley_lateral(state, STRAIGHT, 1.0, PARAMS)
        assert beta > 0.05  # outside [-a_max, a_max], and kept
        assert reference_input(spec, "bicycle", state, PARAMS) == (a, beta)

    def test_p_bicycle_reference_has_zero_slip(self):
        spec = ControllerSpec(kind="p", k1=5.0, v_des=3.0, a_max=2.0)
        assert reference_input(spec, "bicycle", BicycleState(0, 0, 0, 0.0), PARAMS) == (2.0, 0.0)

    def test_a_max_clamps_both_pointmass_components(self):
        spec = ControllerSpec(kind="p", k1=5.0, v_des_vec=(3.0, -3.0), a_max=2.0)
        assert reference_input(spec, "pointmass", PointMassState(0, 0, 0, 0)) == (2.0, -2.0)

    @pytest.mark.parametrize("model,state,law", [
        ("unicycle", UnicycleState(0, 0, 0, 6.0, 1.0), p_controller),
        ("pointmass", PointMassState(0, 0, 1.0, -1.0), p_velocity),
    ])
    def test_without_a_max_the_law_is_returned(self, model, state, law):
        spec = ControllerSpec(kind="p", k1=5.0, k2=10.0, v_des=-3.0)
        assert reference_input(spec, model, state) == law(state, spec)

    @pytest.mark.parametrize("model,state", [
        ("unicycle", UnicycleState(0, 0, 0, 1.0, 0.5)),
        ("bicycle", BicycleState(0, 0, 0, 1.0)),
        ("pointmass", PointMassState(0, 0, 1.0, -1.0)),
    ])
    def test_zero_controller(self, model, state):
        assert reference_input(ControllerSpec(kind="zero"), model, state, PARAMS) == (0.0, 0.0)

    @pytest.mark.parametrize("kind", ["p", "zero"])
    def test_unknown_model_rejected(self, kind):
        with pytest.raises(ValidationError, match="unknown model kind 'tank'"):
            reference_input(ControllerSpec(kind=kind), "tank", UnicycleState(0, 0, 0, 0, 0))
