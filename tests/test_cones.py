"""Cone geometry, barrier candidates, and their Lie derivatives."""

import math

import numpy as np
import pytest

from conftest import (
    cone_h_of_ext,
    ellipse_h_of_ext,
    fd_hdot,
    hocbf_h_of_ext,
    kernel_c3bf,
    sample_case,
)

from conecbf import (
    BicycleState,
    ModelParams,
    Obstacle,
    PointMassState,
    UnicycleState,
    UnsupportedCbfError,
    ValidationError,
    _pykernel,
    c3bf_eval,
    effective_radius,
    ellipse_cbf_eval,
    hocbf_eval,
)

MODELS = ("unicycle", "bicycle", "pointmass")


def cone_kernel(p_rel, v_rel, r):
    """Point-mass cone kernel output for given relative kinematics.

    The vehicle sits at the origin moving with -v_rel and a static
    obstacle sits at p_rel, so the kernel sees exactly (p_rel, v_rel).
    Element 0 is h, element 5 the penetration flag.
    """
    return _pykernel.c3bf_pointmass(
        0.0, 0.0, -float(v_rel[0]), -float(v_rel[1]),
        float(p_rel[0]), float(p_rel[1]), 0.0, 0.0, r,
    )


def cone_value(p_rel, v_rel, r):
    return cone_kernel(p_rel, v_rel, r)[0]


class TestEffectiveRadius:
    def test_point_vehicle_circle(self):
        assert effective_radius(Obstacle(0, 0, c1=1, c2=1), ModelParams(w=0)) == 1.0

    def test_width_and_major_axis(self):
        o = Obstacle(0, 0, c1=1.0, c2=0.5)
        assert effective_radius(o, ModelParams(w=0.8)) == pytest.approx(1.4)

    def test_axis_symmetric(self):
        o = Obstacle(0, 0, c1=0.5, c2=1.0)
        assert effective_radius(o, ModelParams(w=0.8)) == pytest.approx(1.4)


class TestConeValue:
    def test_zero_relative_velocity(self):
        assert cone_value((4, 3), (0, 0), 2.0) == 0.0

    def test_approaching_hand_value(self):
        # cos(phi) = 4/5 at dist 5, r 3
        assert cone_value((5, 0), (-1, 0), 3.0) == pytest.approx(-1.0)

    def test_receding_hand_value(self):
        assert cone_value((5, 0), (1, 0), 3.0) == pytest.approx(9.0)

    def test_half_plane_limit_at_boundary(self):
        # as dist -> r+ the cone opens to the half plane <p, v> >= 0
        h = cone_value((3.0000001, 0), (-1, 0), 3.0)
        assert h == pytest.approx(-3.0, abs=1e-2)
        assert h < 0

    def test_penetration_flag(self):
        # inside the radius the cone term is clamped away: h = <p, v>
        out = cone_kernel((1, 0), (-1, 0), 3.0)
        assert out[5] == 1.0 and out[0] == -1.0
        out = cone_kernel((5, 0), (-1, 0), 3.0)
        assert out[5] == 0.0 and out[0] == pytest.approx(-1.0)

    def test_scale_covariance_in_v(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(-5, 5, 2)
            v = rng.uniform(-3, 3, 2)
            r = float(rng.uniform(0.2, np.linalg.norm(p) * 0.9))
            lam = float(rng.uniform(0.1, 10))
            assert cone_value(p, lam * v, r) == pytest.approx(
                lam * cone_value(p, v, r), rel=1e-12
            )

    def test_cone_membership_equivalence(self):
        # h >= 0 iff the angle between p_rel and v_rel is at most pi - phi
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(500):
            p = rng.uniform(-6, 6, 2)
            v = rng.uniform(-3, 3, 2)
            d = np.linalg.norm(p)
            r = float(rng.uniform(0.1, 0.95) * d)
            if np.linalg.norm(v) < 1e-9:
                continue
            h = cone_value(p, v, r)
            ang = math.acos(
                np.clip(p @ v / (np.linalg.norm(p) * np.linalg.norm(v)), -1, 1)
            )
            phi = math.acos(math.sqrt(d * d - r * r) / d)
            if abs(ang - (math.pi - phi)) < 1e-9:
                continue  # boundary: either side is fine
            assert (h >= 0) == (ang <= math.pi - phi)
            checked += 1
        assert checked > 400


class TestConeLieDerivatives:
    """Analytic (lfh, lgh) against the central-difference flow oracle."""

    @pytest.mark.parametrize("model", MODELS)
    def test_fd_oracle_1000_samples(self, kern, model):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            z, u, obs_vel, params, (c1, c2, r) = sample_case(rng, model)
            h, lfh, lg0, lg1, dist, pen = kernel_c3bf(kern, model, z, obs_vel, params, r)
            assert pen == 0.0
            h_ref = cone_h_of_ext(model, z, obs_vel, params, r)
            assert h == pytest.approx(h_ref, rel=1e-12, abs=1e-12)
            hdot_fd = fd_hdot(
                lambda zz: cone_h_of_ext(model, zz, obs_vel, params, r),
                model, z, u, obs_vel, params,
            )
            hdot_an = lfh + lg0 * u[0] + lg1 * u[1]
            assert abs(hdot_an - hdot_fd) <= 1e-6 * (1 + abs(hdot_fd))

    def test_hand_case_head_on(self, kern):
        # v_rel = (-1, 0), dist 5, r 3: hdot = 1 - 5/4 under zero input
        h, lfh, lg0, lg1, dist, pen = kern.c3bf_unicycle(0, 0, 0, 1, 0, 0.0, 5, 0, 0, 0, 3)
        assert h == pytest.approx(-1.0)
        assert lfh == pytest.approx(-0.25)
        assert lg1 == 0.0  # no body-center offset: no steering authority
        assert lg0 != 0.0

    def test_lgh_nonzero_at_rest(self):
        # v_rel = 0 gives h = 0 but a usable input direction
        s = UnicycleState(0.5, -0.5, 0.3, 0, 0)
        e = c3bf_eval("unicycle", s, Obstacle(4, 1), ModelParams(l=0))
        assert e.h == 0.0
        assert math.hypot(*e.lgh) > 0

    def test_bicycle_beta_column_matches_directional_fd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z, u, obs_vel, params, (c1, c2, r) = sample_case(rng, "bicycle")
            h, lfh, lg0, lg1, dist, pen = kernel_c3bf(_pykernel, "bicycle", z, obs_vel, params, r)
            for direction, coef in (((1.0, 0.0), lg0), ((0.0, 1.0), lg1)):
                hdot_fd = fd_hdot(
                    lambda zz: cone_h_of_ext("bicycle", zz, obs_vel, params, r),
                    "bicycle", z, direction, obs_vel, params,
                )
                assert abs((lfh + coef) - hdot_fd) <= 1e-6 * (1 + abs(hdot_fd))

    def test_penetration_flagged_and_finite(self, kern):
        h, lfh, lg0, lg1, dist, pen = kern.c3bf_unicycle(0, 0, 0, 1, 0, 0.0, 1, 0, 0, 0, 3)
        assert pen == 1.0
        assert all(map(math.isfinite, (h, lfh, lg0, lg1)))
        assert h == pytest.approx(-1.0)  # <p, v> with the cone term clamped


class TestEllipseBaseline:
    def test_unicycle_no_input_dependence(self):
        # max ||lgh|| over 1e4 random states stays at numerical zero
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10_000):
            s = UnicycleState(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3),
                              rng.uniform(-3, 3), rng.uniform(-2, 2))
            o = Obstacle(*rng.uniform(-8, 8, 2), vx=rng.uniform(-1, 1),
                         vy=rng.uniform(-1, 1), c1=rng.uniform(0.3, 2), c2=rng.uniform(0.3, 2))
            e = ellipse_cbf_eval("unicycle", s, o)
            worst = max(worst, math.hypot(*e.lgh))
        assert worst <= 1e-12

    def test_bicycle_only_beta_column(self):
        rng = np.random.default_rng(6)
        nonzero = 0
        n = 2000
        for _ in range(n):
            s = BicycleState(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3), rng.uniform(0.2, 3))
            o = Obstacle(*rng.uniform(-8, 8, 2), c1=rng.uniform(0.3, 2), c2=rng.uniform(0.3, 2))
            e = ellipse_cbf_eval("bicycle", s, o)
            assert abs(e.lgh[0]) <= 1e-12
            if abs(e.lgh[1]) > 1e-12:
                nonzero += 1
        assert nonzero >= 0.99 * n

    def test_boundary_value_zero(self):
        o = Obstacle(3, 4, c1=2, c2=1)
        s = UnicycleState(3 + 2 * math.cos(0.7), 4 + math.sin(0.7), 0, 1, 0)
        e = ellipse_cbf_eval("unicycle", s, o)
        assert e.h == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_fd_oracle(self, kern, model):
        rng = np.random.default_rng(9)
        for _ in range(300):
            z, u, obs_vel, params, (c1, c2, r) = sample_case(rng, model)
            if model == "unicycle":
                out = kern.ellipse_unicycle(z[0], z[1], z[2], z[3], z[5], z[6],
                                            obs_vel[0], obs_vel[1], c1, c2)
            elif model == "bicycle":
                out = kern.ellipse_bicycle(z[0], z[1], z[2], z[3], z[4], z[5],
                                           obs_vel[0], obs_vel[1], c1, c2)
            else:
                out = kern.ellipse_pointmass(z[0], z[1], z[2], z[3], z[4], z[5],
                                             obs_vel[0], obs_vel[1], c1, c2)
            h, lfh, lg0, lg1 = out[:4]
            h_ref = ellipse_h_of_ext(model, z, c1, c2)
            assert h == pytest.approx(h_ref, rel=1e-12, abs=1e-12)
            hdot_fd = fd_hdot(lambda zz: ellipse_h_of_ext(model, zz, c1, c2),
                              model, z, u, obs_vel, params)
            assert abs((lfh + lg0 * u[0] + lg1 * u[1]) - hdot_fd) <= 1e-6 * (1 + abs(hdot_fd))


class TestHocbf:
    def test_unicycle_static_regains_thrust(self):
        rng = np.random.default_rng(13)
        nonzero = 0
        n = 2000
        for _ in range(n):
            s = UnicycleState(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3),
                              rng.uniform(-3, 3), rng.uniform(-2, 2))
            o = Obstacle(*rng.uniform(-8, 8, 2), c1=rng.uniform(0.3, 2), c2=rng.uniform(0.3, 2))
            e = hocbf_eval("unicycle", s, o, 1.0)
            assert e.lgh[1] == 0.0  # steering never comes back
            if math.hypot(*e.lgh) > 1e-12:
                nonzero += 1
        assert nonzero >= 0.99 * n

    def test_linear_combination_zero(self):
        # place the vehicle on the ellipse boundary moving tangentially:
        # h1 = 0 and h1' = 0 give h2 = 0
        o = Obstacle(0, 0, c1=2, c2=1)
        x, y = 2 * math.cos(0.4), math.sin(0.4)
        tangent = math.atan2(math.cos(0.4) * 1, -math.sin(0.4) * 2)
        s = UnicycleState(x, y, tangent, 1.5, 0)
        e = hocbf_eval("unicycle", s, o, 3.0)
        assert e.h == pytest.approx(0.0, abs=1e-12)

    def test_affine_in_gamma1(self):
        s = UnicycleState(1, 2, 0.3, 1.2, 0.1)
        o = Obstacle(5, 4, c1=1, c2=1)
        g = 0.7
        h_g = hocbf_eval("unicycle", s, o, g).h
        h_2g = hocbf_eval("unicycle", s, o, 2 * g).h
        h1 = ellipse_cbf_eval("unicycle", s, o).h
        assert h_2g - h_g == pytest.approx(g * h1, rel=1e-12)

    def test_bicycle_moving_rejected(self):
        s = BicycleState(0, 0, 0, 1)
        with pytest.raises(UnsupportedCbfError):
            hocbf_eval("bicycle", s, Obstacle(5, 0, vx=-1), 1.0, ModelParams())
        with pytest.raises(UnsupportedCbfError):
            hocbf_eval("bicycle", s, Obstacle(5, 0, segments=((1.0, -1.0, 0.0),)),
                       1.0, ModelParams())

    def test_gamma1_must_be_positive(self):
        with pytest.raises(ValidationError):
            hocbf_eval("unicycle", UnicycleState(0, 0, 0, 1, 0), Obstacle(5, 0), 0.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_fd_oracle(self, kern, model):
        rng = np.random.default_rng(17)
        for _ in range(300):
            z, u, obs_vel, params, (c1, c2, r) = sample_case(rng, model)
            if model == "bicycle":
                obs_vel = (0.0, 0.0)  # moving obstacles are invalid here
            g1 = float(rng.uniform(0.3, 2.0))
            if model == "unicycle":
                out = kern.hocbf_unicycle(z[0], z[1], z[2], z[3], z[4], z[5], z[6],
                                          obs_vel[0], obs_vel[1], c1, c2, g1)
            elif model == "bicycle":
                out = kern.hocbf_bicycle(z[0], z[1], z[2], z[3], params["l_r"], z[4], z[5],
                                         obs_vel[0], obs_vel[1], c1, c2, g1)
            else:
                out = kern.hocbf_pointmass(z[0], z[1], z[2], z[3], z[4], z[5],
                                           obs_vel[0], obs_vel[1], c1, c2, g1)
            h, lfh, lg0, lg1 = out[:4]
            h_ref = hocbf_h_of_ext(model, z, obs_vel, params, c1, c2, g1)
            assert h == pytest.approx(h_ref, rel=1e-12, abs=1e-12)
            hdot_fd = fd_hdot(
                lambda zz: hocbf_h_of_ext(model, zz, obs_vel, params, c1, c2, g1),
                model, z, u, obs_vel, params,
            )
            assert abs((lfh + lg0 * u[0] + lg1 * u[1]) - hdot_fd) <= 1e-6 * (1 + abs(hdot_fd))


BARRIERS = [
    (kind, model)
    for kind in ("c3bf", "ellipse", "hocbf")
    for model in MODELS
    if (kind, model) != ("hocbf", "bicycle")  # rejected for moving obstacles
]
STATES = {
    "unicycle": UnicycleState(0.0, 0.2, 0.1, 1.2, 0.05),
    "bicycle": BicycleState(0.0, 0.2, 0.1, 1.2),
    "pointmass": PointMassState(0.0, 0.2, 1.1, -0.3),
}


def barrier(kind, model, s, o, **kw):
    p = ModelParams(l=0.35, w=0.6)
    if kind == "c3bf":
        return c3bf_eval(model, s, o, p, **kw)
    if kind == "ellipse":
        return ellipse_cbf_eval(model, s, o, **kw)
    return hocbf_eval(model, s, o, 1.3, p, **kw)


class TestObstacleAtTime:
    """With t given, a barrier reads the obstacle where it is at t."""

    @pytest.mark.parametrize("kind,model", BARRIERS)
    def test_matches_obstacle_rebuilt_at_t(self, kind, model):
        o = Obstacle(6.0, 0.5, vx=-0.4, vy=0.1, c1=0.8, c2=0.5,
                     segments=((1.5, 0.3, -0.6), (3.0, -0.2, 0.0)))
        for t in (0.0, 0.7, 1.5, 2.2, 3.0, 4.9):
            now = Obstacle(*o.state_at(t), o.c1, o.c2)
            assert barrier(kind, model, STATES[model], o, t=t) == barrier(
                kind, model, STATES[model], now
            )

    def test_hocbf_bicycle_moving_rejected_at_t(self):
        o = Obstacle(5, 0, segments=((1.0, -1.0, 0.0),))
        with pytest.raises(UnsupportedCbfError):
            barrier("hocbf", "bicycle", STATES["bicycle"], o, t=0.5)


class TestBaselineDisagreement:
    def test_head_on_outside_ellipse_inside_cone(self):
        # well outside the ellipse (baseline says fine) while driving
        # straight at it (cone says collision course)
        s = UnicycleState(0, 0, 0, 2.0, 0)
        o = Obstacle(10, 0, c1=1, c2=1)
        ell = ellipse_cbf_eval("unicycle", s, o)
        cone = c3bf_eval("unicycle", s, o, ModelParams(l=0, w=0.5))
        assert ell.h > 0
        assert cone.h < 0

