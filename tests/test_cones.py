"""Cone geometry, barrier candidates, and their Lie derivatives."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    cone_h_of_ext,
    ellipse_h_of_ext,
    evaluate_case,
    fd_hdot,
    hocbf_h_of_ext,
    sample_case,
)

from conecbf import (
    BicycleState,
    CbfEvaluation,
    ModelParams,
    Obstacle,
    PointMassState,
    Scenario,
    UnicycleState,
    ValidationError,
    c3bf_eval,
    effective_radius,
    ellipse_cbf_eval,
    hocbf_eval,
    load_scenario,
    run_scenario,
)
from conecbf._backend import kernel

MODELS = ("unicycle", "bicycle", "pointmass")
KINDS = ("c3bf", "ellipse", "hocbf")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def cone_kernel(p_rel, v_rel, r):
    """Point-mass cone kernel record for given relative kinematics.

    The vehicle sits at the origin moving with -v_rel and a static
    obstacle sits at p_rel, so the kernel sees exactly (p_rel, v_rel).
    """
    return kernel.c3bf_pointmass(
        0.0, 0.0, -float(v_rel[0]), -float(v_rel[1]),
        float(p_rel[0]), float(p_rel[1]), 0.0, 0.0, r,
    )


def cone_value(p_rel, v_rel, r):
    return cone_kernel(p_rel, v_rel, r).h


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
        assert out.penetration is True and out.h == -1.0
        out = cone_kernel((5, 0), (-1, 0), 3.0)
        assert out.penetration is False and out.h == pytest.approx(-1.0)
        # contact counts as inside, where the cone's sqrt(d^2 - r^2) is 0
        out = cone_kernel((3, 0), (-1, 0), 3.0)
        assert out.penetration is True and out.h == -3.0

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

    def test_scale_covariance_beyond_squared_overflow(self):
        # h(lam p, v, lam r) = lam h(p, v, r), lfh is scale-free and lgh
        # scales with lam; at lam = 1e200 the squared distance overflows,
        # but the distance and the barrier terms stay finite
        lam = 1e200
        v = (-1.0, 0.5)
        for p, r in (((3.0, 4.0), 1.0), ((-2.0, 0.5), 0.3), ((1e-3, -7.0), 6.5)):
            big = cone_kernel((lam * p[0], lam * p[1]), v, lam * r)
            ref = cone_kernel(p, v, r)
            assert big.dist == pytest.approx(lam * ref.dist, rel=1e-15)
            assert big.h == pytest.approx(lam * ref.h, rel=1e-12)
            assert big.lfh == pytest.approx(ref.lfh, rel=1e-12)
            assert big.lgh == pytest.approx((lam * ref.lgh[0], lam * ref.lgh[1]), rel=1e-12)
            assert big.penetration is False
        inside = cone_kernel((lam, 0.0), v, 2.0 * lam)
        assert inside.penetration is True and inside.dist == lam
        assert cone_kernel((lam, 0.0), v, lam).penetration is True

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


# one call per barrier kernel: (name, arguments)
KERNEL_CALLS = [
    ("c3bf_unicycle", (0.0, 0.0, 0.3, 1.2, 0.1, 0.0, 5.0, 1.0, 0.0, 0.0, 1.5)),
    ("c3bf_bicycle", (0.0, 0.0, 0.3, 1.2, 1.0, 5.0, 1.0, 0.0, 0.0, 1.5)),
    ("c3bf_pointmass", (0.0, 0.0, 1.0, 0.2, 5.0, 1.0, 0.0, 0.0, 1.5)),
    ("ellipse_unicycle", (0.0, 0.0, 0.3, 1.2, 0.0, 5.0, 1.0, 0.0, 0.0, 1.5, 1.0)),
    ("ellipse_bicycle", (0.0, 0.0, 0.3, 1.2, 5.0, 1.0, 0.0, 0.0, 1.5, 1.0)),
    ("ellipse_pointmass", (0.0, 0.0, 1.0, 0.2, 5.0, 1.0, 0.0, 0.0, 1.5, 1.0)),
    ("hocbf_unicycle", (0.0, 0.0, 0.3, 1.2, 0.1, 0.0, 5.0, 1.0, 0.0, 0.0, 1.5, 1.0, 1.0)),
    ("hocbf_bicycle", (0.0, 0.0, 0.3, 1.2, 1.0, 5.0, 1.0, 0.0, 0.0, 1.5, 1.0, 1.0)),
    ("hocbf_pointmass", (0.0, 0.0, 1.0, 0.2, 5.0, 1.0, 0.0, 0.0, 1.5, 1.0, 1.0)),
]


class TestKernelRecords:
    @pytest.mark.parametrize("name,args", KERNEL_CALLS, ids=[n for n, _ in KERNEL_CALLS])
    def test_barrier_kernel_returns_the_record(self, name, args):
        e = getattr(kernel, name)(*args)
        # built with tuple.__new__, which checks no arity: all five fields,
        # as CbfEvaluation's own constructor builds them
        assert type(e) is CbfEvaluation and len(e) == 5
        assert e == CbfEvaluation(*e)
        assert type(e.penetration) is bool and len(e.lgh) == 2
        assert e.dist == math.hypot(5.0, 1.0)

    def test_ellipse_distance_beyond_squared_overflow(self):
        e = kernel.ellipse_pointmass(1e200, -1e200, 0.0, 0.0, -1e200, 1e200, 0.0, 0.0, 1.0, 1.0)
        assert e.dist == math.hypot(2e200, 2e200)


# input columns that a baseline lacks by construction, checked exactly
STRUCTURAL_ZEROS = {
    ("ellipse", "unicycle"): (0, 1),
    ("ellipse", "pointmass"): (0, 1),
    ("ellipse", "bicycle"): (0,),
    ("hocbf", "unicycle"): (1,),
}


class TestBarrierOracle:
    """Each of the nine barrier kernels, through its public evaluator,
    against its definition and the central-difference flow oracle, and
    its dist against the distance from the body center."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("model", MODELS)
    def test_definition_flow_and_structural_zeros(self, kind, model):
        rng = np.random.default_rng(9)
        for _ in range(300):
            z, u, obs_vel, params, (c1, c2, r, dist) = sample_case(rng, model)
            if (kind, model) == ("hocbf", "bicycle"):
                obs_vel = (0.0, 0.0)  # hocbf_eval refuses a moving obstacle here
            g1 = float(rng.uniform(0.3, 2.0))
            h_of = {
                "c3bf": lambda zz: cone_h_of_ext(model, zz, obs_vel, params, r),
                "ellipse": lambda zz: ellipse_h_of_ext(model, zz, c1, c2),
                "hocbf": lambda zz: hocbf_h_of_ext(model, zz, obs_vel, params, c1, c2, g1),
            }[kind]
            e = evaluate_case(kind, model, z, obs_vel, params, c1, c2, g1)
            assert e.penetration is False
            assert e.dist == pytest.approx(dist, rel=1e-12)
            assert e.h == pytest.approx(h_of(z), rel=1e-12, abs=1e-12)
            hdot_fd = fd_hdot(h_of, model, z, u, obs_vel, params)
            assert abs((e.lfh + e.lgh[0] * u[0] + e.lgh[1] * u[1]) - hdot_fd) <= 1e-6 * (1 + abs(hdot_fd))
            assert all(e.lgh[k] == 0.0 for k in STRUCTURAL_ZEROS.get((kind, model), ()))

    def test_every_kind_logs_one_distance(self):
        # a unicycle with its body center l = 0.4 ahead of (x, y): every
        # barrier kind, and `none`, measures dist from that center
        sc = load_scenario(SCENARIO_DIR / "unicycle-crossing.json")
        assert sc.params.l == 0.4
        dists = {kind: run_scenario(replace(sc, cbf=kind, duration=sc.dt)).dist[0] for kind in (*KINDS, "none")}
        assert len(set(dists.values())) == 1, dists
        assert round(dists["hocbf"][0], 5) == 9.94786


class TestConeLieDerivatives:
    """Analytic (lfh, lgh) against the central-difference flow oracle."""

    def test_hand_case_head_on(self):
        # v_rel = (-1, 0), dist 5, r 3: hdot = 1 - 5/4 under zero input
        h, lfh, (lg0, lg1), pen, dist = kernel.c3bf_unicycle(0, 0, 0, 1, 0, 0.0, 5, 0, 0, 0, 3)
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
            z, u, obs_vel, params, (c1, c2, r, _) = sample_case(rng, "bicycle")
            e = evaluate_case("c3bf", "bicycle", z, obs_vel, params, c1, c2)
            for direction, coef in zip(((1.0, 0.0), (0.0, 1.0)), e.lgh):
                hdot_fd = fd_hdot(
                    lambda zz: cone_h_of_ext("bicycle", zz, obs_vel, params, r),
                    "bicycle", z, direction, obs_vel, params,
                )
                assert abs((e.lfh + coef) - hdot_fd) <= 1e-6 * (1 + abs(hdot_fd))

    def test_penetration_flagged_and_finite(self):
        h, lfh, (lg0, lg1), pen, dist = kernel.c3bf_unicycle(0, 0, 0, 1, 0, 0.0, 1, 0, 0, 0, 3)
        assert pen is True
        assert all(map(math.isfinite, (h, lfh, lg0, lg1)))
        assert h == pytest.approx(-1.0)  # <p, v> with the cone term clamped


class TestEllipseBaseline:
    def test_boundary_value_zero(self):
        o = Obstacle(3, 4, c1=2, c2=1)
        s = UnicycleState(3 + 2 * math.cos(0.7), 4 + math.sin(0.7), 0, 1, 0)
        e = ellipse_cbf_eval("unicycle", s, o, ModelParams())
        assert e.h == pytest.approx(0.0, abs=1e-12)


class TestHocbf:
    def test_linear_combination_zero(self):
        # place the vehicle on the ellipse boundary moving tangentially:
        # h1 = 0 and h1' = 0 give h2 = 0
        o = Obstacle(0, 0, c1=2, c2=1)
        x, y = 2 * math.cos(0.4), math.sin(0.4)
        tangent = math.atan2(math.cos(0.4) * 1, -math.sin(0.4) * 2)
        s = UnicycleState(x, y, tangent, 1.5, 0)
        e = hocbf_eval("unicycle", s, o, 3.0, ModelParams())
        assert e.h == pytest.approx(0.0, abs=1e-12)

    def test_affine_in_gamma1(self):
        s = UnicycleState(1, 2, 0.3, 1.2, 0.1)
        o = Obstacle(5, 4, c1=1, c2=1)
        p = ModelParams()
        g = 0.7
        h_g = hocbf_eval("unicycle", s, o, g, p).h
        h_2g = hocbf_eval("unicycle", s, o, 2 * g, p).h
        h1 = ellipse_cbf_eval("unicycle", s, o, p).h
        assert h_2g - h_g == pytest.approx(g * h1, rel=1e-12)

    def test_bicycle_moving_rejected(self):
        s = BicycleState(0, 0, 0, 1)
        for o in (Obstacle(5, 0, vx=-1), Obstacle(5, 0, segments=((1.0, -1.0, 0.0),))):
            with pytest.raises(ValidationError, match="invalid for the bicycle") as by_eval:
                hocbf_eval("bicycle", s, o, 1.0, ModelParams())
            # a Scenario refuses the pairing with the same error and message
            with pytest.raises(ValidationError) as by_scenario:
                Scenario(name="x", model="bicycle", initial_state=s, obstacles=(o,), cbf="hocbf")
            assert str(by_scenario.value) == str(by_eval.value)


BARRIERS = [
    (kind, model)
    for kind in KINDS
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
        return ellipse_cbf_eval(model, s, o, p, **kw)
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

    @pytest.mark.parametrize("kind,model", BARRIERS)
    def test_obstacle_at_rest_read_without_state_at(self, kind, model, monkeypatch):
        # an obstacle at rest without segments is read through state_at like
        # any other: x0 + vx * t gives the same bits at every t >= 0 (a -0.0
        # coordinate with a +0.0 velocity reads +0.0)
        still = Obstacle(6.0, -0.0, vx=-0.0, vy=-0.0, c1=0.8, c2=0.5)
        parked = Obstacle(6.0, 0.5, segments=((1.5, 0.0, 0.0),))
        signed = Obstacle(-0.0, 0.5)
        assert repr(signed.state_at(1.0)[0]) == "0.0"
        assert not still.moves() and not parked.moves() and not signed.moves()
        want = {t: (Obstacle(*still.state_at(t), still.c1, still.c2),
                    barrier(kind, model, STATES[model], parked, t=t),
                    barrier(kind, model, STATES[model], signed, t=t))
                for t in (0.0, 0.7, 2.2)}
        read = []
        state_at = Obstacle.state_at
        monkeypatch.setattr(Obstacle, "state_at", lambda o, t: read.append(o) or state_at(o, t))
        for t, (now, parked_eval, signed_eval) in want.items():
            assert barrier(kind, model, STATES[model], still, t=t) == barrier(
                kind, model, STATES[model], now
            )
            assert barrier(kind, model, STATES[model], parked, t=t) == parked_eval
            assert barrier(kind, model, STATES[model], signed, t=t) == signed_eval
        # every read at t goes through state_at
        assert [id(o) for o in read] == [id(still), id(parked), id(signed)] * len(want)
        # a never-moving obstacle returns the same tuple bits at every t
        for o in (still, signed):
            bits = [repr(v) for v in o.state_at(0.0)]
            for t in (0.7, 2.2, 1e9):
                assert [repr(v) for v in o.state_at(t)] == bits

    def test_hocbf_bicycle_moving_rejected_at_t(self):
        o = Obstacle(5, 0, segments=((1.0, -1.0, 0.0),))
        with pytest.raises(ValidationError, match="invalid for the bicycle"):
            barrier("hocbf", "bicycle", STATES["bicycle"], o, t=0.5)


class TestBaselineDisagreement:
    def test_head_on_outside_ellipse_inside_cone(self):
        # well outside the ellipse (baseline says fine) while driving
        # straight at it (cone says collision course)
        s = UnicycleState(0, 0, 0, 2.0, 0)
        o = Obstacle(10, 0, c1=1, c2=1)
        p = ModelParams(l=0, w=0.5)
        ell = ellipse_cbf_eval("unicycle", s, o, p)
        cone = c3bf_eval("unicycle", s, o, p)
        assert ell.h > 0
        assert cone.h < 0

