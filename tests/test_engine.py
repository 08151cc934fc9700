"""Closed-loop engine: determinism, verdicts, labels, metrics."""

import copy
import hashlib
import math
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from conecbf import (
    BicycleState,
    CbfEvaluation,
    FilterConfig,
    FilterResult,
    ModelParams,
    Obstacle,
    PointMassState,
    ReferencePath,
    Scenario,
    SimulationError,
    UnicycleState,
    ValidationError,
    c3bf_eval,
    classify_behavior,
    filter_qp,
    integrate_step,
    load_scenario,
    reference_input,
    run_scenario,
    safety_metrics,
    stanley_lateral,
)
import conecbf.engine as engine
from conecbf.engine import MAX_STEPS, ControllerSpec
from conecbf.scenario_io import parse_scenario, scenario_to_dict, write_trajectory_csv

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def simple_scenario(**over):
    base = dict(
        name="t",
        model="unicycle",
        params=ModelParams(l=0.0, w=0.6),
        initial_state=UnicycleState(0, 0, 0, 0, 0),
        obstacles=(),
        controller=ControllerSpec(kind="p", k1=2.0, k2=1.0, v_des=1.5),
        filter=FilterConfig(gamma=1.0),
        dt=0.01,
        duration=5.0,
    )
    base.update(over)
    return Scenario(**base)


class TestObstacleMotion:
    def test_piecewise_constant_segments(self):
        o = Obstacle(0, 0, vx=1.0, vy=0.0, segments=((2.0, 0.0, 1.0), (4.0, 0.0, 0.0)))
        assert o.state_at(0.0) == (0.0, 0.0, 1.0, 0.0)
        assert o.state_at(1.5) == (1.5, 0.0, 1.0, 0.0)
        assert o.state_at(3.0) == (2.0, 1.0, 0.0, 1.0)
        assert o.state_at(5.0) == (2.0, 2.0, 0.0, 0.0)

    def test_segment_validation(self):
        with pytest.raises(ValidationError):
            Obstacle(0, 0, segments=((2.0, 0, 0), (2.0, 1, 0)))
        with pytest.raises(ValidationError):
            Obstacle(0, 0, segments=((-1.0, 0, 0),))
        for axes in ({"c1": 0.0}, {"c2": -1.0}):
            with pytest.raises(ValidationError, match="semi-axes"):
                Obstacle(0, 0, **axes)

    def test_moves_flag(self):
        assert not Obstacle(1, 1).moves()
        assert Obstacle(1, 1, vx=0.1).moves()
        assert Obstacle(1, 1, segments=((1.0, 0.5, 0.0),)).moves()


class TestSlottedObstacle:
    STILL = Obstacle(1.0, -2.0, c1=0.5)
    SEGMENTED = Obstacle(0.0, 1.0, vx=0.5, vy=-0.25, c2=2.0, segments=((1.5, 0.0, 1.0), (3.0, -1.0, 0.0)))
    TIMES = (0.0, 0.7, 1.5, 2.2, 3.0, 9.1)

    def test_no_instance_dict_and_frozen(self):
        for o in (self.STILL, self.SEGMENTED):
            assert not hasattr(o, "__dict__")
            with pytest.raises(AttributeError):
                o.cx = 2.0

    def test_equality_hash_and_repr_read_the_fields_alone(self):
        # the anchors __post_init__ works out take no part, as before slots
        assert repr(self.STILL) == "Obstacle(cx=1.0, cy=-2.0, vx=0.0, vy=0.0, c1=0.5, c2=1.0, segments=())"
        assert repr(self.SEGMENTED) == (
            "Obstacle(cx=0.0, cy=1.0, vx=0.5, vy=-0.25, c1=1.0, c2=2.0, "
            "segments=((1.5, 0.0, 1.0), (3.0, -1.0, 0.0)))"
        )
        for o in (self.STILL, self.SEGMENTED):
            values = (o.cx, o.cy, o.vx, o.vy, o.c1, o.c2, o.segments)
            assert o == Obstacle(*values) and hash(o) == hash(Obstacle(*values)) == hash(values)
            assert o != replace(o, c2=3.0)
        assert Obstacle.__match_args__ == ("cx", "cy", "vx", "vy", "c1", "c2", "segments")

    def test_replace_builds_the_motion_anew(self):
        o = replace(self.STILL, vx=1.0)
        assert not self.STILL.moves() and o.moves()
        assert o.state_at(2.0) == (3.0, -2.0, 1.0, 0.0)
        o = replace(self.SEGMENTED, segments=())
        assert o.state_at(4.0) == (2.0, 0.0, 0.5, -0.25)

    def test_pickle_and_deepcopy_keep_the_motion(self):
        for o in (self.STILL, self.SEGMENTED):
            for twin in (pickle.loads(pickle.dumps(o)), copy.deepcopy(o)):
                assert twin == o and not hasattr(twin, "__dict__")
                for t in self.TIMES:
                    assert [v.hex() for v in twin.state_at(t)] == [v.hex() for v in o.state_at(t)]

    def test_scenario_document_round_trip(self):
        sc = load_scenario(SCENARIO_DIR / "pointmass-retreat.json")
        assert any(o.segments for o in sc.obstacles)
        back = parse_scenario(scenario_to_dict(sc))
        assert back == sc
        for o, twin in zip(sc.obstacles, back.obstacles):
            assert [twin.state_at(t) for t in self.TIMES] == [o.state_at(t) for t in self.TIMES]


class TestRunScenario:
    def test_record_count_and_time_grid(self):
        sc = simple_scenario(duration=2.5, dt=0.01)
        log = run_scenario(sc)
        assert len(log.t) == int(2.5 / 0.01) + 1
        assert log.t[0] == 0.0
        for k in range(1, len(log.t)):
            assert log.t[k] == pytest.approx(k * 0.01, abs=1e-12)

    def test_obstacle_free_filter_silent(self):
        log = run_scenario(simple_scenario())
        assert all(us == ur for us, ur in zip(log.u_star, log.u_ref))
        assert abs(log.states[-1][3] - 1.5) < 1e-3
        assert classify_behavior(log) == ()
        m = safety_metrics(log)
        assert m.active_fraction == 0.0
        assert m.max_u_safe == 0.0

    def test_head_on_static_safe(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            obstacles=(Obstacle(8, 0.0),),
            duration=10.0,
        )
        log = run_scenario(sc)
        assert not log.collided
        m = safety_metrics(log)
        assert m.min_clearance_overall > 0

    def test_unfiltered_head_on_collides(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            obstacles=(Obstacle(8, 0.0),),
            duration=10.0,
            cbf="none",
        )
        log = run_scenario(sc)
        assert log.collided
        assert log.collision_obstacle == 0
        assert len(log.t) == log.collision_step + 1
        # h is still logged for diagnostics, but nothing activates
        assert all(not any(a) for a in log.active)

    def test_determinism_identical_logs(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            params=ModelParams(l=0.4, w=0.6),
            controller=ControllerSpec(kind="p", k1=2.0, k2=0.3, v_des=1.5),
            obstacles=(Obstacle(6, 0.2, c1=1.5, c2=1.5),),
            duration=6.0,
        )
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a.states == b.states
        assert a.u_star == b.u_star
        assert a.h == b.h

    def test_divergence_aborts_with_step(self):
        sc = simple_scenario(
            controller=ControllerSpec(kind="p", k1=1e155, k2=0.0, v_des=1e150),
            duration=1.0,
        )
        with pytest.raises(SimulationError) as err:
            run_scenario(sc)
        assert err.value.step is not None

    @pytest.mark.parametrize("radius", [math.inf, 2.0])
    def test_non_finite_reference_aborts_gated_or_not(self, radius):
        # k1 = 1e308 passes ControllerSpec but gives u_ref = (inf, 0.0) at
        # step 0; the filter refuses it on a gated step, the integrator on
        # an ungated one, and either way the run aborts at that step
        sc = load_scenario(SCENARIO_DIR / "pointmass-braking.json")
        sc = replace(
            sc,
            controller=ControllerSpec(kind="p", k1=1e308, k2=0.0, v_des=5.0, v_des_vec=(5.0, 0.0)),
            filter=replace(sc.filter, activation_radius=radius),
        )
        with pytest.raises(SimulationError) as err:
            run_scenario(sc)
        assert err.value.step == 0

    def test_speed_saturation(self):
        sc = simple_scenario(
            params=ModelParams(v_max=1.0),
            controller=ControllerSpec(kind="p", k1=5.0, k2=0.0, v_des=3.0),
        )
        log = run_scenario(sc)
        assert max(s[3] for s in log.states) <= 1.0 + 1e-12
        # a finite v_max alone switches integrate_step's cap on, and the
        # speed reaches it
        assert max(s[3] for s in log.states) == 1.0

    def test_pointmass_rejects_speed_saturation(self):
        # the point mass has no scalar speed state for v_max to clip
        sc = load_scenario(SCENARIO_DIR / "pointmass-braking.json")
        with pytest.raises(ValidationError, match="v_max"):
            replace(sc, params=replace(sc.params, v_max=1.0))

    def test_activation_gate_delays_filter(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            obstacles=(Obstacle(9, 0.0),),
            filter=FilterConfig(gamma=1.0, activation_radius=7.0),
            duration=10.0,
        )
        log = run_scenario(sc)
        first_active = next(k for k, a in enumerate(log.active) if any(a))
        assert log.dist[first_active - 1][0] > 7.0 >= log.dist[first_active][0]

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            simple_scenario(dt=-0.1)
        with pytest.raises(ValidationError):
            simple_scenario(duration=0.0)
        with pytest.raises(ValidationError):
            simple_scenario(cbf="nope")
        with pytest.raises(ValidationError):
            simple_scenario(initial_state=BicycleState(0, 0, 0, 0))
        with pytest.raises(ValidationError, match="unknown model kind 'tank'"):
            simple_scenario(model="tank")
        stanley = ControllerSpec(kind="stanley", path=ReferencePath(((0.0, 0.0), (1.0, 0.0))))
        with pytest.raises(ValidationError, match="bicycle-only"):
            simple_scenario(controller=stanley)
        with pytest.raises(ValidationError):
            # activation radius inside the effective radius
            simple_scenario(
                obstacles=(Obstacle(5, 0, c1=2.0, c2=2.0),),
                filter=FilterConfig(gamma=1.0, activation_radius=2.0),
            )
        with pytest.raises(ValidationError):
            # hocbf + moving obstacle + bicycle is invalid by construction
            Scenario(
                name="x", model="bicycle",
                params=ModelParams(beta_max=0.2),
                initial_state=BicycleState(0, 0, 0, 1),
                obstacles=(Obstacle(5, 0, vx=-1.0),),
                controller=ControllerSpec(kind="p", k1=1.0, v_des=1.0),
                filter=FilterConfig(gamma=1.0),
                dt=0.01, duration=1.0, cbf="hocbf",
            )

    @pytest.mark.parametrize("field,value", [
        ("dt", float("nan")),
        ("duration", float("nan")),
        ("duration", float("inf")),
        ("hocbf_gamma1", float("nan")),
        ("hocbf_gamma1", float("inf")),
        ("hocbf_gamma1", 0.0),
        ("hocbf_gamma1", -1.0),
        ("dt", "0.01"),
        ("hocbf_gamma1", "1"),
    ])
    def test_rejects_bad_numbers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            simple_scenario(**{field: value})

    def test_step_count_capped(self):
        assert simple_scenario(dt=0.5, duration=0.5 * MAX_STEPS).n_steps == MAX_STEPS
        with pytest.raises(ValidationError, match="MAX_STEPS"):
            simple_scenario(dt=0.5, duration=0.5 * (MAX_STEPS + 1))

    @pytest.mark.parametrize("gains", [
        {"k1": 0.0},
        {"k1": float("nan")},
        {"k2": -1.0},
        {"a_max": -1.0},
        {"a_max": 0.0},
        {"a_max": float("nan")},
        {"a_max": float("inf")},
        {"v_des": float("nan")},
        {"v_des": float("inf")},
        {"k_e": float("nan")},
        {"v_des_vec": (float("nan"), 0.0)},
        {"v_des_vec": (0.0, float("-inf"))},
    ])
    def test_controller_gains_checked_when_built(self, gains):
        with pytest.raises(ValidationError):
            ControllerSpec(kind="p", **gains)

    def test_infeasible_steps_logged_under_tight_bounds(self):
        # a box too small for the required correction loses the
        # feasibility guarantee; that shows up per step in the log
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            obstacles=(Obstacle(6, 0.0),),
            filter=FilterConfig(gamma=1.0, input_bounds=((-0.02, 0.02), (-0.02, 0.02))),
            duration=6.0,
        )
        log = run_scenario(sc)
        assert any(log.infeasible)
        assert max(abs(u[0]) for u in log.u_star) <= 0.02 + 1e-9

    def test_bicycle_slip_always_capped(self):
        sc = Scenario(
            name="cap", model="bicycle",
            params=ModelParams(l_f=1.0, l_r=1.0, w=0.6, beta_max=0.2),
            initial_state=BicycleState(0, 0, 0, 1.2),
            obstacles=(Obstacle(6, 0.4, c1=1.0, c2=1.0),),
            controller=ControllerSpec(kind="p", k1=2.0, v_des=1.2),
            filter=FilterConfig(gamma=1.0),
            dt=0.01, duration=8.0,
        )
        log = run_scenario(sc)
        assert safety_metrics(log).max_abs_beta <= 0.2 + 1e-12

    def test_ellipse_and_hocbf_kinds_run(self):
        # baselines are runnable even if not safe: ellipse has no input
        # authority for the unicycle, so it must stay degenerate
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.0, 0),
            obstacles=(Obstacle(30, 0.0),),
            duration=1.0,
            cbf="ellipse",
        )
        log = run_scenario(sc)
        assert all(us == ur for us, ur in zip(log.u_star, log.u_ref))
        sc2 = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.0, 0),
            obstacles=(Obstacle(10, 0.0),),
            duration=5.0,
            cbf="hocbf",
            hocbf_gamma1=1.0,
        )
        log2 = run_scenario(sc2)
        assert not log2.collided

    def test_degenerate_persistence_aborts(self):
        # ellipse barrier on the unicycle: violated constraint with zero
        # input column stays degenerate until the step budget trips
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            obstacles=(Obstacle(40, 0.0, c1=30.0, c2=30.0),),
            filter=FilterConfig(gamma=0.001),
            duration=60.0,
            dt=0.01,
            cbf="ellipse",
        )
        with pytest.raises(SimulationError):
            run_scenario(sc)


class TestReferenceInput:
    """The u_ref the engine logs is reference_input's: the controller law,
    then a_max."""

    @staticmethod
    def first_u_ref(model, state, controller, params=ModelParams(w=0.6)):
        sc = simple_scenario(model=model, params=params, initial_state=state,
                             controller=controller, cbf="none", duration=0.01)
        return run_scenario(sc).u_ref[0]

    @pytest.mark.parametrize("v,a", [(0.0, 2.0), (6.0, -2.0)])
    def test_a_max_clamps_unicycle_thrust_only(self, v, a):
        # alpha = -k2 omega = -10 lies outside [-a_max, a_max] and is kept
        spec = ControllerSpec(kind="p", k1=5.0, k2=10.0, v_des=3.0, a_max=2.0)
        assert self.first_u_ref("unicycle", UnicycleState(0, 0, 0, v, 1.0), spec) == (a, -10.0)

    @pytest.mark.parametrize("v,a", [(0.0, 0.05), (6.0, -0.05)])
    def test_a_max_clamps_bicycle_thrust_only(self, v, a):
        params = ModelParams(w=0.6, beta_max=0.3)
        path = ReferencePath(((0.0, 5.0), (50.0, 5.0)))
        spec = ControllerSpec(kind="stanley", k1=5.0, v_des=3.0, k_e=1.0, path=path, a_max=0.05)
        state = BicycleState(0, 0, 0, v)
        beta = stanley_lateral(state, path, 1.0, params)
        assert beta > 0.05  # outside [-a_max, a_max], and kept
        assert self.first_u_ref("bicycle", state, spec, params) == (a, beta)

    def test_a_max_clamps_both_pointmass_components(self):
        spec = ControllerSpec(kind="p", k1=5.0, v_des_vec=(3.0, -3.0), a_max=2.0)
        assert self.first_u_ref("pointmass", PointMassState(0, 0, 0, 0), spec) == (2.0, -2.0)

    @pytest.mark.parametrize("model,state", [
        ("unicycle", UnicycleState(0, 0, 0, 1.0, 0.5)),
        ("bicycle", BicycleState(0, 0, 0, 1.0)),
        ("pointmass", PointMassState(0, 0, 1.0, -1.0)),
    ])
    def test_zero_controller(self, model, state):
        assert self.first_u_ref(model, state, ControllerSpec(kind="zero")) == (0.0, 0.0)

    @pytest.mark.parametrize("v", [0.0, 3.0])
    def test_unfiltered_run_saturates_to_the_box(self, v):
        # with cbf 'none' the box saturates u_ref: thrust from above (v = 0)
        # or below (v = 3), yaw acceleration on its finite lower side
        (lo0, hi0), (lo1, hi1) = bounds = ((-0.5, 0.5), (-0.2, math.inf))
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, v, 1.0),
            controller=ControllerSpec(kind="p", k1=2.0, k2=1.0, v_des=1.5),
            obstacles=(Obstacle(8, 0.0),),
            filter=FilterConfig(gamma=1.0, input_bounds=bounds),
            duration=3.0,
            cbf="none",
        )
        log = run_scenario(sc)
        assert log.u_star == [
            (min(max(a, lo0), hi0), min(max(alpha, lo1), hi1)) for a, alpha in log.u_ref
        ]
        assert any(not lo0 <= a <= hi0 for a, _ in log.u_ref)
        assert min(alpha for _, alpha in log.u_ref) < lo1

    def test_bicycle_slip_bounds_within_beta_max(self):
        kw = dict(
            name="slip", model="bicycle", params=ModelParams(w=0.6, beta_max=0.2),
            initial_state=BicycleState(0, 0, 0, 1.0), obstacles=(),
            controller=ControllerSpec(kind="p", k1=1.0, v_des=1.0),
        )
        Scenario(filter=FilterConfig(input_bounds=((-1.0, 1.0), (-0.2, 0.2))), **kw)
        with pytest.raises(ValidationError, match="beta_max"):
            Scenario(filter=FilterConfig(input_bounds=((-1.0, 1.0), (-0.2, 0.25))), **kw)


class TestRunFilter:
    """Scenario.run_filter: the FilterConfig a run applies."""

    BICYCLE = dict(
        name="slip", model="bicycle", params=ModelParams(w=0.6, beta_max=0.2),
        initial_state=BicycleState(0, 0, 0, 1.0), obstacles=(),
        controller=ControllerSpec(kind="p", k1=1.0, v_des=1.0),
    )

    def test_bicycle_gets_the_default_slip_box(self):
        sc = Scenario(filter=FilterConfig(gamma=2.0, activation_radius=9.0), **self.BICYCLE)
        assert sc.run_filter == replace(sc.filter, input_bounds=((-math.inf, math.inf), (-0.2, 0.2)))
        # worked out anew when the scenario is rebuilt
        narrow = replace(sc, params=ModelParams(w=0.6, beta_max=0.1))
        assert narrow.run_filter.input_bounds == ((-math.inf, math.inf), (-0.1, 0.1))

    def test_bicycle_keeps_explicit_bounds(self):
        sc = Scenario(filter=FilterConfig(input_bounds=((-1.0, 1.0), (-0.1, 0.2))), **self.BICYCLE)
        assert sc.run_filter is sc.filter

    @pytest.mark.parametrize("bounds", [None, ((-1.0, 1.0), (-1.0, 1.0))])
    @pytest.mark.parametrize("stem", ["unicycle-braking", "pointmass-braking"])
    def test_other_models_get_their_filter(self, stem, bounds):
        sc = load_scenario(SCENARIO_DIR / f"{stem}.json")
        sc = replace(sc, filter=replace(sc.filter, input_bounds=bounds))
        assert sc.run_filter is sc.filter

    def test_not_a_field_of_the_document(self):
        sc = Scenario(filter=FilterConfig(), **self.BICYCLE)
        assert "run_filter" not in scenario_to_dict(sc)["filter"]
        assert parse_scenario(scenario_to_dict(sc)) == sc


def public_tick_run(sc, cfg, log):
    """Run `sc` through the public tick under `cfg`, as a vehicle would run
    it: reference_input, c3bf_eval per obstacle, filter_qp, integrate_step.
    Each step appends (t, state, u_ref, u_star, psi) to `log`."""
    state = sc.initial_state
    for k in range(sc.n_steps + 1):
        t = k * sc.dt
        u_ref = reference_input(sc.controller, sc.model, state, sc.params)
        evals = [c3bf_eval(sc.model, state, o, sc.params, t) for o in sc.obstacles]
        res = filter_qp(u_ref, evals, cfg)
        log.append((t, state.as_tuple(), u_ref, res.u_star, res.psi))
        if k < sc.n_steps:
            state = integrate_step(sc.model, state, res.u_star, sc.dt, sc.params)


class TestPublicTick:
    """The engine's step is the public tick, bit for bit."""

    @staticmethod
    def assert_same_as_engine(sc):
        log = run_scenario(sc)
        assert not log.collided
        ticks = []
        public_tick_run(sc, sc.run_filter, ticks)
        assert [tuple(col) for col in zip(*ticks)] == [
            tuple(log.t), tuple(log.states), tuple(log.u_ref), tuple(log.u_star), tuple(log.psi)
        ]

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_filtered_corpus_run(self, path):
        sc = load_scenario(path)
        assert sc.cbf == "c3bf"
        self.assert_same_as_engine(sc)

    def test_bicycle_needs_the_run_filter(self):
        sc = Scenario(
            name="slip", model="bicycle", params=ModelParams(w=0.6, beta_max=0.2),
            initial_state=BicycleState(0, 0, 0, 2.0), obstacles=(Obstacle(6, 0.3),),
            controller=ControllerSpec(kind="p", k1=1.0, v_des=2.0),
            filter=FilterConfig(gamma=5.0), dt=0.01, duration=4.0,
        )
        self.assert_same_as_engine(sc)
        # without the slip box the filter asks for more slip than the
        # small-slip model allows, and the integrator refuses step 0
        ticks = []
        with pytest.raises(ValidationError, match="beta_max"):
            public_tick_run(sc, sc.filter, ticks)
        assert len(ticks) == 1 and abs(ticks[0][3][1]) > 0.2


class TestClassifyAndMetrics:
    def test_pointmass_target_velocity_read_once(self):
        # v_des alone means a target velocity of (v_des, 0): the controller,
        # the target speed and the initial heading all read it the same way
        runs = []
        for spec in (ControllerSpec(kind="p", k1=2.0, v_des=-2.0),
                     ControllerSpec(kind="p", k1=2.0, v_des_vec=(-2.0, 0.0))):
            sc = Scenario(
                name="rest", model="pointmass", params=ModelParams(w=0.6),
                initial_state=PointMassState(0, 0, 0, 0), obstacles=(),
                controller=spec, filter=FilterConfig(gamma=1.0), dt=0.01, duration=3.0,
            )
            runs.append(run_scenario(sc))
        a, b = runs
        assert a.states == b.states
        assert classify_behavior(a) == classify_behavior(b) == ()

    def test_zero_controller_never_braking(self):
        # the filter stops the vehicle, but a zero controller's target
        # speed reads as 0, so no braking label is possible
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            controller=ControllerSpec(kind="zero"),
            obstacles=(Obstacle(6, 0.0),),
            duration=10.0,
        )
        log = run_scenario(sc)
        assert not log.collided
        assert min(s[3] for s in log.states) < engine.BRAKE_SPEED_FRACTION * 1.5
        assert classify_behavior(log) == ()

    def test_reversing_label(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 0.5, 0),
            controller=ControllerSpec(kind="p", k1=2.0, k2=1.0, v_des=0.5),
            obstacles=(Obstacle(10, 0.0, vx=-1.2, segments=((6.0, 0.0, 0.0),)),),
            duration=10.0,
        )
        log = run_scenario(sc)
        assert "reversing" in classify_behavior(log)

    def test_overtaking_reads_each_moving_obstacle_twice(self, monkeypatch):
        # the label needs the along-track sign at the first and last step only
        log = run_scenario(load_scenario(SCENARIO_DIR / "unicycle-overtaking.json"))
        moving = [o for o in log.scenario.obstacles if o.moves()]
        reads = []
        state_at = Obstacle.state_at
        monkeypatch.setattr(Obstacle, "state_at", lambda o, t: reads.append(o) or state_at(o, t))
        assert classify_behavior(log) == ("turning", "overtaking")
        assert moving and all(o.moves() for o in reads)
        assert all(reads.count(o) <= 2 for o in moving)

    @pytest.mark.parametrize("model", ["unicycle", "bicycle"])
    def test_empty_log(self, model):
        # a log with no record: no label, no clearance, no filter effort
        kw = {"initial_state": UnicycleState(0, 0, 0, 1.0, 0)}
        if model == "bicycle":
            kw = {"model": "bicycle", "initial_state": BicycleState(0, 0, 0, 1.0)}
        log = engine.TrajectoryLog(simple_scenario(obstacles=(Obstacle(8, 0.0),), **kw))
        assert classify_behavior(log) == ()
        m = safety_metrics(log)
        assert m.min_clearance == ()
        assert m.min_clearance_overall == m.min_h == math.inf
        assert m.active_fraction == m.max_u_safe == 0.0
        assert m.max_abs_beta == (0.0 if model == "bicycle" else None)

    def test_metrics_fields(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.5, 0),
            obstacles=(Obstacle(8, 0.0), Obstacle(20, 5.0)),
            duration=10.0,
        )
        log = run_scenario(sc)
        m = safety_metrics(log)
        assert len(m.min_clearance) == 2
        assert m.min_clearance_overall == min(m.min_clearance)
        assert 0 < m.active_fraction <= 1
        assert m.max_u_safe > 0
        assert m.max_abs_beta is None


class TestCorpus:
    """The shipped scenario corpus stays safe and correctly labeled."""

    def test_corpus_size(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 12

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("unicycle-turning", "turning"),
            ("unicycle-braking", "braking"),
            ("unicycle-reversing", "reversing"),
            ("unicycle-overtaking", "overtaking"),
        ],
    )
    def test_canonical_labels(self, name, expected):
        log = run_scenario(load_scenario(SCENARIO_DIR / f"{name}.json"))
        assert not log.collided
        assert expected in classify_behavior(log)

    def test_all_corpus_scenarios_safe(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            log = run_scenario(load_scenario(path))
            assert not log.collided, path.name
            assert safety_metrics(log).min_clearance_overall > 0, path.name

    def test_unfiltered_baselines_collide(self):
        for path in sorted((SCENARIO_DIR / "baseline").glob("*.json")):
            log = run_scenario(load_scenario(path))
            assert log.collided, path.name

    @pytest.mark.parametrize("name,cbf,digest", [
        # segmented obstacle; 1001 steps, 417 of them with the filter active
        ("pointmass-retreat", "hocbf",
         "c4b586a94e225e3e43aaca9e51e574baa9ff744187f6faa70f7e318211245918"),
        # moving obstacle; 1401 steps, 61 of them with the filter active
        ("bicycle-crossing", "ellipse",
         "8117fce6b32cf9ad566799207ab8b25e782bf9fbe3f3fdbc780b89c46721f726"),
        # 2401 steps, 989 of them with the filter active
        ("unicycle-crossing", "hocbf",
         "ee0ea2b81ff59526ac97bea2f7e84def066704ae008ac32596dfb41a26db6ce1"),
        # 657 steps, 480 of them with the filter active; collides
        ("bicycle-braking", "hocbf",
         "7b353455c582d8a608e0399d4d3488ecd3d6c49cf2d57f9690368e0ab050ea9b"),
        # 1401 steps; no input column, so the filter never acts
        ("pointmass-crossing", "ellipse",
         "6b1b11f8652f17f8332347994c3160c00ab410428d9d928ab502da5b0659cce0"),
        # 515 steps; no input column, so the filter never acts; collides
        ("unicycle-braking", "ellipse",
         "0b44c642953850f0b74428f9cbde95b57f7b892184cde445572454e347050104"),
    ])
    def test_baseline_barrier_trajectory_digest(self, tmp_path, name, cbf, digest):
        # the corpus runs only the cone barrier; pin one run of each baseline
        sc = replace(load_scenario(SCENARIO_DIR / f"{name}.json"), cbf=cbf)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(run_scenario(sc), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestTickRecords:
    def test_no_named_tuple_constructor_call_in_a_run(self, monkeypatch):
        # the barrier kernels and the filters build their records with
        # tuple.__new__: the named tuples' own constructors, one Python frame
        # per record, must not run on the tick
        calls = []
        for record in (CbfEvaluation, FilterResult):
            def counted(cls, *args, _new=record.__new__, **kwargs):
                calls.append(cls.__name__)
                return _new(cls, *args, **kwargs)

            monkeypatch.setattr(record, "__new__", counted)
        # the patched constructors count
        CbfEvaluation(0.0, 0.0, (0.0, 0.0), False, 1.0)
        FilterResult((0.0, 0.0), (0.0, 0.0))
        assert calls == ["CbfEvaluation", "FilterResult"]
        calls.clear()
        log = run_scenario(load_scenario(SCENARIO_DIR / "unicycle-two-obstacles.json"))
        assert len(log.t) == 1601 and len(log.h[0]) == 2
        assert calls == []


class TestCallPaths:
    # perfbench's StepClock and tracer see the engine's work by swapping the
    # module-level names in conecbf.engine; a function bound at import time
    # (or called through another name) would hide steps from them
    NAMES = ("integrate_step", "c3bf_eval", "ellipse_cbf_eval", "hocbf_eval", "filter_qp")

    # SHA-256 of the run's trajectory CSV per cbf kind: where the gate runs
    # must not change the log; c3bf and none agree, since the filter never
    # binds in this one second
    CSV_SHA256 = {
        "c3bf": "6bc804dc467278d771c8455a7a267bd8058e0e01198b214429b15a7a22726e69",
        "ellipse": "6bae8c8cec5fb610938bcd6512721168f827a1b7ee5fd81190625249a4e298aa",
        "hocbf": "0ee5460c0331f337c660f3ec85f6a948030b6bd7db30ced2d0799c2bbc8a4e38",
        "none": "6bc804dc467278d771c8455a7a267bd8058e0e01198b214429b15a7a22726e69",
    }

    @pytest.mark.parametrize("cbf", ["c3bf", "ellipse", "hocbf", "none"])
    def test_every_call_goes_through_the_module_names(self, monkeypatch, tmp_path, cbf):
        calls = dict.fromkeys(self.NAMES, 0)

        def counted(name):
            original = getattr(engine, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in self.NAMES:
            monkeypatch.setattr(engine, name, counted(name))
        radius = 6.5
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 1.0, 0),
            # one obstacle at rest, one moving through two segments
            obstacles=(Obstacle(7, 1.5), Obstacle(7.5, -2.0, vy=0.4, segments=((0.5, 0.0, 0.8),))),
            filter=FilterConfig(gamma=1.0, activation_radius=radius),
            dt=0.02,
            duration=1.0,
            cbf=cbf,
        )
        log = run_scenario(sc)
        assert not log.collided and len(log.t) == sc.n_steps + 1
        barrier = {"ellipse": "ellipse_cbf_eval", "hocbf": "hocbf_eval"}.get(cbf, "c3bf_eval")
        gated = [sum(1 for d in row if d <= radius) for row in log.dist]
        # early steps gate nothing, later ones one obstacle, the last both
        assert 0 in gated and 1 in gated and 2 in gated
        # a filtering run hands every step's evaluations to the filter,
        # which gates them itself
        assert calls == {
            **dict.fromkeys(self.NAMES, 0),
            "integrate_step": sc.n_steps,
            barrier: (sc.n_steps + 1) * 2,
            "filter_qp": 0 if cbf == "none" else sc.n_steps + 1,
        }
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(log, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.CSV_SHA256[cbf]
