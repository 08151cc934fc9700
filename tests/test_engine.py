"""Closed-loop engine: determinism, verdicts, labels, metrics."""

import copy
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

import pytest

from conecbf import (
    BicycleState,
    FilterConfig,
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
    effective_radius,
    filter_qp,
    integrate_step,
    load_scenario,
    reference_input,
    run_scenario,
    safety_metrics,
)
import conecbf.engine as engine
from conecbf.engine import MAX_STEPS, ControllerSpec
from conecbf.scenario_io import parse_scenario, scenario_to_dict, summarize, write_trajectory_csv

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


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
        # one pass checks each start against the previous one, from 0.0
        for segments in (((0.0, 1, 0),), ((-0.0, 1, 0),), ((-1.0, 0, 0),), ((2.0, 0, 0), (2.0, 1, 0)),
                         ((2.0, 1, 0), (1.0, 0, 0)), ((1.0, 1, 0), (3.0, 0, 0), (2.0, 0, 1))):
            with pytest.raises(ValidationError, match="strictly increasing"):
                Obstacle(0, 0, segments=segments)

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

    def test_anchors_only_with_segments(self):
        assert self.STILL._anchors == () and Obstacle(0.0, 0.0, vx=1.0)._anchors == ()
        assert [a[0] for a in self.SEGMENTED._anchors] == [3.0, 1.5]

    def test_state_at_keeps_the_anchor_rule_bits(self):
        # the rule of an anchor at t = 0 plus one per segment start, bisected
        # over the start times, gives the same bits at 0.0, at each start and
        # one ulp either side of it
        o = Obstacle(0.1, -0.3, vx=0.7, vy=-0.11,
                     segments=((0.3, 0.13, 1.0 / 3), (1.1, -2.9, 0.0), (2.7, 0.0, 0.05)))
        anchors = [(0.0, o.cx, o.cy, o.vx, o.vy)]
        for t, v0, v1 in o.segments:
            t0, x0, y0, vx0, vy0 = anchors[-1]
            anchors.append((t, x0 + vx0 * (t - t0), y0 + vy0 * (t - t0), v0, v1))
        times = [a[0] for a in anchors]

        def anchor_rule(t):
            t0, x0, y0, vx, vy = anchors[bisect_right(times, t) - 1]
            return (x0 + vx * (t - t0), y0 + vy * (t - t0), vx, vy)

        probes = [0.0, math.nextafter(0.0, 1.0)]
        for t, _, _ in o.segments:
            probes += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
        for t in probes:
            assert [v.hex() for v in o.state_at(t)] == [v.hex() for v in anchor_rule(t)], t

    @pytest.mark.parametrize("o,moves", [
        (Obstacle(1.0, 1.0), False),
        (Obstacle(1.0, 1.0, vx=-0.0, vy=-0.0), False),
        (Obstacle(1.0, 1.0, segments=((1.0, 0.0, 0.0), (2.0, -0.0, 0.0))), False),
        (Obstacle(1.0, 1.0, vy=0.2), True),
        (Obstacle(1.0, 1.0, segments=((1.0, 0.0, 0.3),)), True),
        (Obstacle(1.0, 1.0, vx=0.5, segments=((1.0, 0.0, 0.0),)), True),
    ], ids=["still", "still-signed-zeros", "parked", "moving", "parked-then-moving", "moving-then-parked"])
    def test_moves_reads_the_fields_and_segments(self, o, moves):
        assert o.moves() is moves

    # measured in a fresh interpreter: in a long session, free lists that
    # earlier tests filled serve some of the objects untraced
    FOOTPRINT = """
import sys, tracemalloc
from conecbf import Obstacle
n = 1000
still = [(float(i), -float(i), 0.5, 0.25, 0.5, 0.75) for i in range(n)]
segmented = [(*args, ((1.5, 0.0, 1.0), (3.0, -1.0, 0.0))) for args in still]
for inputs in (still, segmented):
    [Obstacle(*args) for args in inputs[:5]]
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    obstacles = [Obstacle(*args) for args in inputs]
    grown = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    o = obstacles[0]
    held = sys.getsizeof(o)
    if o._anchors:
        # the frozen copy of the segments (a new tuple of the caller's rows),
        # and the tuple of anchors, each with its new x and y
        held += sys.getsizeof(o.segments) + sys.getsizeof(o._anchors)
        held += sum(sys.getsizeof(a) + 2 * sys.getsizeof(0.5) for a in o._anchors)
    print(grown, n * held + sys.getsizeof(obstacles) + 1024)
"""

    def test_footprint_is_the_object_alone(self):
        # 1,000 obstacles without segments allocate the objects and nothing
        # else beyond their inputs and the list that keeps them (with 1 KiB
        # for the interpreter's own bookkeeping): a derived table per
        # obstacle would show here; a segmented obstacle adds its anchors
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).resolve().parent.parent)}
        run = subprocess.run([sys.executable, "-c", self.FOOTPRINT], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        measured = [tuple(map(int, line.split())) for line in run.stdout.splitlines()]
        assert len(measured) == 2 and all(grown <= bound for grown, bound in measured), measured

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

    def test_divergence_aborts_with_step(self):
        sc = simple_scenario(
            controller=ControllerSpec(kind="p", k1=1e155, k2=0.0, v_des=1e150),
            duration=1.0,
        )
        with pytest.raises(SimulationError) as err:
            run_scenario(sc)
        assert err.value.step is not None

    @pytest.mark.parametrize("radius,cbf,bounds", [
        pytest.param(math.inf, "c3bf", None, id="inf"),
        pytest.param(2.0, "c3bf", None, id="2.0"),
        pytest.param(math.inf, "none", None, id="none-inf"),
        pytest.param(math.inf, "none", ((-1.0, 1.0), (-1.0, 1.0)), id="none-boxed"),
    ])
    def test_non_finite_reference_aborts_gated_or_not(self, radius, cbf, bounds):
        # k1 = 1e308 passes ControllerSpec but gives u_ref = (inf, 0.0) at
        # step 0; the filter's rule refuses it, whether the obstacle is
        # gated or not and whether the run filters or not, so the run
        # aborts at that step; a box does not saturate it into a command
        sc = load_scenario(SCENARIO_DIR / "pointmass-braking.json")
        sc = replace(
            sc,
            controller=ControllerSpec(kind="p", k1=1e308, k2=0.0, v_des=5.0, v_des_vec=(5.0, 0.0)),
            filter=replace(sc.filter, activation_radius=radius, input_bounds=bounds),
            cbf=cbf,
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
        # the rules across fields; tests/test_contract.py holds each field's own
        stanley = ControllerSpec(kind="stanley", path=ReferencePath(((0.0, 0.0), (1.0, 0.0))))
        with pytest.raises(ValidationError, match="bicycle-only"):
            simple_scenario(controller=stanley)
        with pytest.raises(ValidationError, match="^activation_radius 2.0 must exceed effective radius 2.3"):
            simple_scenario(
                obstacles=(Obstacle(5, 0, c1=2.0, c2=2.0),),
                filter=FilterConfig(gamma=1.0, activation_radius=2.0),
            )

    def test_step_count_capped(self):
        assert simple_scenario(dt=0.5, duration=0.5 * MAX_STEPS).n_steps == MAX_STEPS
        with pytest.raises(ValidationError, match="MAX_STEPS"):
            simple_scenario(dt=0.5, duration=0.5 * (MAX_STEPS + 1))

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
    """The input box and beta_max around the logged u_ref. That the engine
    logs reference_input's output is TestPublicTick's to check, and the
    controller laws and a_max are test_controllers.py's."""

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


class TestRadii:
    """Scenario.radii: the effective radius of each obstacle, worked out once."""

    OBSTACLES = (Obstacle(6, 0.5), Obstacle(9, -1.0, c1=1.5, c2=0.4, vy=0.3))

    def test_each_obstacles_effective_radius_in_order(self):
        sc = simple_scenario(obstacles=self.OBSTACLES)
        assert sc.radii == tuple(effective_radius(o, sc.params) for o in self.OBSTACLES) == (1.3, 1.8)
        assert simple_scenario().radii == ()
        # worked out anew when the scenario is rebuilt
        assert replace(sc, params=ModelParams(w=1.0)).radii == (1.5, 2.0)

    def test_not_a_field(self):
        sc = simple_scenario(obstacles=self.OBSTACLES)
        assert "radii" not in scenario_to_dict(sc)
        rebuilt = parse_scenario(scenario_to_dict(sc))
        assert rebuilt == sc and hash(rebuilt) == hash(sc) and rebuilt.radii == sc.radii

    def test_every_reader_takes_the_scenarios_radii(self):
        # radii set apart from the obstacles' own show that the collision
        # limits, the metrics and the summary read them, not effective_radius
        sc = simple_scenario(obstacles=self.OBSTACLES, duration=0.5)
        object.__setattr__(sc, "radii", (0.25, 0.5))
        log = run_scenario(sc)
        assert not log.collided
        assert summarize(log)["effective_radii"] == [0.25, 0.5]
        per_obs = tuple(min(col) - r for col, r in zip(zip(*log.dist), (0.25, 0.5)))
        assert safety_metrics(log).min_clearance == per_obs
        # the first obstacle lies 6 m away, within a radius of 10 m
        object.__setattr__(sc, "radii", (10.0, 0.5))
        log = run_scenario(sc)
        assert (log.collided, log.collision_step, log.collision_obstacle) == (True, 0, 0)


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

    def test_readme_loop_as_written(self, monkeypatch):
        # the README's one python block, run as written from the repo root,
        # ends on the state that run_scenario logs last
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (code,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
        monkeypatch.chdir(ROOT)
        ns = {}
        exec(code, ns)
        log = run_scenario(ns["sc"])
        assert not log.collided
        assert ns["state"].as_tuple() == log.states[-1]


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
    """The shipped scenario corpus, and its runs under the baseline
    barriers. The golden summary digests pin each corpus run's collision
    verdict and clearances, and acceptance criterion 7 its labels."""

    def test_corpus_size(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) >= 12

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
