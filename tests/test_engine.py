"""Closed-loop engine: determinism, verdicts, labels, metrics."""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from conecbf import (
    BicycleState,
    FilterConfig,
    ModelParams,
    Obstacle,
    Scenario,
    SimulationError,
    UnicycleState,
    ValidationError,
    classify_behavior,
    load_scenario,
    run_scenario,
    safety_metrics,
)
from conecbf.engine import MAX_STEPS, ControllerSpec
from conecbf.scenario_io import write_trajectory_csv

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

    def test_moves_flag(self):
        assert not Obstacle(1, 1).moves()
        assert Obstacle(1, 1, vx=0.1).moves()
        assert Obstacle(1, 1, segments=((1.0, 0.5, 0.0),)).moves()


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

    def test_speed_saturation(self):
        sc = simple_scenario(
            params=ModelParams(v_max=1.0),
            controller=ControllerSpec(kind="p", k1=5.0, k2=0.0, v_des=3.0),
            saturate_speed=True,
        )
        log = run_scenario(sc)
        assert max(s[3] for s in log.states) <= 1.0 + 1e-12

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


class TestClassifyAndMetrics:
    def test_reversing_label(self):
        sc = simple_scenario(
            initial_state=UnicycleState(0, 0, 0, 0.5, 0),
            controller=ControllerSpec(kind="p", k1=2.0, k2=1.0, v_des=0.5),
            obstacles=(Obstacle(10, 0.0, vx=-1.2, segments=((6.0, 0.0, 0.0),)),),
            duration=10.0,
        )
        log = run_scenario(sc)
        assert "reversing" in classify_behavior(log)

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
    ])
    def test_baseline_barrier_trajectory_digest(self, tmp_path, name, cbf, digest):
        # the corpus runs only the cone barrier; pin one run of each baseline
        sc = replace(load_scenario(SCENARIO_DIR / f"{name}.json"), cbf=cbf)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(run_scenario(sc), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
