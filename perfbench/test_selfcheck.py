"""Self-checks of the benchmark: python3 -m pytest perfbench"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import conecbf  # noqa: E402
import crowd  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_crowd_generator_is_deterministic_per_seed():
    assert crowd.crowd_documents(7) == crowd.crowd_documents(7)
    assert crowd.crowd_documents(7) != crowd.crowd_documents(8)


def test_crowd_scenes_pass_parse_scenario():
    for seed in (1, 2, 99):
        docs = crowd.crowd_documents(seed)
        scenes = [conecbf.parse_scenario(doc, name=doc["name"]) for doc in docs]
        assert [sc.model for sc in scenes] == ["unicycle", "bicycle", "pointmass"]
        for sc in scenes:
            assert len(sc.obstacles) == 24
            assert all(o.moves() and len(o.segments) == 3 for o in sc.obstacles)
            assert sc.filter.activation_radius == 8.0
            assert (sc.dt, sc.duration) == (0.01, 20.0)


def test_default_seed_runs_collision_free_and_matches_reference():
    w = workloads.Crowd(workloads.DEFAULT_CROWD_SEED)
    _, check = w.pipeline_pass()
    assert check.failed == 0, check.errors
    assert check.attempted == 3
    assert workloads.check_setup(w).failed == 0


def test_replay_reproduces_logged_inputs():
    w = workloads.Crowd(workloads.DEFAULT_CROWD_SEED)
    latencies = []
    check = w.replay_pass(latencies)
    assert check.failed == 0, check.errors[:3]
    assert len(latencies) == check.attempted == len(w.ticks) == 3 * 2001


def test_metric_names_and_units():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def test_traced_metrics_match_benchmark_json():
    reported = tracer.layer_metrics(tracer.Tracer(), 1)
    reported.update(tracer.fixed_input_metrics(n=10))
    reported.update(dict.fromkeys(
        ("filter_step_p99_us", "trace.overhead_pct", "trace.untraced_us_per_step",
         "trace.traced_us_per_step")))
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(reported) == declared
