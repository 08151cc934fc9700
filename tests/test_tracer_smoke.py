"""Smoke test of the benchmark's tracer (perfbench/tracer.py).

The tracer wraps conecbf functions by module and attribute name, so a
renamed or re-signed function would otherwise fail only when the
benchmark runs.
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import conecbf  # noqa: E402
import conecbf._backend  # noqa: E402
import conecbf.cli  # noqa: E402  (the tracer wraps cli.cmd_batch too)
import tracer  # noqa: E402
from conecbf import load_scenario  # noqa: E402

SCENARIO_DIR = ROOT / "scenarios"


def _targets():
    """(owner, attribute, original) of every function the tracer wraps."""
    out = []
    for targets in tracer.SPANS.values():
        for modname, attr in targets:
            owner = conecbf._backend.kernel if modname == "kernel" else sys.modules[modname]
            out.append((owner, attr, getattr(owner, attr)))
    return out


def test_tracer_counts_the_step_and_restores_the_originals():
    scenes = [
        replace(load_scenario(SCENARIO_DIR / f"{model}-braking.json"), duration=0.1)
        for model in ("unicycle", "bicycle", "pointmass")
    ]
    originals = _targets()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        logs = [conecbf.engine.run_scenario(sc) for sc in scenes]
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    calls = t.snapshot()["calls"]
    steps = sum(len(log) for log in logs)
    obstacle_steps = sum(len(log) * len(log.scenario.obstacles) for log in logs)
    assert steps == 3 * 11 and obstacle_steps > 0
    # one reference law and one cone barrier per obstacle per step
    assert calls["controllers.reference"] == steps
    assert calls["cbf.c3bf_eval"] == obstacle_steps
    assert calls["kernel.c3bf"] == obstacle_steps
    assert calls["engine.run_scenario"] == 3
