"""A deterministic ledger of the Python frames an engine run makes.

Timing cannot see a cost of tens of nanoseconds per call on a shared
host, but the number of calls a run makes is exact. The test counts the
`call` events of `sys.setprofile` per function while `run_scenario` runs
a fixed subset of the corpus, and compares them with LEDGER. A change
that adds or removes a frame on the tick changes a count here, and
updates the table with the old and new figures stated.

Comprehension frames are left out: Python 3.12 inlines list, dict and
set comprehensions (PEP 709), and the counts are the same on 3.10 to
3.12 without them. Builtin calls (`c_call`) are not counted, and the
garbage collector is off while the runs are counted.

    PYTHONPATH=src python tests/test_ledger.py

prints the counts of the current tree in LEDGER's layout.
"""

import gc
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from conecbf import load_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# the runs counted, as (scenario file, barrier kind or None for the file's
# own): every model, every barrier kind, two obstacles, the Stanley
# tracker, the bicycle's slip box, runs to the end and runs that collide
RUNS = (
    ("unicycle-two-obstacles.json", None),
    ("bicycle-path-yield.json", None),
    ("pointmass-braking.json", "hocbf"),
    ("bicycle-braking.json", "ellipse"),
    ("baseline/unicycle-braking-unfiltered.json", None),
)

# frames that Python 3.12 no longer makes
INLINED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))

# records the runs log, one per step: 1601 + 2001 + 657 + 448 + 515
STEPS = 5222

# Python frames per function over RUNS, keyed "module:function", a method
# by the class of its `self`
LEDGER = {
    "conecbf._pykernel:_cone_terms": 5718,
    "conecbf._pykernel:_ellipse_terms": 448,
    "conecbf._pykernel:_hocbf_terms": 657,
    "conecbf._pykernel:_unmet": 10490,
    "conecbf._pykernel:c3bf_bicycle": 2001,
    "conecbf._pykernel:c3bf_unicycle": 3717,
    "conecbf._pykernel:ellipse_bicycle": 448,
    "conecbf._pykernel:hocbf_pointmass": 657,
    "conecbf._pykernel:rk4_bicycle": 2447,
    "conecbf._pykernel:rk4_pointmass": 656,
    "conecbf._pykernel:rk4_unicycle": 2114,
    "conecbf._pykernel:solve_qp2": 4707,
    "conecbf._pykernel:wrap_angle": 6562,
    "conecbf.cbf:Obstacle.state_at": 6823,
    "conecbf.cbf:_radius": 5718,
    "conecbf.cbf:c3bf_eval": 5718,
    "conecbf.cbf:ellipse_cbf_eval": 448,
    "conecbf.cbf:hocbf_eval": 657,
    "conecbf.controllers:ReferencePath.segments": 2001,
    "conecbf.controllers:_nearest_on_path": 2001,
    "conecbf.controllers:p_controller": 2116,
    "conecbf.controllers:p_speed_bicycle": 2449,
    "conecbf.controllers:p_velocity": 657,
    "conecbf.controllers:reference_input": 5222,
    "conecbf.controllers:stanley_lateral": 2001,
    "conecbf.engine:Scenario.n_steps": 5,
    "conecbf.engine:TrajectoryLog.__init__": 5,
    "conecbf.engine:run_scenario": 5,
    "conecbf.models:BicycleState.__init__": 2447,
    "conecbf.models:BicycleState.__post_init__": 2447,
    "conecbf.models:BicycleState.as_tuple": 4896,
    "conecbf.models:PointMassState.__init__": 656,
    "conecbf.models:PointMassState.__post_init__": 656,
    "conecbf.models:PointMassState.as_tuple": 1313,
    "conecbf.models:UnicycleState.__init__": 2114,
    "conecbf.models:UnicycleState.__post_init__": 2114,
    "conecbf.models:UnicycleState.as_tuple": 4230,
    "conecbf.models:_require_finite": 5874,
    "conecbf.models:integrate_step": 5217,
    "conecbf.models:slip_from_steering": 2001,
    "conecbf.qpfilter:_rows": 5222,
    "conecbf.qpfilter:_unfiltered": 515,
    "conecbf.qpfilter:activation_gate": 6823,
    "conecbf.qpfilter:filter_qp": 4707,
}


def frame_ledger(scenarios):
    """(records logged, Counter of Python frames per function) over the runs."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in INLINED:
            code = frame.f_code
            name = code.co_name
            if code.co_varnames[:1] == ("self",):
                name = f"{type(frame.f_locals['self']).__name__}.{name}"
            counts[f"{frame.f_globals.get('__name__')}:{name}"] += 1

    steps = 0
    # no collection runs while counting: the frames of a collector callback
    # (hypothesis installs one) would land in the counts, where a cycle
    # left by an earlier test happened to be collected
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for sc in scenarios:
            sys.setprofile(profile)
            try:
                log = run_scenario(sc)
            finally:
                sys.setprofile(None)
            steps += len(log.t)
    finally:
        if gc_was_on:
            gc.enable()
    return steps, counts


def ledger_scenarios():
    for fname, cbf in RUNS:
        sc = load_scenario(SCENARIO_DIR / fname)
        yield sc if cbf is None else replace(sc, cbf=cbf)


def test_frames_per_run_match_the_ledger():
    steps, counts = frame_ledger(list(ledger_scenarios()))
    assert steps == STEPS
    assert dict(sorted(counts.items())) == LEDGER


if __name__ == "__main__":
    steps, counts = frame_ledger(list(ledger_scenarios()))
    print(f"STEPS = {steps}  # {sum(counts.values()) / steps:.3f} frames per record")
    print("LEDGER = {")
    for name, n in sorted(counts.items()):
        print(f'    "{name}": {n},')
    print("}")
