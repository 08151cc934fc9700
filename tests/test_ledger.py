"""A deterministic ledger of the calls an engine run makes.

Timing cannot see a cost of tens of nanoseconds per call on a shared
host, but the number of calls a run makes is exact. The test counts the
events of `sys.setprofile` per function while `run_scenario` runs a
fixed subset of the corpus: Python frames (`call`) against LEDGER and
builtin calls (`c_call`) against BUILTINS. It counts the same events
while the public tick of the README (`c3bf_eval` per obstacle, then
`filter_qp`) replays every record of the runs that filter with the cone
barrier, against TICK_LEDGER and TICK_BUILTINS. A change that adds or
removes a call on the tick changes a count here, and updates the table
with the old and new figures stated. A named tuple's constructor is a
Python frame (`namedtuple_FilterResult:<lambda>`), so the exact tables
also fail on a record built through it and not by `tuple.__new__`.

Comprehension frames are left out: Python 3.12 inlines list, dict and
set comprehensions (PEP 709), and the counts are the same on 3.10 to
3.12 without them. So is the profiler's own `sys.setprofile` call, and
the garbage collector is off while the runs are counted.

    PYTHONPATH=src python tests/test_ledger.py

prints the counts of the current tree in the tables' layout, then each
run's traced peak and retained bytes per record (`tracemalloc`).
"""

import gc
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache
from pathlib import Path

from conecbf import c3bf_eval, filter_qp, load_scenario, run_scenario
from conecbf.models import STATE_TYPES

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
# by the class of its `self`; each of the 448 ellipse and 657 hocbf kernel
# calls measures dist through `_dist`, one frame
LEDGER = {
    "conecbf._pykernel:_cone_terms": 5718,
    "conecbf._pykernel:_dist": 1105,
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
    "conecbf.models:_require_finite": 5217,
    "conecbf.models:integrate_step": 5217,
    "conecbf.models:slip_from_steering": 2001,
    "conecbf.qpfilter:_rows": 5222,
    "conecbf.qpfilter:_unfiltered": 515,
    "conecbf.qpfilter:activation_gate": 6823,
    "conecbf.qpfilter:filter_qp": 4707,
}

# builtin calls over RUNS, keyed by the builtin's qualified name, prefixed
# with its module where it has one ("math.atan2", not "dict.get");
# `_require_finite` tests each value once, in its per-name loop, so the
# `builtins.all` row of its former pre-scan (5217) is gone and
# `math.isfinite` went from 6689 to 29671; `run_scenario` appends each
# record's 11 values to the log's columns, where it appended one record
# tuple, so `list.append` went from 37009 to 89229 (271502 -> 323722
# builtin calls, 51.99 -> 61.99 per record)
BUILTINS = {
    "builtins.abs": 25150,
    "builtins.isinstance": 5,
    "builtins.len": 17783,
    "builtins.max": 23652,
    "builtins.min": 15933,
    "dict.get": 17262,
    "list.append": 89229,
    "list.extend": 7347,
    "math.atan": 2001,
    "math.atan2": 2001,
    "math.cos": 24410,
    "math.fmod": 6562,
    "math.hypot": 6003,
    "math.isfinite": 29671,
    "math.sin": 24410,
    "math.sqrt": 18257,
    "math.tan": 2001,
    "tuple.__new__": 12045,
}

# public ticks replayed: every record of the two runs of RUNS that filter
# with the cone barrier, 1601 + 2001
TICKS = 3602

# Python frames per function over the replayed ticks, keyed as in LEDGER
TICK_LEDGER = {
    "conecbf._pykernel:_cone_terms": 5203,
    "conecbf._pykernel:_unmet": 8905,
    "conecbf._pykernel:c3bf_bicycle": 2001,
    "conecbf._pykernel:c3bf_unicycle": 3202,
    "conecbf._pykernel:solve_qp2": 3602,
    "conecbf.cbf:Obstacle.state_at": 5203,
    "conecbf.cbf:_radius": 5203,
    "conecbf.cbf:c3bf_eval": 5203,
    "conecbf.qpfilter:_rows": 3602,
    "conecbf.qpfilter:activation_gate": 5203,
    "conecbf.qpfilter:filter_qp": 3602,
}

# builtin calls over the replayed ticks, keyed as in BUILTINS
TICK_BUILTINS = {
    "builtins.abs": 16109,
    "builtins.len": 14608,
    "builtins.max": 9205,
    "builtins.min": 4002,
    "dict.get": 5203,
    "list.append": 26015,
    "list.extend": 6003,
    "math.cos": 5203,
    "math.isfinite": 5203,
    "math.sin": 5203,
    "math.sqrt": 15609,
    "tuple.__new__": 8805,
}


def _profiler(counts, builtins):
    """A `sys.setprofile` function that adds the Python frames per function
    to the Counter `counts` and the builtin calls per builtin to `builtins`."""
    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in INLINED:
            code = frame.f_code
            name = code.co_name
            if code.co_varnames[:1] == ("self",):
                name = f"{type(frame.f_locals['self']).__name__}.{name}"
            counts[f"{frame.f_globals.get('__name__')}:{name}"] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            module = arg.__module__
            builtins[arg.__qualname__ if module is None else f"{module}.{arg.__qualname__}"] += 1

    return profile


def _gc_off(count):
    """count() with the garbage collector off: the frames of a collector
    callback (hypothesis installs one) would land in the counts, where a
    cycle left by an earlier test happened to be collected."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return count()
    finally:
        if gc_was_on:
            gc.enable()


def frame_ledger(scenarios):
    """(records logged, Counter of Python frames per function, Counter of
    builtin calls per builtin) over the runs."""
    counts = Counter()
    builtins = Counter()
    profile = _profiler(counts, builtins)

    def count():
        steps = 0
        for sc in scenarios:
            sys.setprofile(profile)
            try:
                log = run_scenario(sc)
            finally:
                sys.setprofile(None)
            steps += len(log.t)
        return steps

    return _gc_off(count), counts, builtins


def tick_ledger(runs):
    """(ticks replayed, ticks whose u_star differs from the logged one,
    Counter of Python frames per function, Counter of builtin calls per
    builtin) over the public tick of every record of the (scenario, log)
    `runs`. Each state is rebuilt from its logged tuple before the
    profiler starts, so the counts hold the tick alone."""
    counts = Counter()
    builtins = Counter()
    profile = _profiler(counts, builtins)

    def count():
        ticks = differ = 0
        for sc, log in runs:
            model, obstacles, p, cfg = sc.model, sc.obstacles, sc.params, sc.run_filter
            records = [(STATE_TYPES[model](*s), t, u_ref, u_star)
                       for s, t, u_ref, u_star in zip(log.states, log.t, log.u_ref, log.u_star)]
            sys.setprofile(profile)
            try:
                for s, t, u_ref, u_star in records:
                    evals = [c3bf_eval(model, s, o, p, t) for o in obstacles]
                    differ += filter_qp(u_ref, evals, cfg).u_star != u_star
            finally:
                sys.setprofile(None)
            ticks += len(records)
        return ticks, differ

    return (*_gc_off(count), counts, builtins)


def ledger_scenarios():
    for fname, cbf in RUNS:
        sc = load_scenario(SCENARIO_DIR / fname)
        yield sc if cbf is None else replace(sc, cbf=cbf)


@cache
def counted():
    """frame_ledger over the runs, counted once for both tables."""
    return frame_ledger(list(ledger_scenarios()))


@cache
def ticked():
    """tick_ledger over the cone-barrier runs, counted once for both tables."""
    return tick_ledger([(sc, run_scenario(sc)) for sc in ledger_scenarios() if sc.cbf == "c3bf"])


def test_frames_per_run_match_the_ledger():
    steps, counts, _ = counted()
    assert steps == STEPS
    assert dict(sorted(counts.items())) == LEDGER


def test_builtin_calls_per_run_match_the_ledger():
    steps, _, builtins = counted()
    assert steps == STEPS
    assert dict(sorted(builtins.items())) == BUILTINS


def test_frames_per_tick_match_the_tick_ledger():
    # every replayed tick gives the logged u_star, bit for bit
    ticks, differ, counts, _ = ticked()
    assert (ticks, differ) == (TICKS, 0)
    assert dict(sorted(counts.items())) == TICK_LEDGER


def test_builtin_calls_per_tick_match_the_tick_ledger():
    ticks, differ, _, builtins = ticked()
    assert (ticks, differ) == (TICKS, 0)
    assert dict(sorted(builtins.items())) == TICK_BUILTINS


if __name__ == "__main__":
    # each run's footprint after a first run of it, before the counts and
    # with every log kept: a freed log fills the free lists that would
    # serve the next run's objects untraced
    logs, footprints = [], []
    for sc in ledger_scenarios():
        logs.append(run_scenario(sc))
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        logs.append(run_scenario(sc))
        held, peak = (n - before for n in tracemalloc.get_traced_memory())
        tracemalloc.stop()
        footprints.append((sc.cbf, len(logs[-1].t), peak, held))
    del logs
    steps, counts, builtins = counted()
    ticks, differ, tick_counts, tick_builtins = ticked()
    tables = (
        ("LEDGER", counts, "frames", steps, "record"),
        ("BUILTINS", builtins, "builtin calls", steps, "record"),
        ("TICK_LEDGER", tick_counts, "frames", ticks, "tick"),
        ("TICK_BUILTINS", tick_builtins, "builtin calls", ticks, "tick"),
    )
    for table, per_name, what, n_per, per in tables:
        print(f"# {sum(per_name.values())} {what}, {sum(per_name.values()) / n_per:.3f} per {per}")
        print(f"{table} = {{")
        for name, n in sorted(per_name.items()):
            print(f'    "{name}": {n},')
        print("}")
    print(f"STEPS = {steps}")
    print(f"TICKS = {ticks}, of which {differ} replay a u_star other than the logged one")
    for (fname, _), (cbf, records, peak, held) in zip(RUNS, footprints):
        print(f"# {fname} ({cbf}): {records} records, traced peak {peak / records:.0f} B "
              f"and retained {held / records:.0f} B per record")
