"""Per-layer timing by wrapping conecbf's public functions from outside.

`Tracer.install()` replaces every reference to a traced function in the
loaded `conecbf` modules (and the attributes of the live kernel module)
with a timing wrapper; `uninstall()` puts the originals back. Spans nest
on a stack, so each span knows how much of its duration its traced
children covered: self time = duration - children. Spans are aggregated
in memory as (calls, total ns, self ns) per span name; a few spans also
count what they saw (QP rows, active filters, steps, CSV bytes).

The wrapper's own bookkeeping after the call is charged to the parent as
child time, so it does not inflate the parent's self time; the rest of
the tracing cost shows as the gap between traced and untraced passes.
"""

import os
import sys
from time import perf_counter, perf_counter_ns

import conecbf
import conecbf._backend
from conecbf import (
    FilterConfig,
    ModelParams,
    Obstacle,
    UnicycleState,
    c3bf_eval,
    filter_qp,
)

# span name -> functions it covers, as (module, attribute)
SPANS = {
    "kernel.c3bf": [("kernel", "c3bf_unicycle"), ("kernel", "c3bf_bicycle"),
                    ("kernel", "c3bf_pointmass")],
    "kernel.solve_qp2": [("kernel", "solve_qp2")],
    "kernel.rk4": [("kernel", "rk4_unicycle"), ("kernel", "rk4_bicycle"),
                   ("kernel", "rk4_pointmass")],
    "cbf.c3bf_eval": [("conecbf.cbf", "c3bf_eval")],
    "qpfilter.filter_qp": [("conecbf.qpfilter", "filter_qp")],
    "models.integrate_step": [("conecbf.models", "integrate_step")],
    "controllers.reference": [("conecbf.controllers", "p_controller"),
                              ("conecbf.controllers", "p_speed_bicycle"),
                              ("conecbf.controllers", "p_velocity"),
                              ("conecbf.controllers", "stanley_lateral")],
    "engine.run_scenario": [("conecbf.engine", "run_scenario")],
    "engine.safety_metrics": [("conecbf.engine", "safety_metrics")],
    "engine.classify_behavior": [("conecbf.engine", "classify_behavior")],
    "scenario_io.load_scenario": [("conecbf.scenario_io", "load_scenario")],
    "scenario_io.write_trajectory_csv": [("conecbf.scenario_io", "write_trajectory_csv")],
    "scenario_io.summarize": [("conecbf.scenario_io", "summarize")],
    "scenario_io.write_summary": [("conecbf.scenario_io", "write_summary")],
    "cli.batch": [("conecbf.cli", "cmd_batch")],
}

# counters filled by the span hooks below
COUNTERS = ("qp_rows", "qp_active", "qp_infeasible", "qp_degenerate", "steps",
            "obstacle_steps", "csv_rows", "csv_bytes")


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in SPANS}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.rows_histogram = {}
        self._stack = [0]
        self._patches = []

    # -- hooks: inspect a call's arguments and result after it returns --

    def _hook_solve_qp2(self, args, result):
        rows = len(args[4])
        self.counters["qp_rows"] += rows
        self.rows_histogram[rows] = self.rows_histogram.get(rows, 0) + 1

    def _hook_filter_qp(self, args, res):
        c = self.counters
        c["qp_active"] += bool(res.active_set)
        c["qp_infeasible"] += res.infeasible
        c["qp_degenerate"] += res.degenerate

    def _hook_run_scenario(self, args, log):
        self.counters["steps"] += len(log.t)
        self.counters["obstacle_steps"] += len(log.t) * len(log.scenario.obstacles)

    def _hook_write_csv(self, args, result):
        self.counters["csv_rows"] += len(args[0].t)
        self.counters["csv_bytes"] += os.path.getsize(args[1])

    def _wrap(self, name, fn):
        acc = self.stats[name]
        stack = self._stack
        clock = perf_counter_ns
        hook = {
            "kernel.solve_qp2": self._hook_solve_qp2,
            "qpfilter.filter_qp": self._hook_filter_qp,
            "engine.run_scenario": self._hook_run_scenario,
            "scenario_io.write_trajectory_csv": self._hook_write_csv,
        }.get(name)

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                children = stack.pop()
                acc[0] += 1
                acc[1] += t1 - t0
                acc[2] += t1 - t0 - children
                if done and hook is not None:
                    hook(args, result)
                stack[-1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if (n == "conecbf" or n.startswith("conecbf.")) and m is not None]
        kernel = conecbf._backend.kernel
        for name, targets in SPANS.items():
            for modname, attr in targets:
                owner = kernel if modname == "kernel" else sys.modules[modname]
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                holders = [kernel] if modname == "kernel" else modules
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def snapshot(self):
        """Exact counts so far, for comparing passes."""
        return {
            "calls": {name: acc[0] for name, acc in self.stats.items()},
            "counters": dict(self.counters),
            "rows_histogram": dict(sorted(self.rows_histogram.items())),
        }


def _per_call_us(acc, index=1):
    return acc[index] / acc[0] / 1e3 if acc[0] else 0.0


def layer_metrics(tracer, passes):
    """Per-layer metrics from a tracer that saw `passes` identical passes."""
    s = tracer.stats
    c = tracer.counters
    m = {}

    def timed(name, with_self=True):
        acc = s[name]
        m[f"{name}_us"] = (_per_call_us(acc), "us")
        if with_self:
            m[f"{name}_self_us"] = (_per_call_us(acc, 2), "us")
        m[f"{name}_calls"] = (acc[0] / passes, "count")

    timed("kernel.c3bf", with_self=False)
    timed("kernel.solve_qp2", with_self=False)
    timed("kernel.rk4", with_self=False)
    timed("cbf.c3bf_eval")
    timed("qpfilter.filter_qp")
    n_qp = s["qpfilter.filter_qp"][0]
    m["qpfilter.rows_mean"] = (c["qp_rows"] / n_qp if n_qp else 0.0, "rows")
    m["qpfilter.rows_max"] = (float(max(tracer.rows_histogram, default=0)), "rows")
    m["qpfilter.active_frac"] = (c["qp_active"] / n_qp if n_qp else 0.0, "ratio")
    m["qpfilter.infeasible"] = (c["qp_infeasible"] / passes, "count")
    m["qpfilter.degenerate"] = (c["qp_degenerate"] / passes, "count")
    timed("models.integrate_step")
    timed("controllers.reference")

    run = s["engine.run_scenario"]
    m["engine.run_scenario_ms"] = (_per_call_us(run) / 1e3, "ms")
    m["engine.self_us_per_step"] = (run[2] / c["steps"] / 1e3 if c["steps"] else 0.0, "us")
    m["engine.steps"] = (c["steps"] / passes, "count")
    m["engine.obstacle_steps"] = (c["obstacle_steps"] / passes, "count")
    m["engine.safety_metrics_ms"] = (_per_call_us(s["engine.safety_metrics"]) / 1e3, "ms")
    m["engine.classify_behavior_ms"] = (_per_call_us(s["engine.classify_behavior"]) / 1e3, "ms")

    csv = s["scenario_io.write_trajectory_csv"]
    m["scenario_io.csv_us_per_row"] = (csv[1] / c["csv_rows"] / 1e3 if c["csv_rows"] else 0.0, "us")
    m["scenario_io.csv_rows"] = (c["csv_rows"] / passes, "count")
    m["scenario_io.csv_bytes"] = (c["csv_bytes"] / passes, "B")
    m["scenario_io.summarize_ms"] = (_per_call_us(s["scenario_io.summarize"]) / 1e3, "ms")
    m["scenario_io.summarize_self_ms"] = (_per_call_us(s["scenario_io.summarize"], 2) / 1e3, "ms")
    m["scenario_io.summarize_calls_per_run"] = (
        s["scenario_io.summarize"][0] / run[0] if run[0] else 0.0, "count")
    m["scenario_io.write_summary_self_ms"] = (
        _per_call_us(s["scenario_io.write_summary"], 2) / 1e3, "ms")
    m["scenario_io.load_scenario_ms"] = (_per_call_us(s["scenario_io.load_scenario"]) / 1e3, "ms")

    batch = s["cli.batch"]
    m["cli.batch_self_ms"] = (_per_call_us(batch, 2) / 1e3, "ms")
    m["cli.batch_calls"] = (batch[0] / passes, "count")
    return m


def _time_us(fn, n):
    t0 = perf_counter()
    for _ in range(n):
        fn()
    return (perf_counter() - t0) / n * 1e6


def _median_us(fn, n, repeats=3):
    return sorted(_time_us(fn, n) for _ in range(repeats))[repeats // 2]


def fixed_input_metrics(n=20000):
    """Kernel and public-API step cost on fixed inputs.

    Kernel entries are given per importable backend as
    kernel.<backend>.*_fixed_us; the API step (3 barrier evaluations plus
    one filter pass, the unit of the 50 us real-time budget) runs on the
    active backend.
    """
    m = {}
    for kern in conecbf._backend.available_kernels():
        b = kern.backend_name
        m[f"kernel.{b}.c3bf_fixed_us"] = (_median_us(
            lambda: kern.c3bf_unicycle(0.0, 0.0, 0.3, 1.4, 0.1, 0.35, 5.0, 0.4, 0.0, 0.0, 1.3),
            n), "us")
        m[f"kernel.{b}.solve_qp2_fixed_us"] = (_median_us(
            lambda: kern.solve_qp2(0.4, -0.1, [1.0, -0.3, 0.2], [0.2, 1.1, -0.9],
                                   [0.8, 0.3, -0.5]), n), "us")
        m[f"kernel.{b}.rk4_fixed_us"] = (_median_us(
            lambda: kern.rk4_unicycle(0.0, 0.0, 0.3, 1.4, 0.1, 0.4, -0.1, 0.01), n), "us")

    p = ModelParams(l=0.35, w=0.6)
    cfg = FilterConfig(gamma=1.0)
    s = UnicycleState(0, 0, 0.3, 1.4, 0.1)
    obstacles = [Obstacle(5, 0.4), Obstacle(8, -1.0, vx=-0.5), Obstacle(12, 2.0, vy=0.3)]
    u_ref = (0.4, -0.1)

    def step():
        filter_qp(u_ref, [c3bf_eval("unicycle", s, o, p) for o in obstacles], cfg)

    m["kernel.api_step_fixed_us"] = (_median_us(step, n // 4), "us")
    return m
