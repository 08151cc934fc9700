"""The benchmark's workloads: set-up, timed passes and output checks.

corpus         Every committed scenario file at its native dt, run in-process
               through `conecbf.cli.main(["batch", ...])`, the way batch users
               run it. Exercises every layer, the output layer included.
crowd          One generated scene per model, 24 moving obstacles each, run
               through `run_scenario` + `safety_metrics` with no files written.
               Stresses per-obstacle engine work and multi-row QPs, and
               bypasses the output layer.
filter-replay  The per-step filter inputs of the 14 filtered corpus runs,
               replayed through `c3bf_eval` + `filter_qp`. The on-vehicle use:
               bypasses the engine and the output layer.

Every workload also replays its own filter ticks, so each reports the
per-tick filter latency: corpus on the corpus tick mix, crowd on crowded
ticks with many rows. corpus and crowd time that replay apart from their
pipeline passes. A workload object is built by its set-up. `pipeline_pass`
(absent on filter-replay) returns, for each timed unit (a scenario or a
scene), the seconds between its engine steps (see StepClock), and a Check
whose counts hold each unit's steps; `replay_pass` records each tick's
latency and returns a Check.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from array import array
from dataclasses import replace
from itertools import chain
from math import inf
from pathlib import Path
from time import perf_counter, perf_counter_ns

import conecbf
import conecbf.cli
import conecbf.engine
from conecbf.models import STATE_TYPES

from crowd import crowd_documents

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIRS = ("scenarios", "scenarios/baseline")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_CROWD_SEED = 1
# summary.json fields compared against the reference; the rest of the
# document is free to grow
VERDICT_KEYS = ("steps", "collided", "collision_step", "collision_obstacle", "behaviors")


class Check:
    """Outcome of one pass: operations attempted, failures, exact counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts = {}
        self.errors = []

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _digest_floats(*columns):
    """SHA-256 of float columns (nested tuples of numbers), in order."""
    h = hashlib.sha256()
    for col in columns:
        flat = array("d", chain.from_iterable(
            row if isinstance(row, tuple) else (row,) for row in col))
        h.update(flat.tobytes())
    return h.hexdigest()


def log_digest(log):
    """Digest of every column of a TrajectoryLog plus its verdict."""
    h = hashlib.sha256(_digest_floats(
        log.t, log.states, log.u_ref, log.u_star, log.h, log.psi, log.dist,
        log.active, log.penetration, log.degenerate, log.infeasible,
    ).encode())
    h.update(repr((log.collided, log.collision_step, log.collision_obstacle)).encode())
    return h.hexdigest()


def filter_config(sc):
    """The config the engine filters with: it adds the slip box for bicycles."""
    bounds = sc.filter.input_bounds
    if bounds is None and sc.model == "bicycle":
        bounds = ((-inf, inf), (-sc.params.beta_max, sc.params.beta_max))
    return replace(sc.filter, input_bounds=bounds)


def record_ticks(sc, log):
    """Per-step filter inputs of a logged run, with the applied input.

    A tick is (model, state, gated obstacles at t, params, u_ref, cfg,
    expected u_star, QP rows). Obstacles are gated by the logged distance,
    as the engine gates them.
    """
    cfg = filter_config(sc)
    box_rows = 0
    if cfg.input_bounds is not None:
        box_rows = sum(1 for pair in cfg.input_bounds for b in pair if b not in (inf, -inf))
    state_type = STATE_TYPES[sc.model]
    ticks = []
    for k, t in enumerate(log.t):
        obs = tuple(
            conecbf.Obstacle(*o.state_at(t), o.c1, o.c2)
            for o, d in zip(sc.obstacles, log.dist[k])
            if d <= cfg.activation_radius
        )
        ticks.append((sc.model, state_type(*log.states[k]), obs, sc.params,
                      log.u_ref[k], cfg, log.u_star[k], len(obs) + box_rows))
    return ticks


def ticks_digest(ticks):
    return _digest_floats(
        [tk[1].as_tuple() for tk in ticks],
        [tuple(chain.from_iterable((o.cx, o.cy, o.vx, o.vy, o.c1, o.c2) for o in tk[2]))
         for tk in ticks],
        [tk[4] for tk in ticks],
        [tk[6] for tk in ticks],
    )


def rows_histogram(rows):
    hist = {}
    for r in rows:
        hist[r] = hist.get(r, 0) + 1
    return dict(sorted(hist.items()))


class StepClock:
    """Time a unit of a pipeline pass step by step.

    While active, the engine's per-step call to `integrate_step` first
    records the time. `unit()` runs a unit and returns the seconds between
    its start, each engine step and its end: one figure per step, plus
    whatever the unit does before the first step and after the last
    (loading, CSV and summary output on corpus). The stamp costs about
    0.2 us a step. An engine that no longer calls `integrate_step` gives
    one figure per unit.
    """

    def __init__(self):
        self.stamps = []
        self._original = None

    def __enter__(self):
        self._original = original = getattr(conecbf.engine, "integrate_step", None)
        if original is not None:
            stamp = self.stamps.append
            clock = perf_counter

            def integrate_step(*args, **kwargs):
                stamp(clock())
                return original(*args, **kwargs)

            conecbf.engine.integrate_step = integrate_step
        return self

    def __exit__(self, *exc):
        if self._original is not None:
            conecbf.engine.integrate_step = self._original

    def unit(self, fn):
        """(fn's result or exception, seconds between its steps)."""
        stamps = self.stamps
        stamps.clear()
        stamps.append(perf_counter())
        try:
            result = fn()
        except Exception as exc:
            result = exc
        stamps.append(perf_counter())
        return result, [b - a for a, b in zip(stamps, stamps[1:])]


class Workload:
    """Shared replay of recorded filter ticks."""

    name = None
    pipeline_pass = None
    # replay passes after each pipeline pass: the best-of replay figures
    # need many passes over each tick
    replays_per_round = 1

    def __init__(self, seed):
        self.seed = seed
        self.ticks = []
        self.order = []
        self.rows_histogram = {}

    def _shuffle(self):
        """Fix the seeded replay order and the ticks' QP-rows histogram."""
        self.order = list(range(len(self.ticks)))
        random.Random(f"{self.name}-{self.seed}").shuffle(self.order)
        self.rows_histogram = rows_histogram(tk[7] for tk in self.ticks)

    def replay_pass(self, latencies):
        """Replay every tick once through the public API.

        Appends one latency in ns per tick to `latencies`; c3bf_eval and
        filter_qp are looked up per pass so that tracing sees the calls.
        """
        c3bf_eval = conecbf.c3bf_eval
        filter_qp = conecbf.filter_qp
        clock = perf_counter_ns
        ticks = self.ticks
        check = Check()
        active = infeasible = degenerate = 0
        for j in self.order:
            model, s, obs, p, u_ref, cfg, expected, _ = ticks[j]
            t0 = clock()
            try:
                if obs:
                    res = filter_qp(u_ref, [c3bf_eval(model, s, o, p) for o in obs], cfg)
                    u = res.u_star
                else:
                    res = None
                    u = u_ref
                box = cfg.input_bounds
                if box is not None:
                    (lo0, hi0), (lo1, hi1) = box
                    u = (min(max(u[0], lo0), hi0), min(max(u[1], lo1), hi1))
            except Exception as exc:
                res, u = None, exc
            latencies.append(clock() - t0)
            check.op(u == expected, f"tick {j}: u_star {u!r} != logged {expected}")
            if res is not None:
                active += bool(res.active_set)
                infeasible += res.infeasible
                degenerate += res.degenerate
        check.counts = {"ticks": len(ticks), "active_ticks": active,
                        "infeasible_ticks": infeasible, "degenerate_ticks": degenerate,
                        "rows_histogram": self.rows_histogram}
        return check


def _corpus():
    """(path, Scenario) of every committed scenario, in batch order."""
    out = []
    for d in CORPUS_DIRS:
        for f in sorted((ROOT / d).glob("*.json")):
            out.append((f"{d}/{f.name}", conecbf.load_scenario(f)))
    return out


def _corpus_ticks(scenarios):
    """Recorded ticks of the filtered corpus runs (the baselines filter nothing)."""
    ticks = []
    for _, sc in scenarios:
        if sc.cbf != "none":
            ticks += record_ticks(sc, conecbf.run_scenario(sc))
    return ticks


class Corpus(Workload):
    name = "corpus"
    replays_per_round = 2

    def __init__(self, seed, out_dir):
        super().__init__(seed)
        self.out_dir = Path(out_dir)
        self.scenarios = _corpus()
        self.ticks = _corpus_ticks(self.scenarios)
        self._shuffle()
        # one batch call per scenario, each over a directory holding just that
        # file, so that each scenario is timed on its own
        for path, _ in self.scenarios:
            d = self._in_dir(path)
            d.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(ROOT / path, d / Path(path).name)

    def _in_dir(self, path):
        return self.out_dir / "in" / Path(path).stem

    def _result_dir(self, path):
        return self.out_dir / "out" / Path(path).stem

    def run_batches(self):
        """Every scenario through `conecbf batch`; (step seconds, exit code) by path."""
        sink = io.StringIO()
        runs = {}
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                StepClock() as clock:
            for path, _ in self.scenarios:
                argv = ["batch", "--scenarios", str(self._in_dir(path)),
                        "--out", str(self._result_dir(path))]
                code, seconds = clock.unit(lambda: conecbf.cli.main(argv))
                if isinstance(code, Exception):
                    code = repr(code)
                runs[path] = (seconds, code)
        return runs

    def read_outputs(self, path):
        """(trajectory.csv digest, summary.json) written for one scenario."""
        out = self._result_dir(path) / Path(path).stem
        with open(out / "trajectory.csv", "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(out / "summary.json", encoding="utf-8") as fh:
            return digest, json.load(fh)

    def pipeline_pass(self):
        """The batch runs, timed per scenario, then their outputs checked."""
        runs = self.run_batches()
        ref = load_reference()["corpus"]
        check = Check()
        steps = {}
        obstacle_steps = active = 0
        for path, sc in self.scenarios:
            code = runs[path][1]
            want = ref[path]
            try:
                digest, summary = self.read_outputs(path)
            except (OSError, ValueError) as exc:
                check.op(False, f"{path}: exit {code}, {exc!r}")
                continue
            verdict = {k: summary.get(k) for k in VERDICT_KEYS}
            ok = (code == want["exit_code"] and digest == want["csv_sha256"]
                  and verdict == want["verdict"])
            check.op(ok, f"{path}: exit {code}, csv {digest[:12]}, verdict {verdict}")
            n = summary.get("steps", 0)
            steps[path] = n
            obstacle_steps += n * len(sc.obstacles)
            active += round(summary.get("metrics", {}).get("active_fraction", 0.0) * n)
        check.counts = {"steps": steps, "obstacle_steps": obstacle_steps,
                        "active_steps": active}
        return {path: run[0] for path, run in runs.items()}, check


class Crowd(Workload):
    name = "crowd"
    replays_per_round = 3

    def __init__(self, seed, out_dir=None):
        super().__init__(seed)
        self.scenes = [conecbf.parse_scenario(doc, name=doc["name"])
                       for doc in crowd_documents(seed)]
        self.setup_digests = []
        for sc in self.scenes:
            log = conecbf.run_scenario(sc)
            self.setup_digests.append(log_digest(log))
            self.ticks += record_ticks(sc, log)
        self._shuffle()

    def pipeline_pass(self):
        """The scenes, timed per scene, then their logs checked."""
        run_scenario = conecbf.run_scenario
        safety_metrics = conecbf.safety_metrics
        seconds = {}
        results = []
        with StepClock() as clock:
            for sc in self.scenes:
                def unit(sc=sc):
                    log = run_scenario(sc)
                    return log, safety_metrics(log)

                result, seconds[sc.name] = clock.unit(unit)
                results.append((result, None) if isinstance(result, Exception) else result)
        return seconds, self._check_outputs(results)

    def _check_outputs(self, results):
        ref = load_reference()["crowd"]
        check = Check()
        steps = {}
        obstacle_steps = active = 0
        gated = []
        for sc, (log, _), setup_digest in zip(self.scenes, results, self.setup_digests):
            if isinstance(log, Exception):
                check.op(False, f"{sc.name}: {log!r}")
                continue
            digest = log_digest(log)
            ok = not log.collided and digest == setup_digest
            if self.seed == ref["seed"]:
                ok = ok and digest == ref["log_sha256"][sc.name]
            check.op(ok, f"{sc.name}: collided={log.collided} at step {log.collision_step}, "
                         f"log {digest[:12]}")
            steps[sc.name] = len(log.t)
            obstacle_steps += len(log.t) * len(sc.obstacles)
            active += sum(1 for flags in log.active if any(flags))
            radius = sc.filter.activation_radius
            gated += [sum(1 for d in row if d <= radius) for row in log.dist]
        check.counts = {"steps": steps, "obstacle_steps": obstacle_steps,
                        "active_steps": active, "gated_histogram": rows_histogram(gated)}
        return check


class FilterReplay(Workload):
    name = "filter-replay"

    def __init__(self, seed, out_dir=None):
        super().__init__(seed)
        self.ticks = _corpus_ticks(_corpus())
        self._shuffle()


WORKLOADS = {w.name: w for w in (Corpus, Crowd, FilterReplay)}


def check_setup(workload):
    """Set-up outputs against the reference: recorded ticks and crowd logs."""
    ref = load_reference()
    check = Check()
    if isinstance(workload, (Corpus, FilterReplay)):
        digest = ticks_digest(workload.ticks)
        check.op(digest == ref["corpus_ticks"]["sha256"]
                 and len(workload.ticks) == ref["corpus_ticks"]["count"],
                 f"recorded corpus ticks {digest[:12]} x {len(workload.ticks)}")
    if isinstance(workload, Crowd) and workload.seed == ref["crowd"]["seed"]:
        for sc, digest in zip(workload.scenes, workload.setup_digests):
            check.op(digest == ref["crowd"]["log_sha256"][sc.name],
                     f"{sc.name}: set-up log {digest[:12]}")
    return check


def make_reference():
    """Reference digests from the live code, for perfbench/reference.json."""
    out_dir = ROOT / ".perfbench_out" / "reference"
    shutil.rmtree(out_dir, ignore_errors=True)
    corpus = Corpus(0, out_dir)
    runs = corpus.run_batches()
    scenarios = {}
    for path, _ in corpus.scenarios:
        digest, summary = corpus.read_outputs(path)
        scenarios[path] = {"exit_code": runs[path][1], "csv_sha256": digest,
                           "verdict": {k: summary.get(k) for k in VERDICT_KEYS}}
    remove_outputs(out_dir)
    crowd = Crowd(DEFAULT_CROWD_SEED)
    return {
        "kernel_backend": conecbf.kernel_backend(),
        "corpus": scenarios,
        "corpus_ticks": {"count": len(corpus.ticks), "sha256": ticks_digest(corpus.ticks)},
        "crowd": {"seed": DEFAULT_CROWD_SEED,
                  "log_sha256": {sc.name: d for sc, d in zip(crowd.scenes, crowd.setup_digests)}},
    }


def remove_outputs(out_dir):
    """Delete a run's output directory, and its parent once empty."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(Path(out_dir).parent)
