"""The conecbf benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Workloads are `corpus`, `crowd` and `filter-replay` (see workloads.py and
README.md); BENCHMARK.json lists `corpus` and `filter-replay`. Each run
is a closed loop with one caller and no threads. It sets up (timed in
fresh processes too), makes one untimed warm-up pass, then measures
passes until --seconds have elapsed, checking every pass's outputs.
Every metric is printed with its unit; the last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs a third of the
time untraced and the rest with every public function of the package
wrapped by tracer.py, and reports per-layer metrics, the fixed-input
kernel timings, the replay's p99 and the tracing overhead instead.

--write-reference regenerates reference.json from the live code.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up repeated in this many fresh processes, on top of this one
SETUP_PROBES = 4
MIN_PASSES = 3


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "conecbf" / "__init__.py").is_file():
        _die(f"no conecbf package under {SRC}; run from a source checkout")
    if not (ROOT / "scenarios").is_dir():
        _die(f"no scenario corpus under {ROOT / 'scenarios'}")
    sys.path.insert(0, str(SRC))
    import conecbf

    if Path(conecbf.__file__).resolve().parent != SRC / "conecbf":
        _die(f"imported conecbf from {conecbf.__file__}, not from {SRC}")


def _setup(name, seed, out_dir):
    """Import the package and build the workload's inputs; returns (workload, s)."""
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[name](seed, out_dir)
    return workload, time.perf_counter() - t0


def _setup_in_fresh_processes(name, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest():
    h = hashlib.sha256()
    for f in sorted((SRC / "conecbf").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[k]


class Tally:
    """Operations attempted and failed across passes, plus drift checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_counts = {}
        self.drift = []

    def add(self, kind, check):
        self.attempted += check.attempted
        self.failed += check.failed
        for err in check.errors[:5]:
            print(f"FAILED {kind}: {err}", file=sys.stderr)
        self.compare(kind, check.counts)

    def compare(self, kind, counts):
        """Flag counts that differ from the first pass of the same kind."""
        first = self.first_counts.setdefault(kind, counts)
        if counts != first:
            self.failed += 1
            self.drift.append(kind)
            print(f"NON-DETERMINISM in {kind}: {counts} != first pass {first}",
                  file=sys.stderr)


class Measurement:
    """Timed passes of one workload, reduced to best-of figures.

    The host's speed swings by up to 2x, over milliseconds to minutes,
    with whatever else shares it, so a median over passes moves with the
    neighbours, and so does the fastest pass of anything that takes more
    than a millisecond or so. A small piece of work at its fastest pass
    is the repeatable figure. Every pass does the same work in the same
    order, so each engine step of each pipeline unit (a scenario or a
    scene) keeps its fastest time over the passes, and pipeline
    throughput is the steps of all units over the sum of those times.
    Likewise each replayed tick keeps its fastest latency, and the
    percentiles are taken over those.
    """

    def __init__(self, workload, tally):
        self.workload = workload
        self.tally = tally
        self.cpus = sorted(os.sched_getaffinity(0))
        self.passes = 0
        self.best_steps = {}
        self.unit_steps = {}
        self.best_ticks = None

    def _next_cpu(self):
        """Pin the next pass to the next allowed CPU, in turn.

        A neighbour loading one core slows whatever runs on it for seconds
        at a time; rotating the passes over the CPUs lets each step's and
        tick's best-of find a quiet one.
        """
        os.sched_setaffinity(0, {self.cpus[self.passes % len(self.cpus)]})
        self.passes += 1

    def one_round(self, replay=True):
        """One pipeline pass (if the workload has one), then the replay passes."""
        try:
            self._pipeline_pass()
            if replay or self.workload.pipeline_pass is None:
                for _ in range(self.workload.replays_per_round):
                    self._replay_pass()
        finally:
            os.sched_setaffinity(0, self.cpus)

    def _pipeline_pass(self):
        w = self.workload
        if w.pipeline_pass is None:
            return
        self._next_cpu()
        seconds, check = w.pipeline_pass()
        self.tally.add("pipeline", check)
        self.unit_steps = check.counts["steps"]
        for unit, gaps in seconds.items():
            best = self.best_steps.get(unit)
            self.best_steps[unit] = gaps if best is None else list(map(min, best, gaps))

    def _replay_pass(self):
        self._next_cpu()
        lat = []
        check = self.workload.replay_pass(lat)
        self.tally.add("replay", check)
        best = self.best_ticks
        self.best_ticks = lat if best is None else list(map(min, best, lat))

    def run_for(self, seconds, replay=True, after_round=None):
        t_end = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_PASSES or time.perf_counter() < t_end:
            self.one_round(replay)
            rounds += 1
            if after_round is not None:
                after_round()
        return rounds

    def primary_s_per_step(self):
        """Best-of host seconds per step of the workload's main stream."""
        if self.best_steps:
            return sum(map(sum, self.best_steps.values())) / sum(self.unit_steps.values())
        return self.replay_latencies()[1] / 1e9

    def replay_latencies(self):
        """(sorted best-of tick latencies in ns, their mean)."""
        lat = sorted(self.best_ticks)
        return lat, sum(lat) / len(lat)


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")


def _result(tally, metrics):
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':40s} {failed_frac:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("corpus", "crowd", "filter-replay"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time the set-up alone in this process and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate reference.json from the live code")
    args = ap.parse_args(argv)

    if args.write_reference:
        _import_package()
        import workloads

        ref = workloads.make_reference()
        with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {workloads.REFERENCE}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        _, setup_s = _setup(args.workload, args.seed, out_dir)
        import workloads

        workloads.remove_outputs(out_dir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload, setup_main = _setup(args.workload, args.seed, out_dir)
    import conecbf
    import workloads

    tally = Tally()
    try:
        tally.add("setup", workloads.check_setup(workload))
        # warm-up: fills caches, writes outputs once, checks them
        Measurement(workload, tally).one_round()
        if args.trace:
            metrics, passes = _traced_run(workload, tally, args.seconds)
        else:
            setup_samples = [setup_main] + _setup_in_fresh_processes(args.workload, args.seed)
            m = Measurement(workload, tally)
            passes = m.run_for(args.seconds)
            lat = m.replay_latencies()[0]
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "steps_per_s": (1.0 / m.primary_s_per_step(), "1/s"),
                "filter_step_p50_us": (_percentile(lat, 0.50) / 1e3, "us"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        workloads.remove_outputs(out_dir)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "kernel_backend": conecbf.kernel_backend(),
        "kernels_importable": [k.backend_name for k in conecbf._backend.available_kernels()],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "replay_ticks": len(workload.ticks),
        "drift": tally.drift,
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    if "compiled" not in stamp["kernels_importable"]:
        print("note: only the pure-Python kernel backend is importable here; "
              "kernel.compiled.* entries appear when the extension is built")
    print(f"{args.workload}: {'per-layer' if args.trace else 'end-to-end'} metrics")
    _print_metrics(metrics)
    print(json.dumps(_result(tally, metrics)))
    return 0


def _traced_run(workload, tally, seconds):
    """Untraced passes, then traced passes; per-layer metrics and overhead.

    Only the workload's main stream is traced: the pipeline on corpus and
    crowd, the replay on filter-replay.
    """
    import tracer

    plain = Measurement(workload, tally)
    plain.run_for(seconds / 3)
    tr = tracer.Tracer()
    traced = Measurement(workload, tally)
    snapshots = [tr.snapshot()]
    tr.install()
    try:
        passes = traced.run_for(seconds * 2 / 3, replay=False,
                                after_round=lambda: snapshots.append(tr.snapshot()))
    finally:
        tr.uninstall()
    # each pass must add exactly the same counts as the first traced pass
    for prev, cur in zip(snapshots, snapshots[1:]):
        tally.compare("traced counts", _diff(cur, prev))
    metrics = tracer.layer_metrics(tr, passes)
    # p99 swings too much between runs on a shared host to hold an
    # end-to-end bound, so it is reported here, from the untraced passes
    metrics["filter_step_p99_us"] = (
        _percentile(plain.replay_latencies()[0], 0.99) / 1e3, "us")
    metrics.update(tracer.fixed_input_metrics())
    overhead = traced.primary_s_per_step() / plain.primary_s_per_step() - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    metrics["trace.untraced_us_per_step"] = (plain.primary_s_per_step() * 1e6, "us")
    metrics["trace.traced_us_per_step"] = (traced.primary_s_per_step() * 1e6, "us")
    rows = tr.snapshot()["rows_histogram"]
    print(f"qp rows histogram over {passes} traced passes: {rows}")
    return metrics, passes


def _diff(cur, prev):
    """Per-pass increments between two tracer snapshots."""
    out = {}
    for key, value in cur.items():
        before = prev[key]
        out[key] = {k: v - before.get(k, 0) for k, v in value.items()}
    return out


if __name__ == "__main__":
    sys.exit(main())
