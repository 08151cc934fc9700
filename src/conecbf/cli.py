"""Command-line front end.

Verbs:
  simulate  -- run one scenario file; writes trajectory.csv, summary.json,
               and optionally plot.svg into the output directory
  batch     -- run every scenario JSON in a directory; writes per-scenario
               outputs plus a consolidated report
  plot      -- render an SVG from a previously written trajectory CSV
  validate  -- schema-check a scenario file

Exit codes (the complete contract): 0 success/safe, 2 collision verdict
or aborted run, 3 validation or usage error, or an unreadable or
unwritable file.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from .engine import run_scenario
from .errors import ConeCbfError, SimulationError, ValidationError
from .scenario_io import (
    load_scenario,
    load_summary,
    read_trajectory_csv,
    write_summary,
    write_trajectory_csv,
)
from .svgplot import plot_hvalue, plot_inputs, plot_path

EXIT_OK = 0
EXIT_COLLISION = 2
EXIT_INVALID = 3

# the columns of the batch report.csv; each report row is a tuple in this order
REPORT_COLUMNS = ("scenario", "status", "behaviors", "min_clearance", "min_h", "active_fraction")


def _apply_overrides(sc, args):
    """Apply --dt, --duration and --gamma together; the dataclasses check them."""
    changes = {k: getattr(args, k) for k in ("dt", "duration") if getattr(args, k) is not None}
    if args.gamma is not None:
        changes["filter"] = replace(sc.filter, gamma=args.gamma)
    return replace(sc, **changes)


def _run_one(sc, out_dir, make_plot=False):
    """Run a scenario and write its artifacts; returns (exit_code, summary)."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        log = run_scenario(sc)
    except SimulationError as exc:
        doc = {"scenario": sc.name, "aborted": str(exc), "step": exc.step}
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"{sc.name}: aborted ({exc})", file=sys.stderr)
        return EXIT_COLLISION, doc
    write_trajectory_csv(log, os.path.join(out_dir, "trajectory.csv"))
    doc = write_summary(log, os.path.join(out_dir, "summary.json"))
    if make_plot:
        data = read_trajectory_csv(os.path.join(out_dir, "trajectory.csv"))
        with open(os.path.join(out_dir, "plot.svg"), "w", encoding="utf-8") as fh:
            fh.write(plot_path(data, doc, title=sc.name))
    return (EXIT_COLLISION if log.collided else EXIT_OK), doc


def cmd_simulate(args):
    sc = load_scenario(args.scenario)
    sc = _apply_overrides(sc, args)
    code, doc = _run_one(sc, args.out, make_plot=args.plot)
    if "metrics" in doc:
        m = doc["metrics"]
        verdict = "collision" if doc["collided"] else "safe"
        print(
            f"{sc.name}: {verdict}, steps={doc['steps']}, "
            f"behaviors={','.join(doc['behaviors']) or '-'}, "
            f"min_clearance={m['min_clearance_overall']}, min_h={m['min_h']}, "
            f"active_fraction={m['active_fraction']:.3f}"
        )
    return code


def cmd_batch(args):
    names = sorted(
        f for f in os.listdir(args.scenarios)
        if f.endswith(".json") and os.path.isfile(os.path.join(args.scenarios, f))
    )
    if not names:
        print(f"no scenario files in {args.scenarios}", file=sys.stderr)
        return EXIT_INVALID
    worst = EXIT_OK
    rows = []
    for fname in names:
        path = os.path.join(args.scenarios, fname)
        stem = os.path.splitext(fname)[0]
        try:
            sc = load_scenario(path)
            sc = _apply_overrides(sc, args)
        except ValidationError as exc:
            print(f"{fname}: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_INVALID)
            rows.append((stem, "invalid", "", "", "", ""))
            continue
        code, doc = _run_one(sc, os.path.join(args.out, stem), make_plot=args.plot)
        worst = max(worst, code)
        if "metrics" in doc:
            m = doc["metrics"]
            rows.append((sc.name, "collision" if doc["collided"] else "safe",
                         "+".join(doc["behaviors"]), m["min_clearance_overall"], m["min_h"],
                         m["active_fraction"]))
        else:
            rows.append((sc.name, "aborted", "", "", "", ""))
    os.makedirs(args.out, exist_ok=True)
    report = os.path.join(args.out, "report.csv")
    with open(report, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)
    width = max(len(r[0]) for r in rows) + 2
    print(f"{'scenario':{width}s} {'status':10s} {'behaviors':22s} {'min_clear':>10s} {'min_h':>10s} {'active':>7s}")
    for name, status, behaviors, clearance, min_h, active in rows:
        mc = f"{clearance:.4f}" if isinstance(clearance, float) else "-"
        mh = f"{min_h:.4f}" if isinstance(min_h, float) else "-"
        af = f"{active:.3f}" if isinstance(active, float) else "-"
        print(f"{name:{width}s} {status:10s} {behaviors:22s} {mc:>10s} {mh:>10s} {af:>7s}")
    print(f"report written to {report}")
    return worst


def cmd_plot(args):
    data = read_trajectory_csv(args.csv)
    if args.mode == "path":
        summary_path = os.path.join(os.path.dirname(os.path.abspath(args.csv)), "summary.json")
        if not os.path.exists(summary_path):
            raise ValidationError(
                f"path mode needs {summary_path} (written by simulate) for obstacle geometry"
            )
        svg = plot_path(data, load_summary(summary_path))
    elif args.mode == "hvalue":
        svg = plot_hvalue(data)
    else:
        svg = plot_inputs(data)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_validate(args):
    sc = load_scenario(args.scenario)
    print(f"{args.scenario}: valid ({sc.model}, {len(sc.obstacles)} obstacle(s), "
          f"{sc.n_steps + 1} records at dt={sc.dt})")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="conecbf",
        description="Collision-cone barrier safety filtering and simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario file")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--dt", type=float, help="override integration step [s]")
    sim.add_argument("--duration", type=float, help="override run length [s]")
    sim.add_argument("--gamma", type=float, help="override class-K gain [1/s]")
    sim.add_argument("--plot", action="store_true", help="also write plot.svg (path mode)")
    sim.set_defaults(func=cmd_simulate)

    bat = sub.add_parser("batch", help="run every scenario in a directory")
    bat.add_argument("--scenarios", required=True, help="directory of scenario JSON files")
    bat.add_argument("--out", required=True, help="output directory")
    bat.add_argument("--dt", type=float, help="override integration step [s]")
    bat.add_argument("--duration", type=float, help="override run length [s]")
    bat.add_argument("--gamma", type=float, help="override class-K gain [1/s]")
    bat.add_argument("--plot", action="store_true", help="also write per-scenario plot.svg")
    bat.set_defaults(func=cmd_batch)

    plo = sub.add_parser("plot", help="render an SVG from a trajectory CSV")
    plo.add_argument("--csv", required=True, help="trajectory.csv from simulate")
    plo.add_argument("--out", required=True, help="output SVG file")
    plo.add_argument("--mode", choices=("path", "hvalue", "inputs"), default="path")
    plo.set_defaults(func=cmd_plot)

    val = sub.add_parser("validate", help="schema-check a scenario file")
    val.add_argument("--scenario", required=True, help="scenario JSON file")
    val.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the collision code here
        return EXIT_INVALID if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except (ConeCbfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLISION if isinstance(exc, SimulationError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
