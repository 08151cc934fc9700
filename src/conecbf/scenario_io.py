"""Scenario files, trajectory CSV, and run summaries.

Scenario files are JSON documents validated strictly: unknown keys are
rejected so unit mistakes cannot hide. All physical quantities are SI
(meters, seconds, radians). Trajectory CSV columns are fixed:

    t, <state fields>, u_ref_0, u_ref_1, u_star_0, u_star_1,
    then per obstacle i: h_i, psi_i, dist_i, active_i, penetration_i

Floats are written as 17-significant-digit scientific notation, which
round-trips doubles exactly and is locale independent.
"""

import csv
import json

from .cbf import Obstacle, effective_radius
from .controllers import ReferencePath
from .engine import (
    BRAKE_SPEED_FRACTION,
    COLLISION_SLACK,
    TURN_THRESHOLD_DEG,
    ControllerSpec,
    Scenario,
    TrajectoryLog,
    classify_behavior,
    safety_metrics,
)
from .errors import ValidationError
from .models import STATE_FIELDS, STATE_TYPES, ModelParams
from .qpfilter import FilterConfig

_INF = float("inf")


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def _check_keys(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")


def _num(d: dict, key: str, where: str, default=None, required=False):
    if key not in d:
        if required:
            raise ValidationError(f"{where}: missing required key {key!r}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _vec2(d: dict, key: str, where: str, default=None, required=False):
    if key not in d:
        if required:
            raise ValidationError(f"{where}: missing required key {key!r}")
        return default
    v = d[key]
    if not (isinstance(v, list) and len(v) == 2 and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)):
        raise ValidationError(f"{where}.{key}: expected [number, number], got {v!r}")
    return (float(v[0]), float(v[1]))


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document, validating strictly."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: top level must be an object")
    _check_keys(
        doc,
        ("name", "model", "params", "initial_state", "obstacles", "controller",
         "filter", "sim", "cbf", "hocbf_gamma1", "saturate_speed"),
        name,
    )
    model = doc.get("model")
    if model not in STATE_TYPES:
        raise ValidationError(f"{name}.model: expected one of {sorted(STATE_TYPES)}, got {model!r}")

    pdoc = doc.get("params", {})
    _check_keys(pdoc, ("l", "l_f", "l_r", "w", "beta_max", "v_max"), f"{name}.params")
    params = ModelParams(
        l=_num(pdoc, "l", "params", 0.0),
        l_f=_num(pdoc, "l_f", "params", 1.0),
        l_r=_num(pdoc, "l_r", "params", 1.0),
        w=_num(pdoc, "w", "params", 0.0),
        beta_max=_num(pdoc, "beta_max", "params", 0.2),
        v_max=_num(pdoc, "v_max", "params", _INF),
    )

    sdoc = doc.get("initial_state")
    if not isinstance(sdoc, dict):
        raise ValidationError(f"{name}.initial_state: missing or not an object")
    fields = STATE_FIELDS[model]
    _check_keys(sdoc, fields, f"{name}.initial_state")
    state = STATE_TYPES[model](
        *[_num(sdoc, f, "initial_state", required=True) for f in fields]
    )

    obstacles = []
    for i, odoc in enumerate(doc.get("obstacles", [])):
        where = f"{name}.obstacles[{i}]"
        _check_keys(odoc, ("center", "velocity", "semi_axes", "segments"), where)
        cx, cy = _vec2(odoc, "center", where, required=True)
        vx, vy = _vec2(odoc, "velocity", where, default=(0.0, 0.0))
        c1, c2 = _vec2(odoc, "semi_axes", where, default=(1.0, 1.0))
        segments = []
        for j, seg in enumerate(odoc.get("segments", [])):
            segwhere = f"{where}.segments[{j}]"
            _check_keys(seg, ("t", "velocity"), segwhere)
            t = _num(seg, "t", segwhere, required=True)
            svx, svy = _vec2(seg, "velocity", segwhere, required=True)
            segments.append((t, svx, svy))
        obstacles.append(Obstacle(cx, cy, vx, vy, c1, c2, tuple(segments)))

    cdoc = doc.get("controller", {"kind": "zero"})
    _check_keys(
        cdoc, ("kind", "k1", "k2", "v_des", "v_des_vec", "k_e", "path", "closed", "a_max"),
        f"{name}.controller",
    )
    path = None
    if "path" in cdoc:
        wps = cdoc["path"]
        if not isinstance(wps, list):
            raise ValidationError(f"{name}.controller.path: expected a list of [x, y]")
        path = ReferencePath(tuple((float(p[0]), float(p[1])) for p in wps),
                             closed=bool(cdoc.get("closed", False)))
    controller = ControllerSpec(
        kind=cdoc.get("kind", "p"),
        k1=_num(cdoc, "k1", "controller", 1.0),
        k2=_num(cdoc, "k2", "controller", 0.0),
        v_des=_num(cdoc, "v_des", "controller", 0.0),
        v_des_vec=_vec2(cdoc, "v_des_vec", "controller"),
        k_e=_num(cdoc, "k_e", "controller", 1.0),
        path=path,
        a_max=_num(cdoc, "a_max", "controller"),
    )

    fdoc = doc.get("filter", {})
    _check_keys(
        fdoc, ("gamma", "activation_radius", "regularization_eps", "input_bounds"),
        f"{name}.filter",
    )
    input_bounds = None
    if fdoc.get("input_bounds") is not None:
        ib = fdoc["input_bounds"]
        if not (isinstance(ib, list) and len(ib) == 2):
            raise ValidationError(f"{name}.filter.input_bounds: expected [[lo,hi],[lo,hi]]")
        input_bounds = tuple(
            (float(lo) if lo is not None else -_INF, float(hi) if hi is not None else _INF)
            for lo, hi in ib
        )
    fcfg = FilterConfig(
        gamma=_num(fdoc, "gamma", "filter", 1.0),
        activation_radius=_num(fdoc, "activation_radius", "filter", _INF),
        regularization_eps=_num(fdoc, "regularization_eps", "filter", 1e-10),
        input_bounds=input_bounds,
    )

    simdoc = doc.get("sim", {})
    _check_keys(simdoc, ("dt", "duration"), f"{name}.sim")

    return Scenario(
        name=str(doc.get("name", name)),
        model=model,
        params=params,
        initial_state=state,
        obstacles=tuple(obstacles),
        controller=controller,
        filter=fcfg,
        dt=_num(simdoc, "dt", "sim", 0.01),
        duration=_num(simdoc, "duration", "sim", 10.0),
        cbf=doc.get("cbf", "c3bf"),
        hocbf_gamma1=_num(doc, "hocbf_gamma1", name, 1.0),
        saturate_speed=bool(doc.get("saturate_speed", False)),
    )


def scenario_to_dict(sc: Scenario) -> dict:
    """Inverse of parse_scenario (round-trips exactly)."""
    doc = {
        "name": sc.name,
        "model": sc.model,
        "params": {
            "l": sc.params.l,
            "l_f": sc.params.l_f,
            "l_r": sc.params.l_r,
            "w": sc.params.w,
            "beta_max": sc.params.beta_max,
        },
        "initial_state": dict(
            zip(STATE_FIELDS[sc.model], sc.initial_state.as_tuple())
        ),
        "obstacles": [
            {
                "center": [o.cx, o.cy],
                "velocity": [o.vx, o.vy],
                "semi_axes": [o.c1, o.c2],
                **(
                    {"segments": [{"t": t, "velocity": [vx, vy]} for t, vx, vy in o.segments]}
                    if o.segments
                    else {}
                ),
            }
            for o in sc.obstacles
        ],
        "controller": {"kind": sc.controller.kind},
        "filter": {
            "gamma": sc.filter.gamma,
            "regularization_eps": sc.filter.regularization_eps,
        },
        "sim": {"dt": sc.dt, "duration": sc.duration},
        "cbf": sc.cbf,
    }
    if sc.params.v_max != _INF:
        doc["params"]["v_max"] = sc.params.v_max
    c = sc.controller
    if c.kind != "zero":
        doc["controller"].update({"k1": c.k1, "k2": c.k2, "v_des": c.v_des})
        if c.v_des_vec is not None:
            doc["controller"]["v_des_vec"] = list(c.v_des_vec)
        if c.a_max is not None:
            doc["controller"]["a_max"] = c.a_max
        if c.kind == "stanley":
            doc["controller"]["k_e"] = c.k_e
            doc["controller"]["path"] = [list(p) for p in c.path.waypoints]
            doc["controller"]["closed"] = c.path.closed
    if sc.filter.activation_radius != _INF:
        doc["filter"]["activation_radius"] = sc.filter.activation_radius
    if sc.filter.input_bounds is not None:
        doc["filter"]["input_bounds"] = [
            [None if lo == -_INF else lo, None if hi == _INF else hi]
            for lo, hi in sc.filter.input_bounds
        ]
    if sc.cbf == "hocbf":
        doc["hocbf_gamma1"] = sc.hocbf_gamma1
    if sc.saturate_speed:
        doc["saturate_speed"] = True
    return doc


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return parse_scenario(doc, name=str(path))


def save_scenario(sc: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=2)
        fh.write("\n")


def csv_header(log: TrajectoryLog):
    cols = ["t"]
    cols += list(STATE_FIELDS[log.scenario.model])
    cols += ["u_ref_0", "u_ref_1", "u_star_0", "u_star_1"]
    for i in range(len(log.scenario.obstacles)):
        cols += [f"h_{i}", f"psi_{i}", f"dist_{i}", f"active_{i}", f"penetration_{i}"]
    return cols


def write_trajectory_csv(log: TrajectoryLog, path):
    """Write the per-step record with the fixed column contract."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(log))
        n_obs = len(log.scenario.obstacles)
        for k in range(len(log.t)):
            row = [_fmt(log.t[k])]
            row += [_fmt(v) for v in log.states[k]]
            row += [_fmt(log.u_ref[k][0]), _fmt(log.u_ref[k][1])]
            row += [_fmt(log.u_star[k][0]), _fmt(log.u_star[k][1])]
            for i in range(n_obs):
                row += [
                    _fmt(log.h[k][i]),
                    _fmt(log.psi[k][i]),
                    _fmt(log.dist[k][i]),
                    "1" if log.active[k][i] else "0",
                    "1" if log.penetration[k][i] else "0",
                ]
            writer.writerow(row)


def read_trajectory_csv(path):
    """Load a trajectory CSV into {column_name: list[float]}.

    Raises ValidationError when the layout does not match the contract.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty CSV")
            rows = list(reader)
    except OSError as exc:
        raise ValidationError(f"cannot read CSV {path}: {exc}")
    if not header or header[0] != "t":
        raise ValidationError(f"{path}: unknown column layout (no leading 't')")
    n = len(header)
    u_cols = ["u_ref_0", "u_ref_1", "u_star_0", "u_star_1"]
    # bicycle fields are a prefix of unicycle fields: try longest first and
    # demand the input columns right after the state block
    state_len = None
    for fs in sorted(STATE_FIELDS.values(), key=len, reverse=True):
        if list(fs) == header[1 : 1 + len(fs)] and header[1 + len(fs) : 5 + len(fs)] == u_cols:
            state_len = len(fs)
            break
    if state_len is None:
        raise ValidationError(f"{path}: unknown column layout (state/input fields)")
    rest = header[5 + state_len :]
    if len(rest) % 5 != 0:
        raise ValidationError(f"{path}: unknown column layout (obstacle groups)")
    for i in range(len(rest) // 5):
        expect = [f"h_{i}", f"psi_{i}", f"dist_{i}", f"active_{i}", f"penetration_{i}"]
        if rest[5 * i : 5 * i + 5] != expect:
            raise ValidationError(f"{path}: unknown column layout (obstacle {i})")
    data = {name: [] for name in header}
    for row in rows:
        if len(row) != n:
            raise ValidationError(f"{path}: ragged row with {len(row)} fields")
        for name, val in zip(header, row):
            data[name].append(float(val))
    return data


def summarize(log: TrajectoryLog) -> dict:
    """Structured-text summary written next to the trajectory CSV."""
    sc = log.scenario
    m = safety_metrics(log)
    radii = [effective_radius(o, sc.params) for o in sc.obstacles]
    return {
        "scenario": scenario_to_dict(sc),
        "steps": len(log.t),
        "collided": log.collided,
        "collision_step": log.collision_step,
        "collision_obstacle": log.collision_obstacle,
        "behaviors": list(classify_behavior(log)) if not log.collided else [],
        "effective_radii": radii,
        "metrics": {
            "min_clearance": list(m.min_clearance),
            "min_clearance_overall": _none_if_inf(m.min_clearance_overall),
            "min_h": _none_if_inf(m.min_h),
            "active_fraction": m.active_fraction,
            "max_u_safe": m.max_u_safe,
            "max_abs_beta": m.max_abs_beta,
            "degenerate_steps": sum(log.degenerate),
            "infeasible_steps": sum(log.infeasible),
        },
        "thresholds": {
            "turn_deg": TURN_THRESHOLD_DEG,
            "brake_speed_fraction": BRAKE_SPEED_FRACTION,
            "collision_slack": COLLISION_SLACK,
        },
    }


def _none_if_inf(x):
    return None if x == _INF else x


def write_summary(log: TrajectoryLog, path) -> dict:
    """Write `summarize(log)` to `path` and return the dict written."""
    doc = summarize(log)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def load_summary(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read summary {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc.msg}")
