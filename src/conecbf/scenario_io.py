"""Scenario files, trajectory CSV, and run summaries.

Scenario files are JSON documents validated strictly: unknown keys are
rejected so unit mistakes cannot hide. All physical quantities are SI
(meters, seconds, radians). Trajectory CSV columns are fixed:

    t, <state fields>, u_ref_0, u_ref_1, u_star_0, u_star_1,
    then per obstacle i: h_i, psi_i, dist_i, active_i, penetration_i

Floats are written as %.16e, which round-trips doubles exactly and is
locale independent; the active and penetration flags as 0 or 1.
"""

import csv
import json
import sys
from dataclasses import asdict, fields
from itertools import islice
from math import isfinite

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
from .models import MODEL_KINDS, STATE_FIELDS, STATE_TYPES, ModelParams
from .qpfilter import FilterConfig

_INF = float("inf")
# trajectory CSV rows formatted and written per `%` and per write
CSV_BLOCK_ROWS = 64

# document keys come from the dataclasses they fill; Scenario fields that
# live in a sub-object name it in their metadata
_TOP_KEYS = {f.metadata.get("section", f.name) for f in fields(Scenario)}
_SIM_KEYS = [f.name for f in fields(Scenario) if f.metadata.get("section") == "sim"]


def _check_keys(d, allowed, where: str):
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {v!r}")
    # also rejects integer literals beyond the float range
    if not abs(v) <= sys.float_info.max:
        raise ValidationError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _required(d: dict, key: str, where: str):
    if key not in d:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return d[key]


def _num(d: dict, key: str, where: str) -> float:
    return _number(_required(d, key, where), f"{where}.{key}")


def _nums(d: dict, where: str, skip=()) -> dict:
    """Every key of `d` outside `skip` as a number; absent keys keep their defaults."""
    return {k: _num(d, k, where) for k in d if k not in skip}


def _two(v, where: str) -> list:
    if not (isinstance(v, list) and len(v) == 2):
        raise ValidationError(f"{where}: expected a list of 2 entries, got {v!r}")
    return v


def _pair(v, where: str) -> tuple:
    return tuple(_number(c, where) for c in _two(v, where))


def _vec2(d: dict, key: str, where: str) -> tuple:
    return _pair(_required(d, key, where), f"{where}.{key}")


def _list(d: dict, key: str, where: str) -> list:
    v = d.get(key, [])
    if not isinstance(v, list):
        raise ValidationError(f"{where}.{key}: expected a list, got {type(v).__name__}")
    return v


def _bool(d: dict, key: str, where: str) -> bool:
    v = d[key]
    if not isinstance(v, bool):
        raise ValidationError(f"{where}.{key}: expected true or false, got {v!r}")
    return v


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document, validating strictly.

    A key the document leaves out keeps the default of the dataclass
    field it fills.
    """
    _check_keys(doc, _TOP_KEYS, name)
    model = doc.get("model")
    if model not in MODEL_KINDS:
        raise ValidationError(f"{name}.model: expected one of {sorted(MODEL_KINDS)}, got {model!r}")

    where = f"{name}.params"
    pdoc = doc.get("params", {})
    _check_keys(pdoc, [f.name for f in fields(ModelParams)], where)
    params = ModelParams(**_nums(pdoc, where))

    where = f"{name}.initial_state"
    sdoc = doc.get("initial_state")
    _check_keys(sdoc, STATE_FIELDS[model], where)
    state = STATE_TYPES[model](*[_num(sdoc, f, where) for f in STATE_FIELDS[model]])

    obstacles = []
    for i, odoc in enumerate(_list(doc, "obstacles", name)):
        where = f"{name}.obstacles[{i}]"
        _check_keys(odoc, ("center", "velocity", "semi_axes", "segments"), where)
        okw = {}
        for key, names in (("velocity", ("vx", "vy")), ("semi_axes", ("c1", "c2"))):
            if key in odoc:
                okw.update(zip(names, _vec2(odoc, key, where)))
        segments = []
        for j, seg in enumerate(_list(odoc, "segments", where)):
            segwhere = f"{where}.segments[{j}]"
            _check_keys(seg, ("t", "velocity"), segwhere)
            segments.append((_num(seg, "t", segwhere), *_vec2(seg, "velocity", segwhere)))
        obstacles.append(Obstacle(*_vec2(odoc, "center", where), segments=tuple(segments), **okw))

    where = f"{name}.controller"
    cdoc = doc.get("controller", {"kind": "zero"})
    _check_keys(cdoc, [f.name for f in fields(ControllerSpec)] + ["closed"], where)
    ckw = _nums(cdoc, where, skip=("kind", "v_des_vec", "path", "closed"))
    if "kind" in cdoc:
        ckw["kind"] = cdoc["kind"]
    if "v_des_vec" in cdoc:
        ckw["v_des_vec"] = _vec2(cdoc, "v_des_vec", where)
    if "path" in cdoc:
        waypoints = tuple(
            _pair(p, f"{where}.path[{i}]") for i, p in enumerate(_list(cdoc, "path", where))
        )
        closed = {"closed": _bool(cdoc, "closed", where)} if "closed" in cdoc else {}
        ckw["path"] = ReferencePath(waypoints, **closed)
    controller = ControllerSpec(**ckw)

    where = f"{name}.filter"
    fdoc = doc.get("filter", {})
    _check_keys(fdoc, [f.name for f in fields(FilterConfig)], where)
    fkw = _nums(fdoc, where, skip=("input_bounds",))
    if fdoc.get("input_bounds") is not None:
        where = f"{where}.input_bounds"
        boxes = [_two(box, where) for box in _two(fdoc["input_bounds"], where)]
        fkw["input_bounds"] = tuple(
            (-_INF if lo is None else _number(lo, where), _INF if hi is None else _number(hi, where))
            for lo, hi in boxes
        )

    where = f"{name}.sim"
    simdoc = doc.get("sim", {})
    _check_keys(simdoc, _SIM_KEYS, where)
    kw = _nums(simdoc, where)
    if "hocbf_gamma1" in doc:
        kw["hocbf_gamma1"] = _num(doc, "hocbf_gamma1", name)
    if "saturate_speed" in doc:
        kw["saturate_speed"] = _bool(doc, "saturate_speed", name)
    if "cbf" in doc:
        kw["cbf"] = doc["cbf"]
    return Scenario(
        name=str(doc.get("name", name)),
        model=model,
        params=params,
        initial_state=state,
        obstacles=tuple(obstacles),
        controller=controller,
        filter=FilterConfig(**fkw),
        **kw,
    )


def scenario_to_dict(sc: Scenario) -> dict:
    """Inverse of parse_scenario for every field a run reads.

    parse_scenario(scenario_to_dict(sc)) == sc holds unless sc sets a field
    its run never reads; such a field is dropped and comes back at its
    default: hocbf_gamma1 unless cbf is 'hocbf', every controller field but
    kind for a 'zero' controller, and k_e and the path unless it is 'stanley'.
    """
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
        # an open side is infinite, written as null
        doc["filter"]["input_bounds"] = _finite_or_none(sc.filter.input_bounds)
    if sc.cbf == "hocbf":
        doc["hocbf_gamma1"] = sc.hocbf_gamma1
    if sc.saturate_speed:
        doc["saturate_speed"] = True
    return doc


def read_json(path, what: str) -> dict:
    """The JSON object in the file at `path`; `what` names the file in errors.

    NaN/Infinity, over-long integer literals and non-objects raise ValidationError.
    """
    def reject(literal):
        raise ValidationError(f"{path}: {literal} is not a finite number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer literal too long to convert
        raise ValidationError(f"{path}: invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object, got {type(doc).__name__}")
    return doc


def _finite_or_none(doc):
    """`doc` as strict JSON data: each non-finite float None, each tuple a list."""
    if isinstance(doc, dict):
        return {k: _finite_or_none(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_none(v) for v in doc]
    if isinstance(doc, float) and not isfinite(doc):
        return None
    return doc


def write_json(doc, path):
    """Write `doc` as strict JSON (NaN or infinity raise) indented by 2, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    return parse_scenario(read_json(path, "scenario file"), name=str(path))


def save_scenario(sc: Scenario, path):
    write_json(scenario_to_dict(sc), path)


def csv_header(model: str, n_obstacles: int):
    cols = ["t"]
    cols += list(STATE_FIELDS[model])
    cols += ["u_ref_0", "u_ref_1", "u_star_0", "u_star_1"]
    for i in range(n_obstacles):
        cols += [f"h_{i}", f"psi_{i}", f"dist_{i}", f"active_{i}", f"penetration_{i}"]
    return cols


def write_trajectory_csv(log: TrajectoryLog, path):
    """Write the per-step record with the fixed column contract.

    Rows are formatted and written CSV_BLOCK_ROWS at a time, one `%` and
    one write per block; the bytes are those of one `%` per row.
    """
    header = csv_header(log.scenario.model, len(log.scenario.obstacles))
    row = ",".join(
        "%d" if c.startswith(("active_", "penetration_")) else "%.16e" for c in header
    ) + "\n"
    rows = zip(
        log.t, log.states, log.u_ref, log.u_star,
        log.h, log.psi, log.dist, log.active, log.penetration,
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # the flat values of one block at a time, never of the whole log
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            values = []
            for t, s, u_ref, u_star, h, psi, dist, active, penetration in block:
                values.append(t)
                values += s
                values += u_ref
                values += u_star
                for obstacle in zip(h, psi, dist, active, penetration):
                    values += obstacle
            fh.write((row * len(block)) % tuple(values))


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
            if not rows:
                raise ValidationError(f"{path}: no data rows")
    except OSError as exc:
        raise ValidationError(f"cannot read CSV {path}: {exc}")
    # the header must be the one csv_header writes for some model, with the
    # obstacle count its length implies
    if not any(
        header == csv_header(model, max(0, (len(header) - 5 - len(fs)) // 5))
        for model, fs in STATE_FIELDS.items()
    ):
        raise ValidationError(f"{path}: unknown column layout")
    data = {name: [] for name in header}
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path}: ragged row with {len(row)} fields")
        for name, val in zip(header, row):
            try:
                data[name].append(float(val))
            except ValueError:
                raise ValidationError(
                    f"{path}, line {line}: column {name!r} holds {val!r}, not a number"
                ) from None
    return data


def summarize(log: TrajectoryLog) -> dict:
    """Summary written next to the trajectory CSV; a non-finite number in it is None."""
    sc = log.scenario
    return _finite_or_none({
        "scenario": scenario_to_dict(sc),
        "steps": len(log.t),
        "collided": log.collided,
        "collision_step": log.collision_step,
        "collision_obstacle": log.collision_obstacle,
        "behaviors": list(classify_behavior(log)) if not log.collided else [],
        "effective_radii": [effective_radius(o, sc.params) for o in sc.obstacles],
        "metrics": {
            **asdict(safety_metrics(log)),
            "degenerate_steps": sum(log.degenerate),
            "infeasible_steps": sum(log.infeasible),
        },
        "thresholds": {
            "turn_deg": TURN_THRESHOLD_DEG,
            "brake_speed_fraction": BRAKE_SPEED_FRACTION,
            "collision_slack": COLLISION_SLACK,
        },
    })


def write_summary(log: TrajectoryLog, path) -> dict:
    """Write `summarize(log)` to `path` and return the dict written."""
    doc = summarize(log)
    write_json(doc, path)
    return doc
