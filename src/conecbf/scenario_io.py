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
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass
from functools import partial
from itertools import islice
from math import isfinite

from .cbf import Obstacle
from .controllers import ReferencePath
from .engine import (
    BRAKE_SPEED_FRACTION,
    COLLISION_SLACK,
    TURN_THRESHOLD_DEG,
    Scenario,
    TrajectoryLog,
    classify_behavior,
    safety_metrics,
)
from .errors import ValidationError
from .models import MODEL_KINDS, STATE_FIELDS, STATE_TYPES, _name

_INF = float("inf")
# trajectory CSV rows formatted and written per `%` and per write
CSV_BLOCK_ROWS = 64

# an obstacle's document pairs and the Obstacle fields each fills
_OBSTACLE_PAIRS = (("center", ("cx", "cy")), ("velocity", ("vx", "vy")), ("semi_axes", ("c1", "c2")))


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


def _two(v, where: str) -> list:
    if not (isinstance(v, list) and len(v) == 2):
        raise ValidationError(f"{where}: expected a list of 2 entries, got {v!r}")
    return v


def _pair(v, where: str) -> tuple:
    return tuple(_number(c, where) for c in _two(v, where))


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{where}: expected a list, got {type(v).__name__}")
    return v


def _obstacles(v, where: str) -> tuple:
    """Obstacles written as their _OBSTACLE_PAIRS and (t, velocity) segments."""
    obstacles = []
    for i, odoc in enumerate(_list(v, where)):
        at = f"{where}[{i}]"
        _check_keys(odoc, [key for key, _ in _OBSTACLE_PAIRS] + ["segments"], at)
        kw = {}
        for key, names in _OBSTACLE_PAIRS:
            # the center is required, the other pairs keep their defaults
            if key in odoc or key == "center":
                kw.update(zip(names, _value(_pair)(odoc, key, at)))
        segments = []
        for j, seg in enumerate(_list(odoc.get("segments", []), f"{at}.segments")):
            seg_at = f"{at}.segments[{j}]"
            _check_keys(seg, ("t", "velocity"), seg_at)
            segments.append((_value(_number)(seg, "t", seg_at), *_value(_pair)(seg, "velocity", seg_at)))
        obstacles.append(Obstacle(segments=tuple(segments), **kw))
    return tuple(obstacles)


def _state(d: dict, key: str, where: str):
    """The initial state, as the state type of the `model` read before it."""
    if d["model"] not in MODEL_KINDS:
        raise ValidationError(f"{where}.model: expected one of {sorted(MODEL_KINDS)}, got {d['model']!r}")
    return _read(STATE_TYPES[d["model"]], _required(d, key, where), f"{where}.{key}")


def _path(d: dict, key: str, where: str) -> ReferencePath:
    """A path written as its waypoints, with `closed` beside them."""
    at = f"{where}.{key}"
    closed = d.get("closed", ReferencePath.closed)
    if not isinstance(closed, bool):
        raise ValidationError(f"{where}.closed: expected true or false, got {closed!r}")
    return ReferencePath(tuple(_pair(p, f"{at}[{i}]") for i, p in enumerate(_list(d[key], at))), closed)


def _box(v, where: str):
    """input_bounds with a null side open; null as a whole is no box."""
    return None if v is None else tuple(
        (-_INF if lo is None else _number(lo, where), _INF if hi is None else _number(hi, where))
        for lo, hi in (_two(side, where) for side in _two(v, where))
    )


def _value(read):
    """The form that reads d[key], which must be there, as read(value, its path)."""
    return lambda d, key, where: read(_required(d, key, where), f"{where}.{key}")


# the fields read some other way than their type says, and the form that
# reads each from the object d holding it: form(d, key, path of d)
_FORMS = {
    "name": _value(_name),
    "initial_state": _state,
    "obstacles": _value(_obstacles),
    "v_des_vec": _value(_pair),
    "path": _path,
    "input_bounds": _value(_box),
}
# how a field that _FORMS leaves out is read, by its type: a float as a
# number, a str as it is (its dataclass checks it), a dataclass by _read
_TYPE_FORMS = {float: _number, str: lambda v, where: v}
# a field written with a key beside it, and that key
_BESIDE = {"path": "closed"}


def _read(cls, d, where: str):
    """Inverse of _fields_doc: the `cls` instance that document object `d`
    at `where` describes. A key names a field of dataclass `cls`, the section
    its metadata names or the _BESIDE key of a field. A field is read by its
    _FORMS entry, else by its type: a dataclass as an object by this rule, a
    float as a number and a str as it is, which its dataclass checks. Left
    out, it keeps its default, and without one it is required (the form
    refuses it missing).
    """
    fs = fields(cls)
    keys = {f.metadata.get("section", f.name) for f in fs}
    _check_keys(d, keys | {_BESIDE[k] for k in keys & _BESIDE.keys()}, where)
    kw = {}
    for f in fs:
        holder, at = d, where
        if section := f.metadata.get("section"):
            holder, at = d.get(section, {}), f"{where}.{section}"
            _check_keys(holder, [g.name for g in fs if g.metadata.get("section") == section], at)
        if f.name in holder or f.default is MISSING and f.default_factory is MISSING:
            form = _FORMS.get(f.name) or _value(_TYPE_FORMS.get(f.type) or partial(_read, f.type))
            kw[f.name] = form(holder, f.name, at)
        elif _BESIDE.get(f.name) in holder:
            raise ValidationError(f"{at}.{_BESIDE[f.name]}: allowed only beside {f.name!r}")
    return cls(**kw)


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed JSON document by the one rule of _read;
    `name` is the default name, and a left-out section takes the default of
    its Scenario field."""
    if isinstance(doc, dict):
        doc = {"name": name, **doc}
    return _read(Scenario, doc, name)


def _fields_doc(obj, skip=()) -> dict:
    """Dataclass `obj` as a document object: its fields outside `skip` in
    field order, each under its name or inside the section its metadata
    names, a dataclass value as an object of its own. An open value (None
    or +inf) is left out, so it parses back as the default."""
    doc = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.name in skip or v is None or v == _INF:
            continue
        if is_dataclass(v):
            v = _fields_doc(v)
        section = f.metadata.get("section")
        (doc.setdefault(section, {}) if section else doc)[f.name] = v
    return doc


def scenario_to_dict(sc: Scenario) -> dict:
    """Inverse of parse_scenario for every field a run reads.

    Every section follows the one rule of _fields_doc, but for two forms:
    an obstacle writes its _OBSTACLE_PAIRS, and a path its waypoints with
    `closed` beside it. parse_scenario(scenario_to_dict(sc)) == sc holds
    unless sc sets a field its run never reads; such a field is dropped and
    comes back at its default: hocbf_gamma1 unless cbf is 'hocbf', every
    controller field but kind for a 'zero' controller, and k_e and the path
    unless it is 'stanley'. An `sc` that is not a Scenario raises
    ValidationError, so save_scenario refuses it before it opens the file.
    """
    if not isinstance(sc, Scenario):
        raise ValidationError(f"scenario_to_dict needs a Scenario, got {type(sc).__name__}")
    doc = _fields_doc(sc, skip=() if sc.cbf == "hocbf" else ("hocbf_gamma1",))
    c = sc.controller
    if c.kind == "zero":
        doc["controller"] = {"kind": c.kind}
    elif c.kind == "stanley":
        doc["controller"].update(path=c.path.waypoints, closed=c.path.closed)
    else:
        doc["controller"] = _fields_doc(c, skip=("k_e", "path"))
    doc["obstacles"] = []
    for o in sc.obstacles:
        odoc = {key: [getattr(o, n) for n in names] for key, names in _OBSTACLE_PAIRS}
        if o.segments:
            odoc["segments"] = [{"t": t, "velocity": [vx, vy]} for t, vx, vy in o.segments]
        doc["obstacles"].append(odoc)
    # tuples as lists, and an open input_bounds side as null
    return _finite_or_none(doc)


@contextmanager
def _text_file(path, what: str, newline=None):
    """The file at `path` open as UTF-8 text, `newline` as for `open`; a file
    that cannot be read or decoded while in use raises ValidationError
    naming `what`."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text: {exc.reason} at byte {exc.start}")


def read_json(path, what: str) -> dict:
    """The JSON object in the file at `path`; `what` names the file in errors.

    NaN/Infinity, over-long integer literals, nesting too deep to decode
    and non-objects raise ValidationError.
    """
    def reject(literal):
        raise ValidationError(f"{path}: {literal} is not a finite number")

    with _text_file(path, what) as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except ValueError as exc:  # an integer literal too long to convert
        raise ValidationError(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply") from None
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
    """Write `doc` as strict JSON (NaN or infinity raise) indented by 2, ending in a newline.

    The document is encoded before the file is opened, so a refused one
    leaves no file behind.
    """
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _scenario_path(path):
    """`path` if it is a str or an os.PathLike; `open` would take an int or
    a bool for a file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"scenario file path must be a str or os.PathLike, got {type(path).__name__}")
    return path


def load_scenario(path) -> Scenario:
    return parse_scenario(read_json(_scenario_path(path), "scenario file"), name=str(path))


def save_scenario(sc: Scenario, path):
    write_json(scenario_to_dict(sc), _scenario_path(path))


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
    with _text_file(path, "CSV", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # a field beyond the csv module's size limit, say
            raise ValidationError(f"{path}: malformed CSV: {exc}") from None
    if len(rows) < 2:
        raise ValidationError(f"{path}: {'no data rows' if rows else 'empty CSV'}")
    header, *rows = rows
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
        "effective_radii": list(sc.radii),
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
