"""The contract of the public edge, as one table.

The forward-invariance guarantee holds only if bad numbers cannot switch
the filter off, so each public callable either refuses a bad value with
ValidationError or accepts it by design. ROWS holds one row per public
callable and parameter, for everything in `conecbf.__all__` but the
exception classes. A row names the parameter's kind, and the kind fixes
the cell in each column, a class of bad value: ValidationError, or
accepted. Each cell is a test of its own. Where the contract differs
from the kind, the row lists the cell by hand. A row's `opening` starts
every message it refuses with, and its `outside` values lie outside the
parameter's range (the "range" column). The output records check nothing
by design, so their rows accept everything. A refusal leaves the working
directory as it was. A cell that names another exception pins a known
gap, what the code raises today, until it is mended.

A parameter written `u[]` puts each value into every component of `u` in
turn, `input_bounds[][0]` into the low side of every row of the box, and
`evals[].dist` into the `dist` of every evaluation. A row of a callable
that takes a model runs on each model, or on the models it names, and
from each of its bases.

A second test walks the signature of every public callable, so a new
parameter cannot skip the table.
"""

import inspect
import math
import os
import tempfile
from collections import namedtuple
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import pytest

import conecbf
from conecbf import (
    BicycleState,
    CbfEvaluation,
    ControllerSpec,
    FilterConfig,
    ModelParams,
    Obstacle,
    PointMassState,
    ReferencePath,
    Scenario,
    UnicycleState,
    ValidationError,
    run_scenario,
    scenario_to_dict,
)

VE, OK = ValidationError, "accepted"
NAN, INF = math.nan, math.inf

# the classes of bad value that stand in for a number, with their samples;
# the kinds add "type" (a value of the wrong type), "state" (a state of
# another model) and "length" (a vector of the wrong length)
NUMBERS = {
    "nan": NAN, "inf": INF, "-inf": -INF, "bool": True, "str": "1", "complex": 1j, "None": None,
    "int>double": 10**400,
}

STATES = {
    "unicycle": UnicycleState(0.0, 0.0, 0.0, 1.0, 0.5),
    "bicycle": BicycleState(0.0, 0.0, 0.0, 1.0),
    "pointmass": PointMassState(0.0, 0.0, 1.0, 0.5),
}
MODELS = tuple(STATES)
P = ModelParams(l=0.1, w=0.5, v_max=5.0)
CFG = FilterConfig()
BOX = FilterConfig(input_bounds=((-1.0, 1.0), (-1.0, 1.0)))
PATH = ReferencePath(((0.0, 0.0), (50.0, 0.0)))
P_LAW = ControllerSpec(k1=1.0, k2=0.5, v_des=1.0)
ZERO = ControllerSpec(kind="zero")
STANLEY = ControllerSpec(kind="stanley", k2=0.5, v_des=1.0, v_des_vec=(1.0, 0.0), a_max=2.0, path=PATH)
STILL = Obstacle(5.0, 0.5)
MOVING = Obstacle(5.0, 0.5, vx=-0.5, segments=((1.0, 0.0, 0.5),))
EVAL = CbfEvaluation(1.0, 0.0, (1.0, 0.0), False, 5.0)
SCENARIO_FILE = Path(__file__).resolve().parent.parent / "scenarios" / "unicycle-braking.json"


def scenario(model="unicycle"):
    return Scenario(name="contract", model=model, initial_state=STATES[model], obstacles=(STILL,),
                    controller=P_LAW, dt=0.01, duration=0.05)


LOG = run_scenario(scenario())


def number(model, base):
    return {c: [v] for c, v in NUMBERS.items()}


def shape(model, base):
    """A vector, or a sequence of vectors, as a whole: a string, the first
    components alone, or every vector a component short or long."""
    if isinstance(base[0], tuple):
        wrong = [tuple(r[:-1] for r in base), tuple(r + r[-1:] for r in base)]
        return {**number(model, base), "type": ["abc"[:len(base)], tuple(r[0] for r in base)], "length": wrong}
    return {**number(model, base), "type": ["abc"[:len(base)]], "length": [base[:-1], base + base[-1:]]}


def box(model, base):
    """An input box, which also holds exactly two rows."""
    samples = shape(model, base)
    samples["length"] += [base[:1], base + base[:1]]
    return samples


def record(model, base):
    """An argument read by its fields: a tuple or a record of another type."""
    return {**number(model, base), "type": [(1.0, 2.0), P if type(base) is FilterConfig else CFG]}


def records(model, base):
    return {**number(model, base), "type": [((1.0, 2.0),), (CFG,)]}


def state(model, base):
    """A state of `model`: a tuple of its values, a named tuple that reads
    like it (holding NaN, or an unwrapped heading), a subclass, or a state
    of another model."""
    values = base.as_tuple()
    like = namedtuple(type(base).__name__, type(base).__slots__)
    subclass = type(type(base).__name__, (type(base),), {"__slots__": ()})
    return {
        **number(model, base),
        "type": [values, like(*values), like(NAN, *values[1:]), like(*values[:2], 7.0, *values[3:]),
                 subclass(*values)],
        "state": [s for m, s in STATES.items() if m != model],
    }


def choice(model, base):
    """A model or another choice string: a list that holds a known one cannot be hashed."""
    return {**number(model, base), "type": [[base]]}


def flag(model, base):
    return {**number(model, base), "type": [1, "yes"]}


def text(model, base):
    """A scenario name: a lone surrogate, a control character or a
    noncharacter cannot be carried by both UTF-8 and XML 1.0."""
    return {**number(model, base), "type": ["\ud800x", "bad\u0001name", "\ufffe", ["a"], 5]}


class Kind(NamedTuple):
    samples: object
    accepts: frozenset = frozenset()


NUMBER = Kind(number)
SHAPE = Kind(shape)
BOX_KIND = Kind(box)
RECORD = Kind(record)
RECORDS = Kind(records)
STATE = Kind(state)
CHOICE = Kind(choice)
FLAG = Kind(flag, frozenset({"bool"}))
TEXT = Kind(text, frozenset({"str"}))
# an output record checks nothing, and a parameter a model does not read
# takes anything
ANY = Kind(number, frozenset(NUMBERS))


class Row(NamedTuple):
    call: str
    param: str
    kind: Kind
    # a cell by hand: OK, VE, the opening of a ValidationError's message,
    # or the exception a FOUND gap raises today
    cells: dict = {}
    opening: str = None
    models: tuple = None
    bases: tuple = ({},)
    outside: tuple = ()


def rows(call, params, kind, **kw):
    return [Row(call, p, kind, **kw) for p in params.split()]


def finite(call, params, **outside):
    """Finite-number fields of a record; `outside` maps a field to the
    opening of its range refusal and the values outside its range."""
    return [Row(call, p, NUMBER, {"range": outside[p][0]} if p in outside else {},
                f"{call}.{p}: expected a finite number, got ", outside=outside.get(p, ())[1:]) for p in params.split()]


UNFIT = "{call}: inputs do not fit the {model} model: "
TAKES = "{call}: the {model} model takes a {state}, got "
UNKNOWN = "unknown model kind "
TIME = "obstacle time must be a finite number >= 0, got "
DIST = "distance must be a number >= 0, got "
# a path is a str or an os.PathLike, refused before anything is opened: a
# bool or an int would be a file descriptor to `open`
NOT_A_PATH = dict.fromkeys(("nan", "inf", "-inf", "bool", "complex", "None", "int>double"),
                           "scenario file path must be a str or os.PathLike, got ")

ROWS = [
    *finite("UnicycleState", "x y theta v omega"),
    *finite("BicycleState", "x y theta v"),
    *finite("PointMassState", "x y vx vy"),
    *rows("CbfEvaluation", "h lfh lgh penetration dist", ANY),
    *rows("FilterResult", "u_star u_safe active_set psi degenerate infeasible", ANY),
    *rows("SafetyMetrics", "min_clearance min_clearance_overall min_h active_fraction max_u_safe max_abs_beta", ANY),
    *rows("TrajectoryLog", "scenario t states u_ref u_star h psi dist active penetration degenerate infeasible "
                           "collided collision_step collision_obstacle", ANY),
    Row("ControllerSpec", "kind", CHOICE, opening="unknown controller kind "),
    *finite("ControllerSpec", "k1 k2 v_des k_e", k1=("k1 must be > 0, got ", 0.0, -1.0),
            k2=("k2 must be >= 0, got ", -1.0)),
    Row("ControllerSpec", "v_des_vec", SHAPE, {"None": OK}),
    Row("ControllerSpec", "v_des_vec[]", NUMBER, opening="ControllerSpec.v_des_vec."),
    Row("ControllerSpec", "a_max", NUMBER, {"None": OK, "range": "a_max must be > 0, got "},
        "ControllerSpec.a_max: expected a finite number, got ", outside=(0.0, -1.0)),
    Row("ControllerSpec", "path", RECORD),
    *finite("FilterConfig", "gamma regularization_eps", gamma=("gamma must be > 0, got ", 0.0, -1.0),
            regularization_eps=("regularization_eps must be > 0, got ", 0.0)),
    Row("FilterConfig", "activation_radius", NUMBER, {"inf": OK, "range": "activation_radius must be > 0, got "},
        outside=(0.0, -1.0)),
    Row("FilterConfig", "input_bounds", BOX_KIND, {"None": OK}),
    Row("FilterConfig", "input_bounds[][0]", NUMBER, {"-inf": OK, "range": "empty input bound "}, outside=(1.0, 2.0)),
    Row("FilterConfig", "input_bounds[][1]", NUMBER, {"inf": OK}),
    *finite("ModelParams", "l l_f l_r w beta_max", l=("body-center offset l must be >= 0, got ", -0.1),
            l_f=("axle distances l_f, l_r must be > 0", 0.0), l_r=("axle distances l_f, l_r must be > 0", -1.0),
            w=("vehicle width must be >= 0, got ", -0.5),
            beta_max=("beta_max must lie in (0, pi/2), got ", 0.0, math.pi / 2)),
    Row("ModelParams", "v_max", NUMBER, {"inf": OK, "range": "v_max must be > 0, got "}, outside=(0.0, -1.0)),
    *finite("Obstacle", "cx cy vx vy c1 c2", c1=("Obstacle semi-axes must be > 0", 0.0),
            c2=("Obstacle semi-axes must be > 0", -1.0)),
    Row("Obstacle", "segments", SHAPE),
    Row("Obstacle", "segments[][]", NUMBER, opening="Obstacle.segments."),
    Row("Obstacle.state_at", "t", NUMBER, opening=TIME, bases=({}, {"o": STILL}), outside=(-0.5, -1e-300)),
    Row("ReferencePath", "waypoints", SHAPE),
    Row("ReferencePath", "waypoints[][]", NUMBER, opening="ReferencePath.waypoints."),
    Row("ReferencePath", "closed", FLAG, opening="ReferencePath.closed: expected True or False, got "),
    Row("Scenario", "name", TEXT, opening="Scenario.name: expected a string that UTF-8 and XML 1.0 can carry, got "),
    Row("Scenario", "model", CHOICE, opening=UNKNOWN),
    Row("Scenario", "params", RECORD, opening="Scenario.params: expected a ModelParams, got "),
    Row("Scenario", "initial_state", STATE, opening=TAKES),
    Row("Scenario", "obstacles", RECORDS, opening="Scenario.obstacles: expected a tuple of Obstacle, got "),
    Row("Scenario", "controller", RECORD, opening="Scenario.controller: expected a ControllerSpec, got "),
    Row("Scenario", "filter", RECORD, opening="Scenario.filter: expected a FilterConfig, got "),
    *finite("Scenario", "dt duration hocbf_gamma1", dt=("need 0 < dt <= duration, got ", 0.0, -0.1),
            duration=("need 0 < dt <= duration, got ", 0.0), hocbf_gamma1=("hocbf_gamma1 must be > 0, got ", 0.0, -1.0)),
    Row("Scenario", "cbf", CHOICE, opening="unknown cbf kind "),
    Row("activation_gate", "dist", NUMBER, {"inf": OK, "int>double": OK}, DIST, outside=(-1.0, -1e-300)),
    Row("activation_gate", "cfg", RECORD, opening="activation_gate needs a FilterConfig: "),
    *[r for name in ("c3bf_eval", "ellipse_cbf_eval", "hocbf_eval") for r in (
        Row(name, "model", CHOICE, opening=UNKNOWN),
        Row(name, "s", STATE, opening=TAKES),
        Row(name, "o", RECORD, opening=UNFIT),
    )],
    *[Row(name, "t", NUMBER, {"None": OK}, TIME, bases=({}, {"o": MOVING}), outside=(-0.5, -1e-300))
      for name in ("c3bf_eval", "ellipse_cbf_eval")],
    # a moving obstacle is refused on the bicycle whatever t is
    Row("hocbf_eval", "t", NUMBER, {"None": OK}, TIME, ("unicycle", "pointmass"), ({}, {"o": MOVING}), (-0.5,)),
    Row("hocbf_eval", "t", NUMBER, {"None": OK}, TIME, ("bicycle",), outside=(-0.5,)),
    Row("c3bf_eval", "p", RECORD, opening=UNFIT),
    Row("hocbf_eval", "gamma1", NUMBER, opening="gamma1 must be a finite number > 0, got ", outside=(0.0, -1.0)),
    Row("hocbf_eval", "p", RECORD, opening=UNFIT, models=("bicycle",)),
    Row("hocbf_eval", "p", ANY, models=("unicycle", "pointmass")),
    *rows("effective_radius", "o p", RECORD, opening="effective_radius needs an Obstacle and ModelParams: "),
    *[r for name, e in (("filter_qp", "evals"), ("filter_single", "e")) for r in (
        Row(name, "u_ref", SHAPE),
        Row(name, "u_ref[]", NUMBER, bases=({}, {"evals": ()}, {"cfg": BOX}, {"evals": (), "cfg": BOX})
            if name == "filter_qp" else ({},)),
        Row(name, e, RECORDS if name == "filter_qp" else RECORD),
        Row(name, e + ("[].dist" if name == "filter_qp" else ".dist"), NUMBER, {"inf": OK, "int>double": OK}, DIST,
            outside=(-1.0,)),
        Row(name, "cfg", RECORD, opening=f"{name} needs a pair of finite numbers u_ref, CbfEvaluation records "
                                         "and a FilterConfig: "),
    )],
    Row("integrate_step", "model", CHOICE, opening=UNKNOWN),
    Row("integrate_step", "s", STATE, opening=TAKES),
    Row("integrate_step", "u", SHAPE),
    Row("integrate_step", "u[]", NUMBER, dict.fromkeys(("bool", "str", "None", "int>double"),
                                                         "input u must be a pair of numbers, got ")),
    Row("integrate_step", "dt", NUMBER, opening="dt must be a finite number > 0, got ", outside=(0.0, -0.01)),
    Row("integrate_step", "p", RECORD, {"None": OK}, UNFIT, ("unicycle",)),
    Row("integrate_step", "p", RECORD, opening=UNFIT, models=("bicycle",)),
    Row("integrate_step", "p", ANY, models=("pointmass",)),
    Row("reference_input", "c", RECORD, opening=UNFIT),
    Row("reference_input", "model", CHOICE, opening=UNKNOWN, bases=({}, {"c": ZERO})),
    Row("reference_input", "s", STATE, opening=TAKES, bases=({}, {"c": ZERO})),
    # the bicycle's base controller is a Stanley tracker, which reads p
    Row("reference_input", "p", RECORD, opening=UNFIT, models=("bicycle",)),
    Row("reference_input", "p", ANY, models=("unicycle", "pointmass")),
    Row("slip_from_steering", "delta", NUMBER, opening="steering angle must satisfy |delta| < pi/2, got ",
        outside=(math.pi / 2, -math.pi / 2, 2.0)),
    Row("slip_from_steering", "p", RECORD, opening="slip_from_steering: inputs do not fit the bicycle model: "),
    Row("run_scenario", "sc", RECORD, opening="run_scenario needs a Scenario, got "),
    Row("safety_metrics", "log", RECORD, opening="safety_metrics needs a TrajectoryLog, got "),
    Row("classify_behavior", "log", RECORD, opening="classify_behavior needs a TrajectoryLog, got "),
    Row("scenario_to_dict", "sc", RECORD, opening="scenario_to_dict needs a Scenario, got "),
    Row("save_scenario", "sc", RECORD, opening="scenario_to_dict needs a Scenario, got "),
    Row("save_scenario", "path", NUMBER, {**NOT_A_PATH, "str": OK}),
    Row("load_scenario", "path", NUMBER, NOT_A_PATH, opening="cannot read scenario file "),
    Row("parse_scenario", "doc", RECORD),
    Row("parse_scenario", "name", TEXT),
]


def _kwargs(obj):
    """The arguments that build record `obj` again."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}
    return obj._asdict()


def _doc():
    doc = scenario_to_dict(scenario())
    del doc["name"]
    return doc


# each callable's arguments on the good path, on model `m`
BASES = {
    **{name: lambda m, r=r: _kwargs(r) for name, r in (
        ("UnicycleState", STATES["unicycle"]), ("BicycleState", STATES["bicycle"]),
        ("PointMassState", STATES["pointmass"]), ("CbfEvaluation", EVAL), ("TrajectoryLog", LOG),
        ("ControllerSpec", STANLEY), ("ModelParams", P), ("Obstacle", MOVING), ("ReferencePath", PATH),
    )},
    "FilterResult": lambda m: _kwargs(conecbf.filter_qp((0.5, 0.0), (EVAL,), CFG)),
    "SafetyMetrics": lambda m: _kwargs(conecbf.safety_metrics(LOG)),
    "FilterConfig": lambda m: _kwargs(FilterConfig(activation_radius=10.0, input_bounds=BOX.input_bounds)),
    "Obstacle.state_at": lambda m: {"o": MOVING, "t": 0.5},
    "Scenario": lambda m: _kwargs(scenario(m)),
    "activation_gate": lambda m: {"dist": 1.0, "cfg": CFG},
    "c3bf_eval": lambda m: {"model": m, "s": STATES[m], "o": STILL, "p": P, "t": 0.5},
    "ellipse_cbf_eval": lambda m: {"model": m, "s": STATES[m], "o": STILL, "t": 0.5},
    "hocbf_eval": lambda m: {"model": m, "s": STATES[m], "o": STILL, "gamma1": 1.0, "p": P, "t": 0.5},
    "effective_radius": lambda m: {"o": STILL, "p": P},
    "filter_qp": lambda m: {"u_ref": (0.5, 0.0), "evals": (EVAL, EVAL._replace(lgh=(0.0, 1.0))), "cfg": CFG},
    "filter_single": lambda m: {"u_ref": (0.5, 0.0), "e": EVAL, "cfg": CFG},
    "integrate_step": lambda m: {"model": m, "s": STATES[m], "u": (0.1, 0.05), "dt": 0.01, "p": P},
    "reference_input": lambda m: {"c": STANLEY if m == "bicycle" else P_LAW, "model": m, "s": STATES[m], "p": P},
    "slip_from_steering": lambda m: {"delta": 0.1, "p": P},
    "run_scenario": lambda m: {"sc": scenario()},
    "safety_metrics": lambda m: {"log": LOG},
    "classify_behavior": lambda m: {"log": LOG},
    "scenario_to_dict": lambda m: {"sc": scenario()},
    "save_scenario": lambda m: {"sc": scenario(), "path": "saved.json"},
    "load_scenario": lambda m: {"path": SCENARIO_FILE},
    "parse_scenario": lambda m: {"doc": _doc(), "name": "contract"},
}
# the callables whose arguments depend on the model
MODELLED = {"Scenario", "c3bf_eval", "ellipse_cbf_eval", "hocbf_eval", "integrate_step", "reference_input"}
CALLS = {"Obstacle.state_at": lambda o, t: o.state_at(t)}


def _put(value, steps, x):
    """Every value that puts x at the places `steps` names in `value`."""
    if not steps:
        yield x
    elif steps[0].startswith("["):
        at = range(len(value)) if steps[0] == "[]" else (int(steps[0][1:-1]),)
        for i in at:
            for new in _put(value[i], steps[1:], x):
                yield (*value[:i], new, *value[i + 1:])
    else:
        for new in _put(getattr(value, steps[0]), steps[1:], x):
            yield value._replace(**{steps[0]: new})


def _split(param):
    """`input_bounds[][0]` as ("input_bounds", ["[]", "[0]"])."""
    head, *steps = param.replace("[", ".[").split(".")
    return head, steps


def _outcome(call, kwargs):
    """OK, or the exception the call raised; a refusal leaves the working
    directory as it was."""
    before = os.listdir()
    try:
        call(**kwargs)
    except Exception as exc:
        return exc if os.listdir() == before else AssertionError(f"{exc!r} after a file was written")
    return OK


def _cell(row, column, model):
    """The cell's outcome (OK or an exception type) and message opening."""
    cell = row.cells.get(column, OK if column in row.kind.accepts else VE)
    if isinstance(cell, str) and cell != OK:
        cell, opening = VE, cell
    else:
        opening = row.opening if cell is VE else None
    return cell, (opening or "").format(call=row.call, model=model, state=type(STATES.get(model)).__name__)


def _row_id(row):
    return f"{row.call}.{row.param}" + (f"[{','.join(row.models)}]" if row.models else "")


def _bases(row):
    """(model, base arguments) for each model and base of the row."""
    for model in row.models or (MODELS if row.call in MODELLED else (None,)):
        for over in row.bases:
            yield model, {**BASES[row.call](model), **over}


def _columns(row, model, base):
    """The row's columns on `model` from `base`, each with its samples."""
    columns = row.kind.samples(model, base[_split(row.param)[0]])
    if row.outside:
        columns["range"] = row.outside
    return columns


# one test per cell: a row and a column, over the row's models and bases
CELLS = [pytest.param(row, column, id=f"{_row_id(row)}-{column}") for row in ROWS
         for column in dict.fromkeys(c for model, base in _bases(row) for c in _columns(row, model, base))]


@pytest.mark.parametrize("row, column", CELLS)
def test_cells(row, column):
    # a path given as a plain string lands in a fresh directory
    back = os.getcwd()
    with tempfile.TemporaryDirectory() as fresh:
        os.chdir(fresh)
        try:
            _check_cell(row, column)
        finally:
            os.chdir(back)


def _check_cell(row, column):
    call = CALLS.get(row.call) or getattr(conecbf, row.call)
    head, steps = _split(row.param)
    failures = []
    for model, base in _bases(row):
        assert _outcome(call, base) == OK, model
        expect, opening = _cell(row, column, model)
        samples = _columns(row, model, base).get(column, ())
        for value in (v for sample in samples for v in _put(base[head], steps, sample)):
            got = _outcome(call, {**base, head: value})
            if got != OK if expect == OK else not (type(got) is expect and str(got).startswith(opening)):
                failures.append(f"{row.param}={value!r} on {model}: expected "
                                f"{getattr(expect, '__name__', expect)} {opening!r}, got {got!r}")
    assert not failures, "\n".join(failures)


def test_every_parameter_has_a_row():
    public = {name: inspect.signature(getattr(conecbf, name)).parameters for name in conecbf.__all__
              if not (isinstance(getattr(conecbf, name), type) and issubclass(getattr(conecbf, name), Exception))}
    covered = {(row.call, _split(row.param)[0]) for row in ROWS}
    assert [(name, p) for name, params in public.items() for p in params if (name, p) not in covered] == []
    # and no row names a callable or a parameter that is gone
    assert [(c, p) for c, p in covered if c not in CALLS and p not in public.get(c, ())] == []
