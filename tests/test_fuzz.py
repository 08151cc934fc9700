"""Mutated corpus files keep the CLI's exit-code contract.

Each scenario example takes a corpus scenario, cut to 0.5 s so that runs
stay short, applies one or two mutations (a value swapped for one of
another type, for a small number, for NaN or +-inf or for a list nested
1500 levels deeper than the recursion limit, or a key deleted) and runs `validate` and `simulate --plot` on the
result. A file that `validate` accepts never makes `simulate` exit 3 or
abort at step 0, and a plot it writes is well-formed XML titled with the
scenario's name, which may hold XML's special characters.

Each plot example takes the trajectory CSV of one short corpus run,
scales some columns by 1e16 or 1e17, makes them constant or writes NaN
into them, may prefix bytes that are not UTF-8, and runs `plot` in each
mode: it exits 0 with a finite SVG, or 3.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conecbf.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
CORPUS = {}
for _path in sorted(SCENARIO_DIR.glob("*.json")) + sorted(SCENARIO_DIR.glob("baseline/*.json")):
    CORPUS[_path.name] = json.loads(_path.read_text())
    CORPUS[_path.name]["sim"]["duration"] = 0.5

DELETE = object()
# stands for a list nested 1500 levels deeper than the recursion limit,
# which json.dumps cannot write; hypothesis raises the limit while an example
# runs (to 2017 from 1000), so a fixed depth of 1500 would decode there
DEEP = "<deeply nested list>"
# the text a scenario's name may hold, XML's special characters among it
NAMES = ["x", "A & B <1>", 'say "hi" & <bye>']
REPLACEMENTS = [None, True, *NAMES, [], {}, 0, -1, 0.5, 2.0, [1.0], [1.0, "x"],
                float("nan"), float("inf"), float("-inf"), DEEP, DELETE]


def _key_paths(node, prefix=()):
    """Every key path inside a JSON document, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _leaves(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _leaves(child)
    else:
        yield node


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    doc["name"] = draw(st.sampled_from(NAMES))
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(_key_paths(doc))))
        node = doc
        for key in parents:
            node = node[key]
        replacement = draw(st.sampled_from(REPLACEMENTS))
        if replacement is DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(replacement)
        if not doc:
            break
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_docs())
def test_mutated_corpus_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        depth = sys.getrecursionlimit() + 1500
        path.write_text(json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth))
        validated = main(["validate", "--scenario", str(path)])
        simulated = main(["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "out"), "--plot"])
        summary = Path(tmp) / "out" / "summary.json"
        aborted_at = json.loads(summary.read_text()).get("step") if summary.exists() else None
        plot = Path(tmp) / "out" / "plot.svg"
        if plot.exists():
            title = ET.parse(plot).getroot().find("{http://www.w3.org/2000/svg}text")
            assert title.text == json.loads(summary.read_text())["scenario"]["name"]
    assert validated in (0, 3)
    assert simulated in (0, 2, 3)
    if validated == 0:
        # validate runs the first step, so a run it accepts gets past it
        assert simulated != 3
        assert aborted_at != 0
    if any(isinstance(v, float) and not math.isfinite(v) or v == DEEP for v in _leaves(doc)):
        assert validated == 3


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """Output directory of a 0.5 s run of a corpus scenario with two obstacles."""
    out = tmp_path_factory.mktemp("plot-fuzz") / "run"
    path = out.parent / "two-obstacles.json"
    path.write_text(json.dumps(CORPUS["unicycle-two-obstacles.json"]))
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    return out


@st.composite
def mutated_csvs(draw, header):
    """(column mutations, prefix bytes) for a CSV with `header`."""
    columns = draw(st.lists(st.sampled_from(header), min_size=1, max_size=4, unique=True))
    ops = [(c, draw(st.sampled_from(["scale", "constant", "nan"])), draw(st.sampled_from([1.0, 1e16, 1e17])))
           for c in columns]
    return ops, draw(st.sampled_from([b"", b"\xff\xfe", b"\x80"]))


def test_mutated_plot_exit_codes(short_run):
    lines = (short_run / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mutated_csvs(header))
    def check(mutation):
        ops, prefix = mutation
        edited = [list(row) for row in rows]
        for column, op, factor in ops:
            i = header.index(column)
            for row in edited:
                value = float(edited[0][i] if op == "constant" else row[i]) * factor
                row[i] = "nan" if op == "nan" else repr(value)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "trajectory.csv"
            text = "\n".join(",".join(r) for r in [header] + edited) + "\n"
            csv_path.write_bytes(prefix + text.encode())
            shutil.copy(short_run / "summary.json", tmp)
            for mode in ("path", "hvalue", "inputs"):
                svg = Path(tmp) / f"{mode}.svg"
                code = main(["plot", "--csv", str(csv_path), "--out", str(svg), "--mode", mode])
                assert code in (0, 3), (mode, ops, prefix)
                if prefix:
                    assert code == 3
                if code == 0:
                    drawn = svg.read_text()
                    assert "nan" not in drawn and "inf" not in drawn
                    ET.fromstring(drawn)

    check()


def test_failing_property_reports_its_example(tmp_path):
    # under the repository's pytest config, where every other warning is an
    # error, a failing hypothesis test ends in its falsifying example, not in
    # an INTERNALERROR raised while the plugin writes that report
    test = tmp_path / "test_fails.py"
    test.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_below_ten(n):
            assert n < 10
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "Falsifying example: test_below_ten(" in proc.stdout
    assert "n=10," in proc.stdout
