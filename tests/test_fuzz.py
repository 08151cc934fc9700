"""Mutated corpus files keep the CLI's exit-code contract.

Each example takes a corpus scenario, cut to 0.5 s so that runs stay
short, applies one or two mutations (a value swapped for one of
another type, for a small number, or for NaN or +-inf, or a key
deleted) and runs `validate` and `simulate` on the result. A file that
`validate` accepts never makes `simulate` exit 3 or abort at step 0.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conecbf.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CORPUS = {}
for _path in sorted(SCENARIO_DIR.glob("*.json")) + sorted(SCENARIO_DIR.glob("baseline/*.json")):
    CORPUS[_path.name] = json.loads(_path.read_text())
    CORPUS[_path.name]["sim"]["duration"] = 0.5

DELETE = object()
REPLACEMENTS = [None, True, "x", [], {}, 0, -1, 0.5, 2.0, [1.0], [1.0, "x"],
                float("nan"), float("inf"), float("-inf"), DELETE]


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
        path.write_text(json.dumps(doc))
        validated = main(["validate", "--scenario", str(path)])
        simulated = main(["simulate", "--scenario", str(path), "--out", str(Path(tmp) / "out")])
        summary = Path(tmp) / "out" / "summary.json"
        aborted_at = json.loads(summary.read_text()).get("step") if summary.exists() else None
    assert validated in (0, 3)
    assert simulated in (0, 2, 3)
    if validated == 0:
        # validate runs the first step, so a run it accepts gets past it
        assert simulated != 3
        assert aborted_at != 0
    if any(isinstance(v, float) and not math.isfinite(v) for v in _leaves(doc)):
        assert validated == 3
