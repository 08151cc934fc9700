"""Golden outputs: every corpus run reproduces its stored trajectory bytes.

The stored table is the benchmark's reference file, so one set of
digests serves both the benchmark's output check and this test. A
refactor that drifts a single bit in any corpus trajectory fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

import conecbf
from conecbf.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def test_reference_kernel_backend():
    assert conecbf.kernel_backend() == REFERENCE["kernel_backend"]


@pytest.mark.parametrize("scenario", sorted(REFERENCE["corpus"]))
def test_corpus_trajectory_digest(tmp_path, scenario):
    expect = REFERENCE["corpus"][scenario]
    code = main(["simulate", "--scenario", str(ROOT / scenario), "--out", str(tmp_path)])
    assert code == expect["exit_code"]
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == expect["csv_sha256"]
