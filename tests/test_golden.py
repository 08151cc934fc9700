"""Golden outputs: every corpus run reproduces its stored output bytes.

The trajectory table is the benchmark's reference file, so one set of
digests serves both the benchmark's output check and this test; the
summary and plot digests are held here. A refactor that drifts a single
bit in any corpus trajectory, summary or figure fails here. Each
scenario runs once, under `simulate --plot`, and the three tests read
that run's digests.
"""

import hashlib
import json
import tempfile
from functools import cache
from pathlib import Path

import pytest

import conecbf
from conecbf.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def test_reference_kernel_backend():
    assert conecbf.kernel_backend() == REFERENCE["kernel_backend"]


@cache
def simulated(scenario):
    """(exit code, CSV digest, summary digest, plot digest) of one
    `simulate --plot` run; the plot digest covers the plot.svg it writes
    followed by the `plot --mode path`, `hvalue` and `inputs` SVGs of its
    trajectory, in that order."""
    with tempfile.TemporaryDirectory() as out:
        out = Path(out)
        code = main(["simulate", "--scenario", str(ROOT / scenario), "--out", str(out), "--plot"])
        plot = hashlib.sha256((out / "plot.svg").read_bytes())
        for mode in ("path", "hvalue", "inputs"):
            svg = out / f"{mode}.svg"
            assert main(["plot", "--csv", str(out / "trajectory.csv"), "--out", str(svg), "--mode", mode]) == 0
            plot.update(svg.read_bytes())
        csv, summary = (hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("trajectory.csv", "summary.json"))
        return code, csv, summary, plot.hexdigest()


@pytest.mark.parametrize("scenario", sorted(REFERENCE["corpus"]))
def test_corpus_trajectory_digest(scenario):
    expect = REFERENCE["corpus"][scenario]
    assert simulated(scenario)[:2] == (expect["exit_code"], expect["csv_sha256"])


# SHA-256 of the summary.json `simulate` writes for each corpus scenario,
# so its metrics and scenario blocks cannot drift unseen either
SUMMARY_SHA256 = {
    "scenarios/baseline/unicycle-braking-unfiltered.json": "6f35d588ebcd5d122bad10fc7df0a8f008acdd869338e89b12430bd88c7dfd7a",
    "scenarios/baseline/unicycle-reversing-unfiltered.json": "d4e1395689ab9c3455760f5e685a1d6b44fb417f8c886928488963f2080e8855",
    "scenarios/bicycle-braking.json": "7b7482cd89d842bfbc59765229cd255588c273a7cfec2680014af7246e1416fe",
    "scenarios/bicycle-crossing.json": "8e1a03a28f75853168ff0b478727730008ab6d004289137bd76294af3e469cb4",
    "scenarios/bicycle-path-yield.json": "8759f3eb450a5c9c06c1999a017ad3e50b7ada2c06f627af004128f1c65e89ca",
    "scenarios/bicycle-reversing.json": "f00ea1f9bd33de2cc9c6a2a7bd045297af0e436bc98551114c0b3eedab4352c8",
    "scenarios/pointmass-braking.json": "83ea3afd303bdcb1e157b9756abee2e07a6c817a2babc7d156115bb97826295b",
    "scenarios/pointmass-crossing.json": "5cb269810927f3fe9cc0e2cd5fea152c3b0b82b12587928ddf8c16d81b0baff6",
    "scenarios/pointmass-retreat.json": "24ce4f7f72acb0661c115e8fcf9aa8785ff917f08f0b8b256576e5dc25466f76",
    "scenarios/unicycle-braking.json": "a9711e95a2b2d4990eb98611c03bb41a8ce440c7c1dc80df39ed4329052e553d",
    "scenarios/unicycle-crossing.json": "0f870996a3116b8f1abe9c00eb7b4255b160cb3384cf5f481967bc2483aa8a60",
    "scenarios/unicycle-overtaking.json": "119d346654d80b81bbdc48442cfe7d95169f700a764a7ab6e5083cb84e3f7a07",
    "scenarios/unicycle-reversing.json": "dcccb3c0cee274624f5f359380aafdfced17ef62fbf5afa065c107011534a6fd",
    "scenarios/unicycle-turn-from-rest.json": "7f93a659f259e8d4e391b71af810f7e0fc1f15492fdf1533ea7e780d4d89f9f9",
    "scenarios/unicycle-turning.json": "1f4e385c7d130d48ca5331743719308f86ef1bd26451e784670476e0d0b0c6a9",
    "scenarios/unicycle-two-obstacles.json": "f697d6d35b7d775a130fc4d7583f864f0a8092981cb894c1ac2e6d9abe654621",
}


@pytest.mark.parametrize("scenario", sorted(REFERENCE["corpus"]))
def test_corpus_summary_digest(scenario):
    assert simulated(scenario)[2] == SUMMARY_SHA256[scenario]


# SHA-256 of each corpus scenario's figures, as `simulated` digests them,
# so a figure cannot drift unseen either
PLOT_SHA256 = {
    "scenarios/baseline/unicycle-braking-unfiltered.json": "c1490207f9f65def3ee949f388fd294ddddd9b9b3b7ec34d8ef333af2b9344c1",
    "scenarios/baseline/unicycle-reversing-unfiltered.json": "211e3dc37c12185dc24a501f812db0876713ac2c8133ada8793c326e358261cc",
    "scenarios/bicycle-braking.json": "0163ac0cbc62dbc3882d5d8e979566cb15da925e78df307a5f05de4ecffeaf53",
    "scenarios/bicycle-crossing.json": "1d3be66d7ace690b5614a52e40d835cadbba0293395f8d4ae03159f14c7275e2",
    "scenarios/bicycle-path-yield.json": "3d2b20639a2c1478d7b41920201444e3e49d5bbbb489ea98ae4abefa7ff5370f",
    "scenarios/bicycle-reversing.json": "fa059c0bcf4ba7bb329ec35a07b9f5d9c52cabac5d237d4d98a07d4aaad4eb82",
    "scenarios/pointmass-braking.json": "397588ab613879ba4c9af95ae5bc44f90aff89628597458d9f927500cc024073",
    "scenarios/pointmass-crossing.json": "e6087ec9f8dd00636a255079c592e4ce2458ebc4620d387f8f1642858943378b",
    "scenarios/pointmass-retreat.json": "90ebb7e46601a84c878e8aa036302c903620b99b4158af4db4e24b7e14698d39",
    "scenarios/unicycle-braking.json": "e2f8bd83bb7d48849a325a472d2dc6349209d06cd82e4e494943835cdac5fa26",
    "scenarios/unicycle-crossing.json": "14eb1cd85e20b2679256081de5f06607a37aed0e0a0adc2beef206ae7be8a3a3",
    "scenarios/unicycle-overtaking.json": "6be718934f775ceb09dfab68b85b7aaa281a2952f4740d324a5252713b4fb0c8",
    "scenarios/unicycle-reversing.json": "257cc88de71d5eb7ce921d35d79ab8f0c9f4d89568e66dd3fda2199856b6721b",
    "scenarios/unicycle-turn-from-rest.json": "340d91c7f3d553691307ea75af5a587ea7cbe0d1b06a50d38c47d4a449b143e8",
    "scenarios/unicycle-turning.json": "e86217f83db9423ae37a31ad2c28f53407db8879c156078054a22d9bc0469290",
    "scenarios/unicycle-two-obstacles.json": "bf8574ebfcec56c972a552b3f252b1c4b92b57e62312d7c72deaac4cf74cc831",
}


@pytest.mark.parametrize("scenario", sorted(REFERENCE["corpus"]))
def test_corpus_plot_digest(scenario):
    assert simulated(scenario)[3] == PLOT_SHA256[scenario]
