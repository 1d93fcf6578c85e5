"""Start-up pays for nothing the default configuration never uses.

``numpy`` backs two optional synopsis families (count-min, wavelet);
they are its only importers.  Serving or simulating with the
default sparse histogram must not import it — on this host that is about a
third of ``import repro.service``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro.service, repro.core.pipeline
from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig
from repro.engine.types import StreamTuple
from repro.experiments import PAPER_QUERY, paper_catalog

streams = {
    "R": [StreamTuple(0.1, (1,)), StreamTuple(0.2, (2,))],
    "S": [StreamTuple(0.1, (1, 3)), StreamTuple(0.3, (2, 3))],
    "T": [StreamTuple(0.2, (3,))],
}
result = DataTriagePipeline(paper_catalog(), PAPER_QUERY, PipelineConfig()).run(streams)
assert [w.window_id for w in result.windows] == [0], result.windows
assert result.windows[0].merged == {(1,): {"count": 1.0}, (2,): {"count": 1.0}}
assert "numpy" not in sys.modules, "numpy imported on the default path"

import repro.synopses
assert "numpy" not in sys.modules
assert "cms" in repro.synopses.FACTORIES  # the lazy families resolve on use...
assert "numpy" in sys.modules  # ...and that is what imports numpy
print("ok")
"""


def test_default_path_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
