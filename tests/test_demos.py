"""The graph, forward and training demos run end to end.

Demo 01 is the only caller of `cosine_similarity_matrix` outside the tests,
demo 02 runs one graph through `forward_arrays` as a group of one, and demo
03 trains and evaluates one speaker split. A change to what they call must
keep them running.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogcn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_graph_construction.py", "02_forward_and_gradients.py",
                                    "03_training_run.py"])
def test_demo_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(Path(cogcn.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
