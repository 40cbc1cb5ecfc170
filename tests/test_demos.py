"""The graph and forward demos run end to end.

They are the only callers of `cosine_similarity_matrix` and `model.forward`
outside the tests, so a change to either must keep them running.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogcn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_graph_construction.py", "02_forward_and_gradients.py"])
def test_demo_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(Path(cogcn.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
