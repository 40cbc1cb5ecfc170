"""Every demo runs end to end.

Demo 01 is the only caller of `cosine_similarity_matrix` outside the tests,
demo 02 runs one graph through `forward_arrays` as a group of one, demo 03
trains and evaluates one speaker split, and demo 04 runs full
leave-one-speaker-out CV and reads each fold's selected trial. A change to
what they call must keep them running.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cogcn

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_graph_construction.py", "02_forward_and_gradients.py",
                                    "03_training_run.py", "04_speaker_held_out_benchmark.py"])
def test_demo_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(Path(cogcn.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
