"""Each narrative demo runs to completion against the source tree."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would leave the parametrized test below with no case
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # run from an empty directory, so a demo that writes a file leaves
    # nothing in the checkout
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
