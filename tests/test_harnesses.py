"""Guards for the two timing harnesses that live outside ``testpaths``:
the benchmark's tracer (``perfbench/tracing.py``) and the layer timings
(``benchmarks/test_layers.py``). Both reach into the library by name, so
a rename there breaks them without failing any library test.
"""
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.PATCHES
               if inspect.getattr_static(owner, attr, None) is None]
    assert missing == []


def test_layer_timings_run_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", "benchmarks/test_layers.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
