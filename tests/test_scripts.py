"""The runnable demos in scripts/ run to completion against the library, and
the benchmark's span tracer still names functions the library has."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["vacuum_demo.py", "flow_demo.py",
                                  "transform_demo.py"])
def test_demo_exits_0(tmp_path, name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_targets_resolve():
    # the traced benchmark run wraps each module.name of TARGETS; a rename in
    # the library would break that run without failing any other test
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, funcs in tracer.TARGETS.items():
        mod = importlib.import_module(f"nhgeo.{mod_name}")
        for qual in funcs:
            obj = mod
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{qual}")
    assert not missing
