"""The program run from outside: a fresh interpreter with src/ on its path,
and the benchmark harness's modules loaded from their files under perfbench/."""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(script, *args, check=True, **env):
    """python -c script args, with src/ first on its path and env added to the
    environment; it must end within 60 s."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, text=True,
                          timeout=60, check=check)


@functools.cache
def load(name):
    """perfbench/<name>.py as a module, under a name no test imports; it is
    registered in sys.modules, where dataclasses looks up its annotations."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
