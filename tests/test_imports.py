import os
import subprocess
import sys
from pathlib import Path

import lshlab as L

# runs in a fresh interpreter: pytest's own filterwarnings entry imports
# scipy.integrate into this one
_GAUSSIAN_PATH = """
import sys
import lshlab as L
mu = L.gaussian(1, 2)
battery = L.default_battery(2)
rep = L.check_slsi(battery[0], mu, 1.0)
assert rep.spec["scheme"] == "gauss_hermite" and rep.passed, rep
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_gaussian_path_imports_no_scipy():
    src = str(Path(L.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _GAUSSIAN_PATH], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
