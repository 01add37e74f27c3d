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

# mixture, shift and perturbation of 1-D Gaussians, and an adaptive check on
# the mixture: the closures are normalised without SciPy
_CLOSURE_PATH = """
import sys
import numpy as np
import lshlab as L
mu = L.mix(L.gaussian(0.8, 1), L.gaussian(1.25, 1), 0.7)
L.shift(mu, [0.3])
L.perturb(L.gaussian(1, 1), lambda pts: 0.3 * np.tanh(pts[:, 0]))
rep = L.check_slsi(L.log_linear([0.5]), mu, 1.0)
assert rep.spec["scheme"] == "adaptive_1d" and not rep.inconclusive, rep
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _scipy_modules_after(code: str) -> str:
    src = str(Path(L.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_gaussian_path_imports_no_scipy():
    assert _scipy_modules_after(_GAUSSIAN_PATH) == "[]"


def test_closures_import_no_scipy():
    assert _scipy_modules_after(_CLOSURE_PATH) == "[]"
