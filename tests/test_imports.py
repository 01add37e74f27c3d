import os
import subprocess
import sys
from pathlib import Path

import lshlab as L

# Both scripts run in a fresh interpreter where any import of scipy raises
# ImportError (pytest's own filterwarnings entry imports scipy.integrate into
# this one). Together they build every measure family and closure, run one
# check on each quadrature scheme and a campaign through the CLI.
_PRELUDE = """
import sys
import tempfile
sys.modules["scipy"] = None
import numpy as np
import lshlab as L
from lshlab.cli import main
f = L.log_linear([0.5])
g1 = L.gaussian(1, 1)
"""

# the three schemes on a Gaussian, and a campaign through the CLI
_GAUSSIAN_PATH = _PRELUDE + """
for spec in [L.default_spec(g1),
             L.default_spec(g1, scheme="tensor_trapezoid"),
             L.default_spec(g1, scheme="adaptive_1d")]:
    rep = L.check_slsi(f, g1, 1.0, spec)
    assert not rep.inconclusive, rep
    print(rep.spec["scheme"])
with tempfile.TemporaryDirectory() as out:
    assert main(["run", "gaussian-sharp", "--output-dir", out]) == 0
"""

# every other family and closure, and an adaptive check on a mixture
_CLOSURE_PATH = _PRELUDE + """
for dim in (1, 2, 3):
    L.convolve_measures(L.gaussian(1, dim), L.gen_exponential(1, 1, dim))
mixed = L.mix(g1, L.gen_exponential(0.5, 2, 1), 0.3)
L.shift(mixed, [0.3])
L.product(g1, L.uniform_ball(1.0, 1))
L.perturb(g1, lambda pts: 0.3 * np.tanh(pts[:, 0]))
L.poly_tail(1.5)
rep = L.check_slsi(f, mixed, 1.0, L.default_spec(mixed))
assert not rep.inconclusive, rep
print(rep.spec["scheme"])
"""


def _stdout_without_scipy(code: str) -> list[str]:
    src = str(Path(L.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_gaussian_path_imports_no_scipy():
    assert _stdout_without_scipy(_GAUSSIAN_PATH) == [
        "gauss_hermite", "tensor_trapezoid", "adaptive_1d"]


def test_closures_import_no_scipy():
    assert _stdout_without_scipy(_CLOSURE_PATH) == ["adaptive_1d"]


def test_regularity_search_imports_no_numpy_ma():
    # np.unique imports numpy.ma, 16-26 ms of every fresh run
    code = _PRELUDE + """
L.regularity_constant(L.gaussian(1), 0, 1.25, 0.3)
L.convolve(f, L.mollifier(1, 4))(np.zeros((100, 1)))
print("numpy.ma" in sys.modules)
"""
    assert _stdout_without_scipy(code) == ["False"]
