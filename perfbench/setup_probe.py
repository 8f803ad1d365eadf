"""Set-up cost a CLI user pays on every call: a fresh interpreter imports
qgeom and builds the workload's model, then prints the nanoseconds since
the ``time.monotonic_ns()`` value its parent passed just before starting it.

    python3 perfbench/setup_probe.py T0 file MODEL.json
    python3 perfbench/setup_probe.py T0 builtin spin_half|two_band_lattice VALUE

Run from the repository root, so that ``src/`` holds the qgeom under test.
"""

import sys
import time

sys.path.insert(0, "src")

import qgeom  # noqa: E402

t0, kind, *spec = sys.argv[1:]
if kind == "file":
    qgeom.load_model_spec(spec[0])
elif spec[0] == "spin_half":
    qgeom.spin_half(float(spec[1]))
else:
    qgeom.two_band_lattice(float(spec[1]))
print(time.monotonic_ns() - int(t0))
