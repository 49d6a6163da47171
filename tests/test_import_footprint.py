"""``import augmi`` loads no scipy subpackage but ``scipy.linalg``.

Each further subpackage costs every process that imports the library: at
the time of writing, ``scipy.spatial`` alone added about 9 MB of peak RSS
and 0.11 s of import time.  The import runs in a fresh interpreter, so
modules that other tests load do not count.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import augmi; "
    "print(' '.join(sorted(name for name, module in list(sys.modules.items()) "
    "if name.count('.') == 1 and name.startswith('scipy.') "
    "and not name.split('.')[1].startswith('_') and hasattr(module, '__path__'))))"
)


def test_import_loads_only_scipy_linalg():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert set(out) <= {"scipy.linalg"}, f"import augmi loaded {out}"
