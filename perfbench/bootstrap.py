"""Locate the checkout's ``src/binaryshield`` and make it importable.

The benchmark always measures the source tree it ships beside, never an
installed copy, so it refuses to run when ``src/binaryshield`` is absent.
``BINARYSHIELD_*`` variables are dropped before the package is imported:
they would change the kernel backend or the CLI's defaults between runs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


class MissingSource(RuntimeError):
    pass


def prepare() -> None:
    if not (SRC / "binaryshield" / "__init__.py").is_file():
        raise MissingSource(f"no binaryshield source tree under {SRC}")
    for key in [k for k in os.environ if k.startswith("BINARYSHIELD_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import binaryshield

    if Path(binaryshield.__file__).resolve().parent != SRC / "binaryshield":
        raise MissingSource(
            f"binaryshield imported from {binaryshield.__file__}, not {SRC}")
