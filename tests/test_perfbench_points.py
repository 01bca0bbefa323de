"""Every function the benchmark's tracer wraps must exist.

``perfbench/layers.py`` lists the library attributes a traced benchmark run
wraps; a missing one stops that run.  Resolving them here makes deleting or
renaming a wrapped function fail the test suite instead.  Only ``perfbench``
is read: nothing is wrapped or run.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYER_POINTS, REQUEST_POINTS  # noqa: E402

POINTS = sorted({(p.module, p.attr) for p in REQUEST_POINTS + LAYER_POINTS})


@pytest.mark.parametrize("module,attr", POINTS,
                         ids=[f"{m}.{a}" for m, a in POINTS])
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
