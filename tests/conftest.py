import os
import sys
from pathlib import Path

import pytest

# the golden-run recorder, tests/golden/record.py, is imported as ``record``
sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SPNP_FULL_RESOLUTION") == "1":
        return
    skip = pytest.mark.skip(reason="full-resolution run; set "
                            "SPNP_FULL_RESOLUTION=1 to enable")
    for item in items:
        if "full_resolution" in item.keywords:
            item.add_marker(skip)
