import errno

import pytest

from ternaryperm import catalog
from ternaryperm.sequences import TernarySequence

# First solution of the reduced ascending search at dimension 5, frozen as a
# regression value; test_search re-derives it and test_catalog checks the
# packaged fixture file against it.
BASE5_DECIMALS = (
    1, 2, 3, 4, 7, 8, 15, 5, 10, 16, 26, 6, 28, 9, 21, 24,
    13, 19, 30, 18, 12, 27, 23, 25, 14, 17, 31, 20, 11, 22, 29,
)


@pytest.fixture
def base5():
    return TernarySequence.from_decimals(5, BASE5_DECIMALS)


@pytest.fixture
def writes_fail_midway(monkeypatch):
    """Make catalog's file writes stop with ENOSPC after half of the text."""
    real_open = open

    class HalfWriter:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(
        catalog, "open", lambda path, mode: HalfWriter(real_open(path, mode)), raising=False
    )
