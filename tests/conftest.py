"""Session fixtures for the whole-range scans shared across test modules.

Thread count never changes any output (fixed segmentation), only wall time,
so the fixtures use a few workers.
"""

import pytest

from oracles import genus_table
from x0genus import values


@pytest.fixture(scope="session")
def genus_1e6():
    """Breakdown arrays for every level in [1, 10**6]."""
    return genus_table(10**6, threads=4)


@pytest.fixture(scope="session")
def missed_1e5():
    """Missed-value report for x = 10**5 (scans all levels below 1,205,747)."""
    return values.missed_values(10**5, threads=4)
