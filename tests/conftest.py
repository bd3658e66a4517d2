"""Session fixtures for the whole-range scans shared across test modules.

Each is computed once per session, since several modules read them.
"""

import pytest

from oracles import genus_table
from x0genus import values


@pytest.fixture(scope="session")
def genus_1e6():
    """Breakdown arrays for every level in [1, 10**6]."""
    return genus_table(10**6)


@pytest.fixture(scope="session")
def missed_1e5():
    """Missed-value report for x = 10**5 (scans all levels below 1,205,747)."""
    return values.missed_values(10**5)
