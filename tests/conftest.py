import pytest

from structctrl import StructPattern, build_digraph
from brute import matching_from_pairs

# The recurring 6-agent synchronization instance (one-based entries
# (1,1), (2,2), (3,1), (3,2), (3,4), (4,3), (4,5), (4,6), (5,4), (6,4)).
SYNC6_NONZEROS = frozenset(
    {(0, 0), (1, 1), (2, 0), (2, 1), (2, 3), (3, 2), (3, 4), (3, 5), (4, 3), (5, 3)}
)


@pytest.fixture
def sync6_pattern():
    return StructPattern(6, 6, SYNC6_NONZEROS)


@pytest.fixture
def sync6_graph(sync6_pattern):
    return build_digraph(sync6_pattern)


@pytest.fixture
def sync6_witness():
    """The textbook maximum matching leaving vertices 2 and 5 unmatched."""
    return matching_from_pairs({(0, 0), (1, 1), (2, 3), (3, 4)}, 6)
