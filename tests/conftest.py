import pytest

from puzzlecalc import filling


@pytest.fixture(autouse=True)
def fresh_rows():
    # legal_branches' memo outlives a test: a walk keeps it whenever its
    # pair's root is in it, so rows that a patched piece table derived
    # would outlive the patch's undo.  Every test starts and ends on an
    # empty memo
    filling._rows.clear()
    yield
    filling._rows.clear()
