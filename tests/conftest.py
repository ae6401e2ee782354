import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test that leaves a child process running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"the test left child processes running: {left}"
