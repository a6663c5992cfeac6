"""Suite-wide checks that run around every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread running: worker pools must be joined on every path."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    for t in left:
        t.join(timeout=1.0)  # one that is already ending gets a moment to finish
    alive = [t.name for t in left if t.is_alive()]
    if alive:
        pytest.fail(f"test left threads running: {alive}")
