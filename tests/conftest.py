import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves running a thread it started, such as a run's
    noise helper or a command's run pool."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"test left threads running: {[t.name for t in left]}")
