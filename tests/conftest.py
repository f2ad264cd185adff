import concurrent.futures
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


class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that counts its submits and records the thread each
    submitted call ran on. With wait_for_start, submit returns only once
    the call has started, so the submitting thread is always late: no half
    it hands over can be cancelled."""

    def __init__(self, *args, wait_for_start=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.ran_on = []
        self.submits = 0
        self.wait_for_start = wait_for_start

    def submit(self, fn, *args, **kwargs):
        started = threading.Event()

        def recorded(*a, **k):
            self.ran_on.append(threading.current_thread())
            started.set()
            return fn(*a, **k)

        self.submits += 1
        future = super().submit(recorded, *args, **kwargs)
        if self.wait_for_start:
            assert started.wait(10), "the helper did not start the submitted call"
        return future


@pytest.fixture
def recording_executor():
    """The RecordingExecutor class, for a test that builds its own pool."""
    return RecordingExecutor


@pytest.fixture
def helpers(monkeypatch):
    """The executors run creates, each recording its submitted calls."""
    made = []

    def recording(*args, **kwargs):
        made.append(RecordingExecutor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return made


@pytest.fixture
def late_helpers(monkeypatch):
    """As helpers, but run's thread is late for every half it hands over:
    the helper thread runs each one."""
    made = []

    def recording(*args, **kwargs):
        made.append(RecordingExecutor(*args, wait_for_start=True, **kwargs))
        return made[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return made
