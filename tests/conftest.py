"""A time limit on every test: a kernel that loops forever fails its test
after two minutes instead of hanging the suite.  Where SIGALRM does not
exist there is no limit."""

import signal

import pytest

TEST_SECONDS = 120


def _time_out(signum, frame):
    raise TimeoutError(f"test ran longer than {TEST_SECONDS} s")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
