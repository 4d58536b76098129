"""A time limit on every Tier-1 test.

A test that runs past ``TIME_LIMIT_S`` fails with :class:`TimeLimitExceeded`,
raised by a ``SIGALRM`` timer, so a loop that never ends fails one test
instead of hanging the run.  The limit is about five times the slowest test
(21.6 s).  The timer is the process's one real-time interval timer: a limit
set inside a test (``tests/test_time_limit.py`` runs a test session in one)
hands the outer limit's remaining time back when it ends.
"""

import signal
import threading
import time

import pytest

TIME_LIMIT_S = 120.0


class TimeLimitExceeded(Exception):
    pass


@pytest.fixture(autouse=True)
def time_limit():
    # signals reach only the main thread, and not every platform has the timer
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return
    limit = TIME_LIMIT_S

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test exceeded the time limit of {limit} s")

    previous = signal.signal(signal.SIGALRM, expire)
    start = time.monotonic()
    outer, _ = signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))
