"""A wall-clock limit for in-process tests of commands that must return at once."""

from __future__ import annotations

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the test if the block runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
