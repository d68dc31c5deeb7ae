"""Shared fixtures of the test suite."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the block with TimeoutError when
    it runs longer, so that a hang fails its test instead of the run."""
    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return within
