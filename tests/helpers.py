"""Reference computations shared by the tests, independent of the library."""

import contextlib
import signal

import numpy as np


def composite_simpson(f, a, b, n=1_000_000):
    """Composite Simpson rule with n+1 nodes (n even)."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time (Unix)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
