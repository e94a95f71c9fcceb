"""Serve-tier tests run under the runtime lock-order sanitizer.

Every ``threading.Lock``/``RLock``/``Condition`` created by ``repro.*``
modules during a test is a :class:`CheckedLock`; any lock-order
inversion observed live fails the test at teardown.  Recording mode
(no mid-flight raise) lets the thread that exhibited the inversion
complete its request — the teardown assertion is what turns the suite
red.
"""

import pytest

from repro.tools.analyze import lockcheck


@pytest.fixture(autouse=True)
def lock_order_sanitizer():
    tracker = lockcheck.LockOrderTracker(raise_on_inversion=False)
    with lockcheck.installed(tracker=tracker):
        yield tracker
    assert not tracker.inversions, "\n".join(
        inversion.describe() for inversion in tracker.inversions
    )
