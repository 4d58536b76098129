"""The per-test time limit of ``conftest.py`` fails a test that runs too long."""

import signal
import time

import pytest

import conftest

SLEEPER = """
import time


def test_sleeps():
    time.sleep(30)


def test_returns():
    pass
"""


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer on this platform")
def test_a_sleeping_test_fails_at_the_time_limit(monkeypatch, tmp_path, capsys):
    # a test session of its own under a limit of half a second: the sleeping
    # test fails in about that time and the other passes
    monkeypatch.setattr(conftest, "TIME_LIMIT_S", 0.5)
    path = tmp_path / "test_sleeper.py"
    path.write_text(SLEEPER)
    start = time.monotonic()
    code = pytest.main([str(path), "-q", "-p", "no:cacheprovider"], plugins=[conftest])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == pytest.ExitCode.TESTS_FAILED
    assert elapsed < 10
    assert "1 failed, 1 passed" in out
    assert "TimeLimitExceeded: the test exceeded the time limit of 0.5 s" in out


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer on this platform")
def test_the_limit_is_armed_during_a_test():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= conftest.TIME_LIMIT_S
