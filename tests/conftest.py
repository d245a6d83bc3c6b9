"""Checks that hold for every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fails a test after which a child process of this one still runs:
    a worker that outlives the call that started it would outlive a
    benchmark run or a killed pipeline too. The children are ended, so
    the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join()
    if left:
        pytest.fail(f"child processes left running after the test: {left}")
