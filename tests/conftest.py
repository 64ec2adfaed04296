"""Checks that every test in this directory runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_helper_thread_left():
    """Every call that starts a ``quditpure-*`` helper thread joins it
    before it returns, so none may outlive the test that started it."""
    yield
    alive = sorted(t.name for t in threading.enumerate() if t.name.startswith("quditpure-"))
    assert not alive, f"helper threads still alive after the test: {alive}"
