"""Fixtures shared by the test modules."""

import collections

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Counter of np.fft.rfft / irfft / fft calls made during the test."""
    calls = collections.Counter()
    for name in ("rfft", "irfft", "fft"):
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
