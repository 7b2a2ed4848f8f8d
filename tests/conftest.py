import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def shift_free_calls(monkeypatch):
    """Each attention kernel call's per-branch path, in call order: True
    where a branch takes exp of its raw scores, False where it shifts."""
    from evifuse import ops

    calls = []
    real = ops._shift_free

    def spy(qs, ks, v):
        calls.append(real(qs, ks, v))
        return calls[-1]

    monkeypatch.setattr(ops, "_shift_free", spy)
    return calls
