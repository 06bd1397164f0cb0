import numpy as np
import pytest

from mixedframes import frames
from mixedframes.frames import ConstraintSpec, Field


def retracted_random(field, d, n, seed, alpha=None):
    """Random pair pushed onto S(alpha); alpha defaults to all-ones."""
    if alpha is None:
        alpha = np.ones(n)
    spec = ConstraintSpec(np.asarray(alpha))
    pair = frames.random_pair(field, d, n, seed)
    return frames.retract_to_constraint(pair, spec), spec


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def record(monkeypatch):
    """``record(owner, name)`` replaces ``owner.name`` by a stand-in that appends
    each call's positional arguments to the list it returns, then calls the
    original (a method's first argument is its instance)."""

    def patch(owner, name):
        calls, original = [], getattr(owner, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return calls

    return patch


@pytest.fixture(params=[Field.REAL, Field.COMPLEX], ids=["R", "C"])
def field(request):
    return request.param
