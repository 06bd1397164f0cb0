import numpy as np
import pytest

from mixedframes import frames
from mixedframes.frames import ConstraintSpec, Field, FramePair, FrameSequence


def retracted_random(field, d, n, seed, alpha=None):
    """Random pair pushed onto S(alpha); alpha defaults to all-ones."""
    if alpha is None:
        alpha = np.ones(n)
    spec = ConstraintSpec(np.asarray(alpha))
    pair = frames.random_pair(field, d, n, seed)
    return frames.retract_to_constraint(pair, spec), spec


def fd_gradient(pair, value, h=1e-6):
    """Central finite differences of value(FramePair) in real coordinates,
    in the fp_gradient encoding."""

    def at(fv, gv):
        return value(FramePair(FrameSequence(pair.field, fv), FrameSequence(pair.field, gv)))

    comps = (1.0,) if pair.field is Field.REAL else (1.0, 1j)
    out = []
    for which in range(2):
        arr = (pair.f.vectors, pair.g.vectors)[which]
        grad = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            for comp in comps:
                plus, minus = arr.copy(), arr.copy()
                plus[idx] += comp * h
                minus[idx] -= comp * h
                args_p = [pair.f.vectors, pair.g.vectors]
                args_m = [pair.f.vectors, pair.g.vectors]
                args_p[which], args_m[which] = plus, minus
                grad[idx] += (at(*args_p) - at(*args_m)) / (2 * h) * comp
        out.append(grad)
    return out


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
