"""Hand-checked fixture pairs shared by the test suite and the CLI.

Each fixture returns a (FramePair, ConstraintSpec) tuple.  The headline
values (mixed operator, potential, multipliers) were computed by hand and
are frozen in the tests.
"""

from __future__ import annotations

import math

from .frames import ConstraintSpec, Field, FramePair, FrameSequence


def _pair(field, f_rows, g_rows, alpha):
    pair = FramePair(FrameSequence(field, f_rows), FrameSequence(field, g_rows))
    return pair, ConstraintSpec(alpha)


def _mb_rows():
    s = math.sqrt(3.0) / 2.0
    return [[0.0, 1.0], [-s, -0.5], [s, -0.5]]


def fx_onb2():
    """d=2 orthonormal basis paired with itself; TU* = I."""
    e = [[1.0, 0.0], [0.0, 1.0]]
    return _pair(Field.REAL, e, e, [1.0, 1.0])


def fx_scale():
    """F = 2*ONB, G = ONB; TU* = 2I."""
    return _pair(
        Field.REAL,
        [[2.0, 0.0], [0.0, 2.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        [2.0, 2.0],
    )


def fx_d1():
    """d=1, N=2 scalars; TU* = (-1), potential 1."""
    return _pair(Field.REAL, [[1.0], [3.0]], [[2.0], [-1.0]], [2.0, -3.0])


def fx_mb():
    """Mercedes-Benz frame paired with itself; TU* = (3/2) I, critical
    with multiplier 1/2 at every index."""
    rows = _mb_rows()
    return _pair(Field.REAL, rows, rows, [1.0, 1.0, 1.0])


def fx_imag():
    """Complex d=1 singleton with alpha = -i; TU* = (-i), potential -1."""
    return _pair(Field.COMPLEX, [[1.0]], [[1j]], [-1j])


def fx_mix():
    """d=3, N=4: a scaled axis pair on e1 plus the Mercedes-Benz frame
    embedded in span{e2, e3}.  Spectrum of TU* is {2, 3/2, 3/2}."""
    mb = _mb_rows()
    f_rows = [[2.0, 0.0, 0.0]] + [[0.0, r[0], r[1]] for r in mb]
    g_rows = [[1.0, 0.0, 0.0]] + [[0.0, r[0], r[1]] for r in mb]
    return _pair(Field.REAL, f_rows, g_rows, [2.0, 1.0, 1.0, 1.0])


_FIXTURES = {
    "FX-ONB2": fx_onb2,
    "FX-SCALE": fx_scale,
    "FX-D1": fx_d1,
    "FX-MB": fx_mb,
    "FX-IMAG": fx_imag,
    "FX-MIX": fx_mix,
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name):
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
