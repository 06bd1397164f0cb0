"""Hand-checked fixture pairs shared by the test suite and the CLI.

``_FIXTURES`` holds each fixture as (field, F rows, G rows, alpha), and
``fixture(name)`` builds a fresh (FramePair, ConstraintSpec) tuple from
its entry.  The headline values (mixed operator, potential, multipliers)
were computed by hand and are frozen in the tests.
"""

from __future__ import annotations

import math

from .frames import ConstraintSpec, Field, FramePair, FrameSequence

# the Mercedes-Benz frame in R^2
_MB = [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, -0.5], [math.sqrt(3.0) / 2.0, -0.5]]

_FIXTURES = {
    # d=2 orthonormal basis paired with itself; TU* = I.
    "FX-ONB2": (Field.REAL, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    # F = 2*ONB, G = ONB; TU* = 2I.
    "FX-SCALE": (Field.REAL, [[2.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0]),
    # d=1, N=2 scalars; TU* = (-1), potential 1.
    "FX-D1": (Field.REAL, [[1.0], [3.0]], [[2.0], [-1.0]], [2.0, -3.0]),
    # Mercedes-Benz frame paired with itself; TU* = (3/2) I, critical
    # with multiplier 1/2 at every index.
    "FX-MB": (Field.REAL, _MB, _MB, [1.0, 1.0, 1.0]),
    # Complex d=1 singleton with alpha = -i; TU* = (-i), potential -1.
    "FX-IMAG": (Field.COMPLEX, [[1.0]], [[1j]], [-1j]),
    # d=3, N=4: a scaled axis pair on e1 plus the Mercedes-Benz frame
    # embedded in span{e2, e3}.  Spectrum of TU* is {2, 3/2, 3/2}.
    "FX-MIX": (Field.REAL, [[2.0, 0.0, 0.0]] + [[0.0, *r] for r in _MB],
               [[1.0, 0.0, 0.0]] + [[0.0, *r] for r in _MB], [2.0, 1.0, 1.0, 1.0]),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture(name):
    """The fixture ``name`` as a fresh (FramePair, ConstraintSpec);
    KeyError listing the known names for any other name."""
    try:
        field, f_rows, g_rows, alpha = _FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
    return FramePair(FrameSequence(field, f_rows), FrameSequence(field, g_rows)), ConstraintSpec(alpha)
