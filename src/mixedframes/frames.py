"""Frame sequences, frame pairs, and the prescribed inner-product set.

A frame sequence is N vectors in a d-dimensional inner-product space over
R or C, stored as an (N, d) array with one vector per row.  The dtype
follows the field, float64 over R and complex128 over C, so everything
computed from a real pair stays real.  A frame pair carries the two
sequences ({f_m}, {g_m}) whose synthesis operators T, U build the mixed
operators TU* and UT*.  The constraint set S(alpha) collects the pairs
with <f_m, g_m> = alpha_m for all m.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegeneratePairingError,
    DimensionMismatchError,
    MixedFramesError,
    ZeroAlphaError,
    ZeroVectorError,
)
from .linalg import ensure_finite


class Field(enum.Enum):
    REAL = "R"
    COMPLEX = "C"


@dataclass(frozen=True)
class FrameSequence:
    """N vectors of dimension d, one per row of ``vectors``: a checked
    copy of what the caller passes, in the field's dtype."""

    field: Field
    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.complex128)  # a copy: the caller's array stays theirs
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatchError(f"vectors must form an (N, d) array, got shape {v.shape}")
        ensure_finite(v, "frame vectors")
        if self.field is Field.REAL:
            if v.imag.any():
                raise MixedFramesError("REAL-field frame vectors must be real")
            v = v.real.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def _adopt(cls, field, vectors, finite):
        """A sequence over an (N, d) array of the field's dtype that the
        library made and hands over: frozen in place, with no copy, and
        scanned for finiteness (NonFiniteError) unless ``finite`` says the
        caller already knows every entry is finite.  ``random_pair``,
        ``retract_to_constraint`` and a search's result build their
        sequences this way; the constructor checks outside data."""
        if not finite:
            ensure_finite(vectors, "frame vectors")
        vectors.setflags(write=False)
        seq = object.__new__(cls)
        object.__setattr__(seq, "field", field)
        object.__setattr__(seq, "vectors", vectors)
        return seq

    @property
    def d(self):
        return self.vectors.shape[1]

    @property
    def n(self):
        return self.vectors.shape[0]


@dataclass(frozen=True)
class FramePair:
    """Two same-shaped frame sequences (F, G).  A pair never changes, so
    what is derived from it is computed once and kept, read-only."""

    f: FrameSequence
    g: FrameSequence

    def __post_init__(self):
        if self.f.field is not self.g.field:
            raise DimensionMismatchError("F and G live over different fields")
        if self.f.vectors.shape != self.g.vectors.shape:
            raise DimensionMismatchError(
                f"F and G shapes differ: {self.f.vectors.shape} vs {self.g.vectors.shape}"
            )
        object.__setattr__(self, "_memo", {})

    def _derived(self, key, build):
        """``build()`` on the first request for ``key``, its arrays (the
        value or a tuple's items) made read-only; the stored value after."""
        if key not in self._memo:
            value = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]

    @property
    def field(self):
        return self.f.field

    @property
    def d(self):
        return self.f.d

    @property
    def n(self):
        return self.f.n

    def swapped(self):
        return FramePair(f=self.g, g=self.f)

    def require_nonzero(self):
        """Rescaling and the critical-pair equations need f_m != 0 and
        g_m != 0 for every m; the first zero vector (f before g) is named.
        A row too small to square is zero too: ||f_m||^2 is a denominator."""
        for name, seq in (("f", self.f), ("g", self.g)):
            zero = np.vecdot(seq.vectors, seq.vectors).real == 0
            if zero.any():
                m = int(np.flatnonzero(zero)[0])
                raise ZeroVectorError(f"{name}_{m + 1} is the zero vector", index=m)


@dataclass(frozen=True)
class ConstraintSpec:
    """The sequence {alpha_m} defining the set S(alpha)."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=np.complex128).ravel()
        if a.size < 1:
            raise DimensionMismatchError("alpha must be nonempty")
        ensure_finite(a, "alpha")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def n(self):
        return self.alpha.size

    def require_length(self, n):
        """DimensionMismatchError unless alpha has one entry per vector of a pair with N = n."""
        if self.n != n:
            raise DimensionMismatchError(f"alpha has length {self.n}, pair has N = {n}")

    def require_nonzero(self, idx=None):
        """Structure-theorem operations need alpha_m != 0 for every m, or
        for every m in the sorted index list ``idx``; ZeroAlphaError names
        the first zero."""
        alpha = self.alpha if idx is None else self.alpha[idx]
        if not alpha.all():
            m = int(np.flatnonzero(alpha == 0)[0])
            m = m if idx is None else idx[m]
            raise ZeroAlphaError(f"alpha_{m + 1} = 0 but a nonzero prescribed product is required",
                                 index=m)

    def require_field(self, field):
        """alpha in the dtype of a pair over ``field``; S(alpha) over R
        needs a real alpha (MixedFramesError)."""
        if field is Field.COMPLEX:
            return self.alpha
        if self.alpha.imag.any():
            raise MixedFramesError("REAL-field alpha must be real")
        return self.alpha.real


def mixed_operator(pair: FramePair):
    """The d x d mixed operator TU* = sum_m f_m g_m^* (UT* is its
    adjoint).  Computed once per pair; the result is read-only."""
    return pair._derived("TU*", lambda: pair.f.vectors.T @ pair.g.vectors.conj())


def cross_gram(pair: FramePair):
    """N x N matrix with entry (m, n) = <f_m, g_n>, formed on each call and
    not kept: only the double sums ``fp_direct`` and ``bf_potential`` read it."""
    return pair.f.vectors @ pair.g.vectors.conj().T


def is_dual_pair(pair: FramePair, tol=1e-10):
    """True iff ||TU* - I||_F <= tol * sqrt(d); also returns the deviation."""
    dev = float(np.linalg.norm(mixed_operator(pair) - np.eye(pair.d)))
    return dev <= tol * math.sqrt(pair.d), dev


def constraint_residual(pair: FramePair, spec: ConstraintSpec):
    """Entrywise |<f_m, g_m> - alpha_m|."""
    spec.require_length(pair.n)
    return np.abs(np.vecdot(pair.g.vectors, pair.f.vectors) - spec.alpha)


#: Largest |<f_m, g_m> - alpha_m| that ``require_membership`` accepts as on S(alpha).
MEMBERSHIP_TOL = 1e-8


def require_membership(pair: FramePair, spec: ConstraintSpec):
    """The largest entry of ``constraint_residual(pair, spec)`` (which
    checks alpha's length first), or ConstraintViolationError when it
    exceeds MEMBERSHIP_TOL."""
    worst = float(constraint_residual(pair, spec).max())
    if worst > MEMBERSHIP_TOL:
        raise ConstraintViolationError(
            f"pair violates the prescribed products: max residual {worst:.3e} > "
            f"{MEMBERSHIP_TOL:.3e}",
            residual=worst,
        )
    return worst


def random_pair(field: Field, d, n, seed):
    """Deterministic random pair; entries i.i.d. standard normal per real
    component from ``numpy.random.default_rng`` (PCG64).

    Draw order is fixed: F real parts, F imaginary parts (complex field
    only), then G likewise.  Identical seeds give bit-identical pairs.
    """
    if d < 1 or n < 1:
        raise DimensionMismatchError(f"need d >= 1 and N >= 1, got d={d}, N={n}")
    rng = np.random.default_rng(seed)
    if field is Field.REAL:
        fv = rng.standard_normal((n, d))
        gv = rng.standard_normal((n, d))
    else:
        fv = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        gv = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return FramePair(FrameSequence._adopt(field, fv, finite=True),
                     FrameSequence._adopt(field, gv, finite=True))


#: Degeneracy cut of the retraction: a pairing with |<f_m, g_m>| below
#: this times ||f_m|| ||g_m|| is too close to orthogonal to rescale.
_DEGENERACY_CUT = 1e-10
_SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal


def _retraction(fv, gv, alpha, f_norms2=None):
    """The retraction onto S(alpha) on raw (N, d) arrays, or on a stack
    (K, N, d) of trials, with no other input check; real arrays and a real
    alpha (a pair over R) give real results.  ``f_norms2`` is the squared
    row sums ||f_m||^2 when the caller has already formed them from this F.

    Returns G with each row g_m rescaled to conj(alpha_m / <f_m, g_m>) g_m;
    a pairing with |<f_m, g_m>| < 1e-10 ||f_m|| ||g_m|| has none.  A stack
    comes back cut before its first trial with one, which is not retracted;
    a pair, or a stack led by such a trial, raises DegeneratePairingError.
    The cut reads the squared row sums sum_k |v_k|^2 that the residual
    kernel divides by, each square-rooted before the product: squares
    multiplied together would underflow at row norms near 1e-80.
    A subnormal pairing has lost bits, and NumPy's complex division by it
    multiplies by 1 / |<f_m, g_m>|, which overflows.  In those rows alone
    the pairing is formed again from f_m and g_m each scaled, exactly, by
    the power of two 2^k that brings it near unit modulus, and alpha_m is
    scaled by 4^k to match.
    """
    if f_norms2 is None:
        f_norms2 = np.vecdot(fv, fv).real
    ip = np.vecdot(gv, fv)
    cut = _DEGENERACY_CUT * np.sqrt(f_norms2) * np.sqrt(np.vecdot(gv, gv).real)
    modulus = np.abs(ip)
    bad = modulus < cut
    if bad.any():
        trials = bad.reshape(-1, bad.shape[-1])  # a row per trial, an (N, d) pair's alone
        k = int(trials.any(axis=1).argmax())
        if k == 0:
            m = int(trials[0].argmax())
            raise DegeneratePairingError(
                f"|<f_{m + 1}, g_{m + 1}>| = {modulus.flat[m]:.3e} is below the "
                "degeneracy threshold: the pairing cannot be rescaled",
                index=m,
            )
        fv, gv, ip, modulus = fv[:k], gv[:k], ip[:k], modulus[:k]
    if modulus.min() < _SMALLEST_NORMAL:
        tiny = modulus < _SMALLEST_NORMAL
        s = np.ldexp(1.0, np.where(tiny, -(np.frexp(modulus)[1] // 2), 0))
        ip = np.where(tiny, np.vecdot(gv * s[..., None], fv * s[..., None]), ip)
        alpha = np.where(tiny, alpha * s * s, alpha)
    return gv * (alpha / ip).conj()[..., None]


def retract_to_constraint(pair: FramePair, spec: ConstraintSpec):
    """Rescale each g_m by conj(alpha_m / <f_m, g_m>) so the pair lies in
    S(alpha) exactly (to round-off).  F is untouched.

    Raises ZeroAlphaError for a zero alpha_m, MixedFramesError for a
    non-real alpha over R, ZeroVectorError for a zero f_m or g_m, and
    DegeneratePairingError when some |<f_m, g_m>| falls below
    1e-10 ||f_m|| ||g_m||: that pairing cannot be rescaled.  A rescaled
    g_m past float64 raises NonFiniteError.
    """
    spec.require_length(pair.n)
    spec.require_nonzero()
    alpha = spec.require_field(pair.field)
    pair.require_nonzero()
    gv = _retraction(pair.f.vectors, pair.g.vectors, alpha)
    return FramePair(pair.f, FrameSequence._adopt(pair.field, gv, finite=False))


# ---------------------------------------------------------------------------
# Frame-pair JSON document
#
# Top-level object: {"field": "R"|"C", "d": int, "N": int,
#                    "F": [[...], ...], "G": [[...], ...],
#                    "alpha": [...]}        (alpha optional)
# Scalars are plain numbers over R and two-element [re, im] arrays over C.
# Serialization is canonical (fixed key order, shortest round-trip floats),
# so parse -> serialize is byte-identical.
# ---------------------------------------------------------------------------


def _encode(a, field):
    """An array's entries as nested lists: numbers over R, [re, im] over C."""
    if field is Field.REAL:
        return a.real.tolist()
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _decode_scalar(obj, field, what):
    if field is Field.REAL:
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            raise MixedFramesError(f"{what}: expected a number over R, got {obj!r}")
        return complex(obj)
    if not (isinstance(obj, list) and len(obj) == 2):
        raise MixedFramesError(f"{what}: expected a [re, im] pair over C, got {obj!r}")
    re, im = obj
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
        raise MixedFramesError(f"{what}: [re, im] entries must be numbers, got {obj!r}")
    return complex(re, im)


def pair_to_document(pair: FramePair, alpha=None):
    field = pair.field
    doc = {
        "field": field.value,
        "d": pair.d,
        "N": pair.n,
        "F": _encode(pair.f.vectors, field),
        "G": _encode(pair.g.vectors, field),
    }
    if alpha is not None:
        doc["alpha"] = _encode(np.asarray(alpha, dtype=np.complex128).ravel(), field)
    return doc


def pair_from_document(doc):
    """Returns (FramePair, ConstraintSpec or None)."""
    if not isinstance(doc, dict):
        raise MixedFramesError("frame-pair document must be a JSON object")
    try:
        field = Field(doc["field"])
    except (KeyError, ValueError) as exc:
        raise MixedFramesError(f"invalid or missing 'field' entry: {exc}") from exc
    d, n = doc.get("d"), doc.get("N")
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (d, n)):
        raise MixedFramesError(f"'d' and 'N' must be JSON integers, got d={d!r}, N={n!r}")

    def decode_sequence(key):
        rows = doc.get(key)
        if not isinstance(rows, list) or len(rows) != n:
            raise MixedFramesError(f"'{key}' must be an array of {n} vectors")
        for m, row in enumerate(rows):  # every length before any allocation sized by d
            if not isinstance(row, list) or len(row) != d:
                raise MixedFramesError(f"'{key}[{m}]' must be an array of {d} scalars")
        return np.array([[_decode_scalar(entry, field, f"{key}[{m}][{k}]")
                          for k, entry in enumerate(row)] for m, row in enumerate(rows)])

    pair = FramePair(
        FrameSequence(field, decode_sequence("F")),
        FrameSequence(field, decode_sequence("G")),
    )
    spec = None
    if "alpha" in doc:
        raw = doc["alpha"]
        if not isinstance(raw, list) or len(raw) != n:
            raise MixedFramesError(f"'alpha' must be an array of {n} scalars")
        spec = ConstraintSpec(
            np.array([_decode_scalar(x, field, f"alpha[{k}]") for k, x in enumerate(raw)])
        )
    return pair, spec


def document_to_json(doc):
    """Canonical serialization: fixed key order, newline-terminated."""
    return json.dumps(doc, indent=2) + "\n"


def document_from_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MixedFramesError(f"malformed JSON: {exc}") from exc
