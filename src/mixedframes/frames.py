"""Frame sequences, frame pairs, and the prescribed inner-product set.

A frame sequence is N vectors in a d-dimensional inner-product space over
R or C, stored as an (N, d) complex array with one vector per row.  A
frame pair carries the two sequences ({f_m}, {g_m}) whose synthesis
operators T, U build the mixed operators TU* and UT*.  The constraint set
S(alpha) collects the pairs with <f_m, g_m> = alpha_m for all m.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegeneratePairingError,
    DimensionMismatchError,
    MixedFramesError,
    NonFiniteError,
    ZeroAlphaError,
    ZeroVectorError,
)
from .linalg import ensure_finite


class Field(enum.Enum):
    REAL = "R"
    COMPLEX = "C"


def _validate_vectors(vectors, field):
    v = np.array(vectors, dtype=np.complex128)  # a copy: the caller's array stays theirs
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise DimensionMismatchError(f"vectors must form an (N, d) array, got shape {v.shape}")
    ensure_finite(v, "frame vectors")
    if field is Field.REAL and np.any(v.imag):
        raise NonFiniteError("REAL-field frame has nonzero imaginary parts")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class FrameSequence:
    """N vectors of dimension d, one per row of ``vectors``."""

    field: Field
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _validate_vectors(self.vectors, self.field))

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
        g_m != 0 for every m; the first zero vector (f before g) is named."""
        for name, seq in (("f", self.f), ("g", self.g)):
            zero = np.flatnonzero(np.linalg.norm(seq.vectors, axis=1) == 0)
            if zero.size:
                raise ZeroVectorError(
                    f"{name}_{zero[0] + 1} is the zero vector", index=int(zero[0])
                )


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

    def require_nonzero(self):
        """Structure-theorem operations need alpha_m != 0 for every m."""
        zeros = np.flatnonzero(self.alpha == 0)
        if zeros.size:
            raise ZeroAlphaError(
                f"alpha_{zeros[0] + 1} = 0 but a nonzero prescribed product is required",
                index=int(zeros[0]),
            )

    def require_field(self, field):
        """S(alpha) over R needs a real alpha."""
        if field is Field.REAL and np.any(self.alpha.imag):
            raise MixedFramesError("REAL-field alpha must be real")


def synthesis(seq: FrameSequence, coeffs):
    """sum_m coeffs_m f_m."""
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size != seq.n:
        raise DimensionMismatchError(f"expected {seq.n} coefficients, got {c.size}")
    ensure_finite(c, "coefficients")
    return c @ seq.vectors


def analysis(seq: FrameSequence, f):
    """m-th entry <f, f_m> under the linear-in-first-argument convention."""
    v = np.asarray(f, dtype=np.complex128).ravel()
    if v.size != seq.d:
        raise DimensionMismatchError(f"expected a vector of dimension {seq.d}, got {v.size}")
    ensure_finite(v, "input vector")
    return seq.vectors.conj() @ v


def mixed_operator(pair: FramePair, side="TU*"):
    """The d x d mixed operator: TU* = sum_m f_m g_m^*, UT* its adjoint.
    Computed once per pair and side; the result is read-only."""
    tu = pair._derived("TU*", lambda: pair.f.vectors.T @ pair.g.vectors.conj())
    if side == "TU*":
        return tu
    if side == "UT*":
        return pair._derived("UT*", lambda: tu.conj().T.copy())
    raise ValueError(f"side must be 'TU*' or 'UT*', got {side!r}")


def cross_gram(pair: FramePair):
    """N x N matrix with entry (m, n) = <f_m, g_n>.  Computed once per
    pair; the result is read-only."""
    return pair._derived("C", lambda: pair.f.vectors @ pair.g.vectors.conj().T)


def is_dual_pair(pair: FramePair, tol=1e-10):
    """True iff ||TU* - I||_F <= tol * sqrt(d); also returns the deviation."""
    dev = float(np.linalg.norm(mixed_operator(pair) - np.eye(pair.d)))
    return dev <= tol * np.sqrt(pair.d), dev


def constraint_residual(pair: FramePair, spec: ConstraintSpec):
    """Entrywise |<f_m, g_m> - alpha_m|."""
    if spec.n != pair.n:
        raise DimensionMismatchError(f"alpha has length {spec.n}, pair has N = {pair.n}")
    return np.abs(np.sum(pair.f.vectors * pair.g.vectors.conj(), axis=1) - spec.alpha)


def require_membership(pair: FramePair, spec: ConstraintSpec, tol=1e-8):
    res = constraint_residual(pair, spec)
    worst = float(res.max())
    if worst > tol:
        raise ConstraintViolationError(
            f"pair violates the prescribed products: max residual {worst:.3e} > {tol:.3e}",
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
        fv = rng.standard_normal((n, d)).astype(np.complex128)
        gv = rng.standard_normal((n, d)).astype(np.complex128)
    else:
        fv = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        gv = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return FramePair(FrameSequence(field, fv), FrameSequence(field, gv))


#: Degeneracy cut of the retraction: a pairing with |<f_m, g_m>| below
#: this times ||f_m|| ||g_m|| is too close to orthogonal to rescale.
_DEGENERACY_CUT = 1e-10


def _retraction(fv, gv, alpha, is_real):
    """The retraction onto S(alpha) on raw (N, d) arrays, with no other
    input check.

    Returns ip_m = <f_m, g_m>, q = alpha / ip (Re alpha over R) and G
    with each row g_m rescaled to conj(q_m) g_m, projected to its real
    part over R.  Raises DegeneratePairingError at the first index with
    |ip_m| < 1e-10 ||f_m|| ||g_m||.
    """
    ip = np.sum(fv * gv.conj(), axis=1)
    cut = _DEGENERACY_CUT * np.linalg.norm(fv, axis=1) * np.linalg.norm(gv, axis=1)
    bad = np.flatnonzero(np.abs(ip) < cut)
    if bad.size:
        raise DegeneratePairingError(
            f"|<f_{bad[0] + 1}, g_{bad[0] + 1}>| = {abs(ip[bad[0]]):.3e} is below the "
            "degeneracy threshold; re-randomize g and retry",
            index=int(bad[0]),
        )
    q = (alpha.real if is_real else alpha) / ip
    gr = gv * q.conj()[:, None]
    if is_real:
        gr = gr.real.astype(np.complex128)
    return ip, q, gr


def retract_to_constraint(pair: FramePair, spec: ConstraintSpec):
    """Rescale each g_m by conj(alpha_m / <f_m, g_m>) so the pair lies in
    S(alpha) exactly (to round-off).  F is untouched.

    Raises ZeroAlphaError for a zero alpha_m, MixedFramesError for a
    non-real alpha over R, ZeroVectorError for a zero f_m or g_m, and
    DegeneratePairingError when some |<f_m, g_m>| falls below
    1e-10 ||f_m|| ||g_m||; the caller is expected to re-randomize that
    g_m and retry.
    """
    if spec.n != pair.n:
        raise DimensionMismatchError(f"alpha has length {spec.n}, pair has N = {pair.n}")
    spec.require_nonzero()
    spec.require_field(pair.field)
    pair.require_nonzero()
    _, _, gv = _retraction(pair.f.vectors, pair.g.vectors, spec.alpha, pair.field is Field.REAL)
    return FramePair(pair.f, FrameSequence(pair.field, gv))


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


def _encode_scalar(z, field):
    if field is Field.REAL:
        return float(z.real)
    return [float(z.real), float(z.imag)]


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
        "F": [[_encode_scalar(z, field) for z in row] for row in pair.f.vectors],
        "G": [[_encode_scalar(z, field) for z in row] for row in pair.g.vectors],
    }
    if alpha is not None:
        a = np.asarray(alpha, dtype=np.complex128).ravel()
        doc["alpha"] = [_encode_scalar(z, field) for z in a]
    return doc


def pair_from_document(doc):
    """Returns (FramePair, ConstraintSpec or None)."""
    if not isinstance(doc, dict):
        raise MixedFramesError("frame-pair document must be a JSON object")
    try:
        field = Field(doc["field"])
    except (KeyError, ValueError) as exc:
        raise MixedFramesError(f"invalid or missing 'field' entry: {exc}") from exc
    try:
        d = int(doc["d"])
        n = int(doc["N"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MixedFramesError(f"invalid or missing 'd'/'N' entries: {exc}") from exc

    def decode_sequence(key):
        rows = doc.get(key)
        if not isinstance(rows, list) or len(rows) != n:
            raise MixedFramesError(f"'{key}' must be an array of {n} vectors")
        out = np.zeros((n, d), dtype=np.complex128)
        for m, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != d:
                raise MixedFramesError(f"'{key}[{m}]' must be an array of {d} scalars")
            for k, entry in enumerate(row):
                out[m, k] = _decode_scalar(entry, field, f"{key}[{m}][{k}]")
        return out

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
