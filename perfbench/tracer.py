"""In-memory span tracer that wraps the library's public functions.

The wrappers are installed from the benchmark's own files by replacing
module attributes (and ``FrameSequence.__post_init__``), so the library
itself is unchanged.  Calls inside the library go through those module
attributes (``frames.cross_gram(...)``, ``structure.critical_report(...)``)
or through module globals, so the replacement sees them too.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, ``op`` the benchmark op the span belongs to.
Self time is a span's length minus the length of its direct children,
accumulated per name as spans close.  Calls made while ``active`` is
false (the benchmark's own output checks) are passed through unrecorded.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

# (module, attribute) pairs wrapped in the traced run, in report order.
# Every name here gets a ``.calls`` and a ``.self_s`` metric.
TRACED_FUNCTIONS = (
    ("optimizer", "search"),
    ("optimizer", "merit"),
    ("optimizer", "fp_gradient"),
    ("optimizer", "project_to_tangent"),
    ("frames", "retract_to_constraint"),
    ("frames", "cross_gram"),
    ("frames", "mixed_operator"),
    ("frames", "pair_from_document"),
    ("frames", "document_to_json"),
    ("structure", "critical_report"),
    ("structure", "classify"),
    ("structure", "decompose"),
    ("structure", "corollary_check"),
    ("structure", "check_a_generalized_dual"),
    ("potential", "fp_direct"),
    ("potential", "fp_trace"),
    ("potential", "bound_report"),
    ("potential", "scaled_identity_check"),
    ("linalg", "eig_general"),
    ("linalg", "orthonormal_span_basis"),
    ("linalg", "cluster_complex"),
    ("linalg", "lstsq_scalar"),
    ("cli", "main"),
)

TRACED_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED_FUNCTIONS)
FRAME_SEQUENCE = "frames.FrameSequence"


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.raised = Counter()  # (name, exception class name) -> count
        self.iterations = 0  # sum of len(merit_history) - 1 over search() results
        self.op = -1
        self.active = False  # spans are recorded only while an op runs
        self._stack = []  # [span index, summed length of closed children]
        self._undo = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                length = end - start
                spans[frame[0]] = (name, start, end, parent[0] if parent else -1, self.op)
                self.calls[name] += 1
                self.self_s[name] += length - frame[1]
                if parent is not None:
                    parent[1] += length
            if name == "optimizer.search":
                self.iterations += max(len(result.merit_history) - 1, 0)
            return result

        return traced

    def install(self, modules):
        """Wrap every traced function; ``modules`` maps short names to modules."""
        for mod_name, attr in TRACED_FUNCTIONS:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(f"{mod_name}.{attr}", original))
        cls = modules["frames"].FrameSequence
        original = cls.__post_init__
        self._undo.append((cls, "__post_init__", original))
        cls.__post_init__ = self.wrap(FRAME_SEQUENCE, original)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
