"""Spans around the public functions of every stabgraph layer.

``Tracer`` wraps each function in ``SPANS`` by replacing its name in every
stabgraph module namespace that holds it (calls look names up at call
time), and classes by replacing their ``__init__``, so construction
including validation is one span.  Spans (function, start, end, parent,
request) live in memory while a request runs and are written out when the
run ends.  Nothing is recorded outside a request, and uninstalling puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

SPANS = (
    "cli.main",
    "textio.parse_graph",
    "textio.format_graph",
    "textio.parse_generator_matrix",
    "graph.StabilizerGraph",
    "graph.StabilizerGraph.build",
    "graph.is_reduced",
    "transforms.apply_sequence",
    "transforms.apply_local_reduced",
    "transforms.apply_cz_reduced",
    "transforms.apply_local",
    "transforms.apply_cz",
    "equivalence.to_reduced",
    "equivalence.simplify_pair",
    "equivalence.graphs_equivalent",
    "equivalence.apply_Ei",
    "equivalence.apply_Eii",
    "convert.graph_from_generator_matrix",
    "pauli.to_canonical_form",
    "pauli.GeneratorMatrix",
    "pauli.multiply",
    "pauli.conjugate",
    "circuit.circuit_from_graph",
    "circuit.generators_from_circuit",
    "oracle.statevector_from_circuit",
    "oracle.apply_gate_dense",
    "oracle.Statevector",
    "audit.audit_rules",
)
# Rule dispatch is counted, not timed: a classify_* call made directly
# under one of these spans is the rule that span applies.
CLASSIFIERS = ("classify_local", "classify_local_reduced", "classify_cz_reduced")
RULE_APPLIERS = ("transforms.apply_local", "transforms.apply_local_reduced",
                 "transforms.apply_cz_reduced")
AMPLITUDE_BYTES = 16  # complex128


def _amplitude_work(name: str):
    """Amplitude bytes a dense-oracle call touches: 2^n x gates x 16 B."""
    if name == "oracle.apply_gate_dense":
        return lambda v, *a, **k: v.amps.size * AMPLITUDE_BYTES
    if name == "oracle.statevector_from_circuit":
        # Diagonal layers only; its Hadamards are apply_gate_dense calls.
        return lambda c, *a, **k: (1 << c.n) * AMPLITUDE_BYTES * (
            len(c.cz) + len(c.z_set) + len(c.s_set))
    return None


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.request = -1  # id of the request running now; -1 records nothing
        # One entry per span, in the order spans open (parents first).
        self.fid = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.stack: list = []
        self.rules: Counter = Counter()
        self.amplitude_bytes = 0
        self._restore: list = []

    # --- wrappers -------------------------------------------------------

    def _span(self, fid: int, fn, work=None):
        fids, starts, ends, parents, reqs, stack = (
            self.fid, self.start, self.end, self.parent, self.req, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if work is not None:
                self.amplitude_bytes += work(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def _counter(self, fn):
        appliers = {self.names.index(name) for name in RULE_APPLIERS}

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tag = fn(*args, **kwargs)
            if self.stack and self.fid[self.stack[-1]] in appliers:
                self.rules[tag] += 1
            return tag

        return counted

    def _replace_everywhere(self, orig, new) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "stabgraph":
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def install(self) -> None:
        for fid, name in enumerate(self.names):
            modname, _, attr = name.partition(".")
            mod = importlib.import_module("stabgraph." + modname)
            if attr == "StabilizerGraph.build":
                cls = mod.StabilizerGraph
                orig = cls.__dict__["build"]
                setattr(cls, "build", classmethod(self._span(fid, orig.__func__)))
                self._restore.append((cls, "build", orig))
                continue
            obj = getattr(mod, attr)
            if isinstance(obj, type):
                orig = obj.__dict__["__init__"]
                setattr(obj, "__init__", self._span(fid, orig))
                self._restore.append((obj, "__init__", orig))
            else:
                self._replace_everywhere(obj, self._span(fid, obj, _amplitude_work(name)))
        transforms = importlib.import_module("stabgraph.transforms")
        for attr in CLASSIFIERS:
            orig = getattr(transforms, attr)
            self._replace_everywhere(orig, self._counter(orig))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, orig = self._restore.pop()
            setattr(obj, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: Path) -> None:
        """Write the spans as arrays: names, fid, start, end, parent, req."""
        import numpy as np

        np.savez(
            path, names=np.array(self.names), fid=np.frombuffer(self.fid, np.int16),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int64), req=np.frombuffer(self.req, np.int64))


def self_times(start: list, end: list, parent: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    kids: dict = {}
    for i, p in enumerate(parent):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered, run_s, run_e = 0.0, None, None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in children):
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            else:
                run_e = max(run_e, e)
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


def under(fid: list, parent: list, ancestors: set) -> list:
    """For each span, whether some ancestor has a function id in ``ancestors``.

    Parents are recorded before their children, so one pass in index order
    suffices.
    """
    flags = [False] * len(fid)
    for i, p in enumerate(parent):
        if p >= 0:
            flags[i] = flags[p] or fid[p] in ancestors
    return flags
