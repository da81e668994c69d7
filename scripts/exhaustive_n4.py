#!/usr/bin/env python3
"""The paper's claims on every decorated graph with 4 nodes.

Runs the checks of ``tests/test_exhaustive.py``, which covers n <= 3, on
all 262,144 four-node graphs of ``helpers.every_graph(4)``.  The dense
oracle splits them into classes of equal states, and the script requires:

* 36,720 classes, the number of 4-qubit stabilizer states;
* one canonical drawing (graph -> generator matrix -> graph) per class,
  different across classes;
* ``graphs_equivalent`` and closed-form group membership
  (``circuit._outside_group``) to hold between each graph and its class's
  first member, and to fail between it and the next class's first member;
* E1/E2 move orbits equal to the classes.

A failed check makes the script exit nonzero through ``sys.exit``, not
``assert``, so it checks as much under ``python -O``.

Example (the test helpers must be importable):
    PYTHONPATH=src:tests python3 scripts/exhaustive_n4.py
"""

from __future__ import annotations

import sys
import time

from helpers import every_graph
from stabgraph import graphs_equivalent
from stabgraph.circuit import _outside_group
from test_exhaustive import canon, e_moves, stabilizer_state_count, state_keys

N = 4
# Graphs whose amplitudes the oracle computes at once, to bound memory.
CHUNK = 16384
# Failures shown per check before the script only counts them.
SHOWN = 5


def state_classes(graphs) -> list[list[int]]:
    """The classes of equal states, as lists of graph indices in order."""
    by_key: dict = {}
    for lo in range(0, len(graphs), CHUNK):
        for k, key in enumerate(state_keys(graphs[lo : lo + CHUNK]), lo):
            by_key.setdefault(key, []).append(k)
    return list(by_key.values())


def drawing_failures(graphs, classes) -> list[str]:
    out = []
    class_of_drawing: dict = {}
    for c, members in enumerate(classes):
        drawn = {canon(graphs[k]) for k in members}
        if len(drawn) != 1:
            out.append(f"class {c} has {len(drawn)} canonical drawings")
        for d in drawn:
            if class_of_drawing.setdefault(d, c) != c:
                out.append(f"classes {class_of_drawing[d]} and {c} share a canonical drawing")
    return out


def decider_failures(graphs, classes) -> list[str]:
    out = []
    firsts = [members[0] for members in classes]
    for c, members in enumerate(classes):
        own, other = graphs[firsts[c]], graphs[firsts[(c + 1) % len(classes)]]
        for k in members:
            g = graphs[k]
            if not graphs_equivalent(g, own):
                out.append(f"graphs_equivalent: graph {k} against its class's first")
            if graphs_equivalent(g, other):
                out.append(f"graphs_equivalent: graph {k} against class {c + 1}'s first")
            if _outside_group(g, own) is not None:
                out.append(f"_outside_group: graph {k} against its class's first")
            if _outside_group(g, other) is None:
                out.append(f"_outside_group: graph {k} against class {c + 1}'s first")
    return out


def orbit_failures(graphs, classes) -> list[str]:
    index = {g: k for k, g in enumerate(graphs)}
    parent = list(range(len(graphs)))

    def root(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k, g in enumerate(graphs):
        for out in e_moves(g):
            parent[root(index[out])] = root(k)
    orbits: dict = {}
    for k in range(len(graphs)):
        orbits.setdefault(root(k), []).append(k)
    if sorted(orbits.values()) != sorted(classes):
        return [f"{len(orbits)} E1/E2 orbits are not the {len(classes)} classes"]
    return []


def main() -> int:
    start = time.perf_counter()
    graphs = list(every_graph(N))
    classes = state_classes(graphs)
    print(f"{len(graphs)} graphs on {N} nodes, {len(classes)} state classes")
    failed = []
    want = stabilizer_state_count(N)
    checks = [
        ("class count", lambda: [] if len(classes) == want else [f"expected {want} classes"]),
        ("canonical drawings", lambda: drawing_failures(graphs, classes)),
        ("deciders", lambda: decider_failures(graphs, classes)),
        ("E1/E2 orbits", lambda: orbit_failures(graphs, classes)),
    ]
    for name, check in checks:
        t = time.perf_counter()
        failures = check()
        print(f"{name}: {len(failures)} failure(s), {time.perf_counter() - t:.1f} s")
        for line in failures[:SHOWN]:
            print(f"  {line}")
        if failures:
            failed.append(name)
    print(f"total {time.perf_counter() - start:.1f} s")
    if failed:
        sys.exit("failed: " + ", ".join(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
