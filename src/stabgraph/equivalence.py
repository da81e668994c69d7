"""State-preserving rewrites and the graph-equivalence decision procedure.

Unlike the gate rules, the rewrites here leave the described state exactly
fixed (not merely up to a known gate), so they generate the set of graphs
drawing the same state:

* E1   flips the fill and sign of a node with a loop, then runs T3's body
       ``_t3`` (S on a hollow node) on it; the loop stays put.
* E2   flips the fills of two connected loop-free nodes after
       complementing along their edge.
* E(i) and E(ii) are the reduced-form counterparts used when two reduced
  graphs disagree on a single fill: they move a hollow marker across an
  edge onto a solid neighbor (with a loop for E(i), without for E(ii)).
  ``_swap`` is the one chooser between them; the public ``apply_Ei`` and
  ``apply_Eii`` only check the caller's choice.  E(ii) is E2 on the
  opposite-fill pair; E(i), inline in ``_swap``, is E1 on the solid node,
  then E1 on the hollow node, which the first move gave a loop.

``graphs_equivalent`` decides whether two graphs describe the same state
up to global phase: reduce both, then (``simplify_pair``) swap away the
connected nodes on which the hollow sets disagree, and finally compare the
graphs bit for bit.  Sign conditions inside a rule are always evaluated on
the decorations as they stand when the sign stage begins, and both
conditional flips are then applied; this is the reading certified by the
dense-simulation oracle.

Every move runs on ``graph._Masks``, where the fills, loops and signs are
bitmasks: a move costs a complementation (one XOR per row it rewrites)
and a few whole-mask operations, however dense its rows.  ``to_reduced``
and ``simplify_pair`` run all their moves in place on one ``_Masks`` per
graph and check each result once with ``is_reduced``, which looks only at
the nodes the moves wrote.
"""

from __future__ import annotations

from .graph import (
    InvariantError,
    StabilizerGraph,
    _Masks,
    _bits,
    _check_node,
    _offenders,
    _scratch,
    is_reduced,
)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _t3(m: _Masks, j: int) -> None:
    # S on a hollow node without a loop (T3), and the rest of E1.
    m.local_complement(j)
    nb = m.adj[j]
    m.advance(nb)
    if (m.neg_mask >> j) & 1:
        m.neg_mask ^= nb


def _e1_core(m: _Masks, j: int) -> None:
    # _t3 reads j's sign after this flip and writes neither j's fill nor sign.
    m.hollow_mask ^= 1 << j
    m.neg_mask ^= 1 << j
    _t3(m, j)


def _e2_core(m: _Masks, j: int, k: int) -> None:
    m.hollow_mask ^= (1 << j) | (1 << k)
    m.local_complement_edge(j, k)
    nb_j, nb_k = m.adj[j], m.adj[k]
    m.neg_mask ^= nb_j & nb_k
    # Both sign conditions are read before either flip is applied.  Neither
    # node is its own neighbor, so each flip covers the node and its row.
    flips = 0
    if (m.neg_mask >> j) & 1:
        flips ^= (1 << j) | nb_j
    if (m.neg_mask >> k) & 1:
        flips ^= (1 << k) | nb_k
    m.neg_mask ^= flips


def _swap(m: _Masks, hollow: int, solid: int) -> None:
    # E(i) when the solid node has a loop: E1 there advances the loop of
    # its hollow neighbor, which then has the loop that E1 needs.  Else E(ii).
    if m.loop_mask >> solid & 1:
        _e1_core(m, solid)
        _e1_core(m, hollow)
    else:
        _e2_core(m, hollow, solid)


def apply_E1(g: StabilizerGraph, j: int) -> StabilizerGraph:
    """Flip the fill of node j, which must carry a loop.

    Complements on j, advances the loops of its neighbors, flips j's fill
    and sign, and, when j ends up negative, flips its neighbors' signs.
    j keeps its loop.  The described state is unchanged.
    """
    j = _check_node(g, j)
    if not g.loop_mask >> j & 1:
        raise ValueError(f"node {j} has no loop")
    m = _Masks(g)
    _e1_core(m, j)
    return m.freeze()


def apply_E2(g: StabilizerGraph, j: int, k: int) -> StabilizerGraph:
    """Flip the fills of connected loop-free nodes j and k.

    Complements along the edge, flips signs of common neighbors, and for
    each of j, k that was negative flips it and its current neighbors.
    The described state is unchanged.
    """
    j, k = _check_node(g, j), _check_node(g, k)
    for node in (j, k):
        if g.loop_mask >> node & 1:
            raise ValueError(f"node {node} has a loop")
    if not g.adj[j] >> k & 1:
        raise ValueError(f"nodes {j} and {k} are not connected")
    m = _Masks(g)
    _e2_core(m, j, k)
    return m.freeze()


def apply_Ei(g: StabilizerGraph, hollow: int, solid: int) -> StabilizerGraph:
    """Swap the fills of a hollow node and a connected solid node that has
    a loop, in a reduced graph.  The described state is unchanged.

    This is E1 on the solid node, then E1 on the hollow node: the first
    move makes the solid node hollow and advances the loops of its
    neighbors, so the hollow node, loop-free in a reduced graph, gains
    the loop that the second move needs.
    """
    return _swapped(g, hollow, solid, want_loop=True)


def apply_Eii(g: StabilizerGraph, hollow: int, solid: int) -> StabilizerGraph:
    """Swap the fills of a hollow node and a connected loop-free solid
    node, in a reduced graph.  This is exactly the E2 action applied to an
    opposite-fill pair.  The described state is unchanged.
    """
    return _swapped(g, hollow, solid, want_loop=False)


def _swapped(
    g: StabilizerGraph, hollow: object, solid: object, want_loop: bool
) -> StabilizerGraph:
    # Checks that _swap would pick the caller's rule, then runs it on a copy.
    hollow, solid = _check_node(g, hollow), _check_node(g, solid)
    if not is_reduced(g):
        raise ValueError("graph is not reduced")
    if not g.hollow_mask >> hollow & 1 or g.hollow_mask >> solid & 1:
        raise ValueError(f"expected hollow node {hollow} and solid node {solid}")
    if not g.adj[hollow] >> solid & 1:
        raise ValueError(f"nodes {hollow} and {solid} are not connected")
    has_loop = bool(g.loop_mask >> solid & 1)
    if has_loop != want_loop:
        have = "a loop" if has_loop else "no loop"
        need = "a loop" if want_loop else "no loop"
        raise ValueError(f"solid node {solid} has {have}, rule needs {need}")
    m = _Masks(g)
    _swap(m, hollow, solid)
    return m.freeze()


def to_reduced(g: StabilizerGraph) -> StabilizerGraph:
    """Rewrite into reduced form without changing the described state.

    First every hollow node with a loop is made solid with E1 (lowest
    index first; advancing may mint new loops on hollow neighbors).  Then
    every hollow-hollow edge is cleared with E2 on the lexicographically
    smallest such pair.  Each step fills at least one hollow node, so the
    hollow count never increases and the loop terminates within n steps
    per phase.

    The E1 phase reads ``hollow_mask & loop_mask`` afresh for each move.
    The E2 phase keeps a worklist bitmask and, after a move, re-examines
    only the nodes that move touched, so a step costs about the degree of
    its nodes rather than a rescan.  A graph that is already reduced is
    returned as it is.  Given a gate word's ``graph._Masks``, the moves
    rewrite it in place and it is returned.
    """
    if not is_reduced(g):
        m = _scratch(g)
        for _ in range(g.n + 1):
            todo = m.hollow_mask & m.loop_mask
            if not todo:
                break
            _e1_core(m, _lowest(todo))
        else:
            raise InvariantError("loop-clearing phase failed to terminate")
        # A hollow node is on the list when it has a hollow neighbor: no
        # hollow node has a loop now, nor gets one from E2, so the list is
        # the offenders.  Every hollow-hollow edge has an end among the
        # suspect mask's, so they and their hollow neighbors are the list.
        # The lowest i on it has only hollow neighbors above it, so (i,
        # lowest hollow neighbor of i) is the lexicographically smallest
        # pair.  E2 fills i and k and rewrites only their neighborhoods'
        # rows, whose offenders then replace them on the list.
        m.settle()
        todo = m._suspect = _offenders(m, m._suspect)
        for i in _bits(todo):
            todo |= m.adj[i] & m.hollow_mask
        for _ in range(g.n + 1):
            if not todo:
                break
            i = _lowest(todo)
            k = _lowest(m.adj[i] & m.hollow_mask)
            touched = m.adj[i] | m.adj[k]
            _e2_core(m, i, k)
            todo = todo & ~touched | _offenders(m, touched)
        else:
            raise InvariantError("edge-clearing phase failed to terminate")
        g = m.result(g)
    if not is_reduced(g):
        raise InvariantError("to_reduced left a graph that is not reduced")
    return g


def simplify_pair(
    g1: StabilizerGraph, g2: StabilizerGraph
) -> tuple[StabilizerGraph, StabilizerGraph]:
    """Align the hollow sets of two reduced graphs where possible.

    While there is a connected pair (a, b) with a hollow only in g1 and b
    hollow only in g2, apply E(i) or E(ii) in whichever graph has the
    edge (g1 when both do), choosing the lexicographically smallest pair.
    Each application swaps one disagreement away, so at most n/2 + 1
    passes are needed.  Neither state changes.  The moves run in place on
    one ``graph._Masks`` per graph, and both results are checked once
    with ``is_reduced``, raising ``InvariantError`` (also under -O).
    """
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    for g in (g1, g2):
        if not is_reduced(g):
            raise ValueError("inputs must be reduced")
    m1, m2 = _Masks(g1), _Masks(g2)
    for _ in range(g1.n + 1):
        h1, h2 = m1.hollow_mask, m2.hollow_mask
        only1, only2 = h1 & ~h2, h2 & ~h1
        for a in _bits(only1):
            reach = (m1.adj[a] | m2.adj[a]) & only2
            if reach:
                break
        else:
            break
        b = _lowest(reach)
        if m1.adj[a] >> b & 1:
            _swap(m1, a, b)
        else:
            _swap(m2, b, a)
    else:
        raise InvariantError("pair simplification failed to terminate")
    g1, g2 = m1.freeze(), m2.freeze()
    if not (is_reduced(g1) and is_reduced(g2)):
        raise InvariantError("pair simplification left a graph that is not reduced")
    return g1, g2


def graphs_equivalent(g1: StabilizerGraph, g2: StabilizerGraph) -> bool:
    """Decide whether two graphs describe the same state up to phase."""
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    r1, r2 = simplify_pair(to_reduced(g1), to_reduced(g2))
    return r1 == r2
