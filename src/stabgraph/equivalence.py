"""State-preserving rewrites and the graph-equivalence decision procedure.

Unlike the gate rules, the rewrites here leave the described state exactly
fixed (not merely up to a known gate), so they generate the set of graphs
drawing the same state:

* E1   flips the fill of a node with a loop, after complementing on it and
       advancing its neighbors' loops; the loop stays put.
* E2   flips the fills of two connected loop-free nodes after
       complementing along their edge.
* E(i) and E(ii) are the reduced-form counterparts used when two reduced
  graphs disagree on a single fill: they move a hollow marker across an
  edge onto a solid neighbor (with a loop for E(i), without for E(ii)).
  E(ii) is E2 on the opposite-fill pair.  E(i) is E1 on the solid node,
  then E1 on the hollow node, which the first move gave a loop.

``graphs_equivalent`` decides whether two graphs describe the same state
up to global phase: reduce both, then repeatedly fix connected nodes on
which the hollow sets disagree with E(i)/E(ii), and finally compare the
graphs bit for bit.  Sign conditions inside a rule are always evaluated on
the decorations as they stand when the sign stage begins, and both
conditional flips are then applied; this is the reading certified by the
dense-simulation oracle.

Every move runs on ``graph._Masks``, where the fills, loops and signs are
bitmasks: a move costs a complementation (one row operation per neighbor)
and a few whole-mask operations, however dense its rows.  A move's result
carries the suspect mask of its source plus the nodes the move wrote, so
``is_reduced`` on it looks at those nodes only, whatever the source.
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


def _e1_core(m: _Masks, j: int) -> None:
    bit = 1 << j
    m.hollow_mask ^= bit
    m.local_complement(j)
    nb = m.adj[j]
    m.advance(nb)
    m.neg_mask ^= bit
    if m.neg_mask & bit:
        m.neg_mask ^= nb


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


def _ei_core(m: _Masks, hollow: int, solid: int) -> None:
    # E1 at the looped solid node advances the loop of its hollow
    # neighbor, which then has the loop that E1 needs.
    _e1_core(m, solid)
    _e1_core(m, hollow)


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
    if j == k or not g.adj[j] >> k & 1:
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
    hollow, solid = _check_pair(g, hollow, solid, want_loop=True)
    m = _Masks(g)
    _ei_core(m, hollow, solid)
    return m.freeze()


def apply_Eii(g: StabilizerGraph, hollow: int, solid: int) -> StabilizerGraph:
    """Swap the fills of a hollow node and a connected loop-free solid
    node, in a reduced graph.  This is exactly the E2 action applied to an
    opposite-fill pair.  The described state is unchanged.
    """
    hollow, solid = _check_pair(g, hollow, solid, want_loop=False)
    m = _Masks(g)
    _e2_core(m, hollow, solid)
    return m.freeze()


def _check_pair(
    g: StabilizerGraph, hollow: object, solid: object, want_loop: bool
) -> tuple[int, int]:
    hollow, solid = _check_node(g, hollow), _check_node(g, solid)
    if not is_reduced(g):
        raise ValueError("graph is not reduced")
    if not g.hollow_mask >> hollow & 1 or g.hollow_mask >> solid & 1:
        raise ValueError(f"expected hollow node {hollow} and solid node {solid}")
    if hollow == solid or not g.adj[hollow] >> solid & 1:
        raise ValueError(f"nodes {hollow} and {solid} are not connected")
    has_loop = bool(g.loop_mask >> solid & 1)
    if has_loop != want_loop:
        have = "a loop" if has_loop else "no loop"
        need = "a loop" if want_loop else "no loop"
        raise ValueError(f"solid node {solid} has {have}, rule needs {need}")
    return hollow, solid


def to_reduced(g: StabilizerGraph) -> StabilizerGraph:
    """Rewrite into reduced form without changing the described state.

    First every hollow node with a loop is made solid with E1 (lowest
    index first; advancing may mint new loops on hollow neighbors).  Then
    every hollow-hollow edge is cleared with E2 on the lexicographically
    smallest such pair.  Each step fills at least one hollow node, so the
    hollow count never increases and the loop terminates within n steps
    per phase.

    Each phase keeps a worklist bitmask of the nodes it still has to fix
    and, after a move, re-examines only the nodes that move touched, so a
    step costs about the degree of its nodes rather than a rescan.  A graph
    that is already reduced is returned as it is.  Given a gate word's
    ``graph._Masks``, the moves rewrite it in place and it is returned.
    """
    out = g if is_reduced(g) else _reduce_moves(g)
    if not is_reduced(out):
        raise InvariantError("to_reduced left a graph that is not reduced")
    return out


def _reduce_moves(g: StabilizerGraph) -> StabilizerGraph:
    """The E1 and E2 worklist phases of ``to_reduced``."""
    m = _scratch(g)
    # E1 at j fills j and advances its neighbors' loops: only j and its
    # neighbors (unchanged by complementing on j) can change status.
    todo = m.hollow_mask & m.loop_mask
    for _ in range(g.n + 1):
        if not todo:
            break
        j = _lowest(todo)
        _e1_core(m, j)
        t = m.adj[j] | (1 << j)
        todo = (todo & ~t) | (t & m.hollow_mask & m.loop_mask)
    else:
        raise InvariantError("loop-clearing phase failed to terminate")
    # A hollow node is on the list when it has a hollow neighbor.  No
    # hollow node has a loop now, so the offenders in the suspect mask have
    # hollow neighbors, and every hollow-hollow edge has an end among them:
    # they and their hollow neighbors are the list.  The lowest i on it has
    # only hollow neighbors above it, so (i, lowest hollow neighbor of i) is
    # the lexicographically smallest pair.  E2 fills i and k and rewrites
    # only the rows of their neighborhoods.
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
        todo &= ~touched
        for l in _bits(touched & m.hollow_mask):
            if m.adj[l] & m.hollow_mask:
                todo |= 1 << l
    else:
        raise InvariantError("edge-clearing phase failed to terminate")
    return m.result(g)


def simplify_pair(
    g1: StabilizerGraph, g2: StabilizerGraph
) -> tuple[StabilizerGraph, StabilizerGraph]:
    """Align the hollow sets of two reduced graphs where possible.

    While there is a connected pair (a, b) with a hollow only in g1 and b
    hollow only in g2, apply E(i) or E(ii) in whichever graph has the
    edge (g1 when both do), choosing the lexicographically smallest pair.
    Each application swaps one disagreement away, so at most n/2 + 1
    passes are needed.  Neither state changes.
    """
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    for g in (g1, g2):
        if not is_reduced(g):
            raise ValueError("inputs must be reduced")
    for _ in range(g1.n + 1):
        h1, h2 = g1.hollow_mask, g2.hollow_mask
        only1, only2 = h1 & ~h2, h2 & ~h1
        for a in _bits(only1):
            reach = (g1.adj[a] | g2.adj[a]) & only2
            if reach:
                break
        else:
            return g1, g2
        b = _lowest(reach)
        if g1.adj[a] >> b & 1:
            rule = apply_Ei if g1.loop_mask >> b & 1 else apply_Eii
            g1 = rule(g1, a, b)
        else:
            rule = apply_Ei if g2.loop_mask >> a & 1 else apply_Eii
            g2 = rule(g2, b, a)
    raise InvariantError("pair simplification failed to terminate")


def graphs_equivalent(g1: StabilizerGraph, g2: StabilizerGraph) -> bool:
    """Decide whether two graphs describe the same state up to phase."""
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} vs {g2.n}")
    r1, r2 = simplify_pair(to_reduced(g1), to_reduced(g2))
    return r1 == r2
