"""Clifford gates as graph rewrites.

Applying H, S, Z or CZ to a stabilizer state maps graph drawings to graph
drawings.  Two rule families implement this:

* General rules (any graph).  Dispatch on the gate and the target's
  decorations: T1 (H), T2 (S on solid), T3 (S on hollow without loop),
  T4 (S on hollow with loop), T5 (Z on solid), T6 (Z on hollow).
* Reduced rules (graphs in reduced form, kept reduced).  H dispatches to
  T(i)-T(v) by loop and hollow-neighbor pattern, S to T(vi)/T(vii), Z is
  shared with T5/T6, and CZ dispatches to T(viii)/T(ix)/T(x) by the fill
  pattern of the pair.

``apply_cz`` on an arbitrary graph first rewrites into reduced form (a
state-preserving step) and then applies the reduced CZ rule.

Every rule writes one ``graph._Masks``: the graph's own flag masks beside
its adjacency rows, so flipping the signs of a neighborhood is
``neg_mask ^= adj[j]``.  The four one-gate functions are the only
per-gate step.  Each picks its rule with the public ``classify_*``
function, the only code that maps a gate and decorations to a T tag,
runs the E-move prelude and calls the body (``_general`` or ``_cz``).
Given a graph, a one-gate function checks it (reduced, for the reduced
rules) and its node ids, rewrites a fresh ``_Masks``, freezes it and,
when the result must be reduced, checks that with ``is_reduced``.

``apply_sequence`` runs a word through the same functions, but not
through all of their checks.  It checks each gate's targets once, as
they come, and hands the one-gate function its one ``_Masks``, which is
rewritten in place with those targets taken as checked.  The reduced
check of the input then costs nothing after gate 0, because the check
after the previous gate left the suspect mask empty, and the check of
the result costs about the nodes the gate wrote.  The word is frozen
once, at the end, and checked once more there.

T1, T2, T3, T5, T6 and the three CZ rules have bodies of their own;
``_general`` holds the T1-T6 bodies.  T3's body, ``_t3``, lives beside E1
in ``equivalence``, because E1 is a flip of the node's fill and sign and
then that body.  The rest are compositions, as in the paper, where the
reduced rules are general rules after E moves: T4 is E1 then T2.  Each
reduced local rule is an E-move prelude and then the general rule it
ends in: T(i) and T(v) are T1 alone, T(ii) is E1 then T1, T(iii) and
T(iv) are E(ii) and E(i) on the consumed hollow neighbor and the target,
then T1; T(vi) is T2 and T(vii) is T3.  The E moves are
``equivalence``'s bodies, and they leave the state fixed.

Sign conditions inside a rule are evaluated on the decorations as they
stand when the rule's sign stage begins; "originally"/"initially" in a
docstring means before the rule started.  T(iii) and T(iv) consume the
target's lowest hollow neighbor.  Any hollow neighbor k gives the same
state: the other choices are ``apply_local(apply_Eii(g, k, j), "H", j)``
and ``apply_local(apply_Ei(g, k, j), "H", j)``, which the tests check
against the oracle.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .equivalence import _e1_core, _lowest, _swap, _t3, to_reduced
from .graph import (
    InvariantError,
    StabilizerGraph,
    _Masks,
    _bits,
    _check_distinct,
    _check_node,
    _offenders,
    _valid_rewrite,
    is_reduced,
)
from .pauli import GATE_ARITY, _gate_arity, _gate_targets

LOCAL_GATES = ("H", "S", "Z")

GateApplication = Tuple[str, Tuple[int, ...]]


def classify_local(g: StabilizerGraph, gate: str, j: int) -> str:
    """Name of the general rule that applies: one of T1..T6."""
    j = _check_node(g, j)
    if gate == "H":
        return "T1"
    hollow = g.hollow_mask >> j & 1
    if gate == "S":
        if not hollow:
            return "T2"
        return "T4" if g.loop_mask >> j & 1 else "T3"
    if gate == "Z":
        return "T6" if hollow else "T5"
    raise ValueError(f"not a single-node gate: {gate!r}")


def classify_local_reduced(g: StabilizerGraph, gate: str, j: int) -> str:
    """Name of the reduced rule that applies to a reduced graph."""
    j = _check_node(g, j)
    hollow = g.hollow_mask >> j & 1
    if gate == "S":
        return "T(vii)" if hollow else "T(vi)"
    if gate == "Z":
        return "T6" if hollow else "T5"
    if gate == "H":
        if hollow:
            return "T(v)"
        has_hollow = g.adj[j] & g.hollow_mask
        if g.loop_mask >> j & 1:
            return "T(iv)" if has_hollow else "T(ii)"
        return "T(iii)" if has_hollow else "T(i)"
    raise ValueError(f"not a single-node gate: {gate!r}")


def classify_cz_reduced(g: StabilizerGraph, j: int, k: int) -> str:
    """Name of the reduced CZ rule: T(viii), T(ix) or T(x)."""
    j, k = _check_distinct(g, j, k, "CZ targets")
    hollows = (g.hollow_mask >> j & 1) + (g.hollow_mask >> k & 1)
    return ("T(viii)", "T(ix)", "T(x)")[hollows]


def _check_reduced(g: "StabilizerGraph | _Masks", rule: str) -> "StabilizerGraph | _Masks":
    # An explicit raise rather than an assert, so the check survives -O.
    # The input passed the reduced pre-check, which left its suspect mask
    # at 0, so after settle() the mask holds just the nodes the rule wrote:
    # this costs about their number, not n.  apply_sequence rescans its
    # result in full.
    if not is_reduced(g):
        raise InvariantError(f"rule {rule} broke the reduced invariant")
    return g


# --- rules -----------------------------------------------------------------


def _t2(m: _Masks, j: int) -> None:
    m.advance(1 << j)


def _t6(m: _Masks, j: int) -> None:
    # Z on a hollow node.
    m.neg_mask ^= m.adj[j]
    if (m.loop_mask >> j) & 1:
        m.neg_mask ^= 1 << j


def _general(m: _Masks, rule: str, j: int) -> None:
    """The body of general rule ``rule`` (T1..T6) at node j."""
    if rule == "T1":
        m.hollow_mask ^= 1 << j
    elif rule == "T2":
        _t2(m, j)
    elif rule == "T3":
        _t3(m, j)
    elif rule == "T4":
        # E1 makes the hollow looped node solid; T2 then advances its loop.
        _e1_core(m, j)
        _t2(m, j)
    elif rule == "T5":
        m.neg_mask ^= 1 << j
    else:  # T6
        _t6(m, j)


def _cz(m: _Masks, rule: str, j: int, k: int) -> None:
    """The body of reduced CZ rule ``rule`` (T(viii)..T(x)) at nodes j, k."""
    if rule == "T(viii)":
        m.toggle_edge(j, k)
    elif rule == "T(ix)":
        solid, hollow = (j, k) if m.hollow_mask >> k & 1 else (k, j)
        connected = (m.adj[solid] >> hollow) & 1
        hollow_neg = (m.neg_mask >> hollow) & 1
        # Per neighbor, not toggle_between: at the hollow degrees 0-4 of n=1024
        # reduced rows this took 1.8-2.9 us a call, toggle_between 3.2-3.8 us.
        for l in _bits(m.adj[hollow] & ~(1 << solid)):
            m.toggle_edge(solid, l)
        if connected != hollow_neg:
            m.neg_mask ^= 1 << solid
    else:  # T(x): both hollow, necessarily disconnected in a reduced graph
        # Neither target is in a or b, so their rows and signs stay put.
        a, b = m.adj[j], m.adj[k]
        m.toggle_between(a & ~b, b & ~a, a & b)
        m.neg_mask ^= a & b
        if m.neg_mask >> j & 1:
            m.neg_mask ^= b
        if m.neg_mask >> k & 1:
            m.neg_mask ^= a


# The general rule that each reduced S or Z rule ends in; every H rule ends in T1.
_GENERAL_OF = {"T(vi)": "T2", "T(vii)": "T3", "T5": "T5", "T6": "T6"}


# Given a word's _Masks (apply_sequence), a one-gate function rewrites it
# in place and returns it, and takes its targets as checked; given a
# graph, it checks them and rewrites a fresh copy.


def apply_local(g: StabilizerGraph, gate: str, j: int) -> StabilizerGraph:
    """Apply H, S or Z at node j of an arbitrary graph (rules T1-T6)."""
    if type(g) is _Masks:
        m = g
    else:
        m, j = _Masks(g), _check_node(g, j)
    _general(m, classify_local(g, gate, j), j)
    return m.result(g)


def apply_local_reduced(g: StabilizerGraph, gate: str, j: int) -> StabilizerGraph:
    """Apply H, S or Z at node j of a reduced graph, staying reduced.

    T(iii) and T(iv) consume j's lowest hollow neighbor.
    """
    if not is_reduced(g):
        raise ValueError("graph is not reduced")
    if type(g) is _Masks:
        m = g
    else:
        m, j = _Masks(g), _check_node(g, j)
    rule = classify_local_reduced(g, gate, j)
    # The E-move prelude: T(ii) makes j hollow with E1, and T(iii) and
    # T(iv) move the hollow marker of j's lowest hollow neighbor onto j.
    if rule == "T(ii)":
        _e1_core(m, j)
    elif rule == "T(iii)" or rule == "T(iv)":
        _swap(m, _lowest(m.adj[j] & m.hollow_mask), j)
    _general(m, "T1" if gate == "H" else _GENERAL_OF[rule], j)
    return _check_reduced(m.result(g), rule)


def apply_cz_reduced(g: StabilizerGraph, j: int, k: int) -> StabilizerGraph:
    """Apply CZ to nodes j, k of a reduced graph, staying reduced."""
    if not is_reduced(g):
        raise ValueError("graph is not reduced")
    if type(g) is _Masks:
        m = g
    else:
        m, (j, k) = _Masks(g), _check_distinct(g, j, k, "CZ targets")
    rule = classify_cz_reduced(g, j, k)
    _cz(m, rule, j, k)
    return _check_reduced(m.result(g), rule)


def apply_cz(g: StabilizerGraph, j: int, k: int) -> StabilizerGraph:
    """Apply CZ to an arbitrary graph: reduce first, then use the reduced
    rule.  The output is reduced; it describes exactly CZ times the input
    state."""
    if type(g) is not _Masks:
        j, k = _check_distinct(g, j, k, "CZ targets")
    return apply_cz_reduced(to_reduced(g), j, k)


def apply_sequence(
    g: StabilizerGraph,
    gates: Iterable[GateApplication],
    reduced: bool = False,
) -> StabilizerGraph:
    """Fold a gate list ``[(name, targets), ...]`` over a graph.

    Each ``targets`` entry is a tuple of qubit indices; a bare node id is
    accepted as shorthand for a single target.  With ``reduced=True`` the
    input must be reduced and the reduced rules are used throughout, so
    every intermediate graph is reduced too.

    The word runs on one ``graph._Masks``.  Each gate's targets are
    checked once, as they come (``pauli._gate_targets`` when they are not
    a tuple of in-range Python ints, to convert them or name the defect).
    The gate is then its one-gate function on the word's ``_Masks``,
    which rewrites it in place: the same rule pickers, bodies and reduced
    checks as a one-gate call, without checking the targets again.  So
    the input of a reduced word is checked at gate 0, after that gate's
    targets, and after every reduced-rule gate and every CZ the nodes it
    wrote must leave no clash, else ``InvariantError`` names the rule
    (also under -O).  The result is frozen once, at the end.
    It is then checked once on the rows the word wrote
    (``graph._valid_rewrite``), which past one C-speed pass over the rows
    costs those rows, not all n; when that check fails, the full
    ``_validate()`` runs and raises its message.
    Then one full reduced scan, which ignores the suspect mask, must agree
    with ``is_reduced``.  An empty word gets the full ``_validate()`` and
    returns ``g`` itself.
    """
    m = _Masks(g)
    n = m.n
    local, cz = (apply_local_reduced, apply_cz_reduced) if reduced else (apply_local, apply_cz)
    count = 0
    for count, (gate, targets) in enumerate(gates, 1):
        if not (
            type(targets) is tuple
            and len(targets) == GATE_ARITY.get(gate)
            and type(j := targets[0]) is int
            and type(k := targets[-1]) is int
            and 0 <= j < n
            and 0 <= k < n
            and (j != k or gate != "CZ")
        ):
            targets = _gate_targets(gate, targets, n)
            j, k = targets[0], targets[-1]
        if gate == "CZ":
            cz(m, j, k)
        else:
            local(m, gate, j)
    if count:
        out = m.freeze()
        if not _valid_rewrite(out, g):
            out._validate()
            raise InvariantError("the written-rows check rejected a graph the full check accepts")
        g = out
    else:
        g._validate()
    clean = not _offenders(g, -1)
    if is_reduced(g) != clean:
        raise InvariantError("a rule left a clash outside the suspect mask")
    if reduced and not clean:  # only an empty word gets here
        raise ValueError("graph is not reduced")
    return g


def expand_gate(gate: str, *targets: int) -> list[GateApplication]:
    """Spell a derived gate in the H/S/Z/CZ vocabulary.

    SDG (inverse phase gate) is three S; X is H,Z,H; Y is Z followed by X
    and matches the true Y only up to a global phase, which graphs do not
    track anyway.
    """
    spelled = {"SDG": "SSS", "X": "HZH", "Y": "ZHZH"}.get(gate)
    if spelled is None:
        return [(gate, _gate_arity(gate, targets))]
    if len(targets) != 1:
        raise ValueError(f"{gate} takes 1 target, got {len(targets)}")
    return [(base, targets) for base in spelled]
