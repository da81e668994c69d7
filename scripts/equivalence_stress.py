#!/usr/bin/env python3
"""Stress the graph-equivalence deciders against the dense oracle.

Draws random graph pairs (and optional rewrite-walk pairs that are
equivalent by construction) and compares three verdicts: the paper's
decider ``graphs_equivalent``, the closed-form group membership check
that the CLI's ``equiv`` runs, and the brute-force statevector overlap.
It prints a confusion summary.  Any disagreement among the three is
printed in full and makes the script exit nonzero.

Example:
    python3 scripts/equivalence_stress.py --pairs 5000 --max-n 6 --walks 500
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass

from stabgraph import (
    apply_E1,
    apply_E2,
    format_graph,
    graphs_equivalent,
    random_graph,
    statevector_from_graph,
    states_equal_up_to_global_phase,
)
from stabgraph.circuit import _same_state


@dataclass(frozen=True)
class StressConfig:
    pairs: int = 2000
    walks: int = 200
    max_n: int = 6
    seed: int = 0


def random_walk_pair(n: int, seed: int):
    """A graph and an equivalent one reached by random rewrites."""
    rng = random.Random(seed)
    g = random_graph(n, seed)
    h = g
    for _ in range(rng.randrange(1, 7)):
        moves = [("E1", (j,)) for j in range(n) if h.loop[j]]
        moves += [
            ("E2", (j, k))
            for j in range(n)
            for k in range(j + 1, n)
            if h.has_edge(j, k) and not h.loop[j] and not h.loop[k]
        ]
        if not moves:
            break
        kind, args = rng.choice(moves)
        h = apply_E1(h, *args) if kind == "E1" else apply_E2(h, *args)
    return g, h


def run(config: StressConfig) -> int:
    t0 = time.perf_counter()
    agree = disagree = truly_equal = 0

    def judge(g1, g2, expect_equal=None) -> None:
        nonlocal agree, disagree, truly_equal
        decided = graphs_equivalent(g1, g2)
        member = _same_state(g1, g2)
        truth = states_equal_up_to_global_phase(
            statevector_from_graph(g1), statevector_from_graph(g2)
        )
        truly_equal += truth
        if expect_equal is not None and truth != expect_equal:
            raise AssertionError("walk construction broke state preservation")
        if decided == member == truth:
            agree += 1
        else:
            disagree += 1
            print("DISAGREEMENT", file=sys.stderr)
            print(f"decided={decided} member={member} truth={truth}", file=sys.stderr)
            print(format_graph(g1), file=sys.stderr)
            print(format_graph(g2), file=sys.stderr)

    for i in range(config.pairs):
        n = 1 + (config.seed + i) % config.max_n
        judge(
            random_graph(n, seed=2 * (config.seed + i)),
            random_graph(n, seed=2 * (config.seed + i) + 1),
        )
    for i in range(config.walks):
        n = 1 + (config.seed + i) % config.max_n
        judge(*random_walk_pair(n, seed=config.seed + i), expect_equal=True)

    elapsed = time.perf_counter() - t0
    total = config.pairs + config.walks
    print(
        f"{total} pairs in {elapsed:.1f}s: {agree} agree, {disagree} disagree, "
        f"{truly_equal} truly equal states"
    )
    return 0 if disagree == 0 else 1


def parse_args(argv=None) -> StressConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--walks", type=int, default=200)
    parser.add_argument("--max-n", type=int, default=6, dest="max_n")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return StressConfig(
        pairs=args.pairs, walks=args.walks, max_n=args.max_n, seed=args.seed
    )


if __name__ == "__main__":
    sys.exit(run(parse_args()))
