#!/usr/bin/env python3
"""Run a Hadamard-coined walk on the n-cycle next to its classical
counterpart and write both trajectories as plot-ready CSV.

Example:
    python3 scripts/hadamard_cycle_walk.py --n 8 --steps 30 --out-dir runs/
"""

import argparse
from pathlib import Path

import numpy as np

from qwalk import (
    CoinSpec,
    KrausGrid,
    ProbabilityVector,
    assemble_shift,
    basis_state,
    classical_trajectory,
    evolution,
    evolve,
    measure_position,
    named_coin,
)
from qwalk.fileio import write_distribution_csv


def cycle_grid(n: int) -> KrausGrid:
    """The shift of C_n: coin 0 moves the walker to v - 1, coin 1 to v + 1."""
    v = np.arange(n)
    return KrausGrid.from_permutation(2, n, np.concatenate([(v + 1) % n, n + (v - 1) % n]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8, help="cycle length")
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--start", type=int, default=0, help="starting vertex")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    shift = assemble_shift(cycle_grid(args.n))
    u = evolution(shift, CoinSpec.global_coin(named_coin("hadamard", 2), args.n))
    state = basis_state(2, args.n, 0, args.start)

    quantum = []
    for t in range(args.steps + 1):
        quantum.append((t, measure_position(state).probs))
        state = evolve(u, state, 1)

    adjacency = np.zeros((args.n, args.n))
    for i in range(args.n):
        adjacency[i, (i + 1) % args.n] = adjacency[i, (i - 1) % args.n] = 1
    p0 = np.zeros(args.n)
    p0[args.start] = 1.0
    classical = [(t, dist.probs) for t, dist in enumerate(
        classical_trajectory(adjacency, ProbabilityVector(p0), args.steps))]

    args.out_dir.mkdir(parents=True, exist_ok=True)
    q_path = args.out_dir / f"quantum_c{args.n}.csv"
    c_path = args.out_dir / f"classical_c{args.n}.csv"
    write_distribution_csv(quantum, q_path)
    write_distribution_csv(classical, c_path)
    print(f"wrote {q_path} and {c_path}")


if __name__ == "__main__":
    main()
