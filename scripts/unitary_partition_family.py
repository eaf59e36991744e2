#!/usr/bin/env python3
"""Extract the family of multigraphs encoded by one random bipartite
unitary under every coin/position register split.

The same operator yields a different multigraph for each divisor m of its
dimension; this script prints the adjacency matrix of each and saves the
graph files.

Example:
    python3 scripts/unitary_partition_family.py --dim 8 --seed 3 --out-dir runs/
"""

import argparse
from pathlib import Path

import numpy as np

from qwalk import adjacency, extract_family
from qwalk.fileio import save_graph, save_matrix


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    u = haar_unitary(args.dim, rng)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(u, args.out_dir / "unitary.json")

    for m, grid, graph in extract_family(u):
        path = args.out_dir / f"graph_m{m}.json"
        save_graph(graph, path)
        print(f"m={m} n={grid.n}: {len(graph.arcs)} arcs -> {path}")
        with np.printoptions(precision=3, suppress=True):
            print(adjacency(graph))


if __name__ == "__main__":
    main()
