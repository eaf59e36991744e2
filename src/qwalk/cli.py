"""Command-line entry point.

Exit-code contract (stable for shell harnesses):
  0  success
  1  I/O or parse failure
  2  precondition violation (irregular matrix, bad dimensions, out of memory, ...)
  3  non-unitary operator
  4  verification failure (qwalk verify)
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .coins import CoinSpec, coin_matrix, evolution, named_coin, NAMED_COINS
from .errors import FileFormatError, NonUnitaryError, PreconditionError
from .linalg import DEFAULT_TOL, Tolerance, require_unitary
from .shift import (_extract, _family_dims, assemble_shift, decompose_permutations,
                    extract_graph, verify_kraus)
from .walk import classical_trajectory, measure_position, step

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_NON_UNITARY = 3
EXIT_VERIFY_FAILED = 4


def _steps(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer: {text!r}")


def _tolerance(text: str) -> Tolerance:
    try:
        return Tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative number: {text!r}") from None


def cmd_decompose(args) -> int:
    a = fileio.load_matrix(args.adjacency)
    grid = decompose_permutations(a)
    fileio.save_grid(grid, args.out)
    residual = verify_kraus(a, grid).sum_residual
    print(f"m = {grid.m}")
    print(f"sum residual = {fileio.fmt_float(residual)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = fileio.load_grid(args.grid)
    a = fileio.load_matrix(args.adjacency) if args.adjacency else None
    report = verify_kraus(a, grid, args.tol)
    if report.sum_ok is None:
        print("sum: SKIPPED (no adjacency file)")
    else:
        print(f"sum: {'PASS' if report.sum_ok else 'FAIL'} "
              f"residual={fileio.fmt_float(report.sum_residual)}")
    print(f"column completeness: {'PASS' if report.column_ok else 'FAIL'} "
          f"residual={fileio.fmt_float(report.column_residual)}")
    print(f"row completeness: {'PASS' if report.row_ok else 'FAIL'} "
          f"residual={fileio.fmt_float(report.row_residual)}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_assemble(args) -> int:
    grid = fileio.load_grid(args.grid)
    shift = assemble_shift(grid, args.tol)
    fileio.save_matrix(shift.matrix, args.out)
    print(f"shift operator: {shift.m * shift.n}x{shift.m * shift.n} "
          f"(m={shift.m}, n={shift.n})")
    return EXIT_OK


def cmd_coin(args) -> int:
    spec = fileio.load_coin_spec(args.coin, args.tol)
    fileio.save_matrix(coin_matrix(spec), args.out)
    return EXIT_OK


def cmd_evolve_op(args) -> int:
    s = fileio.load_matrix(args.shift)
    spec = fileio.load_coin_spec(args.coin, args.tol)
    fileio.save_matrix(evolution(s, spec, args.tol), args.out)  # checks U, so S
    return EXIT_OK


def cmd_walk(args) -> int:
    operator = fileio.load_matrix(args.operator)
    state = fileio.load_state(args.state, args.tol)
    if args.coin is not None:
        spec = fileio.load_coin_spec(args.coin, args.tol)
        operator = evolution(operator, spec, args.tol)  # checks U, so S
    else:
        require_unitary(operator, args.tol, "walk operator")
    if operator.shape[0] != state.m * state.n:
        raise PreconditionError(
            f"operator dimension {operator.shape[0]} does not match state "
            f"dimension {state.m * state.n}")
    dists = []
    for t in range(args.steps + 1):
        if t > 0:
            state = step(operator, state)
        if args.trajectory or t == args.steps:
            dists.append((t, measure_position(state).probs))
    fileio.write_distribution_csv(dists, args.out)
    total = float(np.sum(np.abs(state.amplitudes) ** 2))
    print(f"total probability = {fileio.fmt_float(total)}")
    return EXIT_OK


def cmd_classical(args) -> int:
    a = fileio.load_matrix(args.adjacency)
    p0 = fileio.load_probability_vector(args.init, args.tol)
    dists = []
    for t, dist in enumerate(classical_trajectory(a, p0, args.steps)):
        if args.trajectory or t == args.steps:
            dists.append((t, dist.probs))
    fileio.write_distribution_csv(dists, args.out)
    print(f"total probability = {fileio.fmt_float(float(dist.probs.sum()))}")
    return EXIT_OK


def _save_extracted(m, grid, graph, out_path) -> str:
    """Write one extracted graph and its adjacency; return the summary line."""
    fileio.save_graph(graph, out_path)
    adjacency_path = Path(out_path).with_suffix(".adjacency.json")
    fileio.save_matrix(grid.block_sum().T, adjacency_path)
    return (f"m={m} n={grid.n}: {graph.tail.size} arcs -> {out_path} "
            f"(adjacency: {adjacency_path})")


_family = None  # (u, tol, base path), set by _extract_all while its workers run


def _extract_member(m: int) -> str:
    u, tol, base = _family
    return _save_extracted(m, *_extract(u, m, tol), base.with_suffix(f".m{m}.json"))


def _extract_all(u, tol, base) -> None:
    """Extract and write the family of ``u``, one forked worker per
    available CPU, and print the summary lines in increasing m. The
    workers inherit U; each holds one member at a time, so up to that
    many members are alive at once."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _family
    dims = _family_dims(u, tol)
    _family = u, tol, base  # before the pool forks its workers, which inherit it
    pool = ProcessPoolExecutor(min(len(dims), len(os.sched_getaffinity(0))),
                               multiprocessing.get_context("fork"))
    try:
        for line in pool.map(_extract_member, dims):
            print(line)
    except BrokenProcessPool as exc:  # a worker was killed, most likely for memory
        raise PreconditionError(f"an extraction worker died: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _family = None


def cmd_extract(args) -> int:
    u = fileio.load_matrix(args.unitary)
    if args.all_partitions:
        _extract_all(u, args.tol, Path(args.out))
    else:
        print(_save_extracted(args.m, *extract_graph(u, args.m, args.tol), args.out))
    return EXIT_OK


def cmd_compile(args) -> int:
    grid = decompose_permutations(fileio.load_matrix(args.adjacency))
    if args.coin_file is not None:
        spec = fileio.load_coin_spec(args.coin_file, args.tol)
    else:
        spec = CoinSpec.global_coin(named_coin(args.coin_name or "identity", grid.m),
                                    grid.n, args.tol)
    fileio.save_matrix(evolution(grid, spec, args.tol), args.out)  # checks U, so S
    print(f"m = {grid.m}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Graph <-> unitary compiler and simulator for coined "
                    "discrete-time quantum walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="absolute tolerance override")
        return p

    p = add("decompose", cmd_decompose,
            "decompose a regular adjacency matrix into permutation blocks")
    p.add_argument("adjacency")
    p.add_argument("--out", required=True)

    p = add("verify", cmd_verify,
            "check a Kraus grid against the completeness relations")
    p.add_argument("grid")
    p.add_argument("--adjacency", default=None,
                   help="also check the block sum against this adjacency matrix")

    p = add("assemble", cmd_assemble, "assemble a Kraus grid into a shift operator")
    p.add_argument("grid")
    p.add_argument("--out", required=True)

    p = add("coin", cmd_coin, "build the full coin operator from a coin spec")
    p.add_argument("coin")
    p.add_argument("--out", required=True)

    p = add("evolve-op", cmd_evolve_op,
            "compose a shift operator and a coin into the evolution operator")
    p.add_argument("shift")
    p.add_argument("coin")
    p.add_argument("--out", required=True)

    p = add("walk", cmd_walk, "run a quantum walk and write the distribution CSV")
    p.add_argument("operator", help="shift or evolution operator matrix file")
    p.add_argument("state", help="initial state file")
    p.add_argument("--coin", default=None,
                   help="coin spec file; composes with the operator first")
    p.add_argument("--steps", type=_steps, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trajectory", action="store_true",
                   help="record every step, not just the final one")

    p = add("classical", cmd_classical,
            "run the classical random-walk baseline with the same CSV schema")
    p.add_argument("adjacency")
    p.add_argument("init", help="initial probability vector file")
    p.add_argument("--steps", type=_steps, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trajectory", action="store_true")

    p = add("extract", cmd_extract,
            "read the multigraph encoded by a bipartite unitary")
    p.add_argument("unitary")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--m", type=int, help="coin dimension")
    which.add_argument("--all-partitions", action="store_true",
                       help="extract one graph per divisor of the dimension")
    p.add_argument("--out", required=True)

    p = add("compile", cmd_compile,
            "decompose, assemble and apply a coin in one invocation")
    p.add_argument("adjacency")
    coin = p.add_mutually_exclusive_group()
    coin.add_argument("--coin-file", default=None)
    coin.add_argument("--coin-name", choices=NAMED_COINS, help="default: identity")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonUnitaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_UNITARY
    except (PreconditionError, MemoryError) as exc:  # memory: an input sized beyond it
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
