"""Child process of the benchmark, one of:

  worker.py setup WORKLOAD SEED DIR        import qwalk, write seeded inputs
  worker.py lib INPUTS DUMPS RESULT [trace options]
                                           one lib-regular3 pass, in-process
  worker.py cli [trace options] -- ARGV    launcher: qwalk.cli.main(ARGV)

Trace options are ``--trace-out FILE --pass-id N [--parent-span ID]``;
with them the process installs the tracing wrappers before qwalk runs and
dumps its spans at exit. The parent sets PYTHONPATH to the checkout's src/.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _require_checkout_qwalk() -> None:
    import qwalk

    if not Path(qwalk.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qwalk was imported from {qwalk.__file__}, not from {SRC}")


def _recorder(args):
    if args.trace_out is None:
        return None
    import tracing

    rec = tracing.Recorder(args.pass_id, args.parent_span)
    tracing.install(rec)
    return rec


def run_setup(args) -> int:
    import qwalk.cli  # noqa: F401  (import time is part of set-up)
    _require_checkout_qwalk()
    import workloads

    workloads.generate(args.workload, args.seed, Path(args.dir))
    return 0


def run_lib(args) -> int:
    """The README library path with no file I/O inside the timed region."""
    import numpy as np
    import qwalk
    import workloads

    _require_checkout_qwalk()
    rec = _recorder(args)
    inputs, dumps, steps = Path(args.inputs), Path(args.dumps), workloads.LIB_STEPS
    span = rec.open("bench.pass") if rec else None
    t0 = time.perf_counter()
    a = np.load(inputs / "adjacency.npy")
    psi0 = np.load(inputs / "psi0.npy")
    p0 = np.load(inputs / "p0.npy")
    n = a.shape[0]
    m = psi0.shape[0] // n
    grid = qwalk.decompose_permutations(a)
    report = qwalk.verify_kraus(a, grid)
    if not report.passed:
        raise RuntimeError(f"verify_kraus rejected the decomposed grid: {report}")
    shift = qwalk.assemble_shift(grid)
    u = qwalk.evolution(shift, qwalk.CoinSpec.global_coin(qwalk.named_coin("grover", m), n))
    t1 = time.perf_counter()
    state = qwalk.WalkerState(m, n, psi0)
    dists = np.empty((steps, n))
    for t in range(steps):
        state = qwalk.evolve(u, state, 1)
        dists[t] = qwalk.measure_position(state).probs
    final = qwalk.classical_walk(a, qwalk.ProbabilityVector(p0), steps)
    t2 = time.perf_counter()
    if rec:
        rec.close(span)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    # Outputs go to disk for the parent's checks only after the pass ends.
    np.save(dumps / "u.npy", u)
    np.save(dumps / "dists.npy", dists)
    np.save(dumps / "classical.npy", final.probs)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump({"wall_s": t2 - t0, "compile_s": t1 - t0, "walk_s": t2 - t1,
                   "peak_rss_bytes": peak_rss}, f)
    if rec:
        rec.dump(args.trace_out)
    return 0


def run_cli(args) -> int:
    rec = _recorder(args)
    import qwalk.cli

    _require_checkout_qwalk()
    try:
        return qwalk.cli.main(args.argv)
    finally:
        if rec:
            rec.dump(args.trace_out)


def main(argv: list[str]) -> int:
    qwalk_argv = []
    if "--" in argv:
        cut = argv.index("--")
        argv, qwalk_argv = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("dir")
    for name in ("lib", "cli"):
        p = sub.add_parser(name)
        if name == "lib":
            p.add_argument("inputs")
            p.add_argument("dumps")
            p.add_argument("result")
        p.add_argument("--trace-out", default=None)
        p.add_argument("--pass-id", type=int, default=0)
        p.add_argument("--parent-span", default=None)
    args = parser.parse_args(argv)
    args.argv = qwalk_argv
    return {"setup": run_setup, "lib": run_lib, "cli": run_cli}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
