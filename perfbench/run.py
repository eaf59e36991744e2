"""qwalk benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the qwalk sources in the
checkout's src/ and writes only under the checkout's .perfbench/. The load
is one closed-loop client: one pass at a time, one qwalk process at a time,
BLAS threads capped at nproc. Each pass runs in fresh processes, so peak
RSS belongs to that pass alone.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced passes and reports its per-layer metrics.
The last line of stdout is the JSON result; the lines before it print every
figure by name and unit, the environment, and any failed check.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# A seed kept out of tuning, so that a later claim can be re-checked on it.
HELD_OUT_SEED = 7177
SETUP_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
# Start no pass that would end later than this into the run (hard limit 180 s).
RUN_LIMIT_S = 140


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, int]:
    """Run worker.py with ``argv``; return exit code, wall seconds and the
    child's peak RSS in bytes."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Pass:
    """What one pass measured, and the files it left for the checks."""

    def __init__(self, pass_id: int, traced: bool, workdir: Path):
        self.id, self.traced, self.dir = pass_id, traced, workdir
        self.wall_s: float | None = None
        self.stages: dict[str, float] = defaultdict(float)
        self.peak_rss = 0
        self.output_bytes = 0
        self.exit_codes: dict[str, int] = {}
        self.outputs: list[Path] = []
        self.traces: list[Path] = []
        self.digests: dict[str, str] = {}
        self.spans: list[dict] = []
        self.problems: dict[str, list[str]] = {}
        self.layer: dict[str, float] = {}
        self.steps_ms: list[float] = []

    def failed_ops(self) -> list[str]:
        return [op for op, rc in self.exit_codes.items()
                if rc != 0 or self.problems.get(op)]


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path):
        import workloads

        self.wl = workloads
        self.workload, self.seed, self.trace, self.work = workload, seed, trace, work
        self.inputs = work / "inputs"
        self.check_cache: dict[tuple, dict] = {}

    def setup(self, k: int) -> float:
        """One set-up in a fresh process and directory: interpreter start-up,
        imports, input generation and writing. The inputs of the first one
        feed the passes; later ones are only timed."""
        d, log = self.work / f"setup{k}", self.work / f"setup{k}.log"
        d.mkdir()
        rc, wall, _ = spawn(["setup", self.workload, str(self.seed), str(d)], log)
        if rc != 0:
            raise RuntimeError(f"set-up failed (exit {rc}): {log.read_text()[-2000:]}")
        if k == 0:
            d.rename(self.inputs)
        else:
            shutil.rmtree(d)
        return wall

    def run_pass(self, pass_id: int, traced: bool) -> Pass:
        d = self.work / f"pass{pass_id}"
        (d / "out").mkdir(parents=True)
        p = Pass(pass_id, traced, d)
        if self.workload == "lib-regular3":
            self._lib_pass(p)
        else:
            self._cli_pass(p)
        self._check(p)
        if traced:
            import tracing

            trace = tracing.load_traces([t for t in p.traces if t.exists()])
            p.layer, p.steps_ms = tracing.pass_metrics(trace)
            p.spans = trace["spans"]
        return p

    def _trace_args(self, p: Pass, name: str, parent: str | None) -> list[str]:
        if not p.traced:
            return []
        p.traces.append(p.dir / f"trace-{name}.json")
        args = ["--trace-out", str(p.traces[-1]), "--pass-id", str(p.id)]
        return args + (["--parent-span", parent] if parent else [])

    def _lib_pass(self, p: Pass) -> None:
        result = p.dir / "result.json"
        rc, _, _ = spawn(["lib", str(self.inputs), str(p.dir / "out"), str(result),
                          *self._trace_args(p, "lib", None)], p.dir / "pipeline.log")
        p.exit_codes["pipeline"] = rc
        if rc == 0:
            r = json.loads(result.read_text())
            p.wall_s, p.peak_rss = r["wall_s"], r["peak_rss_bytes"]
            p.stages.update(compile_s=r["compile_s"], walk_s=r["walk_s"])
        # The library path writes nothing; these are dumps for the checks.
        p.outputs = sorted((p.dir / "out").iterdir())

    def _cli_pass(self, p: Pass) -> None:
        import tracing

        out = p.dir / "out"
        rec = tracing.Recorder(p.id) if p.traced else None
        span = rec.open("bench.pass") if rec else None
        t0 = time.perf_counter()
        for op, stage, argv in self.wl.cli_operations(self.workload, self.inputs, out):
            inv = rec.open(f"bench.invoke.{op}") if rec else None
            rc, wall, rss = spawn(["cli", *self._trace_args(p, op, inv and inv["id"]),
                                   "--", *argv], p.dir / f"{op}.log")
            if rec:
                rec.close(inv)
            p.exit_codes[op] = rc
            p.stages[stage] += wall
            p.peak_rss = max(p.peak_rss, rss)
        p.wall_s = time.perf_counter() - t0
        if rec:
            rec.close(span)
            p.traces.append(p.dir / "trace-bench.json")
            rec.dump(p.traces[-1])
        p.outputs = sorted(out.iterdir())
        p.output_bytes = sum(f.stat().st_size for f in p.outputs)

    def _check(self, p: Pass) -> None:
        """Check the outputs, once per distinct set of output bytes."""
        import checks

        p.digests = {f.name: sha256(f) for f in p.outputs}
        key = tuple(sorted(p.digests.items()))
        if key not in self.check_cache:
            out = p.dir / "out"
            try:
                if self.workload == "lib-regular3":
                    found = checks.check_lib(self.inputs, out, self.wl.LIB_STEPS)
                elif self.workload == "cli-cycle":
                    found = checks.check_cycle(self.inputs, out, self.wl.CYCLE_STEPS)
                else:
                    found = checks.check_haar(self.inputs, out)
            except (OSError, ValueError, KeyError) as exc:
                found = {op: [f"check could not read the outputs: {exc!r}"]
                         for op in p.exit_codes}
            self.check_cache[key] = found
        p.problems = self.check_cache[key]
        for op, rc in p.exit_codes.items():
            if rc != 0:
                log = (p.dir / f"{op}.log").read_text(errors="replace").strip()
                last = log.splitlines()[-1] if log else ""
                p.problems = {**p.problems, op: [f"exit code {rc}: {last}"]}


def pass_modes(trace: bool):
    """Untraced passes only, or traced/untraced/traced then alternating, so
    the traced run has two traced passes for the determinism self-test."""
    k = 0
    while True:
        yield trace and k % 2 == 0
        k += 1


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs: list[float], q: float) -> float:
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * len(s)))]


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"commit": git_commit(), "src_sha256": tree_digest(SRC),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": nproc(), "nproc": nproc(),
            "cpu": cpu_model(), "l3_cache": l3_size(), "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git (which would search
    the directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(top: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(top.rglob("*.py")):
        h.update(str(f.relative_to(top)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def summarize(workload: str, passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """(figures by name, sample counts by name) over the passes of the run."""
    plain = [p for p in passes if not p.traced]
    timed = [p for p in plain if p.wall_s is not None]
    attempted = sum(len(p.exit_codes) for p in plain)
    failed = sum(len(p.failed_ops()) for p in plain)
    stages = sorted({s for p in timed for s in p.stages})
    fig = {"wall_s": median([p.wall_s for p in timed]),
           "peak_rss_mb": median([p.peak_rss / 1e6 for p in timed]),
           "output_mb": median([p.output_bytes / 1e6 for p in plain]),
           "setup_s": median(setup),
           "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
           "failed_frac": failed / attempted if attempted else 1.0}
    n = {k: len(timed) for k in fig}
    n.update(setup_s=len(setup), ok_frac=attempted, failed_frac=attempted,
             output_mb=len(plain))
    for s in stages:
        fig[s] = median([p.stages[s] for p in timed])
        n[s] = len(timed)
    if workload == "lib-regular3":
        del fig["output_mb"]   # no file I/O by design
    return fig, n


def layer_figures(passes: list[Pass], e2e: dict, e2e_n: dict) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    names = sorted({k for p in traced for k in p.layer})
    fig = {k: median([p.layer[k] for p in traced if k in p.layer]) for k in names}
    n = {k: len(traced) for k in names}
    steps = [x for p in traced for x in p.steps_ms]
    fig["walk.step_ms_p50"] = percentile(steps, 0.50)
    fig["walk.step_ms_p99"] = percentile(steps, 0.99)
    n["walk.step_ms_p50"] = n["walk.step_ms_p99"] = len(steps)
    traced_wall = median([p.wall_s for p in traced if p.wall_s is not None])
    fig["trace.overhead_frac"] = traced_wall / e2e["wall_s"] - 1 if e2e["wall_s"] else 0.0
    n["trace.overhead_frac"] = len(traced)
    # Stage figures of the untraced passes; zero where a workload has no such stage.
    for k in ("compile_s", "walk_s", "extract_s", "output_mb", "failed_frac"):
        fig[k], n[k] = e2e.get(k, 0.0), e2e_n.get(k, 0)
    return fig, n


def determinism(passes: list[Pass]) -> list[str]:
    """Traced passes of one seed must repeat every exact count and every
    output byte."""
    import tracing

    traced = [p for p in passes if p.traced]
    if len(traced) < 2:
        return ["fewer than two traced passes"]
    problems = []
    first = traced[0]
    for p in traced[1:]:
        for k in tracing.EXACT_METRICS:
            if first.layer.get(k) != p.layer.get(k):
                problems.append(f"{k}: pass {first.id} {first.layer.get(k)} "
                                f"!= pass {p.id} {p.layer.get(k)}")
        if first.output_bytes != p.output_bytes:
            problems.append(f"output bytes differ between passes {first.id} and {p.id}")
        for name in sorted(set(first.digests) | set(p.digests)):
            if first.digests.get(name) != p.digests.get(name):
                problems.append(f"{name}: sha256 differs between passes {first.id} and {p.id}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwalk" / "cli.py").is_file():
        print(f"error: no qwalk sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # The parent's own numpy (checks, environment) obeys the same BLAS cap.
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_THREADS")})

    run_start = time.perf_counter()
    results = ROOT / ".perfbench"
    work = results / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace), work)
        setup = [bench.setup(0)]
        passes: list[Pass] = []
        modes = pass_modes(bench.trace)
        durations: list[float] = []
        t0 = time.perf_counter()
        while True:
            if len(passes) >= MIN_PASSES:
                now, est = time.perf_counter(), median(durations)
                if now - t0 + est > args.seconds or now - run_start + est > RUN_LIMIT_S:
                    break
            if passes:
                shutil.rmtree(passes[-1].dir / "out")
            start = time.perf_counter()
            passes.append(bench.run_pass(len(passes), next(modes)))
            # Set-up is re-timed between passes so that its median samples
            # the same stretch of host load as the passes do.
            setup.append(bench.setup(len(setup)))
            durations.append(time.perf_counter() - start)
        while len(setup) < SETUP_REPEATS:
            setup.append(bench.setup(len(setup)))
        env = environment(args.seed)
        e2e, e2e_n = summarize(args.workload, passes, setup)
        problems = {f"pass {p.id} {op}": p.problems[op]
                    for p in passes for op in p.failed_ops()}
        if bench.trace:
            figures, counts = layer_figures(passes, e2e, e2e_n)
            det = determinism(passes)
            if det:
                problems["determinism"] = det
            wanted = spec["per_layer"]
        else:
            figures, counts = e2e, e2e_n
            wanted = spec["end_to_end"]
        attempted = sum(len(p.exit_codes) for p in passes)
        failed = sum(len(p.failed_ops()) for p in passes)
        print(f"env {json.dumps(env, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{len(passes)} passes, {attempted} operations, {failed} failed")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name in sorted(figures):
            print(f"  {name:28s} {figures[name]:14.6g} {units.get(name, '')}"
                  f"   (n={counts.get(name, 0)})")
        for what, found in problems.items():
            for line in found:
                print(f"FAIL {what}: {line}")
        missing = [m["name"] for m in wanted if m["name"] not in figures]
        if missing:
            print(f"absent (the qwalk functions behind them are gone): {missing}")
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in figures}
        record = {"env": env, "workload": args.workload, "trace": args.trace,
                  "setup_s": setup, "figures": figures, "problems": problems,
                  "passes": [{"id": p.id, "traced": p.traced, "wall_s": p.wall_s,
                              "stages": p.stages, "peak_rss": p.peak_rss,
                              "output_bytes": p.output_bytes,
                              "exit_codes": p.exit_codes, "layer": p.layer}
                             for p in passes]}
        if bench.trace:
            record["spans"] = [s for p in passes for s in p.spans]
        out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, default=str))
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
