"""Benchmark for localcausal: seeded workloads, end-to-end metrics measured
untraced, per-layer metrics from a separate traced run.

Run from the repository root (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload alarm-5k --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout that holds this
file; nothing is installed. ``setup_s`` is the median of three imports
of the package (this process's and two fresh interpreters') plus the
median of three set-ups of the workload. ``--trace 0`` then
repeats the workload's pass on the same inputs while the next pass is
predicted to end within ``--seconds`` (at least one pass); times are
medians over passes. ``--trace 1`` runs one pass untraced and one pass
with every layer wrapped (see ``spans.py``), and reports the per-layer
metrics and the tracing overhead.

Standard output ends with two JSON lines: the full report (every
end-to-end metric with its unit, the answers digest, the gates and the
run environment), then the result object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("alarm-5k", "child10-1k", "oracle-12", "io-100k")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# The benchmark is one process; numpy's BLAS must not start more threads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Metrics the result line carries, as in BENCHMARK.json.
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-cli", action="store_true",
                        help="also run `localcausal benchmark` on the same "
                             "network, size and seed and require the same "
                             "ci_tests and scores (learn workloads only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "seed": seed,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def _import_seconds() -> float:
    """Time ``import localcausal`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import localcausal; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(ms: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(ms)
    if n < 11:
        return None
    ordered = sorted(ms)
    return {"value": ordered[n - 11], "unit": "ms",
            "percentile": round(100.0 * (n - 10) / n, 1), "samples": n}


def _end_to_end(workload, passes, setup_s: float) -> dict:
    """Every end-to-end metric that applies to the workload, with units."""
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failures.values()) for p in passes)
    out = {"run_s": {"value": statistics.median(p.seconds for p in passes),
                     "unit": "s"},
           "setup_s": {"value": setup_s, "unit": "s"}}
    if workload.learns:
        # One latency per target: its median over the passes.
        per_item = [1000.0 * statistics.median(lat)
                    for lat in zip(*(p.latencies for p in passes))]
        if per_item:
            out["learn_ms_p50"] = {"value": statistics.median(per_item),
                                   "unit": "ms"}
        tail = _tail(per_item)
        if tail is not None:
            out["learn_ms_tail"] = tail
        out["ci_tests"] = {"value": first.ci_tests, "unit": "count"}
        for key in ("arr_p", "arr_r", "shd", "fdr") if first.scores else ():
            out[key] = {"value": statistics.fmean(getattr(s, key)
                                                  for s in first.scores),
                        "unit": "count" if key == "shd" else "fraction"}
    else:
        for key, value in first.phases.items():
            out[key] = {"value": value, "unit": "MB" if key == "csv_mb"
                        else "s"}
    out["fail_frac"] = {"value": failed / attempted if attempted else 0.0,
                        "unit": "fraction"}
    out["peak_rss_mb"] = {"value": _peak_rss_mb(), "unit": "MB"}
    return out


def _gates(passes) -> list[str]:
    problems = [p for r in passes for p in r.problems]
    if len({r.digest for r in passes}) > 1:
        problems.append("passes on the same inputs gave different answers")
    return problems


def _check_cli(workload, inputs, seed: int, first) -> list[str]:
    """Compare the pass with ``localcausal benchmark`` at the same
    network, size and seed, minus ``time_ms``."""
    import workloads
    from localcausal.assets import asset_path
    from localcausal.cli import main as cli_main

    if not isinstance(workload, workloads.LearnWorkload):
        return [f"--check-cli does not apply to {workload.name}"]
    net, _ = inputs
    out = OUT / f"cli-{workload.name}-seed{seed}.json"
    argv = ["benchmark", str(asset_path(workload.network)),
            "--sizes", str(workload.rows), "--runs", str(workload.runs),
            "--seed", str(workload.runs * seed), "--algo", workload.algo,
            "--out", str(out)]
    for t in workload.targets:
        argv += ["--target", net.dag.names[t]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        return [f"localcausal benchmark exited {code}"]
    report = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    theirs = [{k: v for k, v in row.items() if k != "time_ms"}
              for run in report["sizes"][0]["runs"]
              for row in run["per_target"]]
    mine = [{"target": answer[0].split(":", 1)[1], "arr_p": s.arr_p,
             "arr_r": s.arr_r, "shd": s.shd, "fdr": s.fdr,
             "ci_tests": s.ci_tests}
            for answer, s in zip(first.answers, first.scores)]
    if len(first.scores) != len(first.answers) or mine != theirs:
        return ["ci_tests or scores differ from localcausal benchmark"]
    return []


def _timed(workload, inputs, args) -> list:
    """Passes on the same inputs while the next one is predicted to end
    within ``--seconds``; at least one."""
    passes = [workload.run_pass(inputs)]
    while True:
        used = sum(p.seconds for p in passes)
        if used + used / len(passes) > args.seconds:
            return passes
        passes.append(workload.run_pass(inputs))


def _traced(workload, inputs, args) -> tuple[list, dict]:
    """One untraced pass, then one set-up and one pass with every layer
    wrapped; returns both passes and the per-layer metrics."""
    import spans

    untraced = workload.run_pass(inputs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.setup(args.seed)  # records the load_bif and sample spans
        traced = workload.run_pass(inputs, tracer)
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"spans-{args.workload}.npz")
    layer = tracer.layer_metrics(untraced.seconds, traced.seconds,
                                 untraced.ci_tests)
    return [untraced, traced], {k: {"value": v, "unit": u}
                                for k, (v, u) in layer.items()}


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        extra = (f" (p{m['percentile']} of {m['samples']} samples)"
                 if "percentile" in m else "")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "localcausal" / "__init__.py").is_file():
        print(f"no localcausal package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import localcausal
    import_times = [time.perf_counter() - start]
    if Path(localcausal.__file__).resolve().parent != SRC / "localcausal":
        print(f"imported localcausal from {localcausal.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, OUT)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
    import_times += [_import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    try:
        if args.trace:
            passes, result_metrics = _traced(workload, inputs, args)
        else:
            passes, result_metrics = _timed(workload, inputs, args), None
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    problems = _gates(passes)
    if args.check_cli:
        problems += _check_cli(workload, inputs, args.seed, passes[0])
    # A traced run's end-to-end figures come from its untraced pass.
    e2e = _end_to_end(workload, passes[:1] if args.trace else passes,
                      setup_s)
    if result_metrics is None:
        result_metrics = {k: e2e[k] for k in END_TO_END}
    failures = sum((p.failures for p in passes), Counter())

    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace} digest={passes[0].digest}")
    print("end-to-end:")
    _print_metrics(e2e)
    if args.trace:
        print("per-layer (traced pass):")
        _print_metrics(result_metrics)
    for problem in problems[:20]:
        print(f"GATE FAILED: {problem}")
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [p.seconds for p in passes],
        "digest": passes[0].digest,
        "failures": dict(failures),
        "problems": problems,
        "end_to_end": e2e,
        "environment": _environment(args.seed),
    }
    if args.trace:
        report["per_layer"] = result_metrics
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(failures.values()),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
