#!/usr/bin/env python3
"""Time ``localcausal benchmark`` in two checkouts, runs alternated.

Each pair runs the same sweep (``benchmark BIF --sizes ... --seed ...
--algo ...`` over every target, unless ``--target`` names some) once in
the baseline checkout and once in the changed one, each in a fresh
process with ``PYTHONPATH`` set to that checkout's ``src/``; the side
that runs first alternates from pair to pair, so that drift in the
machine's load falls on both sides alike. A run's time is the wall time
of ``cli.main`` alone (sampling, learning and scoring; not the import),
and its memory is the process's peak RSS. The summary gives, per
checkout, the median and interquartile range of both, the git SHA, and
the pairs the change won. The exit status is 1 when any two reports
differ apart from their ``time_ms`` fields. ``--json PATH`` adds the
summary to the ``cases`` of that file, replacing an earlier entry for
the same sweep. Example, from the repository root::

    python scripts/ab_cli_benchmark.py ../baseline . \\
        --bif src/localcausal/assets/alarm.bif --sizes 5000 --algo elcs \\
        --pairs 3 --json BENCH_cli_benchmark.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_perfbench import spread  # noqa: E402

CHILD = """
import resource, sys, time
from localcausal.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"wall_s {wall!r} peak_rss_mb {rss!r}")
sys.exit(code)
"""


def untimed(value):
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k != "time_ms"}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def run_once(checkout: Path, sweep: list[str], out: Path) -> dict:
    """One sweep in a fresh process; its wall time, peak RSS and report."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, *sweep,
                           "--out", str(out)], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: benchmark exited {done.returncode}\n"
                 f"{done.stderr}")
    _, wall, _, rss = done.stdout.splitlines()[-1].split()
    return {"wall_s": float(wall), "peak_rss_mb": float(rss),
            "report": untimed(json.loads(out.read_text(encoding="utf-8")))}


def git_sha(checkout: Path) -> str:
    """HEAD's SHA, marked ``-dirty`` when ``src/`` differs from it."""
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD") or "unknown"
    return sha + ("-dirty" if git("status", "--porcelain", "--", "src") else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--bif", type=Path, required=True)
    parser.add_argument("--sizes", required=True)
    parser.add_argument("--algo", default="elcs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--target", action="append", default=[])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"baseline": args.baseline.resolve(), "change": args.change.resolve()}
    sweep = ["benchmark", str(args.bif.resolve()), "--sizes", args.sizes,
             "--seed", str(args.seed), "--algo", args.algo,
             *(f"--target={t}" for t in args.target)]
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       cwd=checkout, check=True)
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                r = run_once(sides[side], sweep, Path(tmp) / f"{side}.json")
                runs[side].append(r)
                print(f"pair {i + 1} {side:<8} wall_s={r['wall_s']:.3f} "
                      f"peak_rss_mb={r['peak_rss_mb']:.1f}", flush=True)
    reports = [r.pop("report") for rs in runs.values() for r in rs]
    same = all(r == reports[0] for r in reports)
    case = {"network": args.bif.stem, "sizes": args.sizes, "algo": args.algo,
            "seed": args.seed, "targets": args.target or "all"}
    summary = {"case": case, "pairs": args.pairs, "same_answers": same}
    for side, checkout in sides.items():
        summary[side] = {"sha": git_sha(checkout)}
        for metric in ("wall_s", "peak_rss_mb"):
            values = [r[metric] for r in runs[side]]
            median, iqr = spread(values)
            summary[side][metric] = {"median": median, "iqr": iqr,
                                     "runs": values}
    base, new = ([r["wall_s"] for r in runs[s]] for s in sides)
    summary["change_faster_in"] = sum(n < b for b, n in zip(base, new))
    summary["speedup"] = (summary["baseline"]["wall_s"]["median"]
                          / summary["change"]["wall_s"]["median"])
    print(json.dumps(summary, indent=2))
    if args.json is not None:
        book = (json.loads(args.json.read_text(encoding="utf-8"))
                if args.json.exists() else {"cases": []})
        book["machine"] = {"platform": platform.platform(),
                           "cpus": os.cpu_count(),
                           "python": platform.python_version()}
        book["cases"] = [c for c in book["cases"] if c["case"] != case]
        book["cases"].append(summary)
        args.json.write_text(json.dumps(book, indent=2) + "\n", encoding="utf-8")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
