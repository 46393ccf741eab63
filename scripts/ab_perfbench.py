#!/usr/bin/env python3
"""Compare one perfbench workload between two checkouts, runs alternated.

Each pair runs ``perfbench/run.py`` once in the baseline checkout and
once in the changed one, at the same workload, seed and ``--seconds``;
the side that runs first alternates from pair to pair, so that drift in
the machine's load falls on both sides alike. The summary gives, per
checkout, the median and interquartile range of ``run_s``, ``setup_s``,
``peak_rss_mb``, ``first_pass_s`` (the first pass's seconds, where a
one-time cost moved out of set-up shows) and every other seconds-valued
entry of the report's ``end_to_end`` (on ``io-100k`` the first pass's
``sample_s``, ``save_s`` and ``load_s``, so an I/O change shows which
phase its saving came from), the pairs the change won, every run's
pass count, and the answers digests and ``ci_tests`` (which
must agree for a speed-up to count; the exit status is 1 when they do
not). Before the first pair, ``src/`` and ``perfbench/`` of both
checkouts are byte-compiled with ``python -m compileall -q``: with
``PYTHONDONTWRITEBYTECODE=1`` set, a checkout whose ``__pycache__`` is
current imports ``localcausal`` about 30 ms faster than a fresh copy of
the same commit, so without this ``setup_s`` would compare bytecode
caches rather than code. Example, from the repository root::

    python scripts/ab_perfbench.py ../baseline . --workload oracle-12 \\
        --seed 31 --pairs 10 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, args) -> dict:
    """One untraced perfbench run; the fields of its report line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: perfbench exited {done.returncode}\n"
                 f"{done.stderr}")
    line = next(ln for ln in done.stdout.splitlines()
                if ln.startswith('{"report"'))
    report = json.loads(line)["report"]
    e2e = report["end_to_end"]
    phases = sorted(k for k, v in e2e.items()
                    if v["unit"] == "s" and k not in METRICS)
    out = {m: e2e[m]["value"] for m in (*METRICS, *phases)}
    out.update(phases=phases, first_pass_s=report["passes"][0],
               passes=len(report["passes"]), digest=report["digest"],
               ci_tests=e2e.get("ci_tests", {}).get("value"),
               fail_frac=e2e["fail_frac"]["value"],
               problems=len(report["problems"]))
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"baseline": args.baseline, "change": args.change}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=checkout, check=True)
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            r = run_once(sides[side], args)
            runs[side].append(r)
            print(f"pair {i + 1} {side:<8} run_s={r['run_s']:.3f} "
                  f"setup_s={r['setup_s']:.3f} "
                  f"first_pass_s={r['first_pass_s']:.3f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.2f} passes={r['passes']} "
                  + "".join(f"{p}={r[p]:.3f} " for p in r["phases"]) +
                  f"digest={r['digest']} ci_tests={r['ci_tests']} "
                  f"fail_frac={r['fail_frac']} problems={r['problems']}",
                  flush=True)
    print(f"\n{args.workload} seed={args.seed} pairs={args.pairs} "
          f"seconds={args.seconds}")
    phases = [p for p in runs["baseline"][0]["phases"]
              if p in runs["change"][0]["phases"]]
    for metric in (*METRICS, "first_pass_s", *phases):
        base, new = ([r[metric] for r in runs[s]] for s in sides)
        (bm, biq), (nm, niq) = spread(base), spread(new)
        better = sum(n < b for b, n in zip(base, new))
        print(f"  {metric:<12} median (IQR) {bm:.3f} ({biq:.3f}) -> "
              f"{nm:.3f} ({niq:.3f}), {100 * (nm / bm - 1):+.1f}%, "
              f"lower in {better} of {args.pairs} pairs")
    for side in sides:
        rs = runs[side]
        print(f"  {side:<8} passes {[r['passes'] for r in rs]} digests "
              f"{sorted({r['digest'] for r in rs})} ci_tests "
              f"{sorted({r['ci_tests'] for r in rs}, key=str)}")
    same = ({(r["digest"], r["ci_tests"]) for r in runs["baseline"]}
            == {(r["digest"], r["ci_tests"]) for r in runs["change"]})
    print(f"  same answers: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
