#!/usr/bin/env python3
"""Compare two checkouts on a perfbench workload or a benchmark sweep.

Each pair runs the same thing once in the baseline checkout and once in
the changed one; the side that runs first alternates from pair to pair,
so that drift in the machine's load falls on both sides alike. Both
checkouts' ``src/`` and ``perfbench/`` are byte-compiled first, or set-up
times would compare bytecode caches (about 30 ms of import) over code.

``--workload W`` runs ``perfbench/run.py --trace 0``. Its metrics are
``run_s``, ``setup_s``, ``peak_rss_mb``, ``first_pass_s`` (where a
one-time cost moved out of set-up shows), the report's other
seconds-valued ``end_to_end`` entries (``io-100k``: ``sample_s``,
``save_s``, ``load_s``) and the pass count; its answer is the digest,
``ci_tests``, ``fail_frac`` and the problem count. ``--bif B --sizes
...`` runs ``localcausal benchmark`` over every target (or each
``--target``) in a fresh process with ``PYTHONPATH=<checkout>/src``. Its
metrics are the wall time of ``cli.main`` alone (``wall_s``) and peak
RSS; its answer is the report without its ``time_ms`` fields.

The summary gives per metric each side's median and interquartile range
and the pairs the change was lower in, and per side the git SHA and the
line count of ``src/localcausal/*.py`` (``src_lines``). A ``--workload``
summary also names, under ``over_bound``, each ``end_to_end`` metric of
this repository's ``BENCHMARK.json`` whose change median is worse than
the baseline median by more than the metric's bound, with its relative
change, and under ``gain_rule`` whether each metric but the pass count
meets the rule a claimed gain must meet (see ``gain_rule``); the metrics
over their bound and those that meet the rule are printed too. The exit
status is 1 when two answers differ, and only then. ``--json PATH`` adds
the summary to that file's ``cases``. An entry is keyed by its case and
both sides' SHAs: a rerun of the same code pair replaces its own entry,
and an A/B of other code appends, so the book keeps the trajectory. A
checkout without ``.git`` reports the SHA ``unknown``, so such checkouts
share a key.
Examples, from the repository root::

    python scripts/ab.py ../baseline . --workload oracle-12 --seed 31 \\
        --pairs 10 --seconds 25 --json BENCH_perfbench.json
    python scripts/ab.py ../baseline . --bif src/localcausal/assets/alarm.bif \\
        --sizes 5000 --algo elcs --pairs 3 --json BENCH_cli_benchmark.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CHILD = """import resource, sys, time
from localcausal.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print("wall_s", time.perf_counter() - start, "peak_rss_mb",
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
sys.exit(code)
"""
# Each mode's flags with their defaults (None: required); the other's are refused.
MODES = {"workload": {"seed": None, "pairs": 10, "seconds": 25.0},
         "bif": {"seed": 1, "pairs": 3, "sizes": None, "algo": "elcs",
                 "target": []}}


def stdout_of(cmd: list[str], checkout: Path, **kwargs) -> str:
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, **kwargs)
    if done.returncode != 0:
        sys.exit(f"{checkout}: run exited {done.returncode}\n{done.stderr}")
    return done.stdout


def perfbench_run(checkout: Path, args, out: Path) -> tuple[dict, dict]:
    """One untraced perfbench run: its metrics and its answer."""
    stdout = stdout_of([sys.executable, "perfbench/run.py", "--workload",
                        args.workload, "--seed", str(args.seed), "--seconds",
                        str(args.seconds), "--trace", "0"], checkout)
    line = next(ln for ln in stdout.splitlines() if ln.startswith('{"report"'))
    report = json.loads(line)["report"]
    e2e = report["end_to_end"]
    metrics = {m: e2e[m]["value"] for m in ("run_s", "setup_s", "peak_rss_mb")}
    metrics["first_pass_s"] = report["passes"][0]
    metrics.update((k, v["value"]) for k, v in sorted(e2e.items())
                   if v["unit"] == "s" and k not in metrics)
    metrics["passes"] = len(report["passes"])
    return metrics, {"digest": report["digest"],
                     "ci_tests": e2e.get("ci_tests", {}).get("value"),
                     "fail_frac": e2e["fail_frac"]["value"],
                     "problems": len(report["problems"])}


def cli_run(checkout: Path, args, out: Path) -> tuple[dict, dict]:
    """One benchmark sweep in a fresh process: its metrics and report."""
    sweep = ["benchmark", str(args.bif.resolve()), "--sizes", args.sizes,
             "--seed", str(args.seed), "--algo", args.algo,
             *(f"--target={t}" for t in args.target), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    stdout = stdout_of([sys.executable, "-c", CHILD, *sweep], checkout, env=env)
    _, wall, _, rss = stdout.splitlines()[-1].split()
    return ({"wall_s": float(wall), "peak_rss_mb": float(rss)},
            json.loads(out.read_text(encoding="utf-8"), object_hook=lambda d: {
                k: v for k, v in d.items() if k != "time_ms"}))


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def git_sha(checkout: Path) -> str:
    """HEAD's SHA, marked ``-dirty`` when ``src/`` or ``perfbench/`` differ."""
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD") or "unknown"
    dirty = git("status", "--porcelain", "--", "src", "perfbench")
    return sha + ("-dirty" if dirty else "")


def src_lines(checkout: Path) -> int:
    """Lines in the package's modules, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src" / "localcausal").glob("*.py"))


def over_bound(base: dict, new: dict) -> dict[str, float]:
    """Each ``end_to_end`` metric of ``BENCHMARK.json`` that both sides
    measured and whose change median is worse than the baseline median by
    more than its bound, mapped to its relative change."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    out = {}
    for metric in spec:
        name = metric["name"]
        if name in base and name in new:
            change = new[name]["median"] / base[name]["median"] - 1
            if (change if metric["better"] == "lower" else -change) > metric["bound"]:
                out[name] = change
    return out


def gain_rule(base: list[float], new: list[float]) -> bool:
    """Whether paired runs show a gain for a lower-is-better metric: the
    change is lower in at least 9 of 10 pairs (a tie counts for neither
    side), and its median is below the baseline median by more than the
    baseline's interquartile range."""
    won = sum(n < b for b, n in zip(base, new))
    (base_median, base_iqr), (new_median, _) = spread(base), spread(new)
    return 10 * won >= 9 * len(base) and base_median - new_median > base_iqr


def entry_key(summary: dict) -> tuple:
    """A book entry's identity: its case and the SHAs of both sides."""
    return (summary["case"], summary["baseline"]["sha"], summary["change"]["sha"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("change", type=Path)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="a perfbench workload")
    mode.add_argument("--bif", type=Path, help="a network to sweep")
    for flag, kind in (("--seed", int), ("--pairs", int), ("--seconds", float),
                       ("--sizes", str), ("--algo", str)):
        parser.add_argument(flag, type=kind)
    parser.add_argument("--target", action="append")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    name, other = ("workload", "bif") if args.workload else ("bif", "workload")
    for k in sorted(MODES[other].keys() - MODES[name].keys()):
        if getattr(args, k) is not None:
            parser.error(f"--{k} not allowed with --{name}")
    for k, default in MODES[name].items():
        if getattr(args, k) is None:
            if default is None:
                parser.error(f"--{name} needs --{k}")
            setattr(args, k, default)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    run, case = ((perfbench_run, {"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds}) if args.workload
                 else (cli_run, {"network": args.bif.stem, "sizes": args.sizes,
                                 "algo": args.algo, "seed": args.seed,
                                 "targets": args.target or "all"}))

    sides = {"baseline": args.baseline.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                        "perfbench"], cwd=checkout, check=True)
    runs = {side: [] for side in sides}
    answers = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            for side in list(sides)[::1 if i % 2 == 0 else -1]:
                metrics, answer = run(sides[side], args, Path(tmp) / "out.json")
                runs[side].append(metrics)
                answers[side].append(answer)
                print(f"pair {i + 1} {side:<8}", json.dumps(
                    {**metrics, **(answer if args.workload else {})}), flush=True)

    names = [m for m in runs["baseline"][0] if m in runs["change"][0]]
    same = all(a == answers["baseline"][0] for rs in answers.values() for a in rs)
    summary = {"case": case, "pairs": args.pairs, "same_answers": same}
    print(f"\n{json.dumps(case)} pairs={args.pairs}")
    for side, checkout in sides.items():
        summary[side] = {"sha": git_sha(checkout), "src_lines": src_lines(checkout)}
        for m in names:
            values = [r[m] for r in runs[side]]
            summary[side][m] = dict(zip(("median", "iqr"), spread(values)),
                                    runs=values)
        if args.workload:
            distinct = {json.dumps(a, sort_keys=True) for a in answers[side]}
            summary[side]["answers"] = [json.loads(a) for a in sorted(distinct)]
        print(f"  {side:<8} sha {summary[side]['sha']}, "
              f"{summary[side]['src_lines']} src lines",
              *summary[side].get("answers", ()))
    base, new = summary["baseline"], summary["change"]
    for m in names:
        won = sum(n < b for b, n in zip(base[m]["runs"], new[m]["runs"]))
        if m == names[0]:  # run_s or wall_s
            summary["change_faster_in"] = won
        bm, nm = base[m]["median"], new[m]["median"]
        print(f"  {m:<12} median (IQR) {bm:.4g} ({base[m]['iqr']:.4g}) -> "
              f"{nm:.4g} ({new[m]['iqr']:.4g}), {100 * (nm / bm - 1):+.1f}%, "
              f"lower in {won} of {args.pairs} pairs")
    summary["speedup"] = base[names[0]]["median"] / new[names[0]]["median"]
    if args.workload:
        summary["over_bound"] = over_bound(base, new)
        print("  over bound:", ", ".join(f"{m} {100 * c:+.1f}%" for m, c
                                        in summary["over_bound"].items()) or "none")
        summary["gain_rule"] = {m: gain_rule(base[m]["runs"], new[m]["runs"])
                                for m in names if m != "passes"}
        print("  gain rule met:", ", ".join(
            m for m, met in summary["gain_rule"].items() if met) or "none")
    print(f"  same answers: {same}")
    if args.json is not None:
        book = (json.loads(args.json.read_text(encoding="utf-8"))
                if args.json.exists() else {"cases": []})
        book["machine"] = {"platform": platform.platform(), "cpus": os.cpu_count(),
                           "python": platform.python_version()}
        book["cases"] = [c for c in book["cases"]
                         if entry_key(c) != entry_key(summary)]
        book["cases"].append(summary)
        args.json.write_text(json.dumps(book, indent=2) + "\n", encoding="utf-8")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
