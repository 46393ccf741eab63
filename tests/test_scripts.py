"""The scripts under ``scripts/``: the A/B harness in both of its modes,
and the asset builder against the bundled networks."""

import contextlib
import importlib.util
import io
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ASSETS = ROOT / "src" / "localcausal" / "assets"
WORKLOAD = ["--workload", "io-100k", "--seed", "1", "--seconds", "0.1",
            "--pairs", "2"]
SWEEP = ["--bif", str(ASSETS / "trace.bif"), "--sizes", "200", "--pairs", "2"]
SRC_LINES = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "localcausal").glob("*.py"))


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_checkout(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    return dest


@pytest.fixture(scope="module")
def ab():
    return load_script("ab")


@pytest.fixture(scope="module")
def checkouts(tmp_path_factory):
    root = tmp_path_factory.mktemp("ab")
    return copy_checkout(root / "baseline"), copy_checkout(root / "change")


@pytest.fixture(scope="module")
def book(ab, checkouts):
    """A book with one perfbench case and one CLI case, and each run's
    standard output."""
    path = checkouts[0].parent / "book.json"
    outputs = []
    for argv in (WORKLOAD, SWEEP):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ab.main([*map(str, checkouts), *argv, "--json", str(path)])
        assert code == 0, out.getvalue()
        outputs.append(out.getvalue())
    return path, outputs


def key_paths(value, prefix=()):
    """Every path of dict keys in ``value``, not looking into lists."""
    if not isinstance(value, dict):
        return set()
    return set().union(*({(*prefix, k)} | key_paths(v, (*prefix, k))
                         for k, v in value.items()))


def test_both_modes_land_in_one_book(book, checkouts):
    path, outputs = book
    cases = json.loads(path.read_text(encoding="utf-8"))["cases"]
    assert [c["case"] for c in cases] == [
        {"workload": "io-100k", "seed": 1, "seconds": 0.1},
        {"network": "trace", "sizes": "200", "algo": "elcs", "seed": 1,
         "targets": "all"},
    ]
    perf, cli = cases
    for case, metrics in ((perf, ("run_s", "setup_s", "peak_rss_mb",
                                  "first_pass_s", "save_s", "passes")),
                          (cli, ("wall_s", "peak_rss_mb"))):
        assert case["pairs"] == 2 and case["same_answers"]
        assert 0 <= case["change_faster_in"] <= 2 and case["speedup"] > 0
        for side in ("baseline", "change"):
            assert case[side]["src_lines"] == SRC_LINES
            for m in metrics:
                assert len(case[side][m]["runs"]) == 2
                assert case[side][m]["iqr"] >= 0
    digests = {a["digest"] for s in ("baseline", "change")
               for a in perf[s]["answers"]}
    assert len(digests) == 1 and "answers" not in cli["baseline"]
    # 0.1 s runs are noise: only the form of the bound check is checked
    assert set(perf["over_bound"]) <= {"run_s", "setup_s", "peak_rss_mb"}
    assert "over_bound" not in cli
    assert "  over bound: " in outputs[0] and "over bound" not in outputs[1]
    assert set(perf["gain_rule"]) == set(perf["baseline"]) - {
        "sha", "src_lines", "answers", "passes"}
    assert "gain_rule" not in cli
    assert "  gain rule met: " in outputs[0] and "gain rule" not in outputs[1]
    # the side that runs first alternates from pair to pair
    for out in outputs:
        order = [ln.split()[:3] for ln in out.splitlines()
                 if ln.startswith("pair ")]
        assert order == [["pair", "1", "baseline"], ["pair", "1", "change"],
                         ["pair", "2", "change"], ["pair", "2", "baseline"]]
        assert "same answers: True" in out
    # byte-compiled up front: a script run as __main__ leaves no .pyc
    for checkout in checkouts:
        assert list((checkout / "perfbench" / "__pycache__").glob("run.*.pyc"))


def test_over_bound_flags_end_to_end_metrics_past_their_bound(ab):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = {m: {"median": 2.0} for m in ("run_s", "setup_s", "peak_rss_mb",
                                         "first_pass_s")}
    assert ab.over_bound(base, base) == {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for excess, flagged in ((0.01, True), (-0.01, False), (-1.5, False)):
            change = sign * (bound + excess)
            new = {**base, name: {"median": 2.0 * (1 + change)}}
            got = ab.over_bound(base, new)
            assert got == ({name: pytest.approx(change)} if flagged else {})
            # a metric one side lacks is not judged
            assert ab.over_bound({k: v for k, v in base.items() if k != name},
                                 new) == {}
    # a metric BENCHMARK.json does not bound is never flagged
    assert ab.over_bound(base, {**base, "first_pass_s": {"median": 20.0}}) == {}


def test_gain_rule_needs_nine_of_ten_pairs_and_a_gap_past_the_iqr(ab):
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # IQR 0.45
    lower = [b - 0.5 for b in base]
    assert ab.gain_rule(base, lower)
    # 9 of 10 pairs lower, the median gap 0.5 past the IQR
    assert ab.gain_rule(base, lower[:9] + [2.5])
    # 8 of 10 pairs lower
    assert not ab.gain_rule(base, lower[:8] + [2.5, 2.5])
    # a tied pair counts for neither side: 9 lower and a tie pass,
    # 8 lower and two ties do not
    assert ab.gain_rule(base, lower[:9] + base[9:])
    assert not ab.gain_rule(base, lower[:8] + base[8:])
    # every pair lower, but by less than the baseline's IQR
    assert not ab.gain_rule(base, [b - 0.4 for b in base])


def test_cli_case_keeps_the_committed_format(book):
    cli = json.loads(book[0].read_text(encoding="utf-8"))["cases"][1]
    committed = json.loads((ROOT / "BENCH_cli_benchmark.json")
                           .read_text(encoding="utf-8"))["cases"]
    assert committed
    for case in committed:
        assert key_paths(cli) <= key_paths(case)


def test_other_answers_exit_1_and_replace_their_case(ab, checkouts, book,
                                                     tmp_path, monkeypatch):
    # entries are keyed by case and both SHAs: a rerun of a code pair
    # replaces its own entry, and an A/B of other code appends
    path = tmp_path / "book.json"
    shutil.copy(book[0], path)
    before = json.loads(path.read_text(encoding="utf-8"))["cases"]
    other = copy_checkout(tmp_path / "other")
    cli = other / "src" / "localcausal" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count("default=0.01") == 1
    cli.write_text(text.replace("default=0.01", "default=0.05"),
                   encoding="utf-8")

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = ab.main([str(checkouts[0]), str(other), *SWEEP[:-1], "1",
                            "--json", str(path)])
        assert code == 1
        return json.loads(path.read_text(encoding="utf-8"))["cases"]

    after = run()  # no .git anywhere: every side's SHA is "unknown"
    assert {c["change"]["sha"] for c in before + after} == {"unknown"}
    assert after[0] == before[0]  # the perfbench case is left alone
    assert len(after) == 2 and after[1]["case"] == before[1]["case"]
    assert after[1]["pairs"] == 1 and not after[1]["same_answers"]
    sha = ab.git_sha
    monkeypatch.setattr(ab, "git_sha", lambda checkout: (
        "f00d" if checkout == other.resolve() else sha(checkout)))
    for _ in range(2):  # appended once, then replaced by its rerun
        appended = run()
        assert appended[:2] == after and len(appended) == 3
        assert appended[2]["change"]["sha"] == "f00d"
        assert appended[2]["case"] == before[1]["case"]


@pytest.mark.parametrize("argv", [
    ["--bif", "x.bif", "--sizes", "100", "--seconds", "1"],
    ["--workload", "io-100k", "--seed", "1", "--algo", "iamb"],
    ["--workload", "io-100k", "--seed", "1", "--target", "T"],
    ["--workload", "io-100k"],  # perfbench needs a seed
    ["--bif", "x.bif"],  # a sweep needs sizes
    ["--workload", "io-100k", "--bif", "x.bif", "--seed", "1"],
    ["--seed", "1"],
    ["--bif", "x.bif", "--sizes", "100", "--pairs", "0"],
])
def test_harness_usage_errors(ab, argv):
    with pytest.raises(SystemExit) as exc:
        ab.main(["base", "change", *argv])
    assert exc.value.code == 2


def test_build_assets_reproduces_the_bundled_networks(tmp_path):
    build = load_script("build_assets")
    build.OUT = tmp_path
    build.main()
    bundled = sorted(ASSETS.glob("*.bif"))
    assert [p.name for p in sorted(tmp_path.glob("*.bif"))] == [
        p.name for p in bundled]
    for p in bundled:
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name
