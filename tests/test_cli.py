import json

import pytest

from localcausal import CiEngine, elcs, emb, iamb, load_bif, sample, save_csv
from localcausal.assets import asset_path
from localcausal.cli import ALGOS, main


TRACE = str(asset_path("trace"))


def strip_times(obj):
    """Drop every time_ms entry, at any depth, for comparisons."""
    if isinstance(obj, dict):
        return {k: strip_times(v) for k, v in obj.items() if k != "time_ms"}
    if isinstance(obj, list):
        return [strip_times(v) for v in obj]
    return obj


def sample_args(tmp_path, seed=3, name="d.csv", n=400):
    out = tmp_path / name
    return ["sample", TRACE, "--n", str(n), "--seed", str(seed),
            "--out", str(out)], out


def test_sample_deterministic(tmp_path, capsys):
    args1, out1 = sample_args(tmp_path, name="a.csv")
    args2, out2 = sample_args(tmp_path, name="b.csv")
    assert main(args1) == 0
    assert main(args2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.with_suffix(".card").read_bytes() == \
        out2.with_suffix(".card").read_bytes()
    assert "400 rows x 10 variables" in capsys.readouterr().out

    args3, out3 = sample_args(tmp_path, seed=4, name="c.csv")
    assert main(args3) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_sample_rejects_zero_rows(tmp_path, capsys):
    args, _ = sample_args(tmp_path, n=0)
    assert main(args) == 1
    assert "usage error" in capsys.readouterr().err


def test_sample_rejects_negative_seed(tmp_path, capsys):
    args, _ = sample_args(tmp_path, seed=-1)
    assert main(args) == 1
    assert "usage error" in capsys.readouterr().err


def test_sample_missing_network(tmp_path, capsys):
    assert main(["sample", str(tmp_path / "nope.bif"), "--n", "10",
                 "--out", str(tmp_path / "d.csv")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "trace.csv"
    assert main(["sample", TRACE, "--n", "2000", "--seed", "11",
                 "--out", str(out)]) == 0
    return out


def test_learn_report_shape(sampled, capsys):
    assert main(["learn", str(sampled), "--target", "T"]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["schema"] == 1
    assert report["algo"] == "elcs"
    assert report["target"] == "T"
    for key in ("parents", "children", "undirected", "spouses",
                "ci_tests", "time_ms", "mbs_learned", "conflicts",
                "termination"):
        assert key in report
    # names are reported sorted, and the JSON itself has sorted keys
    assert report["parents"] == sorted(report["parents"])
    assert text.strip() == json.dumps(report, indent=2, sort_keys=True)


def test_learn_deterministic_apart_from_time(sampled, capsys):
    assert main(["learn", str(sampled), "--target", "T"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["learn", str(sampled), "--target", "T"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert strip_times(first) == strip_times(second)


def test_learn_writes_out_file(sampled, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["learn", str(sampled), "--target", "T",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed


def test_learn_iamb_reports_unoriented_blanket(sampled, capsys):
    assert main(["learn", str(sampled), "--target", "T",
                 "--algo", "iamb"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parents"] == [] and report["children"] == []
    assert report["spouses"] == []
    assert len(report["undirected"]) > 0
    assert report["termination"] == "single-mb"


def test_learn_emb_single_blanket(sampled, capsys):
    assert main(["learn", str(sampled), "--target", "T",
                 "--algo", "emb", "--no-n-structures"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["termination"] == "single-mb"


@pytest.fixture(scope="module")
def alarm_sample(tmp_path_factory):
    data = sample(load_bif(asset_path("alarm")), 2000, seed=1)
    out = tmp_path_factory.mktemp("alarm") / "alarm.csv"
    save_csv(data, out)
    return data, out


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("target", ["HR", "TPR"])
def test_learn_report_matches_python_api(alarm_sample, capsys, algo, target):
    # every algorithm's roles, test count and run summary come straight
    # from the learner's own result on a fresh engine; on this sample HR
    # resolves and TPR exhausts its queue, both with spouses
    data, path = alarm_sample
    assert main(["learn", str(path), "--target", target,
                 "--algo", algo]) == 0
    report = json.loads(capsys.readouterr().out)
    engine = CiEngine.g2(data)
    t = data.index_of(target)
    mbs, conflicts, termination = 1, 0, "single-mb"
    if algo == "iamb":
        roles, spouses = (set(), set(), iamb(engine, t)), set()
    elif algo == "emb":
        out = emb(engine, t)
        roles = (out.parents, out.children, out.undecided)
        spouses = out.mb - out.pc
    else:
        out = elcs(engine, t, rank_spouses=algo == "elcs2")
        roles = (out.parents, out.children, out.undecided)
        spouses = out.target_result.mb - out.target_result.pc
        mbs, termination = out.mbs_learned, out.termination
        conflicts = len(out.graph.conflicts)
    names = [sorted(data.names[v] for v in s) for s in (*roles, spouses)]
    assert [report[k] for k in ("parents", "children", "undirected",
                                "spouses")] == names
    assert report["ci_tests"] == engine.test_count
    assert report["termination"] == termination
    assert report["mbs_learned"] == mbs
    assert report["conflicts"] == conflicts


def test_learn_under_budget(alarm_sample, capsys):
    _, path = alarm_sample
    assert main(["learn", str(path), "--target", "CATECHOL",
                 "--max-cond", "2"]) == 0
    capsys.readouterr()


def test_learn_usage_errors(sampled, capsys):
    assert main(["learn", str(sampled), "--target", "T",
                 "--algo", "magic"]) == 1
    assert main(["learn", str(sampled), "--target", "T",
                 "--alpha", "0"]) == 1
    for k in ("-1", "nan", "inf"):
        assert main(["learn", str(sampled), "--target", "T",
                     "--reliability-k", k]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_learn_data_errors(sampled, tmp_path, capsys):
    assert main(["learn", str(tmp_path / "missing.csv"),
                 "--target", "T"]) == 2
    assert main(["learn", str(sampled), "--target", "NOPE"]) == 2
    assert "data error" in capsys.readouterr().err


def test_learn_internal_error_is_exit_3(sampled, capsys, monkeypatch):
    import localcausal.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "elcs", boom)
    assert main(["learn", str(sampled), "--target", "T"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_learn_internal_key_error_is_exit_3(sampled, capsys, monkeypatch):
    import localcausal.cli as cli

    def boom(*args, **kwargs):
        raise KeyError("internal lookup")

    monkeypatch.setattr(cli, "elcs", boom)
    assert main(["learn", str(sampled), "--target", "T"]) == 3
    assert "internal error: KeyError" in capsys.readouterr().err


@pytest.mark.parametrize("rows, card", [
    ("2147483648\n", None),
    ("99999999999\n", None),
    ("0\n1\n", "\u00b2\n"),
    (b"\xff\n", None),
])
def test_learn_bad_csv_is_exit_2(tmp_path, capsys, rows, card):
    csv = tmp_path / "d.csv"
    if isinstance(rows, bytes):
        csv.write_bytes(b"T\n" + rows)
    else:
        csv.write_text("T\n" + rows, encoding="utf-8")
    if card is not None:
        csv.with_suffix(".card").write_text(card, encoding="utf-8")
    assert main(["learn", str(csv), "--target", "T"]) == 2
    assert "data error" in capsys.readouterr().err


def bench(tmp_path, name, *extra):
    out = tmp_path / name
    args = ["benchmark", TRACE, "--sizes", "300", "--runs", "2",
            "--seed", "5", "--target", "T", "--target", "K",
            "--out", str(out), *extra]
    assert main(args) == 0
    return json.loads(out.read_text())


def test_benchmark_deterministic(tmp_path, capsys):
    first = bench(tmp_path, "a.json")
    second = bench(tmp_path, "b.json")
    capsys.readouterr()
    assert strip_times(first) == strip_times(second)


def test_benchmark_report_contents(tmp_path, capsys):
    report = bench(tmp_path, "r.json")
    table = capsys.readouterr().out
    assert report["schema"] == 1
    assert report["network"] == "trace"
    assert report["n_vars"] == 10 and report["n_edges"] == 12
    assert report["targets"] == ["T", "K"]
    (block,) = report["sizes"]
    assert block["size"] == 300
    assert [r["seed"] for r in block["runs"]] == [5, 6]
    for run in block["runs"]:
        assert [row["target"] for row in run["per_target"]] == ["T", "K"]
        for row in run["per_target"]:
            assert 0.0 <= row["arr_p"] <= 1.0
            assert row["ci_tests"] > 0
    assert set(block["aggregate"]) == {"arr_p", "arr_r", "shd", "fdr",
                                       "ci_tests", "time_ms"}
    # the human table is printed alongside the JSON file
    assert "network=trace" in table and "mean" in table


def test_benchmark_workers_match_serial(tmp_path, capsys):
    serial = bench(tmp_path, "s.json")
    fanned = bench(tmp_path, "w.json", "--workers", "2")
    capsys.readouterr()
    assert strip_times(serial) == strip_times(fanned)


def test_benchmark_unknown_target_is_exit_2(capsys):
    assert main(["benchmark", TRACE, "--sizes", "100",
                 "--target", "NOPE"]) == 2
    assert "data error: unknown variable 'NOPE'" in capsys.readouterr().err


def test_benchmark_usage_errors(tmp_path, capsys):
    assert main(["benchmark", TRACE, "--sizes", "abc"]) == 1
    assert main(["benchmark", TRACE, "--sizes", "100",
                 "--runs", "0"]) == 1
    assert main(["benchmark", TRACE, "--sizes", "0"]) == 1
    assert main(["benchmark", TRACE, "--sizes", "100",
                 "--seed", "-1"]) == 1
    capsys.readouterr()
