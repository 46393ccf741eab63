import argparse
import json

import numpy as np
import pytest

from localcausal import (CiEngine, elcs, emb, iamb, load_bif, sample, save_csv,
                         score_local)
from localcausal.assets import asset_path
from localcausal.cli import ALGOS, _engine, _learn_one, main


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


def test_learn_rejects_a_negative_max_cond(sampled, capsys):
    assert main(["learn", str(sampled), "--target", "T", "--max-cond", "-1"]) == 1
    assert "usage error: max-cond must be nonnegative" in capsys.readouterr().err


def test_sample_rejects_a_card_path(tmp_path, capsys):
    args, out = sample_args(tmp_path, name="x.card", n=5)
    assert main(args) == 2
    assert "cannot end in .card" in capsys.readouterr().err
    assert not out.exists()


def test_sample_refuses_a_name_csv_cannot_carry(tmp_path, capsys):
    # BIF allows quoted names; one holding a comma would split the header
    bif = tmp_path / "net.bif"
    bif.write_text('network n { }\n'
                   'variable "a,b" { type discrete [ 2 ] { y, n }; }\n'
                   'variable c { type discrete [ 2 ] { y, n }; }\n'
                   'probability ( "a,b" ) { table 0.3, 0.7; }\n'
                   'probability ( c ) { table 0.5, 0.5; }\n')
    out = tmp_path / "d.csv"
    assert main(["sample", str(bif), "--n", "5", "--out", str(out)]) == 2
    assert "variable name 'a,b'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.bif"]


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
@pytest.mark.parametrize("target, n_structures", [
    pytest.param(t, ns, id=t if ns else f"{t}-no-n-structures")
    for t in ("HR", "TPR", "INTUBATION") for ns in (True, False)])
def test_learn_report_matches_python_api(alarm_sample, capsys, algo, target,
                                         n_structures):
    # every algorithm's roles, test count and run summary come straight
    # from the learner's own result on a fresh engine; on this sample HR
    # resolves and TPR exhausts its queue, both with spouses, and
    # INTUBATION's emb roles and elcs test count move with the N-structure
    # rule, so a flag that never reached the learner would show
    data, path = alarm_sample
    flags = [] if n_structures else ["--no-n-structures"]
    assert main(["learn", str(path), "--target", target,
                 "--algo", algo, *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    engine = CiEngine.g2(data)
    t = data.index_of(target)
    mbs, conflicts, termination = 1, 0, "single-mb"
    if algo == "iamb":
        roles, spouses = (set(), set(), iamb(engine, t)), set()
    elif algo == "emb":
        out = emb(engine, t, n_structures=n_structures)
        roles = (out.parents, out.children, out.undecided)
        spouses = out.mb - out.pc
    else:
        out = elcs(engine, t, n_structures=n_structures)
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
    for algo in ("magic", "elcs2"):
        assert main(["learn", str(sampled), "--target", "T",
                     "--algo", algo]) == 1
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


def test_learn_refuses_a_card_data_file(tmp_path, capsys):
    path = tmp_path / "d.card"
    path.write_text("a\n0\n1\n")
    assert main(["learn", str(path), "--target", "a"]) == 2
    assert "cannot end in .card, the suffix of its sidecar" in \
        capsys.readouterr().err


@pytest.mark.parametrize("header, card", [
    pytest.param("a,b,c", None, id="None"),
    pytest.param("a,b,c", "2\n2\n2\n", id="2\n2\n2\n"),
    pytest.param("alarm", None, id="alarm")])
def test_learn_on_a_header_only_csv_exits_0(tmp_path, capsys, alarm_net,
                                            header, card):
    # with no rows every test is unreliable, so each separator search only
    # counts its subsets: alarm's 37 names finish at once, and a cap of 2
    # still reports the count of the full walk
    alarm = header == "alarm"
    csv = tmp_path / "d.csv"
    csv.write_text((",".join(alarm_net.names) if alarm else header) + "\n")
    if card is not None:
        csv.with_suffix(".card").write_text(card)
    target = "HR" if alarm else "a"
    assert main(["learn", str(csv), "--target", target]) == 0
    if alarm:
        out = tmp_path / "r.json"
        assert main(["learn", str(csv), "--target", target, "--max-cond", "2",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ci_tests"] == 8_769_777
    assert "internal error" not in capsys.readouterr().err


def mutations(raw: bytes, rng, count: int):
    """``count`` single-byte edits of ``raw``, each a replacement, deletion
    or insertion at a seeded position; new bytes are mostly ones the CSV
    and sidecar formats give meaning to."""
    meaningful = b"0129,\n\r \t\xff"
    for _ in range(count):
        i = int(rng.integers(len(raw)))
        new = (bytes([meaningful[rng.integers(len(meaningful))]])
               if rng.random() < 0.7 else bytes([rng.integers(256)]))
        kind = rng.integers(3)
        yield (raw[:i] + new + raw[i + 1:] if kind == 0 else
               raw[:i] + raw[i + 1:] if kind == 1 else raw[:i] + new + raw[i:])


def test_learn_on_mutated_files_is_never_an_internal_error(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    assert main(["sample", TRACE, "--n", "60", "--seed", "2",
                 "--out", str(csv)]) == 0
    rng = np.random.default_rng(16)
    for path, count in ((csv, 200), (csv.with_suffix(".card"), 80)):
        raw = path.read_bytes()
        for mutated in mutations(raw, rng, count):
            path.write_bytes(mutated)
            code = main(["learn", str(csv), "--target", "T"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "internal error" not in err, \
                (path.name, mutated, err)
        path.write_bytes(raw)


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
    ("0\n1\n", b"\xff\n"),
])
def test_learn_bad_csv_is_exit_2(tmp_path, capsys, rows, card):
    def utf8(text):
        return text if isinstance(text, bytes) else text.encode("utf-8")

    csv = tmp_path / "d.csv"
    csv.write_bytes(b"T\n" + utf8(rows))
    if card is not None:
        csv.with_suffix(".card").write_bytes(utf8(card))
    assert main(["learn", str(csv), "--target", "T"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def child_sample():
    return sample(load_bif(asset_path("child")), 500, seed=1)


@pytest.mark.parametrize("algo, max_cond, n_structures", [
    *((algo, None, True) for algo in ALGOS),
    ("elcs", 1, True), ("emb", 1, True),
    ("elcs", None, False), ("emb", None, False)])
def test_shared_engine_matches_fresh_engines(child_sample, algo, max_cond,
                                             n_structures):
    # benchmark learns every target of a dataset on one engine, so a
    # target's roles and ci_tests must not depend on what the targets
    # before it asked, in either order
    args = argparse.Namespace(algo=algo, alpha=0.01, reliability_k=5.0,
                              max_cond=max_cond, n_structures=n_structures)
    targets = range(child_sample.n_vars)
    fresh = {t: _learn_one(_engine(child_sample, args), t, args)[1:3]
             for t in targets}
    for order in (targets, reversed(targets)):
        engine = _engine(child_sample, args)
        for t in order:
            assert _learn_one(engine, t, args)[1:3] == fresh[t]


def test_benchmark_engine_never_spans_two_datasets(tmp_path, capsys):
    # every size and run is a different sample of the same variables; each
    # target's scores must equal those from a fresh engine on its sample
    out = tmp_path / "r.json"
    assert main(["benchmark", TRACE, "--sizes", "150,300", "--runs", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    net = load_bif(TRACE)
    args = argparse.Namespace(algo="elcs", alpha=0.01, reliability_k=5.0,
                              max_cond=None, n_structures=True)
    for block in report["sizes"]:
        for run in block["runs"]:
            data = sample(net, block["size"], run["seed"])
            for row in run["per_target"]:
                t = data.index_of(row["target"])
                _, sets, ci_tests, _ = _learn_one(_engine(data, args), t, args)
                fresh = score_local(*sets, net.dag, t, ci_tests=ci_tests,
                                    time_ms=0.0)
                assert strip_times(row) == strip_times(
                    {"target": row["target"], **vars(fresh)})


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
    assert report["n_structures"] is True


def test_benchmark_reports_no_n_structures(tmp_path, capsys):
    report = bench(tmp_path, "n.json", "--no-n-structures")
    capsys.readouterr()
    assert report["n_structures"] is False


@pytest.mark.parametrize("text", [
    b"network n { }\nvariable A { type discrete [ 2 ] { a\xff, b }; }\n",
    b"network n { }\nvariable A { type discrete [ 1 ] { a }; }\n"
    b"probability ( A ) { table 1.0; }\n",
])
def test_sample_bad_bif_is_exit_2(tmp_path, capsys, text):
    bif = tmp_path / "bad.bif"
    bif.write_bytes(text)
    assert main(["sample", str(bif), "--n", "10",
                 "--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2, column ")


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
    assert main(["benchmark", TRACE, "--sizes", "100",
                 "--algo", "elcs2"]) == 1
    assert main(["benchmark", TRACE, "--sizes", "100",
                 "--workers", "2"]) == 1
    capsys.readouterr()


def test_benchmark_repeated_target_is_usage_error(capsys):
    # a target given twice would be scored twice and weigh double in
    # every mean
    assert main(["benchmark", TRACE, "--sizes", "100",
                 "--target", "T", "--target", "A", "--target", "T"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "'T'" in err


def test_benchmark_repeated_size_is_usage_error(capsys):
    # a size given twice would rerun the same seeds on the same samples
    assert main(["benchmark", TRACE, "--sizes", "100,200,100",
                 "--target", "T"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: size 100 ")
