import json

from support import ROOT, load_script

bench_record = load_script("bench_record")


def synthetic_runs(values):
    """Runs of one workload from {(seed, checkout): (wall_s, ops_per_s)}."""
    return [{"workload": "w", "seed": seed, "checkout": label, "env": {},
             "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                                    "ops_per_s": {"value": ops, "unit": "1/s"}}}}
            for (seed, label), (wall, ops) in values.items()]


def test_pairs_count_wins_by_each_metrics_better_side():
    runs = synthetic_runs({
        (1, "parent"): (2.0, 10.0), (1, "change"): (1.0, 20.0),  # change wins both
        (2, "change"): (3.0, 10.0), (2, "parent"): (2.0, 10.0),  # loses wall_s, ties ops
        (3, "parent"): (2.0, 10.0), (3, "change"): (2.0, 30.0),  # ties wall_s, wins ops
        (4, "parent"): (2.0, 10.0),                              # no pair
    })
    better = {"wall_s": "lower", "ops_per_s": "higher"}
    out = bench_record.summary(runs, ["parent", "change"], better)["w"]
    assert out["change vs parent"] == {"wall_s": {"won": 1, "lost": 1, "pairs": 3},
                                       "ops_per_s": {"won": 2, "lost": 0, "pairs": 3}}
    assert out["change"]["wall_s"][1] == 2.0
    # one checkout has no pairs
    alone = bench_record.summary(runs[:1], ["parent"], better)["w"]
    assert list(alone) == ["parent"]


def test_directions_come_from_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = bench_record.directions()
    assert better["wall_s"] == "lower" and better["ops_per_s"] == "higher"
    assert len(better) == len(spec["end_to_end"]) + len(spec["per_layer"])


def test_a_failed_run_is_named_with_its_stderr(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('warming up', file=sys.stderr)\n"
        "sys.exit('workload w: check failed')\n")
    argv = ["--tag", "never-written", "--workloads", "w", "--seeds", "3", "--seconds", "1",
            "--checkout", f"broken={tmp_path}"]
    assert bench_record.main(argv) == 1
    err = capsys.readouterr().err
    assert f"w seed 3 broken ({tmp_path}) exited with code 1" in err
    assert "warming up\nworkload w: check failed" in err
    assert not (ROOT / "BENCH_never-written.json").exists()


def test_verdicts_give_each_end_to_end_metric_one_line():
    runs = synthetic_runs({
        (1, "parent"): (2.0, 10.0), (1, "change"): (1.0, 20.0),
        (2, "change"): (3.0, 10.0), (2, "parent"): (2.0, 10.0),
    })
    labels = ["parent", "change"]
    table = bench_record.summary(runs, labels, {"wall_s": "lower", "ops_per_s": "higher"})
    metrics = [{"name": "wall_s", "unit": "s"}, {"name": "ops_per_s", "unit": "1/s"}]
    assert bench_record.verdicts(table, labels, metrics) == [
        "w wall_s: parent 2 s, change 2 s (+0.0%); change won 1, lost 1 of 2 pairs",
        "w ops_per_s: parent 10 1/s, change 15 1/s (+50.0%); change won 1, lost 0 of 2 pairs",
    ]
    assert bench_record.verdicts(table, ["parent"], metrics[:1]) == ["w wall_s: parent 2 s"]


def test_verdicts_mark_a_change_beyond_the_bound_on_either_side():
    # the higher-is-better ops_per_s at +19 % stays inside a 25 % bound;
    # wall_s at +50 % is worse beyond it, and at -30 % better beyond it
    runs = synthetic_runs({(1, "parent"): (2.0, 10.0), (1, "change"): (3.0, 11.9),
                           (2, "parent"): (2.0, 10.0), (2, "change"): (1.4, 11.9)})
    labels = ["parent", "change"]
    table = bench_record.summary(runs[:2], labels, {"wall_s": "lower", "ops_per_s": "higher"})
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    assert bench_record.verdicts(table, labels, metrics) == [
        "w wall_s: parent 2 s, change 3 s (+50.0%, bound 25%, worse beyond it); "
        "change won 0, lost 1 of 1 pairs",
        "w ops_per_s: parent 10 1/s, change 11.9 1/s (+19.0%, bound 25%); "
        "change won 1, lost 0 of 1 pairs",
    ]
    table = bench_record.summary(runs[2:], labels, {"wall_s": "lower"})
    assert bench_record.verdicts(table, labels, metrics[:1]) == [
        "w wall_s: parent 2 s, change 1.4 s (-30.0%, bound 25%, better beyond it); "
        "change won 1, lost 0 of 1 pairs"]


def stand_in_checkouts(tmp_path):
    """(BENCHMARK.json's spec, argv): in tmp_path, that spec and two checkouts,
    "slow" and "fast", whose perfbench reports every end-to-end metric as 2
    and 1 and its env as PYTHONDONTWRITEBYTECODE; argv records them at seeds 1-3."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for name in ("slow", "fast"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        wall = 2.0 if name == "slow" else 1.0
        metrics = {m["name"]: {"value": wall, "unit": m["unit"]} for m in spec["end_to_end"]}
        (tmp_path / name / "perfbench" / "run.py").write_text(
            "import json, os\nprint('env = ' + json.dumps(os.environ.get("
            "'PYTHONDONTWRITEBYTECODE')))\n"
            f"print(json.dumps({{'metrics': {metrics!r}}}))\n")
    return spec, ["--tag", "t", "--workloads", "w", "--seeds", "1-3", "--seconds", "1",
                  "--checkout", f"slow={tmp_path / 'slow'}",
                  "--checkout", f"fast={tmp_path / 'fast'}"]


def test_a_recorded_run_ends_with_its_verdicts(tmp_path, monkeypatch, capsys):
    spec, argv = stand_in_checkouts(tmp_path)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(spec["end_to_end"])
    assert ("w wall_s: slow 2 s, fast 1 s (-50.0%, bound 25%, better beyond it); "
            "fast won 3, lost 0 of 3 pairs") in lines
    assert (tmp_path / "BENCH_t.json").exists()


def test_checkouts_that_differ_in_cached_bytecode_are_refused(tmp_path, monkeypatch, capsys):
    _, argv = stand_in_checkouts(tmp_path)
    (tmp_path / "fast" / "src" / "pmleak" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(argv) == 1
    err = capsys.readouterr().err
    assert "differ in cached bytecode" in err
    assert "slow: no __pycache__\nfast: src/pmleak" in err
    assert not (tmp_path / "BENCH_t.json").exists()
    # alike, with a cache in both, they are paired; the record says so, and no
    # run may write bytecode
    (tmp_path / "slow" / "src" / "pmleak" / "__pycache__").mkdir(parents=True)
    assert bench_record.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["bytecode"] == {"slow": ["src/pmleak"], "fast": ["src/pmleak"]}
    assert {run["env"] for run in record["runs"]} == {"1"}
