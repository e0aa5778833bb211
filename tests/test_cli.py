"""CLI smoke tests."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    assert main(["generate", "xmark", str(path), "--scale", "0.2",
                 "--seed", "1"]) == 0
    return path


def test_generate_and_stats(xml_file, capsys):
    assert main(["stats", str(xml_file)]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out
    assert "tag" in out


def test_generate_nasa(tmp_path, capsys):
    path = tmp_path / "nasa.xml"
    assert main(["generate", "nasa", str(path), "--scale", "0.3"]) == 0
    assert "wrote" in capsys.readouterr().out


def test_run_query(xml_file, capsys):
    code = main([
        "run", str(xml_file),
        "//open_auctions//open_auction//bidder//increase",
        "--view", "//open_auctions//bidder",
        "--view", "//open_auction//increase",
        "--algorithm", "VJ", "--scheme", "LEp",
        "--show-matches", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "matches:" in out
    assert "counters:" in out


def test_run_all_algorithms(xml_file, capsys):
    for algorithm, scheme in [("TS", "E"), ("VJ", "LE"), ("PS", "E"),
                              ("IJ", "T")]:
        code = main([
            "run", str(xml_file),
            "//open_auctions//open_auction//bidder//increase",
            "--view", "//open_auctions//bidder",
            "--view", "//open_auction//increase",
            "--algorithm", algorithm, "--scheme", scheme,
        ])
        assert code == 0
    capsys.readouterr()


def test_select(xml_file, capsys):
    code = main([
        "select", str(xml_file),
        "//open_auctions//open_auction//bidder//increase",
        "--candidate", "//open_auctions//open_auction",
        "--candidate", "//bidder//increase",
        "--candidate", "//open_auctions//bidder",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "selected:" in out
    assert "c(v,Q)" in out


def test_workload_grid(capsys):
    code = main(["workload", "nasa-paths", "--scale", "0.4",
                 "--metric", "work"])
    assert code == 0
    out = capsys.readouterr().out
    assert "N1" in out and "IJ+T" in out and "VJ+LEp" in out


def test_space(xml_file, capsys):
    code = main([
        "space", str(xml_file),
        "--view", "//item//text//keyword",
        "--view", "//person//education",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "#ptr LE" in out and "//person//education" in out


def test_scalability(capsys):
    code = main([
        "scalability",
        "//people//person//profile//interest",
        "--view", "//people//interest",
        "--view", "//person//profile",
        "--scales", "0.3,0.6",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "peak buffer" in out
    assert out.count("\n") >= 4  # header + rule + two scale rows


def test_materialize_and_query_store(xml_file, tmp_path, capsys):
    store = tmp_path / "store"
    code = main([
        "materialize", str(xml_file), str(store),
        "--view", "//open_auctions//bidder",
        "--view", "//open_auction//increase",
        "--scheme", "LEp",
    ])
    assert code == 0
    assert (store / "manifest.json").exists()
    capsys.readouterr()
    code = main([
        "query", str(store),
        "//open_auctions//open_auction//bidder//increase",
        "--show-matches", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine: VJ+LEp" in out
    assert "matches:" in out


def test_query_store_with_base_fallback(xml_file, tmp_path, capsys):
    store = tmp_path / "store2"
    main([
        "materialize", str(xml_file), str(store),
        "--view", "//open_auctions//bidder",
    ])
    capsys.readouterr()
    code = main([
        "query", str(store),
        "//open_auctions//open_auction//bidder//increase",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "base view (fallback)" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_batch_record_log_replays_deterministically(xml_file, tmp_path,
                                                    capsys):
    """`batch --record-log` saves every repeat's outcomes; `advise
    --from-log` turns the saved log into the same plan on every run."""
    import json

    store = tmp_path / "store3"
    log_path = tmp_path / "wl.json"
    query = "//open_auctions//open_auction//bidder//increase"
    assert main([
        "materialize", str(xml_file), str(store),
        "--view", "//open_auctions//bidder", "--scheme", "LEp",
    ]) == 0
    assert main([
        "batch", str(store), "--query", query, "--query", query,
        "--repeats", "2", "--record-log", str(log_path),
    ]) == 0
    assert "workload log written" in capsys.readouterr().out
    saved = json.loads(log_path.read_text())
    assert saved["recorded"] == 4
    assert [entry["query"] for entry in saved["queries"]] == [query]
    assert "//open_auctions//bidder" in saved["view_cardinalities"]
    outputs = []
    for _ in range(2):
        assert main([
            "advise", str(xml_file), "--from-log", str(log_path),
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert "4 recorded outcome(s)" in outputs[0]
    assert "adopt:" in outputs[0]
    assert outputs[0] == outputs[1]
