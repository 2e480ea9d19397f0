"""The shared benchmark harness: env knobs, metadata and report I/O."""

import json

import pytest

import harness

META_KEYS = {
    "schema", "benchmark", "git_sha", "git_dirty", "timestamp",
    "python", "numpy", "platform", "cpu_count", "available_cpus",
    "cpu_model",
}


def test_selected_scales_accepts_multipliers_and_labels(monkeypatch):
    scales = {"1x": 1, "10x": 10, "100x": 100}
    monkeypatch.setenv("REPRO_BENCH_SCALES", "1,10x")
    assert harness.selected_scales(scales) == {"1x": 1, "10x": 10}
    monkeypatch.delenv("REPRO_BENCH_SCALES")
    assert harness.selected_scales(scales) == scales


def test_selected_scales_rejects_unknown_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALES", "7")
    with pytest.raises(SystemExit, match="matches no known scale"):
        harness.selected_scales({"1x": 1, "10x": 10})


def test_env_int_default_when_unset(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_HARNESS_TEST", raising=False)
    assert harness.env_int("REPRO_BENCH_HARNESS_TEST", 24) == 24
    monkeypatch.setenv("REPRO_BENCH_HARNESS_TEST", " 8 ")
    assert harness.env_int("REPRO_BENCH_HARNESS_TEST", 24) == 8


def test_meta_holds_every_key():
    meta = harness.meta("demo")
    assert set(meta) == META_KEYS
    assert meta["schema"] == harness.SCHEMA == 2
    assert meta["benchmark"] == "demo"
    assert meta["timestamp"].endswith("+00:00")
    assert meta["available_cpus"] >= 1


def test_best_of_returns_minimum_and_last_result():
    calls = []
    elapsed, result = harness.best_of(lambda: calls.append(1) or len(calls))
    assert result == 3 and len(calls) == 3
    assert 0.0 <= elapsed < 1.0


def test_main_writes_round_tripping_report_and_one_history_line(
    tmp_path, capsys
):
    history = tmp_path / "history.jsonl"
    report = harness.main(
        "demo",
        lambda: {"seed": 42, "speedup": 1.5, "nested": {"ok": True}},
        lambda r: [f"speedup {r['speedup']}x"],
        report_dir=tmp_path,
        history_path=history,
    )
    on_disk = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert on_disk == report
    assert set(report["meta"]) == META_KEYS
    assert report["nested"] == {"ok": True}
    lines = history.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == report
    assert "speedup 1.5x" in capsys.readouterr().out
